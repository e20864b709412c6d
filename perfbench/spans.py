"""Layer spans recorded from outside udnet.

The tracer replaces functions that one udnet module calls from another, in
the namespace of the calling module, with timing wrappers. Nothing under
``src/`` changes. Spans nest on one stack, so the run must be single-threaded
(``--threads 1``); a span's self time is its duration minus the durations of
the spans it directly contains.

``lie_core`` has no boundary worth wrapping: its helpers are microsecond
calls made from every other module, and their cost shows in the callers'
self time.
"""

from __future__ import annotations

import functools
import types
from collections import defaultdict
from time import perf_counter

import udnet.bounds
import udnet.cli
import udnet.design_tester
import udnet.kernels
import udnet.montecarlo

_COMPLEX_BYTES = 16


class _Frame:
    __slots__ = ("child_s", "weights")

    def __init__(self):
        self.child_s = 0.0
        self.weights = 0


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total_s, self_s
        self.counts = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, after=None):
        stack = self._stack
        stat = self.spans[name]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame.child_s
            if after is not None:
                after(frame, args, result)
            return result

        return span

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` in place; a missing attribute is recorded as absent."""
        label = f"{owner.__name__}.{attr}"
        if not hasattr(owner, attr):
            self.absent.append(label)
            return
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def install(self) -> None:
        cli, kernels, mc, dt = udnet.cli, udnet.kernels, udnet.montecarlo, udnet.design_tester
        counts = self.counts
        stack = self._stack

        def enumerated(frame, args, result):
            counts["enumerate.weights"] += len(result)
            for outer in stack:
                outer.weights += len(result)

        def char_batch(frame, args, result):
            nw, npts = result.shape
            counts["char_batch.weight_points"] += nw * npts
            counts["char_batch.computed_bytes"] += nw * npts * _COMPLEX_BYTES

        def point_char(frame, args, result):
            counts["char.terms"] += result.terms_used
            counts["char.weights"] += frame.weights

        def batch_char(frame, args, result):
            counts["char.terms"] += result[2]
            counts["char.weights"] += frame.weights

        def lattice(frame, args, result):
            counts["poisson.lattice_terms"] += result.terms_used

        def haar(frame, args, result):
            counts["haar.samples"] += result.shape[0]

        def eigphases(frame, args, result):
            counts["eigphases.samples"] += result.shape[0]

        def estimator(frame, args, result):
            counts["estimators.samples"] += result.n

        def moment(frame, args, result):
            counts["moment_dim_max"] = max(counts["moment_dim_max"], result.matrix.shape[0])

        self.patch(kernels, "_projective_tuples", "weights_chars.enumerate", enumerated)
        self.patch(kernels, "_su_label_tuples", "weights_chars.enumerate", enumerated)
        self.patch(cli, "enumerate_projective_weights", "weights_chars.enumerate", enumerated)
        self.patch(kernels, "_char_batch", "weights_chars.char_batch", char_batch)
        self.patch(cli, "character", "weights_chars.character")
        self.patch(cli, "heat_pu_char", "kernels.heat_pu_char", point_char)
        self.patch(mc, "heat_pu_char_batch", "kernels.heat_pu_char_batch", batch_char)
        self.patch(cli, "heat_pu_poisson", "kernels.heat_pu_poisson", lattice)
        for attr in ("trimming_error", "l2_norm_trimmed", "l2_norm_untrimmed"):
            self.patch(cli, attr, "kernels.plancherel")
        self.patch(mc, "_haar_su", "montecarlo.haar", haar)
        self.patch(mc, "_eigenphase_rows", "montecarlo.eigphases", eigphases)
        for attr in ("mc_outside_ball", "mc_normalization", "gue_tail_mc"):
            self.patch(cli, attr, "montecarlo.estimators", estimator)
        self.patch(dt, "measure_moment", "design_tester.measure_moment", moment)
        self.patch(dt, "haar_moment_projector", "design_tester.projector")
        self.patch(dt, "_spectral_norm", "design_tester.spectral_norm")
        self.patch(cli, "delta_design", "design_tester.delta_design")
        self._patch_bounds()

    def _patch_bounds(self) -> None:
        """Give cli a stand-in ``bounds`` module whose public functions are spans.

        Calls inside ``udnet.bounds`` keep the originals, so nested bounds
        calls are not counted twice.
        """
        real = udnet.bounds
        proxy = types.ModuleType(real.__name__)
        proxy.__dict__.update(real.__dict__)
        for attr in real.__all__:
            fn = getattr(real, attr, None)
            if isinstance(fn, types.FunctionType):
                setattr(proxy, attr, self.wrap("bounds", fn))
        self._undo.append((udnet.cli, "bounds", real))
        udnet.cli.bounds = proxy

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# Per-layer metric names, in report order, with units. Values are per pass.
PER_LAYER = {
    "weights_chars.enumerate.calls": "count",
    "weights_chars.enumerate.weights": "count",
    "weights_chars.enumerate.self_s": "s",
    "weights_chars.enumerate.us_per_weight": "us",
    "weights_chars.char_batch.calls": "count",
    "weights_chars.char_batch.weight_points": "count",
    "weights_chars.char_batch.self_s": "s",
    "weights_chars.char_batch.ns_per_weight_point": "ns",
    "weights_chars.char_batch.computed_mb": "MB",
    "weights_chars.character.calls": "count",
    "weights_chars.character.self_s": "s",
    "kernels.heat_pu_char.calls": "count",
    "kernels.heat_pu_char.total_s": "s",
    "kernels.heat_pu_char.self_s": "s",
    "kernels.heat_pu_char_batch.calls": "count",
    "kernels.heat_pu_char_batch.total_s": "s",
    "kernels.heat_pu_char_batch.self_s": "s",
    "kernels.heat_pu_poisson.calls": "count",
    "kernels.heat_pu_poisson.total_s": "s",
    "kernels.heat_pu_poisson.self_s": "s",
    "kernels.heat_pu_poisson.lattice_terms": "count",
    "kernels.plancherel.calls": "count",
    "kernels.plancherel.total_s": "s",
    "kernels.plancherel.self_s": "s",
    "kernels.terms_kept_ratio": "ratio",
    "montecarlo.haar.samples": "count",
    "montecarlo.haar.self_s": "s",
    "montecarlo.haar.us_per_sample": "us",
    "montecarlo.eigphases.samples": "count",
    "montecarlo.eigphases.self_s": "s",
    "montecarlo.eigphases.us_per_sample": "us",
    "montecarlo.estimators.samples": "count",
    "montecarlo.estimators.self_s": "s",
    "montecarlo.estimators.us_per_sample": "us",
    "design_tester.measure_moment.calls": "count",
    "design_tester.measure_moment.total_s": "s",
    "design_tester.measure_moment.self_s": "s",
    "design_tester.projector.calls": "count",
    "design_tester.projector.total_s": "s",
    "design_tester.projector.self_s": "s",
    "design_tester.spectral_norm.calls": "count",
    "design_tester.spectral_norm.total_s": "s",
    "design_tester.spectral_norm.self_s": "s",
    "design_tester.delta_design.calls": "count",
    "design_tester.delta_design.total_s": "s",
    "design_tester.delta_design.self_s": "s",
    "design_tester.moment_dim_max": "count",
    "bounds.calls": "count",
    "bounds.total_s": "s",
    "cli.main.self_s": "s",
    "cli.validate.retries": "count",
    "cli.validate.rows_failed": "count",
    "cli.validate.rows_skipped": "count",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_frac": "ratio",
    "trace.absent": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_values(tr: Tracer, passes: int, extra: dict) -> dict:
    """Per-pass layer metrics; ``extra`` supplies the cli.validate.* counts and trace.*."""
    out = {}
    for name, (calls, total, self_s) in tr.spans.items():
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.total_s"] = total / passes
        out[f"{name}.self_s"] = self_s / passes
    c = tr.counts
    span = tr.spans
    out["weights_chars.enumerate.weights"] = c["enumerate.weights"] / passes
    out["weights_chars.enumerate.us_per_weight"] = 1e6 * _ratio(
        span["weights_chars.enumerate"][2], c["enumerate.weights"]
    )
    out["weights_chars.char_batch.weight_points"] = c["char_batch.weight_points"] / passes
    out["weights_chars.char_batch.ns_per_weight_point"] = 1e9 * _ratio(
        span["weights_chars.char_batch"][2], c["char_batch.weight_points"]
    )
    out["weights_chars.char_batch.computed_mb"] = c["char_batch.computed_bytes"] / 1e6 / passes
    out["kernels.heat_pu_poisson.lattice_terms"] = c["poisson.lattice_terms"] / passes
    out["kernels.terms_kept_ratio"] = _ratio(c["char.terms"], c["char.weights"])
    for layer in ("haar", "eigphases", "estimators"):
        samples = c[f"{layer}.samples"]
        out[f"montecarlo.{layer}.samples"] = samples / passes
        out[f"montecarlo.{layer}.us_per_sample"] = 1e6 * _ratio(
            span[f"montecarlo.{layer}"][2], samples
        )
    out["design_tester.moment_dim_max"] = c["moment_dim_max"]
    out["bounds.calls"] = span["bounds"][0] / passes
    out["bounds.total_s"] = span["bounds"][1] / passes
    out["trace.absent"] = len(tr.absent)
    out.update(extra)
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER}
