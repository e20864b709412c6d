"""The CLI's JSON writer against json.dumps of the sanitized payload.

cli._render_json walks the payload once; tests/oracles.py keeps the
json.dumps form it replaced. Both must give the same text, byte for byte,
and refuse the same leaves with TypeError.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import render_json_reference
from udnet.cli import RunConfig, _render_json

_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_STRINGS = st.one_of(
    st.text(),
    st.text(st.characters(codec=None, exclude_categories=())),  # lone surrogates too
    st.sampled_from(["", "\x00\x1f\x7f", 'quote " and \\ backslash', "tab\tnewline\n", "π ≈ 3", "\U0001f600"]),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308]),
    _STRINGS,
)
_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, kids, max_size=4),
    ),
    max_leaves=30,
)
# the conftest fixture only swaps the kernel plan cache, which no example reads
_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _config(parameters: dict) -> RunConfig:
    return RunConfig("kernel", {"seed": 7, **parameters}, "json", None)


@_SETTINGS
@given(st.dictionaries(_STRINGS, _VALUES, max_size=6), st.lists(_VALUES, max_size=4))
def test_render_json_matches_json_dumps_of_the_sanitized_payload(parameters, records):
    cfg = _config(parameters)
    want = render_json_reference({"config": cfg.as_dict(), "results": records})
    assert _render_json(cfg, records) == want


@pytest.mark.parametrize("leaf", [np.True_, np.False_, np.array([1.0]), np.zeros(0), 1j, object()],
                         ids=["np-true", "np-false", "array", "empty-array", "complex", "object"])
@pytest.mark.parametrize("where", ["config", "record", "nested"])
def test_render_json_refuses_what_json_dumps_refuses(leaf, where):
    parameters, records = {"x": 1.0}, [{"value": 2.0}]
    if where == "config":
        parameters["bad"] = leaf
    elif where == "record":
        records[0]["bad"] = leaf
    else:
        records.append({"rows": [[1, (2.5, {"bad": leaf})]]})
    cfg = _config(parameters)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        render_json_reference({"config": cfg.as_dict(), "results": records})
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _render_json(cfg, records)
