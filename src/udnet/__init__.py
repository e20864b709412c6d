"""Numerical laboratory for heat-kernel nets on PU(d).

Submodules: lie_core (group data, torus points), weights_chars (projective
weights and characters), kernels (character and lattice kernel forms),
bounds (closed-form sufficiency bounds), montecarlo (sampling estimators
and torus quadrature), design_tester (design delta from irreducible
blocks, net probe), cli (command-line entry point).
"""

from __future__ import annotations

from .bounds import (
    BoundReport,
    application1_ell,
    bound_I0,
    bound_L1_trimmed,
    bound_L2,
    bound_L2_simple,
    bound_R,
    bound_outside_ball,
    bound_trim,
    eta_min,
    ratio_R_over_I0_ok,
    sigma_star,
    t_star,
    theorem1_t_min,
    theorem2_delta_max,
    volume_lower_bound,
)
from .cli import RunConfig, main
from .design_tester import (
    BLOCK_BUDGET,
    NetProbeReport,
    ResourceLimitError,
    WeightedGateSet,
    design_deltas,
    gate_set_from_json,
    net_probe,
)
from .kernels import (
    EvalResult,
    KernelParams,
    NumericalInstabilityError,
    TruncationError,
    heat_pu_char,
    heat_pu_char_batch,
    heat_pu_poisson,
    heat_pu_poisson_batch,
    l2_norm_trimmed,
    l2_norm_untrimmed,
    trimming_error,
)
from .lie_core import (
    GroupConstants,
    InvalidDimensionError,
    InvalidParameterError,
    TorusPoint,
    eps_tilde,
    group_constants,
    log_prefactor,
)
from .montecarlo import (
    McEstimate,
    RngStream,
    gue_opnorm_cdf,
    gue_tail_mc,
    numeric_I0,
    torus_grid,
)
from .weights_chars import (
    HighestWeight,
    enumerate_projective_weights,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_BUDGET",
    "BoundReport",
    "EvalResult",
    "GroupConstants",
    "HighestWeight",
    "InvalidDimensionError",
    "InvalidParameterError",
    "KernelParams",
    "McEstimate",
    "NetProbeReport",
    "NumericalInstabilityError",
    "ResourceLimitError",
    "RngStream",
    "RunConfig",
    "TorusPoint",
    "TruncationError",
    "WeightedGateSet",
    "application1_ell",
    "bound_I0",
    "bound_L1_trimmed",
    "bound_L2",
    "bound_L2_simple",
    "bound_R",
    "bound_outside_ball",
    "bound_trim",
    "design_deltas",
    "enumerate_projective_weights",
    "eps_tilde",
    "eta_min",
    "gate_set_from_json",
    "group_constants",
    "gue_opnorm_cdf",
    "gue_tail_mc",
    "heat_pu_char",
    "heat_pu_char_batch",
    "heat_pu_poisson",
    "heat_pu_poisson_batch",
    "l2_norm_trimmed",
    "l2_norm_untrimmed",
    "log_prefactor",
    "main",
    "net_probe",
    "numeric_I0",
    "ratio_R_over_I0_ok",
    "sigma_star",
    "t_star",
    "theorem1_t_min",
    "theorem2_delta_max",
    "torus_grid",
    "trimming_error",
    "volume_lower_bound",
]
