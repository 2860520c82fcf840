"""Norming constants on the cube and Remez-type bound auditing."""

__version__ = "0.1.0"

from .spaces import (  # noqa: F401
    IDENTITY,
    MarkovConstant,
    ModulusOfContinuity,
    SpaceDescriptor,
    markov_constant,
    power_modulus,
    space_from_json,
)
from .norming import (  # noqa: F401
    NormingReport,
    NotNormingError,
    PointSet,
    certified_supnorm,
    cramer_bound,
    fekete_select,
    interpolation_determinant,
    interpolation_matrix,
    lagrange_basis,
    lebesgue_constant,
    norming_constant,
    sandwich_check,
)
from .entropy import (  # noqa: F401
    SpanProfile,
    covering_number,
    metric_span,
    min_gap,
    universal_polynomial,
)
from .bounds import (  # noqa: F401
    BoundResult,
    analytic_bound,
    audit,
    bg_bound,
    bg_upper_envelope,
    chebyshev,
    cor22_bound,
    curve_bound,
    e_function,
    nested_bound,
    rd_span_bound,
    remez_bound,
)
from .fewnomial import (  # noqa: F401
    ConvexBody,
    ExpPoly,
    LogBody,
    cor31_bound,
    discrete_fewnomial_bound,
    en_map,
    estimate_c,
    fewnomial_bound,
    geodesic_point,
    kd_constant,
    log_map,
    nested_fewnomial_bound,
    rectangle_fewnomial_bound,
    tn_bound_1d,
    tn_bound_multi,
)
from .stability import (  # noqa: F401
    LipschitzReport,
    hausdorff_distance,
    lipschitz_audit,
    perturbation_experiment,
    stability_ball,
)
