"""Generalized AIC bias corrections and model selection for trinomial models
whose parameter spaces carry boundaries and singularities."""

from .closedform import (
    BiasEstimate,
    bias_aic,
    bias_constant,
    bias_halflines_at_singularity,
    bias_t1,
    erf,
    norm_cdf,
    singularity_bias,
)
from .estimators import (
    EstimatorRule,
    bootstrap_bias,
    crude_bounds,
    least_favorable,
    minimax_radius,
    neighborhood_rule,
    noncentral_radius_cdf,
    plugin_bias,
    uo_radius,
)
from .geometry import (
    CENTROID,
    Counts,
    DomainError,
    GeometryParams,
    SimplexPoint,
    TransformedPoint,
    angles_from_phi0,
    mu0y,
    phi_from_mu0y,
    phi_from_p1,
    theta_on_line,
)
from .models import (
    Cone,
    MLEResult,
    ModelSpec,
    cone_of,
    mle_rows,
    mle_simplex,
    neg2loglik_at,
    polytomy_model,
    project_transformed,
    t1_model,
    t3_model,
    unconstrained_model,
    validate_halflines,
)
from .montecarlo import (
    CurvePoint,
    McSettings,
    curve_grid,
    mc_bias_gaussian,
    mc_expected_estimator,
    mc_expected_estimators,
    mc_target_trinomial,
)
from .quadrature import (
    ConvergenceError,
    QuadratureSettings,
    bias_t3,
    bias_t3_batch,
)
from .selection import (
    RegionGrid,
    SelectionReport,
    akaike_weights,
    parse_model_id,
    region_grid,
    score,
    score_batch,
    simplex_lattice,
)

__version__ = "0.1.0"
