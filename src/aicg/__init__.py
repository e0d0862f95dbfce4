"""Generalized AIC bias corrections and model selection for trinomial models
whose parameter spaces carry boundaries and singularities."""

# before the imports: selection reads it while this package is still loading
__version__ = "0.1.0"

from .estimators import (
    EstimatorRule,
    bias_on_cone,
    calibrate_radii,
    least_favorable,
    noncentral_radius_cdf,
    singularity_bias,
)
from .geometry import (
    DomainError,
    alpha_from_phi0,
    mu0y,
    phi_from_mu0y,
    theta_on_line,
)
from .models import (
    ModelSpec,
    mle_rows,
    parse_model_id,
    polytomy_model,
    t1_model,
    t3_model,
    unconstrained_model,
    validate_halflines,
)
from .montecarlo import (
    curve_grid,
    mc_target_trinomial,
)
from .quadrature import (
    bias_t3_batch,
)
from .selection import (
    SelectionReport,
    region_grid,
    score,
    score_batch,
    simplex_lattice,
)
from .special import (
    erf,
    norm_cdf,
)
