"""heislab: numerical laboratory for calculus and capacity estimates on
the Heisenberg group, with a finite-difference solver for two
Sobolev-type evolution equations."""

__version__ = "0.1.0"

import os as _os

# numpy.f2py, loaded with scipy, parses SOURCE_DATE_EPOCH on import and raises on a
# malformed value; hide it meanwhile so that report_timestamp rejects it (exit 2)
_epoch = _os.environ.pop("SOURCE_DATE_EPOCH", None)
import scipy.integrate, scipy.sparse.linalg  # noqa: E401, E402, F401
if _epoch is not None:
    _os.environ["SOURCE_DATE_EPOCH"] = _epoch

from .capacity import (  # noqa: F401
    CapacityReport,
    Exponents,
    QuadratureEstimate,
    ScalingFit,
    Verdict,
    capacity_bound,
    critical_exponent,
    mc_spatial_integral,
    scaling_fit,
    spatial_integral_critical,
    spatial_integral_subcritical,
    sphere_weight_constant,
    time_integral,
    time_integral_constant,
    verdict,
    young_constant,
)
from .cutoffs import (  # noqa: F401
    CutoffSpec,
    GaugeBump,
    ProductTestFunction,
    TemporalFactor,
    cutoff_eval,
    temporal_eval,
)
from .errors import (  # noqa: F401
    DimensionMismatch,
    DomainError,
    HeislabError,
    OperatorError,
    ParameterError,
    SolverFailure,
)
from .group import (  # noqa: F401
    GroupParams,
    GroupPoint,
    PolyField,
    RadialProfile,
    SmoothField,
    anisotropy_weight,
    compose,
    dilate,
    gauge_norm,
    horizontal_derivative,
    inverse,
    origin,
    point,
    sublaplacian,
    sublaplacian_radial,
)
from .mc import MCConfig, MCEstimate, mc_integrate  # noqa: F401
from .simulate import (  # noqa: F401
    BumpSpec,
    GridConfig,
    SimConfig,
    SimTrace,
    assemble_sublaplacian,
    build_grid,
    run,
    solve_linear,
    step_hyperbolic,
    step_parabolic,
)
from .weak_form import (  # noqa: F401
    CandidateSolution,
    ResidualReport,
    WeakFormConfig,
    pair_defect,
    selfadjointness_residual,
    weak_residual,
)
