"""Proximal preconditioned spectral gradient methods.

A library plus CLI for composite minimization with a nonlinearly
preconditioned forward step and an anisotropic proximal backward step over
convex and nonconvex constraint sets, including their spectral (singular
value) lifts, with Polyak and recursive momentum in the stochastic setting.
"""

from .direction import DirectionState, initial_state, polyak_update, schedule, storm_update
from .errors import (
    BoundaryError,
    ConfigError,
    ConformabilityError,
    InvalidConfigError,
    InvalidInputError,
    InvalidSpecError,
    NumericalError,
    SpecproxError,
)
from .harness import (
    ExperimentConfig,
    RateEstimate,
    estimate_rate,
    execute,
    load_config,
    parse_config,
    rate_sweep,
    run_experiment,
    serialize_config,
)
from .optimizer import (
    Deterministic,
    PolarExpressMode,
    RunConfig,
    StochasticPolyak,
    StochasticStorm,
    Trace,
    TraceRecord,
    polar_express_step,
    run,
    step,
)
from .polar import (
    DEFAULT_SCHEDULE,
    FitReport,
    PolySchedule,
    apply_poly_matrix,
    apply_poly_scalar,
    fit_report,
    load_schedule,
)
from .problems import (
    GradientOracle,
    LogisticProblem,
    MatrixQuadraticProblem,
    NoiseModel,
    QuadraticProblem,
    make_logistic,
    make_matrix_quadratic,
    make_quadratic,
    sample_gradient,
)
from .prox import (
    ConstraintSpec,
    FrobeniusBall,
    HardThreshold,
    L2Ball,
    LinfBall,
    LinfSphere,
    RankLimit,
    SignSet,
    SpectralBall,
    SpectralSphere,
    Stiefel,
    Zero,
    feasibility_error,
    feasible_start,
    prox,
    prox_matrix,
    prox_vector,
    recover_subgradient,
)
from .reference import (
    Barrier,
    BlockRef,
    HyperKappa,
    ReferenceFn,
    Structure,
    bregman_dual,
    grad_phi,
    phi,
    phi_star,
    precondition,
)
from .stationarity import (
    GapReport,
    aniso_moreau_env,
    certify_aniso_constant,
    check_aniso_descent,
    gap_bregman,
    gap_report,
    regularized_gap,
)
from .tensor import (
    ParamVec,
    SvdResult,
    axpy,
    blockwise_frobenius,
    dot,
    full_svd,
    norm2,
    singular_values_batch,
    zeros,
)

__version__ = "0.1.0"
