"""Weighted Bergman kernels and Green's functions on planar model domains.

The package computes truncated weighted Bergman kernels by Gram-matrix
orthonormalization, closed-form and finite-difference Green's functions
(including the weighted operator d/d(conj z) (1/rho) d/dz), and verifies the
identity connecting the two:

    K(z, w) = -2 / (pi rho(z) rho(w)) * d^2 G_rho(z, w) / dz d(conj w).
"""

import importlib

from .bergman import (
    ExtremalFunction,
    KernelApproximation,
    LaurentBasis,
    MonomialBasis,
    extremal_function,
    gram_matrix,
    kernel_from_gram,
    reproducing_residual,
    skwarczynski_distance,
)
from .errors import (
    BergreenError,
    ConfigError,
    DegenerateKernelError,
    DiagonalSingularityError,
    GaugeInfeasibleError,
    IllConditionedGramError,
    NumericError,
    ParameterError,
    SolverError,
    StencilError,
    StudyInsufficientError,
    UnsupportedDomainError,
    WeightError,
)
from .geometry import (
    Annulus,
    Disk,
    Domain,
    Exhaustion,
    MoebiusDisk,
    MoebiusMap,
    QuadratureRule,
    Rectangle,
    UnitDisk,
    build_quadrature,
    exhaustion_sequence,
    integrate,
    make_domain,
)
from .green import (
    DiskGreen,
    GreenFunction,
    TransportedGreen,
    WeightedGreen,
    identity_residual,
    moebius_transport,
    weighted_green,
    wirtinger_mixed,
)
from .harness import ExperimentConfig, VerificationReport, run
from .weights import (
    Gauge,
    GenericC1Weight,
    HoloModulusSquaredWeight,
    LogHarmonicCheck,
    LogHarmonicWeight,
    Weight,
    check_log_harmonic,
    solve_gauge,
    unit_weight,
    weight_from_json,
)

__version__ = "0.1.0"

# The grid solver is imported on the first use of one of its names, so a
# closed-form run never loads it.  It loads no scipy module on import (scipy
# comes only with a sparse LU factorization), but importing it costs about
# 1.1 ms from bytecode and 5.5 ms when the bytecode is not cached, as under
# PYTHONDONTWRITEBYTECODE=1 (python -X importtime).
_PDEGREEN_NAMES = frozenset({
    "DiscreteGreen", "DiscreteOperator", "GridSpec", "discretize", "grid_pairs", "mid_mask",
    "rectangle_green_series", "reference_error", "solve_green", "solve_mixed",
})


def __getattr__(name):
    if name == "pdegreen" or name in _PDEGREEN_NAMES:
        # import_module, not "from . import": the latter looks the name up on
        # this package first, which would come back here
        pdegreen = importlib.import_module(".pdegreen", __name__)
        return pdegreen if name == "pdegreen" else getattr(pdegreen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
