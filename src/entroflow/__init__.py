"""Entropy decay rates and eigenvalue criteria for weighted diffusions on 1D/radial grids."""

import os
import sys

# Every LAPACK routine used here is serial, and an idle OpenBLAS worker pool only
# spins; one thread, unless the caller chose a count or numpy is already loaded.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    ConfigError,
    DegenerateDomain,
    DomainError,
    EntroflowError,
    FloorViolation,
    LinearSolveFailure,
    MassNotNormalized,
    NegativeDensity,
    NewtonDiverged,
    NonFiniteWeight,
    NonPositiveData,
    NonpositiveLambda,
    OutsideEllipse,
    ParameterError,
    QOutOfRange,
    SolverDiverged,
    TailMassTooLarge,
    WindowTooShort,
)
from .potential import (
    Potential,
    evaluate,
    example1_epsilon_bound,
    flat,
    harmonic,
    harmonic_log,
    hessian_infimum_V,
    potential_from_spec,
    power_law,
    tabulated,
    tail_mass,
)
from .grid import (
    Grid,
    delta_g,
    dirichlet_form,
    gradient_sq,
    inner_dgamma,
    integrate_dgamma,
    make_interval_grid,
    make_radial_grid,
    norm_dgamma,
    sphere_area,
)
from .functionals import (
    DEFAULT_FLOOR,
    LinearParams,
    PmeParams,
    entropy_linear,
    entropy_pme,
    fisher_linear,
    fisher_pme,
    k_linear,
    k_pme,
)
from .spectrum import (
    SpectralResult,
    epsilon_star,
    lambda1_linear,
    lambda1_pme,
)
from .flows import FlowConfig, Trace, initial_field, run_linear, run_pme
from .criteria import (
    LemmaCheck,
    PmeConstants,
    RegionReport,
    constants_chain,
    constants_report,
    discriminant,
    ellipse_margin,
    envelope_exponential,
    envelope_pme,
    lemma_functional_check,
    region_report,
    theta_from_p,
)
from .verify import (
    Verdict,
    check_envelope,
    dissipation_audit,
    fit_exponential_rate,
    lemma_audit,
    poincare_test,
    refined_inequality_audit,
    run_checks,
)

__version__ = "0.1.0"
