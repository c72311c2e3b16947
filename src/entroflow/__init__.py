"""Entropy decay rates and eigenvalue criteria for weighted diffusions on 1D/radial grids.

Every public name is exported here, but lazily (PEP 562): ``import entroflow``
loads no submodule, and the first access to a name imports the one submodule
that defines it.  So a process loads only the code it uses; a CLI command
imports what it runs and no more (see ``cli``).
"""

import importlib
import os
import sys

# Every LAPACK routine used here is serial, and an idle OpenBLAS worker pool only
# spins; one thread, unless the caller chose a count or numpy is already loaded.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# each public name, keyed by the submodule that defines it
_EXPORTS = {
    "errors": (
        "ConfigError", "DegenerateDomain", "DomainError", "EntroflowError",
        "FloorViolation", "LinearSolveFailure", "MassNotNormalized", "NegativeDensity",
        "NewtonDiverged", "NonFiniteWeight", "NonPositiveData", "NonpositiveLambda",
        "OutsideEllipse", "ParameterError", "QOutOfRange", "SolverDiverged",
        "TailMassTooLarge", "WindowTooShort",
    ),
    "potential": (
        "Potential", "evaluate", "example1_epsilon_bound", "flat", "harmonic",
        "harmonic_log", "potential_from_spec", "power_law", "tabulated", "tail_mass",
    ),
    "grid": (
        "Grid", "delta_g", "dirichlet_form", "gradient_sq", "inner_dgamma",
        "integrate_dgamma", "make_interval_grid", "make_radial_grid", "norm_dgamma",
        "sphere_area",
    ),
    "functionals": (
        "DEFAULT_FLOOR", "LinearParams", "PmeParams", "entropy", "fisher", "second_order",
    ),
    "spectrum": ("SpectralResult", "epsilon_star", "lambda1_linear", "lambda1_pme"),
    "flows": ("FlowConfig", "Trace", "initial_field", "run_linear", "run_pme"),
    "criteria": (
        "LemmaCheck", "PmeConstants", "RegionReport", "constants_chain",
        "constants_report", "discriminant", "ellipse_margin", "envelope_exponential",
        "envelope_pme", "lemma_functional_check", "region_report", "theta_from_p",
    ),
    "verify": (
        "Verdict", "check_envelope", "dissipation_audit", "fit_exponential_rate",
        "lemma_audit", "poincare_test", "refined_inequality_audit", "run_checks",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    """The public names and the module's dunders, not the names its own code
    imports."""
    return sorted({*__all__, *(n for n in globals() if n.startswith("__") and n.endswith("__"))})
