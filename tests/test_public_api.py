"""The public API: the names ``import entroflow`` exports, and every module's
``__all__``.  A name added to or removed from the package shows up as a line
changed here, and a stale ``__all__`` entry fails."""

import importlib
import inspect
import pkgutil
import types

import pytest

import entroflow

PUBLIC_NAMES = [
    "ConfigError",
    "DEFAULT_FLOOR",
    "DegenerateDomain",
    "DomainError",
    "EntroflowError",
    "FloorViolation",
    "FlowConfig",
    "Grid",
    "LemmaCheck",
    "LinearParams",
    "LinearSolveFailure",
    "MassNotNormalized",
    "NegativeDensity",
    "NewtonDiverged",
    "NonFiniteWeight",
    "NonPositiveData",
    "NonpositiveLambda",
    "OutsideEllipse",
    "ParameterError",
    "PmeConstants",
    "PmeParams",
    "Potential",
    "QOutOfRange",
    "RegionReport",
    "SolverDiverged",
    "SpectralResult",
    "TailMassTooLarge",
    "Trace",
    "Verdict",
    "WindowTooShort",
    "check_envelope",
    "constants_chain",
    "constants_report",
    "delta_g",
    "dirichlet_form",
    "discriminant",
    "dissipation_audit",
    "ellipse_margin",
    "entropy",
    "envelope_exponential",
    "envelope_pme",
    "epsilon_star",
    "evaluate",
    "example1_epsilon_bound",
    "fisher",
    "fit_exponential_rate",
    "flat",
    "gradient_sq",
    "harmonic",
    "harmonic_log",
    "initial_field",
    "inner_dgamma",
    "integrate_dgamma",
    "lambda1_linear",
    "lambda1_pme",
    "lemma_audit",
    "lemma_functional_check",
    "make_interval_grid",
    "make_radial_grid",
    "norm_dgamma",
    "poincare_test",
    "potential_from_spec",
    "power_law",
    "refined_inequality_audit",
    "region_report",
    "run_checks",
    "run_linear",
    "run_pme",
    "second_order",
    "sphere_area",
    "tabulated",
    "tail_mass",
    "theta_from_p",
]

MODULES = sorted(m.name for m in pkgutil.iter_modules(entroflow.__path__))


def test_package_exports_are_pinned():
    # the names are exported lazily: each resolves on its first access
    assert sorted(entroflow.__all__) == PUBLIC_NAMES
    assert [n for n in PUBLIC_NAMES if getattr(entroflow, n, None) is None] == []
    assert set(PUBLIC_NAMES) <= set(dir(entroflow))
    star = {}
    exec("from entroflow import *", star)
    assert sorted(set(star) - {"__builtins__"}) == PUBLIC_NAMES
    # once resolved they are the package's only public attributes; submodules
    # are attributes too once imported, so they are left out
    names = sorted(
        name for name, value in vars(entroflow).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_dir_lists_the_public_names_and_dunders_only():
    # the package's own imports (importlib, os, sys) and private tables used
    # to be listed; a submodule, once imported, is not listed either
    importlib.import_module("entroflow.flows")
    listed = dir(entroflow)
    assert [n for n in listed if not n.startswith("_")] == PUBLIC_NAMES
    assert [n for n in listed if n.startswith("_") and not n.endswith("__")] == []
    assert {"__all__", "__doc__", "__name__", "__version__"} <= set(listed)


def test_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        entroflow.no_such_name  # noqa: B018
    assert not hasattr(entroflow, "no_such_name")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"entroflow.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("fn", [
    entroflow.lambda1_linear, entroflow.lambda1_pme, entroflow.epsilon_star,
    entroflow.run_linear, entroflow.run_pme,
], ids=lambda fn: fn.__name__)
def test_solves_and_runs_take_the_grid_alone(fn):
    # the grid carries its potential: a second copy could disagree with it
    params = list(inspect.signature(fn).parameters)
    assert params[-1] == "grid"
    assert not {"pot", "potential"} & set(params)


@pytest.mark.parametrize("fn, names", [
    (entroflow.potential_from_spec, ["spec", "d"]),
    (entroflow.make_interval_grid, ["xL", "xR", "n", "pot"]),
    (entroflow.make_radial_grid, ["d", "R", "n", "pot"]),
], ids=["potential_from_spec", "make_interval_grid", "make_radial_grid"])
def test_positional_signatures_the_benchmark_calls(fn, names):
    # perfbench/setup_probe.py passes these arguments by position
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    params = inspect.signature(fn).parameters.values()
    assert [p.name for p in params if p.kind in positional] == names
