"""Confinement families: closed-form derivatives and derived potentials."""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import entroflow as ef
from entroflow.errors import DomainError, ParameterError
from entroflow.potential import log_weight


class TestEvaluate:
    def test_harmonic(self):
        F, dF, d2F = ef.evaluate(ef.harmonic(), 2.0)
        assert (F, dF, d2F) == (2.0, 2.0, 1.0)

    def test_power_hand_derivatives(self):
        # F = |x|^1.5 / 1.5 at x = 4: (16/3, 2, 0.25)
        F, dF, d2F = ef.evaluate(ef.power_law(1.5), 4.0)
        assert F == pytest.approx(16.0 / 3.0, rel=1e-15)
        assert dF == pytest.approx(2.0, rel=1e-15)
        assert d2F == pytest.approx(0.25, rel=1e-15)

    def test_power_odd_symmetry(self):
        F1, dF1, d2F1 = ef.evaluate(ef.power_law(1.5), -4.0)
        assert (F1, dF1, d2F1) == pytest.approx((16.0 / 3.0, -2.0, 0.25))

    def test_harmonic_log_hand_derivatives(self):
        F, dF, d2F = ef.evaluate(ef.harmonic_log(0.1, d=3), 1.0)
        assert (F, dF, d2F) == pytest.approx((0.5, 1.1, 0.9))

    def test_singular_at_origin(self):
        for pot in (ef.power_law(1.5), ef.harmonic_log(0.5, d=3)):
            with pytest.raises(DomainError):
                ef.evaluate(pot, 0.0)

    def test_flat(self):
        F, dF, d2F = ef.evaluate(ef.flat(), 0.3)
        assert (F, dF, d2F) == (0.0, 0.0, 0.0)

    def test_family_validation(self):
        with pytest.raises(ParameterError):
            ef.harmonic_log(0.5, d=2)  # needs d >= 3
        with pytest.raises(ParameterError):
            ef.harmonic_log(3.5, d=3)  # eps outside (0, d)
        with pytest.raises(ParameterError):
            ef.power_law(2.5)  # beta outside (1, 2]
        with pytest.raises(ParameterError):
            ef.power_law(1.0)
        with pytest.raises(ParameterError, match="unknown potential family 'weird'"):
            ef.Potential("weird")
        with pytest.raises(ParameterError, match="tabulated potential needs x and F arrays"):
            ef.Potential("tabulated")

    @pytest.mark.parametrize("d", [2.5, 3.0, 0, -1], ids=["2.5", "float-3", "0", "-1"])
    def test_dimension_must_be_an_integer(self, d):
        # a weight r^(d-1) e^(-r^2/2) with d = 2.5 is no d-dimensional Gaussian
        with pytest.raises(ParameterError, match="dimension d must be an integer >= 1"):
            ef.harmonic(d=d)

    def test_tabulated_round_trip(self):
        # a table carries F alone: log_weight reads it back, evaluate refuses
        x = np.linspace(-2, 2, 33)
        pot = ef.tabulated(x, 0.5 * x * x)
        assert log_weight(pot, x).tobytes() == (0.5 * x * x).tobytes()
        with pytest.raises(DomainError):
            log_weight(pot, 0.123456)  # off-node query
        with pytest.raises(ParameterError, match="carries F alone"):
            ef.evaluate(pot, x)

    @pytest.mark.parametrize("column", ["x", "F"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_tabulated_rejects_non_finite_cells(self, column, bad):
        x = np.linspace(-2, 2, 33)
        table = dict(x=x, F=0.5 * x * x)
        table[column] = table[column].copy()
        table[column][5] = bad
        with pytest.raises(ParameterError, match=f"column {column} is not finite at row 5"):
            ef.tabulated(table["x"], table["F"])

    def test_tabulated_columns_must_have_equal_length(self):
        with pytest.raises(ParameterError, match="equal length"):
            ef.tabulated(np.linspace(-2, 2, 33), np.zeros(32))


class TestExample1Bound:
    def test_d3_p2_closed_form(self):
        res = ef.example1_epsilon_bound(3, 2.0)
        assert res.bound == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-12)
        assert res.nu == 1.0 and res.b == 3.0

    def test_d10_p2(self):
        assert ef.example1_epsilon_bound(10, 2.0).bound == pytest.approx(4.0, abs=1e-12)

    def test_asymptotic_order_near_p_one(self):
        for p in (1.001, 1.0001):
            res = ef.example1_epsilon_bound(3, p)
            asym = (3 - 2) ** 2 * (p - 1) / (2 * p)
            assert res.bound / asym == pytest.approx(1.0, abs=2e-3)

    def test_increasing_in_p(self):
        # nu falls with p, so b falls and the bound b - sqrt(b^2 - (d-2)^2) grows
        ps = np.linspace(1.05, 2.0, 25)
        bounds = [ef.example1_epsilon_bound(3, p).bound for p in ps]
        assert np.all(np.diff(bounds) > 0)

    def test_regime_flag(self):
        # nu > d/2 iff p < d/(d-1)
        assert ef.example1_epsilon_bound(3, 1.2).positive_tail_regime
        assert not ef.example1_epsilon_bound(3, 2.0).positive_tail_regime

    @pytest.mark.parametrize("d, p", [(3, 1.7), (4, 1.2), (5, 2.0)])
    def test_order_vanishes_at_bound(self, d, p):
        # sigma^2 = (d-2)^2 - 2 b eps + eps^2 at c = 2(p-1)/p: zero at the bound
        res = ef.example1_epsilon_bound(d, p)
        c = 2.0 * (p - 1.0) / p
        assert res.order(res.bound * (1.0 - 1e-12), c) == pytest.approx(0.0, abs=1e-5)
        half = res.bound / 2
        assert res.order(half, c) ** 2 == pytest.approx(
            (d - 2.0) ** 2 - 2.0 * res.b * half + half ** 2, rel=1e-12)
        with pytest.raises(ParameterError):
            res.order(1.01 * res.bound, c)
        with pytest.raises(ParameterError):
            res.lambda1(1.01 * res.bound, c)

    @pytest.mark.parametrize("d, c, eps", [(3, 1.0, 0.05), (4, 0.5, 0.3), (5, 0.7, 0.5)])
    def test_lambda1_is_the_eigenvalue_of_r_gamma(self, d, c, eps):
        # w = r^gamma solves -c Lw + V w = lambda1 w with V = 1 - eps/r^2 and
        # Lw = w'' + (d-1) w'/r - F' w', F' = r + eps/r
        res = ef.example1_epsilon_bound(d, 2.0)
        lam = res.lambda1(eps, c)
        gamma = (lam - 1.0) / c
        assert gamma >= -(d - 2.0 - eps) / 2.0  # the larger root
        r = np.linspace(0.1, 5.0, 50)
        w, dw, d2w = r**gamma, gamma * r**(gamma - 1), gamma * (gamma - 1) * r**(gamma - 2)
        Lw = d2w + (d - 1) * dw / r - (r + eps / r) * dw
        assert_allclose(-c * Lw + (1.0 - eps / r**2) * w, lam * w, rtol=1e-12)
        assert res.lambda1(0.0, c) == 1.0

    def test_order_needs_a_positive_coefficient(self):
        with pytest.raises(ParameterError):
            ef.example1_epsilon_bound(3, 2.0).order(0.05, 0.0)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            ef.example1_epsilon_bound(2, 1.5)
        with pytest.raises(ParameterError, match="asymptotic"):
            ef.example1_epsilon_bound(3, 1.0)
        with pytest.raises(ParameterError):
            ef.example1_epsilon_bound(3, 2.5)


class TestTailMass:
    def test_gaussian_line(self):
        tm = ef.tail_mass(ef.harmonic(), 8.0)
        assert 0.0 < tm < 1e-10

    def test_radial_harmonic_log(self):
        tm = ef.tail_mass(ef.harmonic_log(0.1, d=3), 12.0)
        assert tm < 1e-10

    def test_power_family(self):
        tm = ef.tail_mass(ef.power_law(1.5), 16.0)
        assert tm < 1e-10

    def test_flat_has_no_tail(self):
        with pytest.raises(DomainError):
            ef.tail_mass(ef.flat(), 1.0)

    # (potential, s, x(R)) for the weight r^{d-1} e^{-F}: Q(s, x) with
    # s = (d - eps)/beta, x = R^beta/beta
    TAIL_CASES = [
        (ef.harmonic(), lambda d: d / 2, lambda R: R * R / 2),
        (ef.power_law(1.5), lambda d: d / 1.5, lambda R: R**1.5 / 1.5),
        (ef.power_law(1.2), lambda d: d / 1.2, lambda R: R**1.2 / 1.2),
        (ef.harmonic_log(0.05, d=3), lambda d: (d - 0.05) / 2, lambda R: R * R / 2),
        (ef.harmonic_log(2.5, d=5), lambda d: (d - 2.5) / 2, lambda R: R * R / 2),
    ]

    @staticmethod
    def _assert_bounds(bound, exact):
        # an upper bound, and a tight one on the tails the grid guard sees
        assert bound >= exact
        if exact < 1e-6:
            assert bound <= 1.05 * exact

    @pytest.mark.parametrize("pot, s, x", TAIL_CASES,
                             ids=["harmonic", "power1.5", "power1.2", "log0.05", "log2.5"])
    def test_bounds_regularized_upper_gamma(self, pot, s, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for d in (3, 5) if pot.family == "harmonic_log" else (1, 2, 3, 5):
                for R in (1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0):
                    ref = mpmath.gammainc(s(d), x(R), regularized=True)
                    self._assert_bounds(ef.tail_mass(replace(pot, d=d), R), ref)

    @pytest.mark.parametrize("pot, d, R", [
        (ef.harmonic(), 5, 8.0),
        (ef.power_law(1.5), 3, 8.0),
        (ef.power_law(1.2), 3, 24.0),
        (ef.harmonic_log(0.05, d=3), 3, 6.0),
        (ef.harmonic_log(2.5, d=3), 3, 6.0),
    ], ids=["harmonic", "power1.5", "power1.2", "log0.05", "log2.5"])
    def test_bounds_direct_quadrature(self, pot, d, R):
        # independent of the gamma-function substitution: integrate the weight itself
        mpmath = pytest.importorskip("mpmath")

        def F(r):
            if pot.family == "power":
                return r ** mpmath.mpf(pot.beta) / mpmath.mpf(pot.beta)
            eps = mpmath.mpf(pot.eps) if pot.family == "harmonic_log" else 0
            return r * r / 2 + eps * mpmath.log(r)

        def w(r):
            return r ** (d - 1) * mpmath.exp(-F(r))

        with mpmath.workdps(30):
            tail = mpmath.quad(w, [R, R + 10, mpmath.inf])
            total = mpmath.quad(w, [0, 1, R, R + 10, mpmath.inf])
            self._assert_bounds(ef.tail_mass(replace(pot, d=d), R), tail / total)

    def test_large_dimension(self):
        # s = d/2 = 1250: the bound holds across the bulk, near x = s, and is
        # tight in the tail (d = 2500, R = 60 leaves about 3e-43); at R = 45,
        # where psi(R) < 0, it is 1
        mpmath = pytest.importorskip("mpmath")

        pot = ef.harmonic(d=2500)
        with mpmath.workdps(40):
            for R in (50.0, 52.0, 55.0, 60.0, 75.0):
                self._assert_bounds(ef.tail_mass(pot, R),
                                    mpmath.gammainc(1250, R * R / 2, regularized=True))
        assert ef.tail_mass(pot, 45.0) == 1.0

    def test_errors(self):
        with pytest.raises(DomainError, match="no analytic tail"):
            ef.tail_mass(ef.tabulated([0.0, 1.0], [0.0, 0.5]), 1.0)
        with pytest.raises(ParameterError):
            ef.tail_mass(ef.harmonic(), 0.0)
        # r^{d-1-eps} is not integrable at r = 0 once eps >= d: no such
        # potential can be built, so tail_mass never sees one
        with pytest.raises(ParameterError, match="eps in"):
            ef.harmonic_log(3.0, d=3)
        with pytest.raises(ParameterError, match="d >= 3"):
            ef.harmonic_log(1.5, d=2)

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
    def test_nonfinite_radius(self, R):
        with pytest.raises(ParameterError, match="finite"):
            ef.tail_mass(ef.harmonic_log(0.05, d=3), R)

    def test_extreme_radii(self):
        # R^beta/beta overflows: nothing of the weight is left beyond R
        assert ef.tail_mass(ef.harmonic_log(0.05, d=3), 1e200) == 0.0
        assert ef.tail_mass(ef.power_law(1.5), 1e300) == 0.0
        # R^beta/beta underflows to 0: all of it is
        assert ef.tail_mass(ef.harmonic(d=3), 1e-200) == 1.0

    def test_guard_decisions_unchanged(self):
        # every tail of the cases above, and of the grid guard test, falls on
        # the same side of the radial grids' 1e-10 tail tolerance as scipy's
        # gammaincc and the 30-digit oracle
        import mpmath
        from scipy.special import gammaincc

        cases = [(pot, d, R, s(d), x(R)) for pot, s, x in self.TAIL_CASES
                 for d in ((3, 5) if pot.family == "harmonic_log" else (1, 2, 3, 5))
                 for R in (1.0, 4.0, 8.0, 16.0)]
        for pot, d, R in [(ef.harmonic(), 1, 8.0), (ef.harmonic_log(0.1, d=3), 3, 12.0),
                          (ef.power_law(1.5), 1, 16.0), (ef.harmonic(), 5, 8.0),
                          (ef.power_law(1.5), 3, 8.0), (ef.power_law(1.2), 3, 24.0),
                          (ef.harmonic_log(0.05, d=3), 3, 6.0), (ef.harmonic(d=3), 3, 2.0)]:
            beta = pot.beta if pot.family == "power" else 2.0
            eps = pot.eps if pot.family == "harmonic_log" else 0.0
            cases.append((pot, d, R, (d - eps) / beta, R**beta / beta))
        with mpmath.workdps(30):
            for pot, d, R, s, x in cases:
                decision = ef.tail_mass(replace(pot, d=d), R) > 1e-10
                assert decision == (gammaincc(s, x) > 1e-10)
                assert decision == (mpmath.gammainc(s, x, regularized=True) > 1e-10)

    def test_package_import_defers_scipy_integrate(self):
        # no module of the package needs scipy.integrate; importing it must not load it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, entroflow; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def test_potential_from_spec_aliases():
    assert ef.potential_from_spec("gaussian").family == "harmonic"
    assert ef.potential_from_spec({"family": "power", "beta": 1.5}).beta == 1.5
    with pytest.raises(ParameterError):
        ef.potential_from_spec({"family": "nope"})


def _table(path, columns=2):
    """A table of x^2/2 with ``columns`` columns: x, F, then F' and F''."""
    x = np.linspace(-3.0, 3.0, 41)
    np.savetxt(path, np.column_stack([x, 0.5 * x * x, x, np.ones_like(x)])[:, :columns],
               delimiter=",")
    return ef.tabulated(x, 0.5 * x * x)


@pytest.mark.parametrize("spec, d, expected", [
    # the --potential spellings
    ("gaussian", 1, ef.harmonic()),
    ("harmonic", 3, ef.harmonic(3)),
    ("flat", 1, ef.flat()),
    ("power:1.5", 1, ef.power_law(1.5)),
    ("harmonic_log:0.05", 3, ef.harmonic_log(0.05, d=3)),
    # the mappings the benchmark's set-up probe passes
    ({"family": "power", "beta": 1.5}, 1, ef.power_law(1.5)),
    ({"family": "harmonic_log", "eps": 0.05}, 3, ef.harmonic_log(0.05, d=3)),
    ({"family": "harmonic_log", "eps": 0.05, "d": 5}, 1, ef.harmonic_log(0.05, d=5)),
], ids=["gaussian", "harmonic-d3", "flat", "power", "harmonic_log", "power-dict",
        "harmonic_log-dict", "dict-d"])
def test_potential_from_spec_matches_the_constructors(spec, d, expected):
    pot = ef.potential_from_spec(spec, d)
    assert (pot.key(), pot.d) == (expected.key(), expected.d)


def test_potential_from_spec_reads_a_table(tmp_path):
    expected = _table(tmp_path / "tab.csv")
    assert ef.potential_from_spec(f"tabulated:{tmp_path / 'tab.csv'}").key() == expected.key()


@pytest.mark.parametrize("spec, message", [
    ("power", "cannot parse potential 'power': could not convert string to float: ''"),
    ({"family": "power"}, "cannot parse potential {'family': 'power'}: no 'beta'"),
    ("harmonic_log:x", "cannot parse potential 'harmonic_log:x'"),
    ({"family": "power", "beta": None}, "cannot parse potential"),
    ("nope:1", "unknown potential 'nope:1'"),
    ("tabulated:{tmp}/3.csv", "tabulated potential file needs exactly two columns x,F; got 3"),
    ("tabulated:{tmp}/4.csv", "tabulated potential file needs exactly two columns x,F; got 4"),
    ("tabulated:{tmp}/1.csv", "tabulated potential file needs exactly two columns x,F; got 1"),
    # int() would truncate to d = 3
    ({"family": "harmonic", "d": 3.7}, "d = 3.7 is not an integer"),
], ids=["power-no-beta", "power-dict-no-beta", "harmonic_log-x", "beta-none", "unknown",
        "three-columns", "four-columns", "one-column", "dict-d-not-integral"])
def test_potential_from_spec_raises_parameter_error(tmp_path, spec, message):
    for columns in (1, 3, 4):
        _table(tmp_path / f"{columns}.csv", columns=columns)
    if isinstance(spec, str):
        spec = spec.format(tmp=tmp_path)
    with pytest.raises(ParameterError) as info:
        ef.potential_from_spec(spec, 3)
    assert message in str(info.value)


def _families():
    """(potential, points off the origin, interval, radius) for every family;
    the tabulated potential is tabulated on the interval grid's nodes."""
    x = np.linspace(-3.0, 3.0, 64)
    wavy = ef.tabulated(x, 0.5 * x * x + 0.3 * np.cos(2 * x))
    return {
        "harmonic": (ef.harmonic(3), np.linspace(-8.0, 8.0, 50), (-8.0, 8.0), 9.0),
        "harmonic_log": (ef.harmonic_log(0.3, d=3), np.linspace(0.01, 12.0, 50), (0.1, 6.0), 9.0),
        "power": (ef.power_law(1.5), np.linspace(-16.0, 16.0, 50), (-16.0, 16.0), 30.0),
        "flat": (ef.flat(2), np.linspace(-1.0, 1.0, 7), (0.0, 1.0), 1.0),
        "tabulated": (wavy, x, (-3.0, 3.0), None),
    }


@pytest.mark.parametrize("family", ["harmonic", "harmonic_log", "power", "flat", "tabulated"])
def test_log_weight_is_evaluates_F_bitwise(family):
    # a table has no evaluate: its F is the column itself
    pot, x, _, _ = _families()[family]
    F = pot.table_F if family == "tabulated" else ef.evaluate(pot, x)[0]
    assert F.tobytes() == log_weight(pot, x).tobytes()


@pytest.mark.parametrize("family", ["harmonic", "harmonic_log", "power", "flat", "tabulated"])
def test_grids_build_from_F_alone(monkeypatch, family):
    pot, _, (xl, xr), radius = _families()[family]

    def no_derivatives(*_):
        raise AssertionError("a grid build evaluated F' and F''")

    monkeypatch.setattr("entroflow.potential.evaluate", no_derivatives)
    n = 64
    assert ef.make_interval_grid(xl, xr, n, pot).n == n
    if radius is not None:
        assert ef.make_radial_grid(pot.d, radius, n, pot).n == n
    else:  # a table is interval-only, even on the radial grid's nodes
        h = 2.0 * 3.0 / (2 * n - 1)
        r = (np.arange(n) + 0.5) * h
        with pytest.raises(ParameterError, match="interval-only"):
            ef.make_radial_grid(1, 3.0, n, ef.tabulated(r, 0.5 * r * r))


def test_log_weight_keeps_evaluates_domain_errors():
    with pytest.raises(DomainError, match="radial"):
        log_weight(ef.harmonic_log(0.3, d=3), np.array([1.0, -0.5]))
    with pytest.raises(DomainError):
        log_weight(ef.harmonic_log(0.3, d=3), np.array([0.0, 1.0]))
    x = np.linspace(-2.0, 2.0, 9)
    with pytest.raises(DomainError, match="off its nodes"):
        log_weight(ef.tabulated(x, x * x), np.array([0.123]))
    # F is finite at the power family's origin, where only F' and F'' are singular
    assert log_weight(ef.power_law(1.5), np.array([0.0]))[0] == 0.0
