"""Confinement families: closed-form derivatives and derived potentials."""

import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import entroflow as ef
from entroflow.errors import DomainError, ParameterError


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

    def test_tabulated_round_trip(self):
        x = np.linspace(-2, 2, 33)
        pot = ef.tabulated(x, 0.5 * x * x, x, np.ones_like(x))
        F, dF, d2F = ef.evaluate(pot, x)
        assert_allclose(F, 0.5 * x * x)
        assert_allclose(dF, x)
        with pytest.raises(DomainError):
            ef.evaluate(pot, 0.123456)  # off-node query


class TestHessianInfimum:
    def test_harmonic_everywhere_one(self, gauss_grid):
        assert_allclose(ef.hessian_infimum_V(ef.harmonic(), gauss_grid), 1.0)

    def test_harmonic_log_radial_min_branch(self):
        pot = ef.harmonic_log(0.1, d=3)
        g = ef.make_radial_grid(3, 12.0, 500, pot)
        V = ef.hessian_infimum_V(pot, g)
        assert_allclose(V, 1.0 - 0.1 / g.nodes**2, rtol=1e-13)

    def test_power_interval(self):
        pot = ef.power_law(1.5)
        g = ef.make_interval_grid(-4, 4, 100, pot)  # even count: no node at 0
        V = ef.hessian_infimum_V(pot, g)
        assert_allclose(V, 0.5 * np.abs(g.nodes) ** (-0.5), rtol=1e-13)
        assert V.min() >= 0.0

    def test_matches_finite_differences(self, gauss_grid):
        # V agrees with a centered second difference of F to O(h^2)
        pot = ef.harmonic()
        F, _, _ = ef.evaluate(pot, gauss_grid.nodes)
        V = ef.hessian_infimum_V(pot, gauss_grid)
        h = gauss_grid.h
        fd = (F[2:] - 2 * F[1:-1] + F[:-2]) / h**2
        assert np.max(np.abs(fd - V[1:-1])) <= 1e-6


class TestSchrodingerPotential:
    def test_harmonic_nu_one(self, gauss_grid):
        W = ef.schrodinger_potential(ef.harmonic(), gauss_grid, 1.0)
        x = gauss_grid.nodes
        assert_allclose(W, 1.0 + 0.25 * x * x - 0.5, rtol=1e-13)

    def test_power_reduction(self):
        # (nu - 1/2)(beta - 1)|x|^{beta-2} + |x|^{2(beta-1)}/4
        beta, nu = 1.5, 3.0
        pot = ef.power_law(beta)
        g = ef.make_interval_grid(-6, 6, 200, pot)
        W = ef.schrodinger_potential(pot, g, nu)
        x = np.abs(g.nodes)
        expect = (nu - 0.5) * (beta - 1.0) * x ** (beta - 2.0) + 0.25 * x ** (2 * beta - 2)
        assert_allclose(W, expect, rtol=1e-12)

    def test_flat_zero(self, flat_grid):
        assert_allclose(ef.schrodinger_potential(ef.flat(), flat_grid, 2.0), 0.0)

    def test_nu_below_one_rejected(self, gauss_grid):
        with pytest.raises(ParameterError):
            ef.schrodinger_potential(ef.harmonic(), gauss_grid, 0.5)

    def test_recomposition_identity(self, gauss_grid):
        # W equals nu*V + (F')^2/4 - (Lap F)/2 recomposed node-wise
        pot = ef.harmonic()
        nu = 1.75
        _, dF, d2F = ef.evaluate(pot, gauss_grid.nodes)
        V = ef.hessian_infimum_V(pot, gauss_grid)
        expect = nu * V + 0.25 * dF * dF - 0.5 * d2F
        assert_allclose(ef.schrodinger_potential(pot, gauss_grid, nu), expect, rtol=0, atol=0)


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

    def test_a_squared_vanishes_at_bound(self):
        res = ef.example1_epsilon_bound(3, 1.7)
        assert res.a_squared(res.bound) == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < res.a_squared(res.bound / 2) < 1.0

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            ef.example1_epsilon_bound(2, 1.5)
        with pytest.raises(ParameterError, match="asymptotic"):
            ef.example1_epsilon_bound(3, 1.0)
        with pytest.raises(ParameterError):
            ef.example1_epsilon_bound(3, 2.5)


class TestTailMass:
    def test_gaussian_line(self):
        tm = ef.tail_mass(ef.harmonic(), 8.0, 1)
        assert 0.0 < tm < 1e-10

    def test_radial_harmonic_log(self):
        tm = ef.tail_mass(ef.harmonic_log(0.1, d=3), 12.0, 3)
        assert tm < 1e-10

    def test_power_family(self):
        tm = ef.tail_mass(ef.power_law(1.5), 16.0, 1)
        assert tm < 1e-10

    def test_flat_has_no_tail(self):
        with pytest.raises(DomainError):
            ef.tail_mass(ef.flat(), 1.0, 1)

    def test_package_import_defers_scipy_integrate(self):
        # only tail_mass needs the quadrature module; importing the package must not load it
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
