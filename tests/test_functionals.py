"""Entropy / Fisher / second-order functionals, both families."""

import numpy as np
import pytest

import entroflow as ef
from entroflow.errors import (
    FloorViolation,
    MassNotNormalized,
    NegativeDensity,
    ParameterError,
)


def _normalized(grid, v):
    return v / ef.integrate_dgamma(grid, v)


def _perturbed(grid, amp=0.3, seed=1):
    rng = np.random.default_rng(seed)
    bump = np.exp(-0.5 * ((grid.nodes - 1.3) / 1.1) ** 2)
    noise = rng.uniform(-0.2, 0.2, grid.n)
    return _normalized(grid, 1.0 + amp * bump + amp * noise)


class TestLinearEntropies:
    def test_equilibrium_zero(self, gauss_grid):
        one = np.ones(gauss_grid.n)
        for p in (1.0, 1.3, 2.0):
            prm = ef.LinearParams(p)
            assert ef.entropy_linear(prm, one, gauss_grid) == 0.0
            assert ef.fisher_linear(prm, one, gauss_grid) == 0.0
            assert ef.k_linear(prm, one, gauss_grid) == 0.0

    def test_p2_is_weighted_variance(self, gauss_grid):
        v = _perturbed(gauss_grid)
        e2 = ef.entropy_linear(ef.LinearParams(2.0), v, gauss_grid)
        var = ef.integrate_dgamma(gauss_grid, (v - 1.0) ** 2)
        assert e2 == pytest.approx(var, rel=1e-12)

    def test_continuity_at_p_one(self, gauss_grid):
        v = _perturbed(gauss_grid)
        e_lim = ef.entropy_linear(ef.LinearParams(1.0), v, gauss_grid)
        e_near = ef.entropy_linear(ef.LinearParams(1.0001), v, gauss_grid)
        assert abs(e_near - e_lim) / max(abs(e_lim), 1e-300) < 1e-3

    def test_nonnegative_on_unit_mass(self, gauss_grid):
        v = _perturbed(gauss_grid)
        for p in (1.0, 1.5, 2.0):
            assert ef.entropy_linear(ef.LinearParams(p), v, gauss_grid) >= 0.0

    def test_negative_density_rejected(self, gauss_grid):
        v = np.ones(gauss_grid.n)
        v[3] = -0.1
        with pytest.raises(NegativeDensity):
            ef.entropy_linear(ef.LinearParams(1.5), v, gauss_grid)

    def test_p_range(self):
        with pytest.raises(ParameterError):
            ef.LinearParams(0.9)
        with pytest.raises(ParameterError):
            ef.LinearParams(2.1)


class TestLinearFisher:
    def test_p2_substitution(self, gauss_grid):
        v = _perturbed(gauss_grid)
        i2 = ef.fisher_linear(ef.LinearParams(2.0), v, gauss_grid)
        assert i2 == pytest.approx(2.0 * ef.dirichlet_form(gauss_grid, v, v), rel=1e-12)

    def test_p1_classical_form(self, gauss_grid):
        v = _perturbed(gauss_grid)
        i1 = ef.fisher_linear(ef.LinearParams(1.0), v, gauss_grid)
        root = np.sqrt(v)
        assert i1 == pytest.approx(4.0 * ef.dirichlet_form(gauss_grid, root, root), rel=1e-12)

    def test_floor_violation_in_k(self, gauss_grid):
        v = np.ones(gauss_grid.n)
        v[5] = 0.0
        with pytest.raises(FloorViolation):
            ef.k_linear(ef.LinearParams(1.5), v, gauss_grid)


class TestSecondOrderBound:
    def test_k_dominates_spectral_fisher_bound(self, gauss_pot, gauss_grid):
        # K >= lambda1 * (p/4) * I for data near equilibrium
        x = gauss_grid.nodes
        v = _normalized(gauss_grid, 1.0 + 0.1 * x / np.max(np.abs(x)))
        for p in (1.2, 1.5, 2.0):
            prm = ef.LinearParams(p)
            lam = ef.lambda1_linear(p, gauss_pot, gauss_grid).lam
            K = ef.k_linear(prm, v, gauss_grid)
            I = ef.fisher_linear(prm, v, gauss_grid)
            assert K >= lam * (p / 4.0) * I * (1.0 - 1e-6)


class TestPmeParams:
    def test_frozen_values(self):
        prm = ef.PmeParams(m=1.2, p=1.5)
        assert prm.c == pytest.approx(8.16 / 3.61, rel=1e-12)
        assert prm.q == pytest.approx(2.1 / 1.9, rel=1e-12)
        assert prm.beta == pytest.approx(1.0 / 0.95, rel=1e-12)
        assert prm.alpha == pytest.approx(0.5 / 1.9, rel=1e-12)

    def test_q_range_iff_m_between_one_and_p_plus_one(self):
        for m, p in ((1.1, 1.5), (1.9, 1.2), (2.3, 1.8)):
            prm = ef.PmeParams(m=m, p=p)
            assert (1.0 < prm.q < 4.0 / 3.0) == (1.0 < m < p + 1.0)

    def test_endpoints_rejected(self):
        with pytest.raises(ParameterError):
            ef.PmeParams(m=1.2, p=2.0)
        with pytest.raises(ParameterError):
            ef.PmeParams(m=1.2, p=1.0)
        with pytest.raises(ParameterError):
            ef.PmeParams(m=-0.5, p=1.5)

    def test_m_plus_p_two_rejected(self):
        # E = int [v^{m+p-1} - 1] dgamma / (m+p-2) has no value there
        with pytest.raises(ParameterError, match=r"m \+ p != 2"):
            ef.PmeParams(m=0.5, p=1.5)
        assert ef.PmeParams(m=0.5, p=1.6).s_exponent == pytest.approx(0.3)


class TestPmeFunctionals:
    def test_equilibrium_zero(self, gauss_grid):
        one = np.ones(gauss_grid.n)
        prm = ef.PmeParams(m=1.2, p=1.5)
        assert ef.entropy_pme(prm, one, gauss_grid) == 0.0
        assert ef.fisher_pme(prm, one, gauss_grid) == 0.0
        assert ef.k_pme(prm, one, gauss_grid) == 0.0

    def test_m_one_recovers_linear(self, gauss_grid):
        v = _perturbed(gauss_grid)
        for p in (1.2, 1.5, 1.9):
            lin = ef.LinearParams(p)
            pme = ef.PmeParams(m=1.0, p=p)
            for f_lin, f_pme in (
                (ef.entropy_linear, ef.entropy_pme),
                (ef.fisher_linear, ef.fisher_pme),
                (ef.k_linear, ef.k_pme),
            ):
                a = f_lin(lin, v, gauss_grid)
                b = f_pme(pme, v, gauss_grid)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_mass_guard(self, gauss_grid):
        prm = ef.PmeParams(m=1.2, p=1.5)
        with pytest.raises(MassNotNormalized):
            ef.entropy_pme(prm, np.full(gauss_grid.n, 1.5), gauss_grid)

    def test_positivity(self, gauss_grid):
        v = _perturbed(gauss_grid)
        prm = ef.PmeParams(m=1.2, p=1.5)
        assert ef.entropy_pme(prm, v, gauss_grid) > 0.0
        assert ef.fisher_pme(prm, v, gauss_grid) > 0.0
