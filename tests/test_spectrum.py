"""Eigenvalue computations: forced values, oracles, monotonicity, bounds."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import entroflow as ef
from entroflow._lapack import dstein
from entroflow.errors import (
    BoundaryConditionViolated,
    ConfigError,
    ParameterError,
    SolverDiverged,
)
from entroflow.spectrum import _assemble_symmetrized, smallest_eigenpair


class TestSolverAgainstLapack:
    def test_random_tridiagonal_matrices(self, rng):
        for _ in range(25):
            n = int(rng.integers(20, 300))
            diag = rng.uniform(0.5, 3.0, n)
            off = rng.uniform(-0.9, 0.9, n - 1)
            lam, vec, res, _, tol_eff = smallest_eigenpair(diag, off)
            oracle = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[0]
            assert lam == pytest.approx(oracle, abs=1e-11)
            assert res <= tol_eff
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12

    def test_assembled_operator(self, gauss_pot, gauss_grid):
        V = ef.hessian_infimum_V(gauss_pot, gauss_grid)
        coeff = 2 * (1.5 - 1) / 1.5
        diag, off = _assemble_symmetrized(
            gauss_grid.node_mass, gauss_grid.conductance, coeff, V
        )
        lam = smallest_eigenpair(diag, off)[0]
        oracle = eigh_tridiagonal(
            diag, off, select="i", select_range=(0, 0), eigvals_only=True,
            lapack_driver="stemr",
        )[0]
        assert lam == pytest.approx(oracle, abs=1e-10)

    def test_inaccurate_vector_raises(self, monkeypatch, rng):
        def perturbed(*args):
            v, info = dstein(*args)
            return v + 1e-3 * rng.standard_normal(v.shape), info

        monkeypatch.setattr("entroflow.spectrum.dstein", perturbed)
        diag = rng.uniform(0.5, 3.0, 100)
        off = rng.uniform(-0.9, 0.9, 99)
        with pytest.raises(SolverDiverged):
            smallest_eigenpair(diag, off)


class TestLambda1Linear:
    def test_gaussian_identity(self, gauss_pot, gauss_grid):
        # V == 1 forces lambda = 1 with a constant minimizer
        for p in (1.2, 1.5, 2.0):
            res = ef.lambda1_linear(p, gauss_pot, gauss_grid)
            assert res.lam == pytest.approx(1.0, abs=1e-3)
            assert ef.norm_dgamma(gauss_grid, res.eigenvector - 1.0) <= 1e-6

    def test_flat_bounded_domain_zero(self, flat_grid):
        res = ef.lambda1_linear(1.5, ef.flat(), flat_grid)
        assert abs(res.lam) <= 1e-10
        assert ef.norm_dgamma(flat_grid, res.eigenvector - res.eigenvector.mean()) <= 1e-5

    def test_p_one_is_essinf_V(self, gauss_pot, gauss_grid):
        res = ef.lambda1_linear(1.0, gauss_pot, gauss_grid)
        assert res.lam == 1.0
        assert res.iterations == 0

    def test_monotone_in_p(self, gauss_grid):
        pot = ef.power_law(1.5)
        g = ef.make_interval_grid(-16, 16, 800, pot)
        lams = [ef.lambda1_linear(p, pot, g).lam for p in np.linspace(1.05, 2.0, 8)]
        assert np.all(np.diff(lams) > -1e-12)

    def test_nonnegative_V_comparison(self):
        # lambda1(p) >= (p-1) lambda1(2) whenever V >= 0
        for pot, grid in (
            (ef.harmonic(), ef.make_interval_grid(-8, 8, 501, ef.harmonic())),
            (ef.power_law(1.5), ef.make_interval_grid(-16, 16, 800, ef.power_law(1.5))),
        ):
            lam2 = ef.lambda1_linear(2.0, pot, grid).lam
            for p in (1.2, 1.5, 1.8):
                lam_p = ef.lambda1_linear(p, pot, grid).lam
                assert lam_p >= (p - 1.0) * lam2 - 1e-9

    def test_eigenvector_normalized_and_consistent(self, gauss_pot, gauss_grid):
        V = ef.hessian_infimum_V(gauss_pot, gauss_grid)
        for p in (1.2, 2.0):
            res = ef.lambda1_linear(p, gauss_pot, gauss_grid)
            w = res.eigenvector
            assert abs(ef.norm_dgamma(gauss_grid, w) - 1.0) <= 1e-12
            coeff = 2 * (p - 1) / p
            quot = (
                coeff * ef.dirichlet_form(gauss_grid, w, w)
                + ef.inner_dgamma(gauss_grid, V * w, w)
            ) / ef.inner_dgamma(gauss_grid, w, w)
            assert abs(quot - res.lam) <= 10 * res.residual
            assert res.residual <= res.tol

    def test_grid_convergence_second_order(self):
        # smooth non-constant V via a tabulated perturbed-harmonic family
        lams = []
        for n in (251, 501, 1001):
            x = np.linspace(-8, 8, n)
            pot = ef.tabulated(
                x, 0.5 * x * x + 0.3 * np.cos(x), x - 0.3 * np.sin(x),
                1.0 - 0.3 * np.cos(x),
            )
            g = ef.make_interval_grid(-8, 8, n, pot)
            lams.append(ef.lambda1_linear(1.5, pot, g).lam)
        d1, d2 = abs(lams[0] - lams[1]), abs(lams[1] - lams[2])
        assert 1.6 <= np.log2(d1 / d2) <= 2.4

    def test_p_out_of_range(self, gauss_pot, gauss_grid):
        with pytest.raises(ParameterError):
            ef.lambda1_linear(2.5, gauss_pot, gauss_grid)


class TestLambda1Pme:
    def test_gaussian_identity(self, gauss_pot, gauss_grid):
        for theta in (0.2, 0.5, 0.9):
            assert ef.lambda1_pme(theta, gauss_pot, gauss_grid).lam == pytest.approx(
                1.0, abs=1e-3
            )

    def test_matches_linear_at_conjugate_theta(self, gauss_pot, gauss_grid):
        for p0 in (1.1, 1.5, 2.0):
            theta0 = ef.theta_from_p(p0)
            a = ef.lambda1_pme(theta0, gauss_pot, gauss_grid).lam
            b = ef.lambda1_linear(p0, gauss_pot, gauss_grid).lam
            assert abs(a - b) <= 1e-12

    def test_flat_zero(self, flat_grid):
        assert abs(ef.lambda1_pme(0.5, ef.flat(), flat_grid).lam) <= 1e-10

    def test_theta_range(self, gauss_pot, gauss_grid):
        with pytest.raises(ParameterError):
            ef.lambda1_pme(1.0, gauss_pot, gauss_grid)


class TestSchrodingerBound:
    def test_gaussian_p2_equals_one(self, gauss_pot, gauss_grid):
        # ground energy 1/2 of the quarter-quadratic well, shifted by nu*V - 1/2
        res = ef.lambda1_schrodinger_bound(2.0, gauss_pot, gauss_grid)
        assert res.lam == pytest.approx(1.0, abs=1e-4)

    def test_positive_for_subquadratic_powers(self):
        pot = ef.power_law(1.5)
        g = ef.make_interval_grid(-16, 16, 3200, pot)
        for p in (1.05, 1.2, 1.5, 2.0):
            assert ef.lambda1_schrodinger_bound(p, pot, g).lam > 0.0

    def test_lower_bound_consistency(self):
        # bound <= lambda1 + quadrature tolerance; the tolerance reflects the
        # regularity of V (the |x|^{-1/2} cusp of the power family converges
        # at order ~1/2 only)
        cases = [
            (ef.harmonic(), ef.make_interval_grid(-8, 8, 2001, ef.harmonic()), 1e-5),
            (ef.power_law(1.5), ef.make_interval_grid(-16, 16, 3200, ef.power_law(1.5)), 1e-2),
            (ef.harmonic_log(0.05, 3), ef.make_radial_grid(3, 12, 4000, ef.harmonic_log(0.05, 3)), 1e-3),
        ]
        for pot, grid, tol in cases:
            for p in (1.5, 2.0):
                bound = ef.lambda1_schrodinger_bound(p, pot, grid).lam
                lam = ef.lambda1_linear(p, pot, grid).lam
                assert bound <= lam + tol

    def test_boundary_condition_guard(self):
        # confinement decreasing outward at the right end violates DF.n >= 0
        x = np.linspace(-1, 1, 64)
        pot = ef.tabulated(x, -0.5 * x * x, -x, -np.ones_like(x))
        g = ef.make_interval_grid(-1, 1, 64, pot)
        with pytest.raises(BoundaryConditionViolated):
            ef.lambda1_schrodinger_bound(1.5, pot, g)


@pytest.mark.parametrize("solve", [
    lambda pot, grid: ef.lambda1_linear(1.5, pot, grid),
    lambda pot, grid: ef.lambda1_pme(0.5, pot, grid),
    lambda pot, grid: ef.lambda1_schrodinger_bound(1.5, pot, grid),
], ids=["linear", "pme", "schrodinger"])
def test_potential_must_match_grid(solve):
    # V came from the potential passed in, the weight from the grid's own:
    # lambda1_linear gave 1.0000 here instead of the grid's 0.6792, silently
    grid = ef.make_interval_grid(-16, 16, 800, ef.power_law(1.5))
    with pytest.raises(ConfigError, match=r"does not match .*\(harmonic vs power\(beta=1.5\)\)"):
        solve(ef.harmonic(), grid)
    assert solve(ef.power_law(1.5), grid).lam > 0.0


def _negative_hessian_potential(n=201):
    # F = cos(3 pi x) on [-1, 1]: deep negative Hessian wells
    x = np.linspace(-1, 1, n)
    k = 3 * np.pi
    return ef.tabulated(x, np.cos(k * x), -k * np.sin(k * x), -k * k * np.cos(k * x)), x


class TestEpsilonStar:
    def test_gaussian_reaches_cap(self, gauss_pot, gauss_grid_small):
        p = 1.5
        alpha = (2 - p) / p
        cap = (1 - alpha) / alpha
        assert ef.epsilon_star(p, gauss_pot, gauss_grid_small) == pytest.approx(cap)

    def test_flat_reaches_cap(self, flat_grid):
        p = 1.5
        alpha = (2 - p) / p
        assert ef.epsilon_star(p, ef.flat(), flat_grid) == pytest.approx((1 - alpha) / alpha)

    def test_negative_hessian_fails_even_at_zero(self):
        pot, x = _negative_hessian_potential()
        g = ef.make_interval_grid(-1, 1, len(x), pot)
        # oracle: dense symmetric eigensolve confirms lambda1(p) < 0
        V = ef.hessian_infimum_V(pot, g)
        p = 1.5
        coeff = 2 * (p - 1) / p
        diag, off = _assemble_symmetrized(g.node_mass, g.conductance, coeff, V)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.linalg.eigvalsh(dense)[0] < -1.0
        assert ef.epsilon_star(p, pot, g) == 0.0

    def test_p_two_rejected(self, gauss_pot, gauss_grid_small):
        with pytest.raises(ParameterError):
            ef.epsilon_star(2.0, gauss_pot, gauss_grid_small)
