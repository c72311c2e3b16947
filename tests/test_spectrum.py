"""Eigenvalue computations: forced values, oracles, monotonicity, bounds."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import entroflow as ef
from entroflow._lapack import lowest
from entroflow.errors import ConfigError, ParameterError, SolverDiverged
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
        def perturbed(d, e):
            v, *infos = lowest(d, e)
            return v + 1e-3 * rng.standard_normal(v.shape), *infos

        monkeypatch.setattr("entroflow.spectrum.lowest", perturbed)
        diag = rng.uniform(0.5, 3.0, 100)
        off = rng.uniform(-0.9, 0.9, 99)
        with pytest.raises(SolverDiverged):
            smallest_eigenpair(diag, off)

    def test_residual_held_to_the_tolerance_it_reports(self, monkeypatch, rng):
        # |T| ~ 5e6 puts the round-off floor 8 eps |T| (~9e-9) above 1e-10, so it
        # is the reported tolerance; tilt the vector toward the second
        # eigenvector until the residual lies between 8 and 64 eps |T|
        diag = 1e6 * rng.uniform(0.5, 3.0, 100)
        off = 1e6 * rng.uniform(-0.9, 0.9, 99)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        w, u = np.linalg.eigh(dense)
        eps = np.finfo(float).eps
        tnorm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
        tilt = 24.0 * eps * tnorm / (w[1] - w[0])
        x = (u[:, 0] + tilt * u[:, 1]) / np.hypot(1.0, tilt)
        residual = np.linalg.norm(dense @ x - (x @ dense @ x) * x)
        assert 8.0 * eps * tnorm < residual < 64.0 * eps * tnorm
        monkeypatch.setattr("entroflow.spectrum.lowest", lambda d, e: (x.copy(), 0, 0))
        with pytest.raises(SolverDiverged, match="above tolerance"):
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


def _spectral_gap(grid):
    # second eigenvalue of -L: the p = 2 quotient's matrix with V = 0 (its
    # first eigenvalue is 0, with the constants)
    diag, off = _assemble_symmetrized(grid.node_mass, grid.conductance, 1.0, np.zeros(grid.n))
    w = eigh_tridiagonal(diag, off, select="i", select_range=(1, 1), eigvals_only=True,
                         tol=2.0 * np.finfo(float).tiny, lapack_driver="stebz")
    return float(w[0])


def _cosine_perturbed(k, n, L=10.0):
    x = np.linspace(-L, L, n)
    pot = ef.tabulated(x, 0.5 * x * x + 0.5 * np.cos(k * x),
                       x - 0.5 * k * np.sin(k * x), 1.0 - 0.5 * k * k * np.cos(k * x))
    return pot, ef.make_interval_grid(-L, L, n, pot)


def _observed_order(errors, spacings):
    return [np.log(abs(errors[i] / errors[i + 1])) / np.log(spacings[i] / spacings[i + 1])
            for i in range(len(errors) - 1)]


class TestSpectralGapReference:
    """In one dimension lambda1_linear(2) is the spectral gap of -L: the
    derivative of the first non-constant eigenfunction of -L is the p = 2
    ground state (intertwining (Lu)' = L(u') - F'' u'; Bakry, Gentil and
    Ledoux, Analysis and Geometry of Markov Diffusion Operators, 2014).  The
    discrete gap needs no F'', so it is a reference for every interval family."""

    @pytest.mark.parametrize("k", [1, 2], ids=["cos-x", "cos-2x"])
    def test_smooth_perturbation_converges_at_order_two(self, k):
        errors, spacings = [], []
        for n in (401, 1601, 3201):
            pot, grid = _cosine_perturbed(k, n)
            errors.append(ef.lambda1_linear(2.0, pot, grid).lam - _spectral_gap(grid))
            spacings.append(grid.h)
        for order in _observed_order(errors, spacings):
            assert order == pytest.approx(2.0, abs=0.2)

    def test_power_cusp_converges_at_order_one_half_from_below(self):
        # V = F'' = 0.5 |x|^{-1/2} is sampled at the nodes next to its cusp
        pot = ef.power_law(1.5)
        gaps, spacings = [], []
        for n in (3200, 12800):
            grid = ef.make_interval_grid(-16, 16, n, pot)
            gaps.append(_spectral_gap(grid) - ef.lambda1_linear(2.0, pot, grid).lam)
            spacings.append(grid.h)
        assert min(gaps) > 0.0
        assert _observed_order(gaps, spacings)[0] == pytest.approx(0.5, abs=0.1)

    def test_gaussian_is_exact(self, gauss_pot, gauss_grid):
        for p in (1.2, 1.5, 2.0):
            assert abs(ef.lambda1_linear(p, gauss_pot, gauss_grid).lam - 1.0) <= 1e-12
        assert abs(_spectral_gap(gauss_grid) - 1.0) <= 1e-9


def _example1_cases():
    cases = []
    for d in (3, 4, 5):
        for p in (1.2, 1.5, 2.0):
            for frac in (0.3, 0.7):
                cases.append(pytest.param(d, p, frac, id=f"d{d}-p{p}-eps{frac}"))
    return cases


def _radial_order(solve, d, eps, exact):
    # R = 12 leaves a weight tail far below the discretization error
    pot = ef.harmonic_log(eps, d)
    errors = [solve(pot, ef.make_radial_grid(d, 12.0, n, pot)).lam - exact
              for n in (8000, 16000)]
    return np.log2(abs(errors[0] / errors[1]))


class TestExample1ClosedForm:
    """F = r^2/2 + eps log r: the ground state is r^gamma and lambda1 has a
    closed form (:meth:`Example1Bound.lambda1`).  A uniform radial grid
    converges to it at order min(sigma, 2); the sign of the error depends on
    d (positive for d = 3 and 5, negative for d = 4), so it is not pinned."""

    @pytest.mark.parametrize("d, p, frac", _example1_cases())
    def test_linear_converges_at_order_sigma(self, d, p, frac):
        bound = ef.example1_epsilon_bound(d, p)
        eps, c = frac * bound.bound, 2.0 * (p - 1.0) / p
        order = _radial_order(lambda pot, g: ef.lambda1_linear(p, pot, g), d, eps,
                              bound.lambda1(eps, c))
        assert order == pytest.approx(min(bound.order(eps, c), 2.0), abs=0.1)

    @pytest.mark.parametrize("theta", [0.3, 0.5])
    @pytest.mark.parametrize("frac", [0.3, 0.7])
    def test_pme_converges_at_order_sigma(self, theta, frac):
        # lambda1_pme(theta) is lambda1_linear at p = 2/(1 + theta)
        bound = ef.example1_epsilon_bound(3, 2.0 / (1.0 + theta))
        eps, c = frac * bound.bound, 1.0 - theta
        order = _radial_order(lambda pot, g: ef.lambda1_pme(theta, pot, g), 3, eps,
                              bound.lambda1(eps, c))
        assert order == pytest.approx(min(bound.order(eps, c), 2.0), abs=0.1)

    def test_above_the_bound_lambda1_is_a_grid_artefact(self):
        # eps = 0.3 lies above the bound 0.1716 (d = 3, p = 2): the quotient
        # is unbounded below and the printed value falls like h^-2 without a
        # limit (-20.1, -79.5, -317 at n = 1000, 2000, 4000)
        eps = 0.3
        assert eps > ef.example1_epsilon_bound(3, 2.0).bound
        pot = ef.harmonic_log(eps, 3)
        lams = [ef.lambda1_linear(2.0, pot, ef.make_radial_grid(3, 12.0, n, pot)).lam
                for n in (1000, 2000, 4000)]
        assert lams[0] < 0.0
        assert all(finer <= 3.5 * coarser for coarser, finer in zip(lams, lams[1:]))


@pytest.mark.parametrize("solve", [
    lambda pot, grid: ef.lambda1_linear(1.5, pot, grid),
    lambda pot, grid: ef.lambda1_pme(0.5, pot, grid),
], ids=["linear", "pme"])
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
