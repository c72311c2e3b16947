"""Eigenvalue computations: forced values, oracles, monotonicity, bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

import entroflow as ef
from entroflow import spectrum
from entroflow._lapack import SPDTridiagonal
from entroflow.errors import ParameterError, SolverDiverged
from entroflow.spectrum import _assemble_symmetrized, smallest_eigenpair

EPS = np.finfo(float).eps


@st.composite
def tridiagonals(draw):
    """Bands of a symmetric tridiagonal matrix, n <= 400: positive definite,
    diagonal (the p = 1 quotient), indefinite, or with its smallest
    eigenvalues clustered (repeated diagonal values, weak coupling), scaled
    by 1e-3 to 1e6."""
    n = draw(st.one_of(st.just(1), st.integers(2, 400)))
    kind = draw(st.sampled_from(["definite", "diagonal", "indefinite", "clustered"]))
    scale = 10.0 ** draw(st.integers(-3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "definite":
        diag, off = rng.uniform(0.5, 3.0, n), rng.uniform(-0.9, 0.9, n - 1)
    elif kind == "diagonal":
        diag, off = rng.uniform(-3.0, 3.0, n), np.zeros(n - 1)
    elif kind == "indefinite":
        diag, off = rng.uniform(-3.0, 3.0, n), rng.uniform(-1.0, 1.0, n - 1)
    else:
        coupling = 10.0 ** draw(st.integers(-12, -4))
        diag, off = rng.choice([-1.0, 0.0, 1.0], n), coupling * rng.uniform(-1.0, 1.0, n - 1)
    return scale * diag, scale * off


class TestSolverAgainstLapack:
    def test_random_tridiagonal_matrices(self, rng):
        for _ in range(25):
            n = int(rng.integers(20, 300))
            diag = rng.uniform(0.5, 3.0, n)
            off = rng.uniform(-0.9, 0.9, n - 1)
            lam, vec, res, _, tol_eff, _ = smallest_eigenpair(diag, off)
            oracle = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[0]
            assert lam == pytest.approx(oracle, abs=1e-11)
            assert res <= tol_eff
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(tridiagonals())
    def test_certified_bracket(self, bands):
        # eigvalsh's own error grows with n (up to about 30 eps (max|d| +
        # 2 max|e|) at n = 400), so the oracle's slack is 8 eps |T|_F
        diag, off = bands
        lam, vec, res, iterations, tol_eff, lower = smallest_eigenpair(diag, off)
        eigs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        slack = 8.0 * EPS * math.hypot(np.linalg.norm(diag), math.sqrt(2.0) * np.linalg.norm(off))
        assert res <= tol_eff and 1 <= iterations <= spectrum._MAX_SOLVES
        # the bracket [lower, lam], up to the rounding of the quotient lam
        assert lower <= eigs[0] + slack
        assert lower - slack <= lam <= lower + res + tol_eff
        if len(eigs) > 1 and res * res > EPS * slack * (eigs[1] - eigs[0]):
            return
        # Kato-Temple: lam - lambda1 <= res^2 / (lambda2 - lam), below the slack
        assert abs(lam - eigs[0]) <= slack

    def test_assembled_operator(self, gauss_grid):
        V = ef.hessian_infimum_V(gauss_grid)
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

    def test_residual_held_to_the_round_off_tolerance(self, rng):
        # |T| ~ 5e6 puts the round-off floor 8 eps |T| (~9e-9) above 1e-10, so it
        # is the reported tolerance, and the residual meets it
        diag = 1e6 * rng.uniform(0.5, 3.0, 100)
        off = 1e6 * rng.uniform(-0.9, 0.9, 99)
        tnorm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
        lam, _, res, _, tol_eff, lower = smallest_eigenpair(diag, off)
        assert tol_eff == 8.0 * EPS * tnorm > 1e-10
        assert res <= tol_eff and lower <= lam <= lower + res + tol_eff

    def test_solve_cap_raises(self, monkeypatch):
        # power:1.5 takes several solves from the constants; a cap of 1 stops it
        grid = ef.make_interval_grid(-16, 16, 800, ef.power_law(1.5))
        monkeypatch.setattr(spectrum, "_MAX_SOLVES", 1)
        with pytest.raises(SolverDiverged, match="did not converge in 1 solves"):
            ef.lambda1_linear(1.5, grid)

    def test_factorization_cap_raises(self, monkeypatch, rng):
        # from a flat start the first shift of an indefinite matrix lies above
        # lambda1, so the bracket must be bisected
        diag, off = rng.uniform(-3.0, 3.0, 200), rng.uniform(-1.0, 1.0, 199)
        monkeypatch.setattr(spectrum, "_MAX_FACTORIZATIONS", 1)
        with pytest.raises(SolverDiverged, match="no positive definite shift in 1"):
            smallest_eigenpair(diag, off)

    @pytest.mark.parametrize("info, match", [
        (1, "refused the shift .* at the lower bound of the spectrum: info=1"),
        (-2, "dpttrf failed: info=-2"),
    ], ids=["not-definite", "illegal-argument"])
    def test_failed_factorization_raises(self, monkeypatch, rng, info, match):
        # info > 0 everywhere: the bisection reaches the Gershgorin bound,
        # where dpttrf must succeed
        monkeypatch.setattr(SPDTridiagonal, "factor", lambda self: info)
        with pytest.raises(SolverDiverged, match=match):
            smallest_eigenpair(rng.uniform(0.5, 3.0, 50), rng.uniform(-0.9, 0.9, 49))

    def test_non_finite_solve_backs_the_shift_off(self, monkeypatch, rng):
        diag, off = rng.uniform(0.5, 3.0, 50), rng.uniform(-0.9, 0.9, 49)
        lam, _, _, iterations, tol_eff, _ = smallest_eigenpair(diag, off)
        solve, calls = SPDTridiagonal.solve, []

        def overflow_once(self):
            calls.append(1)
            if len(calls) == 1:
                self.b[:] = np.inf
                return 0
            return solve(self)

        monkeypatch.setattr(SPDTridiagonal, "solve", overflow_once)
        lam_retry, _, res, iterations_retry, _, lower = smallest_eigenpair(diag, off)
        assert iterations_retry > iterations
        assert lower <= lam_retry <= lower + res + tol_eff
        assert lam_retry == pytest.approx(lam, abs=2.0 * tol_eff)

    @pytest.mark.parametrize("diag, off, error, match", [
        ([1.0, np.nan], [0.5], SolverDiverged, "non-finite"),
        (np.ones((2, 2)), [0.5], ValueError, "one dimension"),
        ([1.0, 2.0, 3.0], [0.5], ValueError, "n - 1 off-diagonal"),
    ], ids=["nan", "2-d", "short-off"])
    def test_malformed_matrix(self, diag, off, error, match):
        with pytest.raises(error, match=match):
            smallest_eigenpair(np.asarray(diag), np.asarray(off))

    def test_readme_grids_take_few_solves(self):
        # bisection and stein took about 80 Sturm passes per solve; inverse
        # iteration from the constants takes 1 solve on the Gaussian (its
        # exact ground state) and a handful on the power and radial grids
        gauss = ef.make_interval_grid(-8, 8, 2001, ef.harmonic())
        assert ef.lambda1_linear(1.5, gauss).iterations == 1
        assert ef.lambda1_pme(0.5, gauss).iterations == 1
        power = ef.make_interval_grid(-16, 16, 3200, ef.power_law(1.5))
        for p in (1.2, 1.5, 2.0):
            assert 1 < ef.lambda1_linear(p, power).iterations <= 10
        radial = ef.make_radial_grid(3, 12, 4000, ef.harmonic_log(0.05, 3))
        assert 1 < ef.lambda1_linear(2.0, radial).iterations <= 10


class TestLambda1Linear:
    def test_gaussian_identity(self, gauss_grid):
        # V == 1 forces lambda = 1 with a constant minimizer
        for p in (1.2, 1.5, 2.0):
            res = ef.lambda1_linear(p, gauss_grid)
            assert res.lam == pytest.approx(1.0, abs=1e-3)
            assert ef.norm_dgamma(gauss_grid, res.eigenvector - 1.0) <= 1e-6

    def test_flat_bounded_domain_zero(self, flat_grid):
        res = ef.lambda1_linear(1.5, flat_grid)
        assert abs(res.lam) <= 1e-10
        assert ef.norm_dgamma(flat_grid, res.eigenvector - res.eigenvector.mean()) <= 1e-5

    def test_p_one_is_essinf_V(self, gauss_grid):
        # the gradient term vanishes: the one eigensolve of diag(V) gives min V
        res = ef.lambda1_linear(1.0, gauss_grid)
        assert res.lam == 1.0
        assert res.iterations == 1

    @pytest.mark.parametrize("grid", [
        ef.make_interval_grid(-16, 16, 2000, ef.power_law(1.5)),
        ef.make_radial_grid(3, 12, 2000, ef.harmonic_log(0.05, 3)),
    ], ids=["power", "radial"])
    def test_p_one_concentrates_at_the_minimum_of_V(self, grid):
        V = ef.hessian_infimum_V(grid)
        res = ef.lambda1_linear(1.0, grid)
        assert res.lam == V.min()
        (support,) = np.nonzero(res.eigenvector)
        assert len(support) == 1 and V[support[0]] == V.min()
        assert ef.norm_dgamma(grid, res.eigenvector) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_p(self, gauss_grid):
        g = ef.make_interval_grid(-16, 16, 800, ef.power_law(1.5))
        lams = [ef.lambda1_linear(p, g).lam for p in np.linspace(1.05, 2.0, 8)]
        assert np.all(np.diff(lams) > -1e-12)

    def test_nonnegative_V_comparison(self):
        # lambda1(p) >= (p-1) lambda1(2) whenever V >= 0
        for grid in (
            ef.make_interval_grid(-8, 8, 501, ef.harmonic()),
            ef.make_interval_grid(-16, 16, 800, ef.power_law(1.5)),
        ):
            lam2 = ef.lambda1_linear(2.0, grid).lam
            for p in (1.2, 1.5, 1.8):
                lam_p = ef.lambda1_linear(p, grid).lam
                assert lam_p >= (p - 1.0) * lam2 - 1e-9

    def test_eigenvector_normalized_and_consistent(self, gauss_grid):
        V = ef.hessian_infimum_V(gauss_grid)
        for p in (1.2, 2.0):
            res = ef.lambda1_linear(p, gauss_grid)
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
            lams.append(ef.lambda1_linear(1.5, g).lam)
        d1, d2 = abs(lams[0] - lams[1]), abs(lams[1] - lams[2])
        assert 1.6 <= np.log2(d1 / d2) <= 2.4

    def test_p_out_of_range(self, gauss_grid):
        with pytest.raises(ParameterError):
            ef.lambda1_linear(2.5, gauss_grid)


class TestLambda1Pme:
    def test_gaussian_identity(self, gauss_grid):
        for theta in (0.2, 0.5, 0.9):
            assert ef.lambda1_pme(theta, gauss_grid).lam == pytest.approx(
                1.0, abs=1e-3
            )

    def test_matches_linear_at_conjugate_theta(self, gauss_grid):
        for p0 in (1.1, 1.5, 2.0):
            theta0 = ef.theta_from_p(p0)
            a = ef.lambda1_pme(theta0, gauss_grid).lam
            b = ef.lambda1_linear(p0, gauss_grid).lam
            assert abs(a - b) <= 1e-12

    def test_flat_zero(self, flat_grid):
        assert abs(ef.lambda1_pme(0.5, flat_grid).lam) <= 1e-10

    def test_theta_range(self, gauss_grid):
        with pytest.raises(ParameterError):
            ef.lambda1_pme(1.0, gauss_grid)


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
    return ef.make_interval_grid(-L, L, n, pot)


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
            grid = _cosine_perturbed(k, n)
            errors.append(ef.lambda1_linear(2.0, grid).lam - _spectral_gap(grid))
            spacings.append(grid.h)
        for order in _observed_order(errors, spacings):
            assert order == pytest.approx(2.0, abs=0.2)

    def test_power_cusp_converges_at_order_one_half_from_below(self):
        # V = F'' = 0.5 |x|^{-1/2} is sampled at the nodes next to its cusp
        pot = ef.power_law(1.5)
        gaps, spacings = [], []
        for n in (3200, 12800):
            grid = ef.make_interval_grid(-16, 16, n, pot)
            gaps.append(_spectral_gap(grid) - ef.lambda1_linear(2.0, grid).lam)
            spacings.append(grid.h)
        assert min(gaps) > 0.0
        assert _observed_order(gaps, spacings)[0] == pytest.approx(0.5, abs=0.1)

    def test_gaussian_is_exact(self, gauss_grid):
        for p in (1.2, 1.5, 2.0):
            assert abs(ef.lambda1_linear(p, gauss_grid).lam - 1.0) <= 1e-12
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
    errors = [solve(ef.make_radial_grid(d, 12.0, n, pot)).lam - exact
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
        order = _radial_order(lambda g: ef.lambda1_linear(p, g), d, eps,
                              bound.lambda1(eps, c))
        assert order == pytest.approx(min(bound.order(eps, c), 2.0), abs=0.1)

    @pytest.mark.parametrize("theta", [0.3, 0.5])
    @pytest.mark.parametrize("frac", [0.3, 0.7])
    def test_pme_converges_at_order_sigma(self, theta, frac):
        # lambda1_pme(theta) is lambda1_linear at p = 2/(1 + theta)
        bound = ef.example1_epsilon_bound(3, 2.0 / (1.0 + theta))
        eps, c = frac * bound.bound, 1.0 - theta
        order = _radial_order(lambda g: ef.lambda1_pme(theta, g), 3, eps,
                              bound.lambda1(eps, c))
        assert order == pytest.approx(min(bound.order(eps, c), 2.0), abs=0.1)

    def test_above_the_bound_lambda1_is_a_grid_artefact(self):
        # eps = 0.3 lies above the bound 0.1716 (d = 3, p = 2): the quotient
        # is unbounded below and the printed value falls like h^-2 without a
        # limit (-20.1, -79.5, -317 at n = 1000, 2000, 4000)
        eps = 0.3
        assert eps > ef.example1_epsilon_bound(3, 2.0).bound
        pot = ef.harmonic_log(eps, 3)
        lams = [ef.lambda1_linear(2.0, ef.make_radial_grid(3, 12.0, n, pot)).lam
                for n in (1000, 2000, 4000)]
        assert lams[0] < 0.0
        assert all(finer <= 3.5 * coarser for coarser, finer in zip(lams, lams[1:]))


def _negative_hessian_potential(n=201):
    # F = cos(3 pi x) on [-1, 1]: deep negative Hessian wells
    x = np.linspace(-1, 1, n)
    k = 3 * np.pi
    return ef.tabulated(x, np.cos(k * x), -k * np.sin(k * x), -k * k * np.cos(k * x)), x


def _perturbed_gaussian_grid(phi):
    """x^2/2 + phi(x) tabulated on [-10, 10], n = 4001; ``phi`` returns
    (phi, phi', phi'') at x."""
    x = np.linspace(-10, 10, 4001)
    f, df, d2f = phi(x)
    return ef.make_interval_grid(-10, 10, len(x), ef.tabulated(x, x * x / 2 + f, x + df, 1 + d2f))


def _cos(a, k):
    return lambda x: (a * np.cos(k * x), -a * k * np.sin(k * x), -a * k * k * np.cos(k * x))


def _log(c):
    return lambda x: (c * np.log1p(x * x), 2 * c * x / (1 + x * x),
                      2 * c * (1 - x * x) / (1 + x * x) ** 2)


# the perturbations of the Bakry-Emery comparison tables, and epsilon_star
# at p = 1.2, 1.5, 1.8 as the eigensolve-driven bisection found it
_TABLES = {
    "0.5cos(x)": (_cos(0.5, 1), [0.49999999999999983, 2.0000000000000004, 8.000000000000004]),
    "0.3cos(2x)": (_cos(0.3, 2), [0.4740600585937499, 1.9481811523437504, 7.8445434570312536]),
    "0.5cos(2x)": (_cos(0.5, 2), [0.12176513671874997, 1.2435302734375004, 5.730651855468752]),
    "-1.0log(1+x^2)": (_log(-1.0), [0.12493896484374997, 1.2499389648437504,
                                    5.749938964843752]),
    "-1.5log(1+x^2)": (_log(-1.5), [0.0, 0.10266113281250003, 2.308105468750001]),
}
_P_TABLE = (1.2, 1.5, 1.8)


@pytest.fixture(scope="module")
def table_grids():
    return {name: _perturbed_gaussian_grid(phi) for name, (phi, _) in _TABLES.items()}


def _cap(p):
    alpha = (2 - p) / p
    return (1 - alpha) / alpha


def _lowest(grid, p, eps):
    """Smallest eigenvalue of the modified quotient's matrix at eps, by LAPACK's
    stebz, independent of dpttrf."""
    alpha = (2 - p) / p
    coeff = max(0.0, 1 - alpha * (1 + eps))
    diag, off = _assemble_symmetrized(grid.node_mass, grid.conductance, coeff,
                                      ef.hessian_infimum_V(grid))
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]


class _CountingSystem(SPDTridiagonal):
    factors = solves = 0

    def factor(self):
        type(self).factors += 1
        return super().factor()

    def solve(self):
        type(self).solves += 1
        return super().solve()


class TestEpsilonStar:
    def test_gaussian_reaches_cap(self, gauss_grid_small):
        assert ef.epsilon_star(1.5, gauss_grid_small) == _cap(1.5) == 2.0000000000000004

    def test_flat_reaches_cap(self, flat_grid):
        assert ef.epsilon_star(1.5, flat_grid) == _cap(1.5)

    @pytest.mark.parametrize("name", _TABLES)
    def test_tables_keep_the_eigensolve_bits(self, table_grids, name):
        eps = [ef.epsilon_star(p, table_grids[name]) for p in _P_TABLE]
        assert eps == _TABLES[name][1]

    @pytest.mark.parametrize("name", _TABLES)
    def test_tables_against_stebz(self, table_grids, name):
        # inside (0, cap) the quotient is nonnegative (to the floor) at
        # epsilon_star and negative one bisection width beyond it
        for p in _P_TABLE:
            grid, eps = table_grids[name], ef.epsilon_star(p, table_grids[name])
            if 0.0 < eps < _cap(p):
                assert _lowest(grid, p, eps) >= -spectrum._EIG_FLOOR
                assert _lowest(grid, p, eps + spectrum._EPS_STAR_TOL) < -spectrum._EIG_FLOOR

    def test_one_factorization_per_bisection_point(self, table_grids, gauss_grid_small,
                                                    monkeypatch):
        # one Sturm test per point and no solve: where neither end decides,
        # 2 end tests and ceil(log2(cap / 1e-4)) midpoints; 1 where the cap passes
        monkeypatch.setattr(spectrum, "SPDTridiagonal", _CountingSystem)
        _CountingSystem.solves, counts = 0, []
        for grid, p in [(table_grids["0.5cos(2x)"], p) for p in _P_TABLE] + [
                (gauss_grid_small, 1.5)]:
            _CountingSystem.factors = 0
            ef.epsilon_star(p, grid)
            counts.append(_CountingSystem.factors)
        assert counts == [15, 17, 19, 1]
        assert _CountingSystem.solves == 0

    def test_non_finite_matrix_raises(self, gauss_grid_small, monkeypatch):
        # dpttrf's pivot test d <= 0 lets NaN through as positive definite
        V = ef.hessian_infimum_V(gauss_grid_small)
        V[7] = np.nan
        monkeypatch.setattr(spectrum, "hessian_infimum_V", lambda grid: V)
        with pytest.raises(SolverDiverged, match="non-finite"):
            ef.epsilon_star(1.5, gauss_grid_small)

    def test_negative_hessian_fails_even_at_zero(self):
        pot, x = _negative_hessian_potential()
        g = ef.make_interval_grid(-1, 1, len(x), pot)
        # oracle: dense symmetric eigensolve confirms lambda1(p) < 0
        V = ef.hessian_infimum_V(g)
        p = 1.5
        coeff = 2 * (p - 1) / p
        diag, off = _assemble_symmetrized(g.node_mass, g.conductance, coeff, V)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.linalg.eigvalsh(dense)[0] < -1.0
        assert ef.epsilon_star(p, g) == 0.0

    def test_p_two_rejected(self, gauss_grid_small):
        with pytest.raises(ParameterError):
            ef.epsilon_star(2.0, gauss_grid_small)
