"""Grid construction, quadrature and the structural operator identities."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

import entroflow as ef
from entroflow.errors import DegenerateDomain, DomainError, NonFiniteWeight, TailMassTooLarge
from entroflow.grid import stiffness_bands


class TestIntervalGrid:
    def test_dgamma_normalized(self, gauss_grid):
        assert abs(gauss_grid.dgamma_weights.sum() - 1.0) <= 1e-14

    def test_symmetric_weights_for_even_potential(self, gauss_grid):
        mu = gauss_grid.dgamma_weights
        assert_allclose(mu, mu[::-1], rtol=1e-13)

    def test_flat_measure_trapezoid(self, flat_grid):
        # interior weights 1/100, halved at the two ends
        mu = flat_grid.dgamma_weights
        assert_allclose(mu[1:-1], 0.01, rtol=1e-13)
        assert_allclose(mu[[0, -1]], 0.005, rtol=1e-13)

    def test_gaussian_second_moment_against_quadrature(self, gauss_grid):
        # oracle: adaptive quadrature of the same truncated integrals
        num, _ = integrate.quad(lambda x: x * x * np.exp(-x * x / 2), -8, 8)
        den, _ = integrate.quad(lambda x: np.exp(-x * x / 2), -8, 8)
        oracle = num / den
        val = ef.integrate_dgamma(gauss_grid, gauss_grid.nodes**2)
        assert abs(val - oracle) <= 1e-9
        assert abs(val - 1.0) <= 1e-6

    def test_too_few_nodes(self, gauss_pot):
        with pytest.raises(DegenerateDomain):
            ef.make_interval_grid(-1.0, 1.0, 8, gauss_pot)

    def test_empty_interval(self, gauss_pot):
        with pytest.raises(DegenerateDomain):
            ef.make_interval_grid(2.0, -2.0, 100, gauss_pot)

    def test_underflowing_weight_rejected(self):
        x = np.linspace(-1, 1, 33)
        F = np.full_like(x, 1e6)  # e^{-F} underflows to 0
        pot = ef.tabulated(x, F, np.zeros_like(x), np.zeros_like(x))
        with pytest.raises(NonFiniteWeight):
            ef.make_interval_grid(-1.0, 1.0, 33, pot)


class TestRadialGrid:
    def test_normalization_and_stagger(self):
        pot = ef.harmonic_log(0.1, d=3)
        g = ef.make_radial_grid(3, 12.0, 4000, pot)
        assert abs(g.dgamma_weights.sum() - 1.0) <= 1e-14
        assert g.nodes[0] == pytest.approx(g.h / 2)
        assert g.nodes[0] > 0

    def test_weight_mass_richardson(self):
        # doubled resolution changes the unnormalized weight mass below 1e-6 rel
        pot = ef.harmonic_log(0.1, d=3)
        g1 = ef.make_radial_grid(3, 12.0, 4000, pot)
        g2 = ef.make_radial_grid(3, 12.0, 8000, pot)
        assert abs(g1.weight_mass - g2.weight_mass) / g2.weight_mass <= 1e-6

    def test_d1_matches_interval_on_even_data(self, gauss_grid):
        g1 = ef.make_radial_grid(1, 8.0, 2001, ef.harmonic(d=1))
        f_rad = np.cos(g1.nodes) ** 2
        f_int = np.cos(gauss_grid.nodes) ** 2
        a = ef.integrate_dgamma(g1, f_rad)
        b = ef.integrate_dgamma(gauss_grid, f_int)
        assert abs(a - b) <= 1e-10

    def test_tail_mass_guard(self):
        with pytest.raises(TailMassTooLarge):
            ef.make_radial_grid(3, 2.0, 64, ef.harmonic(d=3))

    def test_radial_grid_leaves_scipy_integrate_unloaded(self):
        # the tail estimate is a closed form; building a grid needs no quadrature module
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, entroflow as ef; "
             "ef.make_radial_grid(3, 12.0, 400, ef.harmonic_log(0.05, d=3)); "
             "print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_sphere_area(self):
        assert ef.sphere_area(1) == pytest.approx(2.0)
        assert ef.sphere_area(2) == pytest.approx(2 * np.pi)
        assert ef.sphere_area(3) == pytest.approx(4 * np.pi)


class TestOperatorIdentities:
    def test_constants_in_kernel(self, gauss_grid):
        out = ef.delta_g(gauss_grid, np.ones(gauss_grid.n))
        assert np.max(np.abs(out)) == 0.0

    def test_delta_g_on_linear_profile(self, gauss_grid):
        # for the Gaussian weight, applying the operator to x gives -x
        out = ef.delta_g(gauss_grid, gauss_grid.nodes.copy())
        interior = slice(1, -1)
        err = np.abs(out[interior] + gauss_grid.nodes[interior])
        assert err.max() <= 5e-3  # second-order interior truncation

    def test_summation_by_parts(self, gauss_grid, rng):
        worst = 0.0
        for _ in range(100):
            u = rng.standard_normal(gauss_grid.n)
            v = rng.standard_normal(gauss_grid.n)
            lhs = ef.inner_dgamma(gauss_grid, u, ef.delta_g(gauss_grid, v))
            rhs = -ef.dirichlet_form(gauss_grid, u, v)
            scale = ef.norm_dgamma(gauss_grid, u) * ef.norm_dgamma(gauss_grid, v)
            worst = max(worst, abs(lhs - rhs) / scale)
        assert worst <= 1e-12

    def test_self_adjointness(self, gauss_grid, rng):
        worst = 0.0
        for _ in range(100):
            u = rng.standard_normal(gauss_grid.n)
            v = rng.standard_normal(gauss_grid.n)
            a = ef.inner_dgamma(gauss_grid, u, ef.delta_g(gauss_grid, v))
            b = ef.inner_dgamma(gauss_grid, v, ef.delta_g(gauss_grid, u))
            scale = ef.norm_dgamma(gauss_grid, u) * ef.norm_dgamma(gauss_grid, v)
            worst = max(worst, abs(a - b) / scale)
        assert worst <= 1e-12

    def test_radial_summation_by_parts(self, rng):
        g = ef.make_radial_grid(3, 12.0, 800, ef.harmonic_log(0.1, d=3))
        for _ in range(20):
            u = rng.standard_normal(g.n)
            v = rng.standard_normal(g.n)
            lhs = ef.inner_dgamma(g, u, ef.delta_g(g, v))
            rhs = -ef.dirichlet_form(g, u, v)
            scale = ef.norm_dgamma(g, u) * ef.norm_dgamma(g, v)
            assert abs(lhs - rhs) / scale <= 1e-12

    def test_alignment_check(self, gauss_grid):
        with pytest.raises(ValueError):
            ef.delta_g(gauss_grid, np.ones(7))


@st.composite
def random_interval_grids(draw):
    """Even n in [16, 4000] on a random subinterval of [-10, 10], with a
    harmonic, flat or power:beta weight; the power family is singular at
    x = 0, so no node may land there."""
    n = 2 * draw(st.integers(8, 2000))
    xL = draw(st.floats(-10.0, 9.0))
    xR = draw(st.floats(xL + 1.0, 10.0))
    pot = draw(st.one_of(
        st.just(ef.harmonic()),
        st.just(ef.flat()),
        st.floats(1.0, 2.0, exclude_min=True).map(ef.power_law),
    ))
    if pot.family == "power":
        assume(np.all(np.linspace(xL, xR, n) != 0.0))
    return ef.make_interval_grid(xL, xR, n, pot)


class TestOperatorIdentitiesOnRandomGrids:
    """Relative errors are taken against ||u|| ||Lv||, the Cauchy-Schwarz size
    of the pairing, so the 1e-12 bound does not depend on the spacing h."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(random_interval_grids(), st.integers(0, 2**32 - 1))
    def test_summation_by_parts_and_self_adjointness(self, g, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(g.n)
        v = rng.standard_normal(g.n)
        Lu, Lv = ef.delta_g(g, u), ef.delta_g(g, v)
        scale = max(ef.norm_dgamma(g, u) * ef.norm_dgamma(g, Lv),
                    ef.norm_dgamma(g, v) * ef.norm_dgamma(g, Lu))
        u_Lv = ef.inner_dgamma(g, u, Lv)
        assert abs(u_Lv + ef.dirichlet_form(g, u, v)) <= 1e-12 * scale
        assert abs(u_Lv - ef.inner_dgamma(g, v, Lu)) <= 1e-12 * scale

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(random_interval_grids(), st.floats(-1e6, 1e6))
    def test_constants_in_kernel(self, g, c):
        assert np.all(ef.delta_g(g, np.full(g.n, c)) == 0.0)


def _stencil_grids():
    x = np.linspace(-3.0, 3.0, 301)
    wavy = ef.tabulated(x, 0.5 * x * x + 0.3 * np.cos(2 * x),
                        x - 0.6 * np.sin(2 * x), 1.0 - 1.2 * np.cos(2 * x))
    return {
        "interval": ef.make_interval_grid(-8.0, 8.0, 401, ef.harmonic()),
        "radial": ef.make_radial_grid(3, 12.0, 400, ef.harmonic_log(0.1, d=3)),
        "tabulated": ef.make_interval_grid(-3.0, 3.0, 301, wavy),
    }


class TestNodeWeights:
    @pytest.mark.parametrize("name", ["interval", "radial", "tabulated", "power"])
    def test_node_weights_from_F(self, name):
        grids = _stencil_grids()
        grids["power"] = ef.make_interval_grid(-16.0, 16.0, 400, ef.power_law(1.5))
        g = grids[name]
        F, _, _ = ef.evaluate(g.potential, g.nodes)
        assert np.array_equal(g.g_values, np.exp(-F))
        assert np.array_equal(g.node_mass, g.dx_weights * g.g_values)

    def test_power_grid_with_a_node_at_the_origin(self):
        # F is finite at x = 0, but F'' is not: the grid is refused
        with pytest.raises(DomainError):
            ef.make_interval_grid(-8.0, 8.0, 2001, ef.power_law(1.5))


class TestStiffnessStencil:
    @pytest.mark.parametrize("name", ["interval", "radial", "tabulated"])
    def test_rows_sum_to_zero(self, name):
        diag, off = stiffness_bands(_stencil_grids()[name].conductance)
        lower = np.concatenate(([0.0], off))
        upper = np.concatenate((off, [0.0]))
        assert np.all(diag + (lower + upper) == 0.0)

    @pytest.mark.parametrize("name", ["interval", "radial", "tabulated"])
    def test_matvec_matches_delta_g(self, name, rng):
        g = _stencil_grids()[name]
        diag, off = stiffness_bands(g.conductance)
        S = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        for _ in range(10):
            v = rng.standard_normal(g.n)
            Sv = S @ v
            ref = -g.node_mass * ef.delta_g(g, v)
            assert np.max(np.abs(Sv - ref)) <= 1e-13 * np.max(np.abs(Sv))

    def test_schrodinger_bound_uses_the_stencil(self, monkeypatch, gauss_pot, gauss_grid_small):
        seen = []

        def spy(conductance):
            seen.append(conductance)
            return stiffness_bands(conductance)

        monkeypatch.setattr("entroflow.spectrum.stiffness_bands", spy)
        g = gauss_grid_small
        ef.lambda1_schrodinger_bound(1.5, gauss_pot, g)
        assert len(seen) == 1
        assert np.array_equal(seen[0], g.conductance / g.g_face)


class TestGradientSq:
    def test_constant_gives_zero(self, gauss_grid):
        assert np.max(ef.gradient_sq(gauss_grid, np.full(gauss_grid.n, 3.7))) == 0.0

    def test_linear_profile_flat_measure(self, flat_grid):
        # exact for linear data on the flat measure, boundary nodes included
        out = ef.gradient_sq(flat_grid, flat_grid.nodes.copy())
        assert_allclose(out, 1.0, rtol=1e-12)

    def test_linear_profile_weighted_interior(self, gauss_grid):
        out = ef.gradient_sq(gauss_grid, gauss_grid.nodes.copy())
        assert_allclose(out[1:-1], 1.0, atol=2e-3)  # 1 + O(h^2) for smooth weights

    def test_integral_matches_dirichlet_form(self, gauss_grid, rng):
        v = rng.standard_normal(gauss_grid.n)
        a = ef.integrate_dgamma(gauss_grid, ef.gradient_sq(gauss_grid, v))
        b = ef.dirichlet_form(gauss_grid, v, v)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_nonnegative(self, gauss_grid, rng):
        for _ in range(10):
            v = rng.standard_normal(gauss_grid.n)
            assert ef.dirichlet_form(gauss_grid, v, v) >= 0.0


def test_refinement_second_order(gauss_pot):
    # Dirichlet form of a fixed smooth profile converges at second order
    vals = []
    for n in (251, 501, 1001):
        g = ef.make_interval_grid(-8.0, 8.0, n, gauss_pot)
        vals.append(ef.dirichlet_form(g, np.cos(g.nodes), np.cos(g.nodes)))
    d1, d2 = abs(vals[0] - vals[1]), abs(vals[1] - vals[2])
    order = np.log2(d1 / d2)
    assert 1.7 <= order <= 2.3
