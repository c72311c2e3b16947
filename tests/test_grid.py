"""Grid construction, quadrature and the structural operator identities."""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

import entroflow as ef
from entroflow.errors import (
    DegenerateDomain, NonFiniteWeight, ParameterError, TailMassTooLarge,
)
from entroflow.grid import stiffness_bands
from entroflow.potential import log_weight

SRC = Path(__file__).resolve().parents[1] / "src"
# Grid.ident of the README's --potential gaussian --domain=-8:8 --n 2001
README_GAUSSIAN_IDENT = "4475f6d140fb28d4"


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

    @pytest.mark.parametrize("xL, xR", [(-np.inf, 8.0), (np.nan, 8.0), (-8.0, np.inf),
                                        (-1e308, 1e308)])
    def test_nonfinite_endpoints_or_width(self, gauss_pot, xL, xR):
        with pytest.raises(DegenerateDomain, match="finite endpoints and width"):
            ef.make_interval_grid(xL, xR, 100, gauss_pot)

    def test_overflowing_potential_is_a_zero_weight(self, gauss_pot):
        # F = x^2/2 overflows to +inf: reported as a vanishing weight, no warning
        with pytest.raises(NonFiniteWeight, match="not finite and positive"):
            ef.make_interval_grid(-1e200, 1e200, 100, gauss_pot)

    def test_tabulated_ident_covers_the_whole_table(self):
        # report must not accept a grid rebuilt from a table that differs from
        # the one its trace ran on, even in one entry of F
        x = np.linspace(-10.0, 10.0, 2001)
        F = 0.5 * x * x + 0.5 * np.cos(x)

        def ident(F):
            return ef.make_interval_grid(-10.0, 10.0, 2001, ef.tabulated(x, F)).ident

        other = F.copy()
        other[1000] += 1e-12
        assert ident(F) == ident(F.copy())
        assert ident(F) != ident(other)

    def test_ident_is_the_hashlib_sha256(self, gauss_grid):
        # the builtin SHA-256 gives hashlib's digest: traces keep their idents
        g = gauss_grid
        text = "interval|1|np.float64(-8.0)|np.float64(8.0)|2001|harmonic"
        assert g.ident == hashlib.sha256(text.encode()).hexdigest()[:16]
        # the README's Gaussian grid, as every trace written on it records it
        assert g.ident == README_GAUSSIAN_IDENT

    def test_ident_does_not_follow_the_numpy_scalar_repr(self):
        # numpy 1.x writes a float64 scalar as -8.0, numpy 2 as np.float64(-8.0)
        with np.printoptions(legacy="1.25"):
            assert repr(np.float64(-8.0)) == "-8.0"
            g = ef.make_interval_grid(-8.0, 8.0, 2001, ef.harmonic())
        assert g.ident == README_GAUSSIAN_IDENT

    def test_tabulated_key_is_the_hashlib_sha256(self):
        x = np.linspace(-2.0, 2.0, 41)
        arrays = (x, 0.5 * x * x)
        digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
        assert ef.tabulated(*arrays).key() == f"tabulated(n=41,sha256={digest})"

    def test_ident_without_the_builtin_sha256_falls_back_to_hashlib(self):
        code = (
            "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
            "import hashlib, entroflow as ef, entroflow.potential as p; "
            "assert p._sha256 is hashlib.sha256; "
            "print(ef.make_interval_grid(-8.0, 8.0, 2001, ef.harmonic()).ident)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == README_GAUSSIAN_IDENT

    def test_underflowing_weight_rejected(self):
        x = np.linspace(-1, 1, 33)
        F = np.full_like(x, 1e6)  # e^{-F} underflows to 0
        pot = ef.tabulated(x, F)
        with pytest.raises(NonFiniteWeight):
            ef.make_interval_grid(-1.0, 1.0, 33, pot)

    @pytest.mark.parametrize("where", ["everywhere", "at the ends"])
    def test_underflowing_node_weight_rejected(self, where):
        # e^{-744} is a positive subnormal, but times the spacing the node
        # weight underflows: a zero mass made the dgamma weights NaN, and a
        # zero node mass a non-finite eigensolve matrix and a singular flow
        x = np.linspace(-1, 1, 33)
        F = np.full_like(x, 744.0) if where == "everywhere" else np.where(abs(x) > 0.9, 744.0, 0.0)
        pot = ef.tabulated(x, F)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteWeight, match="node weight underflows to 0"):
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

    def test_potential_dimension_must_match(self):
        # the grid hashed harmonic_log(eps=0.05,d=5) and solved lambda1 in d = 3
        with pytest.raises(ParameterError, match="got d = 5"):
            ef.make_radial_grid(3, 12.0, 2000, ef.harmonic_log(0.05, d=5))
        with pytest.raises(ParameterError, match="got d = 1"):
            ef.make_radial_grid(3, 12.0, 200, ef.flat())
        # an interval grid is one-dimensional whatever the potential's d
        assert ef.make_interval_grid(-8.0, 8.0, 64, ef.harmonic(3)).d == 1

    def test_tabulated_potential_is_refused(self):
        # a radial spectrum samples F'' and F'/r, which a table does not carry
        r = (np.arange(64) + 0.5) * (2.0 * 3.0 / 127)
        for d in (1, 3):
            with pytest.raises(ParameterError, match="tabulated potential is interval-only"):
                ef.make_radial_grid(d, 3.0, 64, ef.tabulated(r, 0.5 * r * r, d=d))

    def test_tail_mass_guard(self):
        with pytest.raises(TailMassTooLarge):
            ef.make_radial_grid(3, 2.0, 64, ef.harmonic(d=3))

    @pytest.mark.parametrize("d, R, n, message", [
        (3, 12.0, 15, "need at least 16 nodes, got 15"),
        (0, 12.0, 64, "dimension must be >= 1, got 0"),
        (3, 0.0, 64, "radius must be positive, got 0.0"),
        (3, -2.0, 64, "radius must be positive, got -2.0"),
    ], ids=["n", "d", "R-zero", "R-negative"])
    def test_degenerate_geometry(self, d, R, n, message):
        with pytest.raises(DegenerateDomain, match=message):
            ef.make_radial_grid(d, R, n, ef.harmonic(d=3))

    @pytest.mark.parametrize("R", [np.nan, np.inf])
    def test_nonfinite_radius(self, R):
        with pytest.raises(DegenerateDomain, match="radius must be finite"):
            ef.make_radial_grid(3, R, 64, ef.harmonic_log(0.05, d=3))

    def test_overflowing_radius(self):
        # R^2 overflows: the tail is empty, and so is the weight at the far nodes
        with pytest.raises(NonFiniteWeight, match="not finite and positive"):
            ef.make_radial_grid(3, 1e200, 64, ef.harmonic_log(0.05, d=3))
        # a flat weight does not vanish, but r^{d-1} h overflows its mass:
        # at R = 1e200 each weight is already inf, at R = 1e103 only their sum
        for R, n in [(1e200, 64), (1e103, 200)]:
            with pytest.raises(NonFiniteWeight, match="weight mass overflows"):
                ef.make_radial_grid(3, R, n, ef.flat(d=3))

    def test_radial_lambda1_loads_no_scipy_module(self):
        # the README radial command; scipy contributes only its compiled LAPACK extension
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from entroflow.cli import main\n"
             "code = main(['lambda1', '--p', '2.0', '--potential', 'harmonic_log:0.05',\n"
             "             '--radial', '3:12', '--n', '4000'])\n"
             "names = {'scipy', 'scipy.special', 'scipy.integrate', 'scipy._lib._array_api'}\n"
             "print(code, sorted(names & set(sys.modules)))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["0.944094745334", "0 []"]

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
    wavy = ef.tabulated(x, 0.5 * x * x + 0.3 * np.cos(2 * x))
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
        F = log_weight(g.potential, g.nodes)
        # flat dx weights: trapezoid on intervals, |S^{d-1}| r^{d-1} h radially
        if g.kind == "radial":
            w = ef.sphere_area(g.d) * g.nodes ** (g.d - 1) * g.h
        else:
            w = np.full(g.n, g.h)
            w[0] = w[-1] = 0.5 * g.h
        assert np.array_equal(g.node_mass, w * np.exp(-F))

    def test_power_grid_with_a_node_at_the_origin(self):
        # F is finite at x = 0 and no F'' is sampled: an odd n builds, and
        # its lambda1 sweep agrees with the even n next to it
        odd = ef.make_interval_grid(-16.0, 16.0, 2001, ef.power_law(1.5))
        assert odd.nodes[1000] == 0.0 and odd.node_mass[1000] == odd.h
        even = ef.make_interval_grid(-16.0, 16.0, 2000, ef.power_law(1.5))
        for p in (1.2, 1.5, 2.0):
            assert ef.lambda1_linear(p, odd).lam == pytest.approx(
                ef.lambda1_linear(p, even).lam, abs=2e-5)


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

    def test_quotients_use_the_stencil(self, monkeypatch, gauss_grid_small):
        # a radial quotient's stencil is the grid's; an interval's is its dual
        # grid's, with conductances C_{i-1/2} C_{i+1/2} / W_i
        seen = []

        def spy(conductance):
            seen.append(conductance)
            return stiffness_bands(conductance)

        monkeypatch.setattr("entroflow.spectrum.stiffness_bands", spy)
        g = gauss_grid_small
        ef.lambda1_linear(1.5, g)
        ef.lambda1_pme(0.5, g)
        C, W = g.conductance, g.node_mass
        assert len(seen) == 2
        for c in seen:  # a ghost edge at each end besides
            assert len(c) == g.n
            np.testing.assert_allclose(c[1:-1], C[:-1] * C[1:] / W[1:-1], rtol=1e-15)
        radial = _stencil_grids()["radial"]
        ef.lambda1_linear(1.5, radial)
        assert len(seen) == 3 and seen[2] is radial.conductance


# name: (function, its field arguments, caller arrays by keyword with their
# length as an offset from n)
CALLER_ARRAYS = {
    "delta_g": (ef.delta_g, 1, {"out": 0, "flux": -1}),
    "gradient_sq": (ef.gradient_sq, 1, {"out": 0, "edge": -1}),
    "dirichlet_form": (ef.dirichlet_form, 2, {"terms": -1, "work": -1}),
    "integrate_dgamma": (ef.integrate_dgamma, 1, {"terms": 0, "work": 0}),
    "inner_dgamma": (ef.inner_dgamma, 2, {"terms": 0, "work": 0}),
}


class TestCallerArrays:
    """Caller-owned result and scratch arrays only say where to write."""

    @pytest.mark.parametrize("name", CALLER_ARRAYS)
    @pytest.mark.parametrize("kind", ["interval", "radial"])
    @pytest.mark.parametrize("zero_node", [False, True], ids=["positive", "zero-node"])
    def test_same_bits_with_and_without(self, name, kind, zero_node):
        g = _stencil_grids()[kind]
        fn, n_fields, lengths = CALLER_ARRAYS[name]
        x = g.nodes / g.nodes[-1]
        u = 1.0 + 0.5 * np.sin(3.0 * x)
        if zero_node:
            u[g.n // 3] = 0.0
        w = np.exp(-x * x)
        for fields in ([(u,)] if n_fields == 1 else [(u, w), (u, u)]):
            before = [f.copy() for f in fields]
            want = fn(g, *fields)
            # NaN garbage: a value read from an array before it is written shows
            arrays = {key: np.full(g.n + off, np.nan) for key, off in lengths.items()}
            got = fn(g, *fields, **arrays)
            assert all(f.tobytes() == b.tobytes() for f, b in zip(fields, before))
            if isinstance(want, float):
                assert got.hex() == want.hex()
                # the sum ran on the caller's arrays, not on new ones
                assert all(not np.isnan(a).any() for a in arrays.values())
            else:
                assert got is arrays["out"]
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["interval", "radial"])
    def test_delta_g_of_a_constant_is_zero_over_garbage(self, kind):
        g = _stencil_grids()[kind]
        out, flux = np.full(g.n, 1e300), np.full(g.n - 1, np.nan)
        assert ef.delta_g(g, np.full(g.n, 3.7), out=out, flux=flux) is out
        assert np.all(out == 0.0)

    def test_integrand_may_be_its_own_terms(self, gauss_grid, rng):
        f = rng.standard_normal(gauss_grid.n)
        want = ef.integrate_dgamma(gauss_grid, f)
        assert ef.integrate_dgamma(gauss_grid, f, terms=f).hex() == want.hex()


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
