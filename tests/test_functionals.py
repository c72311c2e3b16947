"""Entropy / Fisher / second-order functionals, both families."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import entroflow as ef
from entroflow.errors import (
    FloorViolation,
    MassNotNormalized,
    NegativeDensity,
    ParameterError,
)
from entroflow import functionals
from entroflow import grid as grid_module
from entroflow.functionals import _Snapshot


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
            assert ef.entropy(prm, one, gauss_grid) == 0.0
            assert ef.fisher(prm, one, gauss_grid) == 0.0
            assert ef.second_order(prm, one, gauss_grid) == 0.0

    def test_p2_is_weighted_variance(self, gauss_grid):
        v = _perturbed(gauss_grid)
        e2 = ef.entropy(ef.LinearParams(2.0), v, gauss_grid)
        var = ef.integrate_dgamma(gauss_grid, (v - 1.0) ** 2)
        assert e2 == pytest.approx(var, rel=1e-12)

    def test_continuity_at_p_one(self, gauss_grid):
        v = _perturbed(gauss_grid)
        e_lim = ef.entropy(ef.LinearParams(1.0), v, gauss_grid)
        e_near = ef.entropy(ef.LinearParams(1.0001), v, gauss_grid)
        assert abs(e_near - e_lim) / max(abs(e_lim), 1e-300) < 1e-3

    def test_nonnegative_on_unit_mass(self, gauss_grid):
        v = _perturbed(gauss_grid)
        for p in (1.0, 1.5, 2.0):
            assert ef.entropy(ef.LinearParams(p), v, gauss_grid) >= 0.0

    def test_negative_density_rejected(self, gauss_grid):
        v = np.ones(gauss_grid.n)
        v[3] = -0.1
        with pytest.raises(NegativeDensity):
            ef.entropy(ef.LinearParams(1.5), v, gauss_grid)

    def test_p_range(self):
        with pytest.raises(ParameterError):
            ef.LinearParams(0.9)
        with pytest.raises(ParameterError):
            ef.LinearParams(2.1)


class TestLinearFisher:
    def test_p2_substitution(self, gauss_grid):
        v = _perturbed(gauss_grid)
        i2 = ef.fisher(ef.LinearParams(2.0), v, gauss_grid)
        assert i2 == pytest.approx(2.0 * ef.dirichlet_form(gauss_grid, v, v), rel=1e-12)

    def test_p1_classical_form(self, gauss_grid):
        v = _perturbed(gauss_grid)
        i1 = ef.fisher(ef.LinearParams(1.0), v, gauss_grid)
        root = np.sqrt(v)
        assert i1 == pytest.approx(4.0 * ef.dirichlet_form(gauss_grid, root, root), rel=1e-12)

    def test_floor_violation_in_k(self, gauss_grid):
        v = np.ones(gauss_grid.n)
        v[5] = 0.0
        with pytest.raises(FloorViolation):
            ef.second_order(ef.LinearParams(1.5), v, gauss_grid)


class TestSecondOrderBound:
    def test_k_dominates_spectral_fisher_bound(self, gauss_grid):
        # K >= lambda1 * (p/4) * I for data near equilibrium
        x = gauss_grid.nodes
        v = _normalized(gauss_grid, 1.0 + 0.1 * x / np.max(np.abs(x)))
        for p in (1.2, 1.5, 2.0):
            prm = ef.LinearParams(p)
            lam = ef.lambda1_linear(p, gauss_grid).lam
            K = ef.second_order(prm, v, gauss_grid)
            I = ef.fisher(prm, v, gauss_grid)
            assert K >= lam * (p / 4.0) * I * (1.0 - 1e-6)


class TestPmeParams:
    def test_frozen_values(self):
        prm = ef.PmeParams(m=1.2, p=1.5)
        assert prm.c == pytest.approx(8.16 / 3.61, rel=1e-12)
        assert prm.q == pytest.approx(2.1 / 1.9, rel=1e-12)
        assert prm.beta == pytest.approx(1.0 / 0.95, rel=1e-12)
        assert prm.alpha == pytest.approx(0.5 / 1.9, rel=1e-12)

    def test_exponents_against_mpmath(self):
        # beta m - 1 cancels to hundreds of ulp on this rectangle and
        # (p + 3(m-1)) / (p + 2(m-1)) rounds to 2 ulp; the formulas used stay within 2
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(25)
        with mpmath.workdps(40):
            for m, p in zip(rng.uniform(1.0, 2.5, 4000), rng.uniform(1.01, 1.99, 4000)):
                m, p = float(m), float(p)
                M, P = mpmath.mpf(m), mpmath.mpf(p)
                beta = 1 / (P / 2 + M - 1)
                refs = (beta, 1 + beta * (M - 1) / 2, (2 - P) / (P + 2 * (M - 1)))
                prm = ef.PmeParams(m=m, p=p)
                for value, ref in zip((prm.beta, prm.q, prm.alpha), refs):
                    assert abs(value - ref) <= 2 * math.ulp(float(ref))

    def test_one_definition_of_the_exponents(self):
        from entroflow.criteria import _abc

        rng = np.random.default_rng(7)
        chains = 0
        for m, p in zip(rng.uniform(1.0, 2.5, 200), rng.uniform(1.01, 1.99, 200)):
            prm = ef.PmeParams(m=float(m), p=float(p))
            assert _abc(prm.m, prm.p, 0.5)[0] == prm.q
            chain = ef.constants_report(prm.m, prm.p, 1.0, 1.0, 0.0)
            if "kappa" in chain:  # the chain is reported where the hypotheses hold
                chains += 1
                assert (chain["beta"], chain["q"], chain["alpha"]) == (
                    prm.beta, prm.q, prm.alpha)
        assert chains > 20
        # at m = 1 the linear alpha, bit for bit
        for p in np.linspace(1.0, 2.0, 101):
            p = float(p)
            assert ef.LinearParams(p).alpha == (2.0 - p) / p
            if 1.0 < p < 2.0:
                assert ef.PmeParams(m=1.0, p=p).alpha == (2.0 - p) / p

    def test_q_range_iff_m_between_one_and_p_plus_one(self):
        for m, p in ((1.1, 1.5), (1.9, 1.2), (2.3, 1.8)):
            prm = ef.PmeParams(m=m, p=p)
            assert (1.0 < prm.q < 4.0 / 3.0) == (1.0 < m < p + 1.0)

    def test_endpoints_rejected(self):
        with pytest.raises(ParameterError):
            ef.PmeParams(m=1.2, p=2.0)
        with pytest.raises(ParameterError):
            ef.PmeParams(m=1.2, p=1.0)
        for m in (-0.5, -1):
            with pytest.raises(ParameterError, match=f"m must be positive; got {m}"):
                ef.PmeParams(m=m, p=1.5)

    def test_m_plus_p_two_rejected(self):
        # E = int [v^{m+p-1} - 1] dgamma / (m+p-2) has no value there
        with pytest.raises(ParameterError, match=r"m \+ p != 2"):
            ef.PmeParams(m=0.5, p=1.5)
        assert ef.PmeParams(m=0.5, p=1.6).s_exponent == pytest.approx(0.3)


class TestPmeFunctionals:
    def test_equilibrium_zero(self, gauss_grid):
        one = np.ones(gauss_grid.n)
        prm = ef.PmeParams(m=1.2, p=1.5)
        assert ef.entropy(prm, one, gauss_grid) == 0.0
        assert ef.fisher(prm, one, gauss_grid) == 0.0
        assert ef.second_order(prm, one, gauss_grid) == 0.0

    def test_m_one_recovers_linear(self, gauss_grid):
        # one entropy integrand: at m = 1 its exponent is p and E the same double
        v = _perturbed(gauss_grid)
        for p in (1.2, 1.5, 1.9):
            lin = ef.LinearParams(p)
            pme = ef.PmeParams(m=1.0, p=p)
            assert ef.entropy(lin, v, gauss_grid) == ef.entropy(pme, v, gauss_grid)
            for f in (ef.fisher, ef.second_order):
                a = f(lin, v, gauss_grid)
                b = f(pme, v, gauss_grid)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    @pytest.mark.parametrize("f", [ef.entropy, ef.fisher, ef.second_order],
                             ids=lambda f: f.__name__)
    def test_mass_guard_follows_the_params(self, gauss_grid, f):
        # the params, not the function, decide the family and its checks
        v = np.full(gauss_grid.n, 1.5)
        with pytest.raises(MassNotNormalized):
            f(ef.PmeParams(m=1.2, p=1.5), v, gauss_grid)
        assert math.isfinite(f(ef.LinearParams(1.5), v, gauss_grid))

    def test_positivity(self, gauss_grid):
        v = _perturbed(gauss_grid)
        prm = ef.PmeParams(m=1.2, p=1.5)
        assert ef.entropy(prm, v, gauss_grid) > 0.0
        assert ef.fisher(prm, v, gauss_grid) > 0.0


def _fsum(a):
    return math.fsum(a.tolist())


def _gradient_sq_reference(grid, u):
    """|Du|^2 at the nodes: half of each edge's C (Du)^2 to either end, over W."""
    q = grid.conductance * np.diff(u) ** 2
    g = np.zeros(grid.n)
    g[:-1] += 0.5 * q
    g[1:] += 0.5 * q
    return g / grid.node_mass


def _s_pair(params, v, floor=ef.DEFAULT_FLOOR):
    """(s, s - 1): exp and expm1 of log(max(v, floor)) / beta, or (v, v - 1)
    where 1/beta is 1."""
    x = params.s_exponent
    if x == 1.0:
        return v, v - 1.0
    log = x * np.log(np.maximum(v, floor))
    return np.exp(log), np.expm1(log)


def _reference_rows(params, v, grid, floor=ef.DEFAULT_FLOOR):
    """The integrands (E, mass, I, K), and q4 for the linear family, of a
    snapshot from the formulas as plain numpy expressions; I holds the n - 1
    Fisher edge terms and K is None below the floor."""
    mu, pme = grid.dgamma_weights, isinstance(params, ef.PmeParams)
    # [v^c - 1 - c(v-1)]/e, c = e + 1, in d = v - 1; v log v - (v - 1) at e = 0
    c = params.p + (params.m - 1.0)
    e, d = c - 1.0, v - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.log1p(d)
        vlogv = np.where(v > 0.0, v * log, 0.0)
    if e == 0.0:
        E = mu * (vlogv - d)
    else:
        E = mu * ((np.expm1(c * log) - c * d) / e)
    # differences, L and D of s are taken of s - 1
    s, u = _s_pair(params, v, floor)
    du = np.diff(u)
    I = grid.conductance * du * du / grid.weight_mass
    K = None
    if v.min() >= floor:
        flux = grid.conductance * du
        Ls = np.zeros(grid.n)
        Ls[:-1] += flux
        Ls[1:] -= flux
        Ls /= grid.node_mass
        Gs = _gradient_sq_reference(grid, u)
        quad = Ls * Ls + params.alpha * Ls * Gs / s
        e2 = params.beta * (params.m - 1.0) if pme else 0.0
        if e2 != 0.0:
            quad = np.power(s, e2) * quad
        K = mu * quad
    # z - 1 = (s - 1)/(z + 1), z = s^{1/2}
    q4 = [] if pme else [mu * _gradient_sq_reference(grid, u / (np.sqrt(s) + 1.0)) ** 2]
    return [E, mu * v, I, K, *q4]


def _reference(params, v, grid, floor=ef.DEFAULT_FLOOR):
    """The snapshot row (E, I, K, mass, min_v, and q4 for the linear family)
    of the reference rows, each summed with math.fsum."""
    E, mass, I, K, *q4 = _reference_rows(params, v, grid, floor)
    pme = isinstance(params, ef.PmeParams)
    I = (params.c if pme else 4.0 / params.p) * _fsum(I)
    return (_fsum(E), I, np.nan if K is None else _fsum(K), _fsum(mass), float(v.min()),
            *map(_fsum, q4))


SNAPSHOT_PARAMS = [
    ef.LinearParams(1.0), ef.LinearParams(1.5), ef.LinearParams(2.0),
    ef.PmeParams(m=1.0, p=1.5), ef.PmeParams(m=1.2, p=1.5),
]


def _bits(values):
    return [float(x).hex() for x in values]


class TestSnapshot:
    @pytest.mark.parametrize("params", SNAPSHOT_PARAMS, ids=repr)
    def test_matches_public_functionals_and_formulas_bitwise(self, gauss_grid, params):
        v = _perturbed(gauss_grid)
        snap = _Snapshot(params, gauss_grid)
        got = snap(v)
        public = [f(params, v, gauss_grid) for f in (ef.entropy, ef.fisher, ef.second_order)]
        public += [ef.integrate_dgamma(gauss_grid, v), v.min()]
        if isinstance(params, ef.LinearParams):
            s, u = _s_pair(params, v)
            z1 = u / (np.sqrt(s) + 1.0)
            public.append(ef.integrate_dgamma(gauss_grid, ef.gradient_sq(gauss_grid, z1) ** 2))
        assert _bits(got) == _bits(public) == _bits(_reference(params, v, gauss_grid))
        # the work arrays carry nothing from one field to the next
        w = _perturbed(gauss_grid, amp=0.5, seed=2)
        assert _bits(snap(w)) == _bits(_reference(params, w, gauss_grid))
        assert _bits(snap(v)) == _bits(got)

    @pytest.mark.parametrize("params", SNAPSHOT_PARAMS, ids=repr)
    def test_integrand_rows_are_the_formulas_bitwise(self, monkeypatch, gauss_grid, params):
        # the sums hide a last-bit change in a few terms; the summed arrays do not
        v = _perturbed(gauss_grid)
        summed = []
        fsum_into = grid_module._fsum_into
        monkeypatch.setattr(grid_module, "_fsum_into", lambda terms, work:
                            summed.append(terms.copy()) or fsum_into(terms, work))
        _Snapshot(params, gauss_grid)(v)
        want = _reference_rows(params, v, gauss_grid)
        assert [a.tobytes() for a in summed] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("params", [*SNAPSHOT_PARAMS, ef.PmeParams(m=2.0, p=1.5),
                                        ef.PmeParams(m=0.4, p=1.5)], ids=repr)
    def test_a_zero_node_gives_the_entropy_term_one(self, monkeypatch, gauss_grid, params):
        # a compact support: where v = 0 the integrand is 1 exactly, in both
        # branches and for e = (m-1) + (p-1) of either sign, with no warning
        v = _normalized(gauss_grid, np.maximum(2.25 - (gauss_grid.nodes + 1.0) ** 2, 0.0))
        summed = []
        fsum_into = grid_module._fsum_into
        monkeypatch.setattr(grid_module, "_fsum_into", lambda terms, work:
                            summed.append(terms.copy()) or fsum_into(terms, work))
        zero = v == 0.0
        assert 0 < zero.sum() < gauss_grid.n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = _Snapshot(params, gauss_grid).entropy(v)
        assert summed[0][zero].tobytes() == gauss_grid.dgamma_weights[zero].tobytes()
        assert math.isfinite(E) and E > 0.0

    @pytest.mark.parametrize("params", SNAPSHOT_PARAMS, ids=repr)
    def test_k_is_nan_below_the_floor(self, gauss_grid, params):
        v = _perturbed(gauss_grid)
        v[100] = 0.0
        if isinstance(params, ef.PmeParams):
            v = _normalized(gauss_grid, v)
        E, I, K, *rest = _Snapshot(params, gauss_grid)(v)
        assert np.isnan(K)
        ref = _reference(params, v, gauss_grid, 1e-12)
        assert _bits((E, I, *rest)) == _bits(ref[:2] + ref[3:])
        assert _bits((E, I)) == _bits((ef.entropy(params, v, gauss_grid),
                                       ef.fisher(params, v, gauss_grid)))
        with pytest.raises(FloorViolation):
            ef.second_order(params, v, gauss_grid)

    @pytest.mark.parametrize("params", SNAPSHOT_PARAMS, ids=repr)
    def test_negative_entry_raises(self, gauss_grid, params):
        v = _perturbed(gauss_grid)
        v[7] = -1e-3
        with pytest.raises(NegativeDensity):
            _Snapshot(params, gauss_grid)(v)

    def test_pme_field_off_unit_mass_raises(self, gauss_grid):
        params = ef.PmeParams(m=1.2, p=1.5)
        v = _perturbed(gauss_grid) * (1.0 + 1e-7)
        with pytest.raises(MassNotNormalized):
            _Snapshot(params, gauss_grid)(v)
        # within 1e-8 of unit mass the snapshot evaluates
        w = _perturbed(gauss_grid) * (1.0 + 1e-9)
        assert _bits(_Snapshot(params, gauss_grid)(w)) == _bits(
            _reference(params, w, gauss_grid))

    @pytest.mark.parametrize("params", [ef.LinearParams(1.5), ef.PmeParams(m=1.2, p=1.5)],
                             ids=repr)
    def test_a_snapshot_allocates_no_field_sized_array(self, gauss_pot, params):
        grid = ef.make_interval_grid(-8.0, 8.0, 20001, gauss_pot)
        v = _perturbed(grid)
        snap = _Snapshot(params, grid)
        tracemalloc.start()
        try:
            snap(v)  # warm-up
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            snap(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < v.nbytes

