"""Time integration: conservation, decay, trace round-trips."""

import functools
import sys
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

import entroflow as ef
from entroflow import flows, functionals
from entroflow import grid as grid_module
from entroflow.errors import (
    ConfigError,
    LinearSolveFailure,
    MassNotNormalized,
    NewtonDiverged,
    SolverDiverged,
)


class TestInitialField:
    def test_bump_positive_unit_mass(self, gauss_grid):
        v = ef.initial_field(gauss_grid, "bump:0.4")
        assert v.min() > 0.0
        assert ef.integrate_dgamma(gauss_grid, v) == pytest.approx(1.0, abs=1e-14)

    def test_odd_centered(self, gauss_grid):
        v = ef.initial_field(gauss_grid, "odd:0.2")
        assert ef.integrate_dgamma(gauss_grid, v) == pytest.approx(1.0, abs=1e-14)
        phi = v - 1.0
        assert abs(ef.integrate_dgamma(gauss_grid, phi)) <= 1e-14
        assert np.max(np.abs(phi)) == pytest.approx(0.2, rel=1e-10)

    def test_const(self, gauss_grid):
        assert_allclose(ef.initial_field(gauss_grid, "const"), 1.0)

    def test_amplitude_guard(self, gauss_grid):
        with pytest.raises(ConfigError):
            ef.initial_field(gauss_grid, "bump:0.95")

    def test_csv_round_trip(self, gauss_grid, tmp_path):
        v = ef.initial_field(gauss_grid, "bump:0.3")
        path = tmp_path / "field.csv"
        np.savetxt(path, v, delimiter=",")
        v2 = ef.initial_field(gauss_grid, f"csv:{path}")
        assert_allclose(v2, v, rtol=1e-12)

    def test_csv_length_mismatch(self, gauss_grid, tmp_path):
        path = tmp_path / "short.csv"
        np.savetxt(path, np.ones(7), delimiter=",")
        with pytest.raises(ConfigError, match=r"initial datum has shape \(7,\), grid needs "
                                              rf"\({gauss_grid.n},\)"):
            ef.initial_field(gauss_grid, f"csv:{path}")

    @pytest.mark.parametrize("spec, message", [
        ("bump", "cannot parse initial datum spec 'bump'"),
        ("equilibrium", "cannot parse initial datum spec 'equilibrium'"),
        ("wave:0.2", "unknown initial datum family 'wave'"),
    ])
    def test_malformed_spec(self, gauss_grid, spec, message):
        with pytest.raises(ConfigError, match=message):
            ef.initial_field(gauss_grid, spec)

    def test_csv_negative_entry(self, gauss_grid, tmp_path):
        v = np.ones(gauss_grid.n)
        v[100] = -1e-3
        path = tmp_path / "negative.csv"
        np.savetxt(path, v, delimiter=",")
        with pytest.raises(ConfigError, match="initial datum has negative entries"):
            ef.initial_field(gauss_grid, f"csv:{path}")


class TestLinearFlow:
    def test_equilibrium_is_fixed_point(self, monkeypatch, gauss_grid_small, states):
        # a constant start has no component off the constants: its rows are
        # the field itself, with no factorization and no solve
        counts = spy_calls(monkeypatch, "factor", "solve")
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="const", t_end=0.2, dt=1e-3)
        tr = ef.run_linear(cfg, gauss_grid_small)
        assert counts == {"factor": 0, "solve": 0}
        assert tr.meta["windows"] == [] and tr.meta["clamps"] == 0
        assert np.max(np.abs(tr.E)) <= 1e-13
        assert np.max(np.abs(tr.I)) <= 1e-13
        assert np.max(np.abs(tr.K)) <= 1e-13
        assert tr.mass_drift <= 1e-13
        assert np.all(tr.min_v == 1.0)
        assert len(states) == len(tr.t)
        assert all(np.all(v == 1.0) for v in states)
        assert np.all(tr.q4 == 0.0)

    def test_states_match_the_matrix_exponential(self, gauss_grid_small, states):
        # exp(tL) v0 from scipy's expm_multiply (truncated Taylor series with
        # scaling, Al-Mohy and Higham) on L = -W^{-1} S assembled here from the
        # conductances: within 1e-12 in the dgamma norm and within the
        # windows' max-norm tolerance 1e-7 at every node, tails included
        from scipy.sparse import diags
        from scipy.sparse.linalg import expm_multiply

        g = gauss_grid_small
        c = g.conductance
        S = diags([np.r_[c, 0.0] + np.r_[0.0, c], -c, -c], [0, 1, -1], format="csr")
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="bump:0.3", t_end=0.2, dt=1e-3,
                            stride=20)
        tr = ef.run_linear(cfg, g)
        assert len(states) == len(tr.t) == 11
        want = expm_multiply(diags(-1.0 / g.node_mass) @ S, ef.initial_field(g, "bump:0.3"),
                             start=0.0, stop=0.2, num=11, endpoint=True)
        for got, ref in zip(states, want):
            assert np.max(np.abs(got - ref)) <= 1e-7
            assert ef.norm_dgamma(g, got - ref) <= 1e-12

    def test_mass_drift_at_round_off_on_a_fine_grid(self, gauss_pot):
        grid = ef.make_interval_grid(-8.0, 8.0, 20001, gauss_pot)
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="odd:0.2", t_end=1.0, dt=1e-3,
                            stride=50)
        assert ef.run_linear(cfg, grid).mass_drift <= 1e-15

    def test_one_factorization_per_window_and_a_solve_per_basis_vector(
            self, monkeypatch, gauss_grid_small):
        # the windows halve back from the last row: rows (0, 1], (1, 3],
        # (3, 6], (6, 12], (12, 25], (25, 50], (50, 100]; no operator call
        counts = spy_calls(monkeypatch, "factor", "solve", "delta_g")
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="bump:0.3", t_end=0.1, dt=1e-3)
        trace = ef.run_linear(cfg, gauss_grid_small)
        windows = trace.meta["windows"]
        assert (trace.meta["n_steps"], trace.meta["stride"], len(trace.t)) == (100, 1, 101)
        assert [w["t"] for w in windows] == [
            [a * 1e-3, b * 1e-3]
            for a, b in [(0, 1), (1, 3), (3, 6), (6, 12), (12, 25), (25, 50), (50, 100)]]
        assert all(1 <= w["k"] <= flows._MAX_KRYLOV for w in windows)
        assert counts == {"factor": len(windows), "solve": sum(w["k"] for w in windows),
                          "delta_g": 0}
        for w in windows:
            change_w, change_max = w["estimate"]
            assert change_w < flows._KRYLOV_TOL_W and change_max < flows._KRYLOV_TOL_MAX
            assert "split" not in w

    def test_first_row_is_the_initial_field(self, gauss_grid_small, states):
        # row 0 is not reconstructed from the expansion, where a zero node of
        # the start came out near -1e-16 and raised NegativeDensity
        v0 = ef.initial_field(gauss_grid_small, "bump:0.4")
        v0[gauss_grid_small.n // 3] = 0.0
        v0 /= ef.integrate_dgamma(gauss_grid_small, v0)
        cfg = ef.FlowConfig(kind="linear", p=1.5, init=v0, t_end=0.05, dt=1e-3, stride=5)
        tr = ef.run_linear(cfg, gauss_grid_small)
        assert states[0].tobytes() == v0.tobytes()
        assert tr.min_v[0] == 0.0 and tr.min_v[1:].min() > 0.0
        assert tr.E[0] == ef.entropy(ef.LinearParams(1.5), v0, gauss_grid_small)

    def test_array_init_left_unchanged(self, gauss_grid_small, states):
        # the run writes its rows over its own copy of the start, never over
        # the caller's array
        init = ef.initial_field(gauss_grid_small, "bump:0.3")
        kept = init.copy()
        cfg = ef.FlowConfig(kind="linear", p=1.5, init=init, t_end=0.05, dt=1e-3)
        ef.run_linear(cfg, gauss_grid_small)
        assert np.array_equal(init, kept)
        assert not np.array_equal(states[-1], kept)

    def test_scratch_arrays_change_no_bit(self, monkeypatch, gauss_grid_small, states):
        # the expansion uses the snapshot's work arrays as its scratch; fresh
        # scratch arrays must give the same trace and states bytes
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="odd:0.2", t_end=0.2, dt=1e-3,
                            stride=5)
        reused = ef.run_linear(cfg, gauss_grid_small)
        kept = np.array(states)
        states.clear()
        init = flows._Krylov.__init__

        def fresh_scratch(self, grid, *args):
            init(self, grid, *args)
            self.snapshot = types.SimpleNamespace(
                row=np.empty(grid.n), work=np.empty(grid.n), a=np.empty(grid.n))

        monkeypatch.setattr(flows._Krylov, "__init__", fresh_scratch)
        fresh = ef.run_linear(cfg, gauss_grid_small)
        assert reused._csv_text() == fresh._csv_text()
        assert kept.tobytes() == np.array(states).tobytes()

    def test_mass_conserved(self, linear_run_p15):
        assert linear_run_p15.mass_drift <= 1e-10

    def test_entropy_decays_below_spectral_envelope(self, linear_run_p15):
        tr = linear_run_p15
        env = tr.E[0] * np.exp(-2.0 * tr.t)
        assert np.all(tr.E <= env * (1.0 + 1e-6))

    def test_fitted_rate_matches_gap(self, gauss_grid):
        # twice the spectral gap of the discrete generator, computed
        # independently by a LAPACK tridiagonal eigensolve
        from scipy.linalg import eigh_tridiagonal
        from entroflow.spectrum import _assemble_symmetrized

        cfg = ef.FlowConfig(kind="linear", p=2.0, init="odd:0.2", t_end=4.0,
                            dt=1e-3, stride=20)
        tr = ef.run_linear(cfg, gauss_grid)
        rate = ef.fit_exponential_rate(tr, "E", window=(0.5, 3.5))
        diag, off = _assemble_symmetrized(
            gauss_grid.node_mass, gauss_grid.conductance, 1.0,
            np.zeros(gauss_grid.n),
        )
        gap = eigh_tridiagonal(diag, off, select="i", select_range=(1, 1),
                               eigvals_only=True)[0]
        assert rate == pytest.approx(2.0 * gap, rel=0.02)
        assert rate == pytest.approx(2.0, rel=0.02)

    def test_snapshot_count_default(self, gauss_grid_small):
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="bump:0.3", t_end=1.0, dt=1e-3)
        tr = ef.run_linear(cfg, gauss_grid_small)
        assert len(tr.t) >= 200


class TestKrylovWindows:
    """exp(tL) v0 on the windows: oracles, the tails, the k cap and clamps."""

    def test_odd_start_decays_as_its_eigenfunction(self, gauss_grid, linear_run_p15):
        # on the Gaussian, x is the eigenfunction of L with eigenvalue 1, so
        # odd:0.2 gives v(t) = 1 + (v0 - 1) e^{-t} up to the grid's O(h^2)
        # space error; Crank-Nicolson at dt = 1e-3 missed E and I by 3.3e-7
        tr = linear_run_p15
        v0 = ef.initial_field(gauss_grid, "odd:0.2")
        snapshot = functionals._Snapshot(ef.LinearParams(1.5), gauss_grid)
        want = np.array([snapshot(1.0 + (v0 - 1.0) * np.exp(-t))[:2] for t in tr.t])
        assert_allclose(tr.E, want[:, 0], rtol=1e-9, atol=0)
        assert_allclose(tr.I, want[:, 1], rtol=1e-9, atol=0)

    def test_discrete_eigenvector_start_decays_exactly(self, gauss_grid):
        # started from c + a phi, phi the first nonconstant eigenvector of the
        # grid's own L (eigenvalue -lam), the flow is c + a phi e^{-lam t}
        # exactly, so every column is pinned with no space error: against
        # x, the continuum eigenfunction, K and q4 of the n = 2001 run differ
        # by 2.9e-9 and 2.2e-8 relative at t = 0.34, all of it x's O(h^2)
        # defect (scipy's expm_multiply of the same start gives 1.7e-10 and
        # 3.2e-10, and so does x at n = 20001)
        from scipy.linalg import eigh_tridiagonal
        from entroflow.spectrum import _assemble_symmetrized

        diag, off = _assemble_symmetrized(gauss_grid.node_mass, gauss_grid.conductance, 1.0,
                                          np.zeros(gauss_grid.n))
        (lam,), y = eigh_tridiagonal(diag, off, select="i", select_range=(1, 1))
        phi = y[:, 0] / np.sqrt(gauss_grid.node_mass)
        v0 = 1.0 + 0.2 * phi / np.max(np.abs(phi))
        c = ef.integrate_dgamma(gauss_grid, v0)
        cfg = ef.FlowConfig(kind="linear", p=1.5, init=v0, t_end=4.0, dt=1e-3, stride=20)
        tr = ef.run_linear(cfg, gauss_grid)
        snapshot = functionals._Snapshot(ef.LinearParams(1.5), gauss_grid)
        want = np.array([snapshot(c + (v0 - c) * np.exp(-lam * t)) for t in tr.t])
        for name, col in (("E", 0), ("I", 1), ("K", 2), ("q4", 5)):
            assert_allclose(tr.column(name), want[:, col], rtol=1e-9, atol=0, err_msg=name)
        assert np.max(np.abs(tr.min_v - want[:, 4])) <= 1e-12

    @pytest.mark.parametrize("grid", [
        lambda: ef.make_radial_grid(3, 12.0, 1000, ef.harmonic_log(0.05)),
        lambda: ef.make_interval_grid(-16.0, 16.0, 1000, ef.power_law(1.5)),
    ], ids=["radial-harmonic_log", "power"])
    def test_tail_minimum_matches_small_step_crank_nicolson(self, grid):
        # min_v is read at nodes where the weight is near e^{-72} (radial) or
        # e^{-64} (power), which the dgamma norm does not see; the windows'
        # max-norm bound holds it to the Crank-Nicolson flow at dt = 1e-4
        # (the pme stepper at m = 1 solves the same linear system)
        grid = grid()
        common = dict(p=1.5, init="bump:0.3", t_end=0.5)
        tr = ef.run_linear(ef.FlowConfig(kind="linear", dt=1e-3, **common), grid)
        ref = ef.run_pme(ef.FlowConfig(kind="pme", m=1.0, dt=1e-4, stride=10 * tr.meta["stride"],
                                       **common), grid)
        assert_allclose(tr.t, ref.t, rtol=1e-12)
        assert np.max(np.abs(tr.min_v - ref.min_v)) <= 1e-6
        assert_allclose(tr.E, ref.E, rtol=1e-6, atol=0)
        assert_allclose(tr.I, ref.I, rtol=1e-6, atol=0)
        assert tr.mass_drift <= 1e-15

    def test_stalled_window_is_split(self, monkeypatch):
        # the CI's radial run: from t = 0.25 the max-norm bound stalls at
        # 1.4e-7, above its tolerance, long after the dgamma test is met; the
        # stalled window is listed, with the solves it took, before its halves
        grid = ef.make_radial_grid(3, 12.0, 1000, ef.harmonic_log(0.05))
        counts = spy_calls(monkeypatch, "factor", "solve")
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="bump:0.3", t_end=0.5, dt=1e-3)
        trace = ef.run_linear(cfg, grid)
        windows = trace.meta["windows"]
        spans = [[round(t, 12) for t in w["t"]] for w in windows]
        split = [i for i, w in enumerate(windows) if w.get("split")]
        assert [spans[i] for i in split] == [[0.25, 0.5]]
        assert spans[split[0] + 1:] == [[0.25, 0.374], [0.374, 0.5]]  # rows (125, 187], (187, 250]
        stalled = windows[split[0]]
        assert stalled["k"] < flows._MAX_KRYLOV
        assert stalled["estimate"][0] < flows._KRYLOV_TOL_W <= flows._KRYLOV_TOL_MAX
        assert stalled["estimate"][1] >= flows._KRYLOV_TOL_MAX
        for w in windows[:split[0]] + windows[split[0] + 1:]:
            assert w["estimate"][0] < flows._KRYLOV_TOL_W
            assert w["estimate"][1] < flows._KRYLOV_TOL_MAX
        assert counts == {"factor": len(windows), "solve": sum(w["k"] for w in windows)}

    def test_one_row_window_at_the_cap_raises(self, monkeypatch, gauss_grid_small):
        monkeypatch.setattr(flows, "_MAX_KRYLOV", 4)
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="bump:0.3", t_end=0.2, dt=1e-3,
                            stride=20)
        with pytest.raises(SolverDiverged, match=(
                r"window t in \[0, 0\.02\]: .* did not converge in 4 solves \(last "
                r"coefficient change \S+ relative in the dgamma norm, \S+ in the max norm\)")):
            ef.run_linear(cfg, gauss_grid_small)

    def test_compact_start_clamps_round_off_below_zero(self, gauss_pot):
        # outside the support the exact state is positive but below the
        # expansion's error: values a little below zero are set to 0 and
        # counted, as Crank-Nicolson kept them at or above 0
        grid = ef.make_interval_grid(-8.0, 8.0, 801, gauss_pot)
        v = np.maximum(2.25 - (grid.nodes + 1.0) ** 2, 0.0)
        cfg = ef.FlowConfig(kind="linear", p=1.5, init=v / ef.integrate_dgamma(grid, v),
                            t_end=0.2, dt=1e-3)
        tr = ef.run_linear(cfg, grid)
        assert tr.clamps == tr.meta["clamps"] > 0
        assert tr.min_v.min() == 0.0
        assert tr.mass_drift <= 1e-14


@pytest.mark.parametrize("run, params", [
    ("linear_recorded_p15", ef.LinearParams(1.5)),
    ("pme_recorded", ef.PmeParams(m=1.2, p=1.5)),
])
def test_snapshot_functionals_are_the_public_ones(request, gauss_grid, run, params):
    # a snapshot shares one s-field between I and K; each value must be the
    # one the functional gives on its own
    tr, states = request.getfixturevalue(run)
    assert len(states) == len(tr.t) > 5
    for snap, v in enumerate(states):
        assert (tr.E[snap], tr.I[snap], tr.K[snap]) == tuple(
            f(params, v, gauss_grid) for f in (ef.entropy, ef.fisher, ef.second_order))


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
def test_q4_column_is_the_quartic_gradient_of_the_state(gauss_grid_small, states, p):
    # q4 = int |D v^{p/4}|^4 dgamma, from z = s^{1/2} on the snapshot's work arrays
    cfg = ef.FlowConfig(kind="linear", p=p, init="bump:0.3", t_end=0.2, dt=1e-3, stride=10)
    tr = ef.run_linear(cfg, gauss_grid_small)
    assert len(states) == len(tr.q4) == 21
    want = [ef.integrate_dgamma(gauss_grid_small,
                                ef.gradient_sq(gauss_grid_small, v ** (p / 4)) ** 2)
            for v in states]
    assert_allclose(tr.q4, want, rtol=1e-13, atol=0)
    assert min(want) > 0.0


def test_q4_column_is_finite_where_K_is_not(gauss_grid_small, states):
    # a zero node puts the first row below the floor: K is nan there, while
    # q4, like I, is taken on v clipped to the floor, so z is floor^{p/4} at
    # that node
    v0 = ef.initial_field(gauss_grid_small, "bump:0.4")
    v0[gauss_grid_small.n // 2] = 0.0
    v0 /= ef.integrate_dgamma(gauss_grid_small, v0)
    cfg = ef.FlowConfig(kind="linear", p=1.5, init=v0, t_end=0.05, dt=1e-3, stride=5)
    tr = ef.run_linear(cfg, gauss_grid_small)
    assert np.isnan(tr.K[0]) and np.isfinite(tr.K[1:]).all()
    want = [ef.integrate_dgamma(gauss_grid_small,
                                ef.gradient_sq(gauss_grid_small, z) ** 2)
            for z in (np.maximum(v, functionals.DEFAULT_FLOOR) ** 0.375 for v in states)]
    assert np.isfinite(tr.q4).all()
    assert_allclose(tr.q4, want, rtol=1e-13, atol=0)


def test_pme_trace_has_no_q4(pme_run):
    assert pme_run.q4 is None
    with pytest.raises(KeyError, match="q4"):
        pme_run.column("q4")


@pytest.mark.parametrize("kind", ["linear", "pme"])
@pytest.mark.parametrize("zero_node", [False, True], ids=["positive", "zero-node"])
def test_snapshot_grid_integrals(monkeypatch, gauss_grid_small, kind, zero_node):
    # a snapshot sums E, the mass, the Fisher edge terms, K (only at or
    # above the floor) and, linear only, q4 once each; the mass sum serves
    # both the unit-mass check and the trace column
    n = gauss_grid_small.n
    v0 = ef.initial_field(gauss_grid_small, "bump:0.4")
    if zero_node:
        v0[n // 2] = 0.0
        v0 /= ef.integrate_dgamma(gauss_grid_small, v0)
    fsum_into = grid_module._fsum_into
    snapshot, other, krylov = [], [], []
    calls = {"entroflow.functionals": snapshot, "entroflow.flows": krylov}

    def counting(terms, work):
        # filed under the module whose call of a grid function makes the sum
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] in ("entroflow.grid", __name__):
            frame = frame.f_back
        calls.get(frame.f_globals["__name__"], other).append(len(terms))
        return fsum_into(terms, work)

    monkeypatch.setattr(grid_module, "_fsum_into", counting)
    stepper = spy_calls(monkeypatch, "integrate_dgamma", "norm_dgamma")
    cfg = ef.FlowConfig(kind=kind, p=1.5, m=1.2, init=v0, t_end=0.05, dt=1e-3, stride=5)
    tr = (ef.run_linear if kind == "linear" else ef.run_pme)(cfg, gauss_grid_small)
    assert len(tr.t) == 11
    assert np.isnan(tr.K[0]) == zero_node
    assert np.isfinite(tr.K[1:]).all()
    want = []
    for K in tr.K:
        want += [n, n, n - 1, n] if np.isfinite(K) else [n, n, n - 1]
        want += [n] if kind == "linear" else []
    assert snapshot == want
    assert other == []
    if kind == "pme":
        # the stepper's, one sum per call: the mass at the start (nothing is
        # clamped), and per step the deviation at its start and each try's
        # error estimate
        assert stepper["integrate_dgamma"] == 1 and tr.meta["clamps"] == 0
        assert stepper["norm_dgamma"] >= 2 * tr.meta["accepted"]
        assert krylov == [n] * (stepper["integrate_dgamma"] + stepper["norm_dgamma"])
        return
    # the expansion's dgamma sums: the mass once; per window, the start's mean
    # twice and its norm; per solve, the mean twice, the Lanczos step on the
    # last two basis rows, all k rows once more and the new row's norm
    windows = [w["k"] for w in tr.meta["windows"]]
    assert len(windows) == 4
    sums = sum(3 + sum(3 + min(j, 2) + j for j in range(1, k + 1)) for k in windows)
    assert krylov == [n] * (sums + 1)


@pytest.mark.parametrize("kind", ["linear", "pme"])
class TestArrayInit:
    """An array init gets the checks a csv: init gets, in both flows."""

    @staticmethod
    def run(kind, grid, init):
        cfg = ef.FlowConfig(kind=kind, p=1.5, m=1.2, init=init, t_end=0.01, dt=1e-3)
        return (ef.run_linear if kind == "linear" else ef.run_pme)(cfg, grid)

    @pytest.mark.parametrize("bad, message", [
        (lambda n: np.ones(5), r"shape \(5,\), grid needs \(501,\)"),
        (lambda n: np.ones((n, 1)), r"shape \(501, 1\)"),
        (lambda n: np.where(np.arange(n) == 7, np.nan, 1.0), "non-finite"),
        (lambda n: np.where(np.arange(n) == 7, -1e-3, 1.0), "negative"),
    ], ids=["short", "column", "nan", "negative"])
    def test_malformed_array_is_a_config_error(self, gauss_grid_small, kind, bad, message):
        with pytest.raises(ConfigError, match=message):
            self.run(kind, gauss_grid_small, bad(gauss_grid_small.n))

    def test_mass_two_is_rejected(self, gauss_grid_small, kind):
        # the linear flow ran at mass 2 (mass_drift 1.0) where pme refused
        with pytest.raises(MassNotNormalized):
            self.run(kind, gauss_grid_small, 2.0 * np.ones(gauss_grid_small.n))


class TestPmeFlow:
    def test_equilibrium_is_fixed_point(self, gauss_grid_small):
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=1.2, init="const", t_end=0.2, dt=1e-3)
        tr = ef.run_pme(cfg, gauss_grid_small)
        assert np.max(np.abs(tr.E)) <= 1e-13
        assert np.max(np.abs(tr.I)) <= 1e-13

    def test_m_one_reproduces_linear(self, gauss_grid_small):
        common = dict(p=1.5, init="bump:0.3", t_end=0.5, dt=2e-3, stride=25)
        lin = ef.run_linear(ef.FlowConfig(kind="linear", **common), gauss_grid_small)
        pme = ef.run_pme(ef.FlowConfig(kind="pme", m=1.0, **common), gauss_grid_small)
        assert np.max(np.abs(lin.E - pme.E)) <= 1e-8 * max(1.0, lin.E[0])
        assert np.max(np.abs(lin.I - pme.I)) <= 1e-8 * max(1.0, lin.I[0])

    @pytest.mark.parametrize("init", ["bump:0.4", "odd:0.2"])
    def test_m_one_matches_the_exponential(self, gauss_grid, states, init):
        # at m = 1 the pme flow is the linear one, whose Krylov exponential is
        # good to about 1e-10: (E, I, K) agree within the step tolerance (the
        # measured errors are 1.0e-7, 1.0e-7, 2.7e-7 from bump:0.4 and 1.6e-6
        # on all three from odd:0.2, whose single mode adds up 200 steps'
        # errors), and the recorded estimate bounds the state's error
        common = dict(p=1.5, init=init, t_end=2.0, dt=1e-2)
        lin = ef.run_linear(ef.FlowConfig(kind="linear", **common), gauss_grid)
        pme = ef.run_pme(ef.FlowConfig(kind="pme", m=1.0, **common), gauss_grid)
        rows = len(lin.t)
        for col in ("E", "I", "K"):
            err = np.max(np.abs(pme.column(col) / lin.column(col) - 1.0))
            assert err <= 2 * flows._TOL, col
        norm = functools.partial(grid_module.norm_dgamma, gauss_grid)
        error = max(norm(b - a) / norm(a - 1.0) for a, b in zip(states[1:rows], states[rows + 1:]))
        assert 1e-9 < error <= pme.meta["error_estimate"]

    def test_estimate_stays_relative_below_the_noise_floor(self, monkeypatch,
                                                            gauss_grid_small):
        # near equilibrium a step is bounded by 100 times the Newton tolerance,
        # not by _TOL times the deviation; the recorded sum still adds each
        # accepted step's estimate over the deviation it starts from
        step, advance = flows._PmeStepper._step, flows._PmeStepper.advance
        tries, accepted = [], []

        def spy_step(self, v, h):
            out = step(self, v, h)
            tries.append((self.deviation, self.tol, out and out[2]))
            return out

        def spy_advance(self, v, t_row):
            x = advance(self, v, t_row)
            accepted.append(tries[-1])
            return x

        monkeypatch.setattr(flows._PmeStepper, "_step", spy_step)
        monkeypatch.setattr(flows._PmeStepper, "advance", spy_advance)
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=1.2, init="bump:0.3", t_end=20.0, dt=1e-2)
        total = ef.run_pme(cfg, gauss_grid_small).meta["error_estimate"]
        assert len(accepted) > 200 and all(dev > 0.0 for dev, _, _ in accepted)
        assert total == pytest.approx(sum(error / dev for dev, _, error in accepted), rel=1e-12)
        floor = [error / dev for dev, tol, error in accepted if flows._TOL * dev < 100.0 * tol]
        assert max(floor) > flows._TOL

    def test_run_linear_refuses_a_pme_config(self, gauss_grid_small):
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=1.2, init="const", t_end=0.01, dt=1e-3)
        with pytest.raises(ConfigError, match="run_linear needs a config with kind='linear'"):
            ef.run_linear(cfg, gauss_grid_small)

    def test_monotone_decay_and_conservation(self, pme_run):
        assert np.all(np.diff(pme_run.E) < 0)
        assert np.all(np.diff(pme_run.I) < 0)
        assert pme_run.mass_drift <= 1e-10
        assert pme_run.clamps == 0
        assert pme_run.min_v.min() > 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ef.FlowConfig(kind="pme", p=1.5)  # missing m
        with pytest.raises(ConfigError):
            ef.FlowConfig(kind="weird", p=1.5)

    @pytest.mark.parametrize("bad", [
        dict(dt=0.0), dict(dt=-1e-3), dict(dt=float("nan")), dict(dt=float("inf")),
        dict(stride=0), dict(stride=-1),
        dict(t_end=float("nan")), dict(t_end=float("inf")),
    ])
    def test_step_and_stride_validation(self, bad):
        with pytest.raises(ConfigError):
            ef.FlowConfig(kind="linear", p=1.5, **bad)

    @pytest.mark.parametrize("run", [ef.run_linear, ef.run_pme], ids=["linear", "pme"])
    def test_t_end_under_half_a_step_is_rejected(self, run, gauss_pot):
        # at n = 201 on [-8, 8] the default dt is 10 h^2 = 0.064; t_end = 0.01
        # used to be rounded up to one step and run to t = 0.064
        grid = ef.make_interval_grid(-8.0, 8.0, 201, gauss_pot)
        kind = "linear" if run is ef.run_linear else "pme"
        cfg = ef.FlowConfig(kind=kind, p=1.5, m=1.2, t_end=0.01)
        with pytest.raises(ConfigError, match=r"t_end=0\.01 .* dt=0\.064"):
            run(cfg, grid)
        one_step = ef.FlowConfig(kind=kind, p=1.5, m=1.2, t_end=0.04)
        assert one_step.resolved(grid)[:2] == (pytest.approx(0.064, rel=1e-15), 1)
        assert run(one_step, grid).meta["n_steps"] == 1

    def test_step_count_cap_is_inclusive(self, gauss_grid_small):
        # arithmetic only: resolved() runs no step.  The cap is on the rows,
        # n_steps // stride, which set the work; at stride 1 each step is a row
        cap = flows._MAX_ROWS
        at_cap = ef.FlowConfig(kind="linear", p=1.5, t_end=float(cap), dt=1.0, stride=1)
        assert at_cap.resolved(gauss_grid_small) == (1.0, cap, 1)
        over = ef.FlowConfig(kind="linear", p=1.5, t_end=float(cap + 1), dt=1.0, stride=1)
        with pytest.raises(ConfigError, match=r"t_end=1e\+07 at stride=1 and dt=1 is 1e\+07 "
                           r"rows, over the cap of 1e\+07"):
            over.resolved(gauss_grid_small)
        # more steps than the cap in fewer rows: at the default stride, and 100 rows
        default = ef.FlowConfig(kind="linear", p=1.5, t_end=float(cap + 1), dt=1.0)
        assert default.resolved(gauss_grid_small) == (1.0, cap, (cap + 1) // 200)
        fine = ef.FlowConfig(kind="pme", p=1.5, m=1.2, t_end=1.0, dt=1e-8, stride=10**6)
        assert fine.resolved(gauss_grid_small) == (1e-8, 10**8, 10**6)


def spy_calls(monkeypatch, *names):
    """Count the calls the steppers make to the named ``flows`` globals, or to
    the ``factor``/``solve`` methods of their LAPACK systems."""
    counts = dict.fromkeys(names, 0)

    def spy(name):
        owner = flows.SPDTridiagonal if name in ("factor", "solve") else flows
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    for name in names:
        spy(name)
    return counts


def failing_factorization(monkeypatch):
    """Make every LAPACK dpttrf call in the steppers report info=1; returns
    the list of calls made."""
    calls = []

    def factor(system):
        calls.append(system.n)
        return 1

    monkeypatch.setattr("entroflow.flows.SPDTridiagonal.factor", factor)
    return calls


class TestSolveFailures:
    def test_linear_factorization_failure(self, monkeypatch, gauss_grid_small):
        failing_factorization(monkeypatch)
        cfg = ef.FlowConfig(kind="linear", p=1.5, t_end=0.01, dt=1e-3)
        with pytest.raises(LinearSolveFailure):
            ef.run_linear(cfg, gauss_grid_small)

    @pytest.mark.parametrize("cap", [2, None], ids=["patched-cap", "default-cap"])
    def test_rejections_give_up_at_the_cap(self, monkeypatch, gauss_grid_small, cap):
        # every factorization fails, so every try is a stalled step: the
        # controller halves the step after each and gives up at the cap
        calls = failing_factorization(monkeypatch)
        if cap is not None:
            monkeypatch.setattr(flows, "_MAX_REJECTIONS", cap)
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=1.2, t_end=0.01, dt=1e-3)
        tries = flows._MAX_REJECTIONS
        last = 1e-3 / 2 ** (tries - 1)  # the first try is one row, dt at stride 1
        with pytest.raises(NewtonDiverged, match=rf"at t=0 rejected {tries} times in a row; "
                           rf"last step size {last:.3g}$"):
            ef.run_pme(cfg, gauss_grid_small)
        assert len(calls) == tries


def compact_start(tmp_path, grid):
    """A csv: init spec of max(2.25 - (x+1)^2, 0), a compact support."""
    path = tmp_path / "compact.csv"
    np.savetxt(path, np.maximum(2.25 - (grid.nodes + 1.0) ** 2, 0.0), delimiter=",")
    return f"csv:{path}"


class TestNewtonWork:
    def test_work_counters_match_the_calls(self, monkeypatch, gauss_pot):
        # at n = 4001 the residual's rounding (~3e-14) lies above 1e-14: Newton
        # must stop once an update meets the tolerance, not line-search against
        # it, so L(v^m) is evaluated once at the start and once per update
        counts = spy_calls(monkeypatch, "factor", "delta_g")
        grid = ef.make_interval_grid(-8.0, 8.0, 4001, gauss_pot)
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=1.2, theta=0.5, init="bump:0.4",
                            t_end=0.02, dt=1e-3)
        trace = ef.run_pme(cfg, grid)
        meta = trace.meta
        assert trace.mass_drift <= 1e-13
        assert meta["n_steps"] == 20
        assert counts["factor"] == meta["factorizations"]
        assert counts["delta_g"] == meta["newton_iterations"] + 1
        # each step factors once at its start and ends on one of the 20 rows
        assert meta["rejected"] == 0
        assert meta["factorizations"] == meta["accepted"] == 20
        assert meta["newton_iterations"] < 7 * meta["accepted"]

    def test_tolerance_sets_the_error(self, monkeypatch, gauss_pot):
        # (E, I, K) over t in [0, 0.1] against a run at a 1000 times tighter
        # tolerance: the errors (1.1e-8, 3.7e-8 and 1.3e-7) are within the
        # tolerance, and both the steps and the estimate follow it
        grid = ef.make_interval_grid(-8.0, 8.0, 801, gauss_pot)
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=1.2, theta=0.5, init="bump:0.4",
                            t_end=0.1, dt=1e-3, stride=5)
        tol = flows._TOL
        trace = ef.run_pme(cfg, grid)
        monkeypatch.setattr(flows, "_TOL", tol / 1000.0)
        fine = ef.run_pme(cfg, grid)
        assert fine.meta["accepted"] > 5 * trace.meta["accepted"]
        assert fine.meta["error_estimate"] < trace.meta["error_estimate"] / 10.0
        for col in ("E", "I", "K"):
            err = np.max(np.abs(trace.column(col) / fine.column(col) - 1.0))
            assert 1e-9 < err <= tol, col
        assert trace.mass_drift <= 1e-13

    @pytest.mark.parametrize("rate", [None, 1.0], ids=["default", "always-reuse"])
    def test_slow_chord_updates_refactor(self, monkeypatch, tmp_path, gauss_pot, rate):
        # a compact support with m = 4 and dt = 0.5 contracts slowly: updates
        # that miss the contraction test refactor, and with every improving
        # update reused the chord updates that fail are redone fresh; the
        # first steps, one row long, stall and are rejected
        if rate is not None:
            monkeypatch.setattr(flows, "_CHORD_CONTRACTION", rate)
        grid = ef.make_interval_grid(-8.0, 8.0, 801, gauss_pot)
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=4.0, init=compact_start(tmp_path, grid),
                            t_end=1.0, dt=0.5)
        trace = ef.run_pme(cfg, grid)
        meta = trace.meta
        assert meta["n_steps"] == 2
        assert meta["accepted"] < meta["factorizations"] < meta["newton_iterations"]
        assert meta["rejected"] > 0 and meta["clamps"] > 0
        assert trace.mass_drift <= 1e-13
        # Crank-Nicolson at dt = 1e-4 and 5e-5, Richardson-extrapolated, gives
        # E(1) = 0.0041016824066 (and this stepper at a 100 times tighter
        # tolerance 0.00410168240660); one Crank-Nicolson step of 0.5 was 5 % off
        assert trace.E[-1] == pytest.approx(0.00410168240665, rel=1e-6)

    # t_end = 0.1 of the m = 4 start already rejects about 100 steps
    @pytest.mark.parametrize("m, dt, t_end", [(2.0, 1e-3, 0.2), (4.0, 0.1, 0.1)],
                             ids=["clamps", "rejections"])
    def test_carried_operator_matches_a_fresh_one(self, monkeypatch, tmp_path, gauss_pot,
                                                  m, dt, t_end):
        # each stage starts from L(x^m) carried from the last Newton residual,
        # across clamps and rejected steps; evaluating it afresh changes nothing
        grid = ef.make_interval_grid(-8.0, 8.0, 801, gauss_pot)
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=m, init=compact_start(tmp_path, grid),
                            t_end=t_end, dt=dt)
        carried = ef.run_pme(cfg, grid)
        newton = flows._PmeStepper._newton

        def fresh(self, x, lx, rhs, gh):
            lx = ef.delta_g(grid, np.power(np.maximum(x, ef.DEFAULT_FLOOR), m))
            return newton(self, x, lx, rhs, gh)

        monkeypatch.setattr(flows._PmeStepper, "_newton", fresh)
        recomputed = ef.run_pme(cfg, grid)
        assert carried.clamps > 0
        assert (carried.meta["rejected"] > 0) == (m == 4.0)
        assert carried._csv_text() == recomputed._csv_text()

    def test_steps_end_on_the_row_times(self, monkeypatch, gauss_grid_small):
        # the accepted steps tile each row interval and end exactly on its row
        # time, so t is a row time, not a sum of steps, at every row
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=1.2, init="bump:0.4", t_end=0.3,
                            dt=0.01, stride=3)
        advance = flows._PmeStepper.advance
        ends = []

        def spy(self, v, t_row):
            x = advance(self, v, t_row)
            ends.append((self.t, t_row))
            return x

        monkeypatch.setattr(flows._PmeStepper, "advance", spy)
        trace = ef.run_pme(cfg, gauss_grid_small)
        rows = [t for t, t_row in ends if t == t_row]
        assert rows == [(j * 3) * 0.01 for j in range(1, 11)] == trace.t[1:].tolist()
        assert all(t < t_row for t, t_row in ends if t != t_row)
        assert len(ends) == trace.meta["accepted"] > 10


class TestTraceIO:
    @pytest.mark.parametrize("run, header", [
        ("pme_run", "t,E,I,K,mass,min_v"), ("linear_run_p15", "t,E,I,K,mass,min_v,q4"),
    ], ids=["pme", "linear"])
    def test_csv_round_trip_exact(self, request, tmp_path, run, header):
        trace = request.getfixturevalue(run)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_text().splitlines()[3] == header
        back = ef.Trace.from_csv(path)
        for col in header.split(","):
            assert_allclose(back.column(col), trace.column(col), rtol=0, atol=0)
        assert back.config["p"] == trace.config["p"]
        assert back.grid_id == trace.grid_id

    def test_six_column_linear_trace_reads_without_q4(self, linear_run_p15, tmp_path):
        # the format of linear traces written before the q4 column
        path = tmp_path / "trace.csv"
        linear_run_p15.to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + [line.rpartition(",")[0] for line in lines[3:]])
                        + "\n")
        back = ef.Trace.from_csv(path)
        assert back.q4 is None
        assert_allclose(back.E, linear_run_p15.E, rtol=0, atol=0)

    def test_headers_without_rows_are_rejected(self, linear_run_p15, tmp_path):
        path = tmp_path / "empty.csv"
        linear_run_p15.to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line for line in lines if line[0] in "#t") + "\n")
        with pytest.raises(ConfigError, match="no data rows in trace"):
            ef.Trace.from_csv(path)

    @pytest.mark.parametrize("header", ["t,E,I,K,mass,min_v,q5", "t,E,I,K,mass,min_v,q4,x",
                                        "t,I,E,K,mass,min_v"])
    def test_unknown_header_is_rejected(self, linear_run_p15, tmp_path, header):
        path = tmp_path / "trace.csv"
        linear_run_p15.to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + [header] + lines[4:]) + "\n")
        with pytest.raises(ConfigError, match="line 4: unknown header"):
            ef.Trace.from_csv(path)

    def test_row_without_q4_is_rejected(self, linear_run_p15, tmp_path):
        # under the seven-column header a row cut to six values is malformed,
        # not a row of a trace without q4
        path = tmp_path / "trace.csv"
        linear_run_p15.to_csv(path)
        lines = path.read_text().splitlines()
        lines[9] = lines[9].rpartition(",")[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError,
                           match=r"line 10: 6 columns, expected 7 \(t,E,I,K,mass,min_v,q4\)"):
            ef.Trace.from_csv(path)

    def test_pme_meta_counters_round_trip(self, gauss_grid_small, tmp_path):
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=1.2, init="bump:0.4", t_end=0.05,
                            dt=1e-3)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            ef.run_pme(cfg, gauss_grid_small).to_csv(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        meta = ef.Trace.from_csv(paths[0]).meta
        assert isinstance(meta["newton_iterations"], int)
        assert meta["newton_iterations"] >= meta["accepted"] >= 50
        assert meta["rejected"] == 0
        assert 0.0 < meta["error_estimate"] < 50 * flows._TOL

    @pytest.mark.parametrize("kind", ["linear", "pme"])
    def test_array_init_round_trip(self, gauss_grid_small, tmp_path, kind):
        init = np.ones(gauss_grid_small.n)
        cfg = ef.FlowConfig(kind=kind, p=1.5, m=1.2, init=init, t_end=0.01, dt=1e-3)
        runner = ef.run_linear if kind == "linear" else ef.run_pme
        trace = runner(cfg, gauss_grid_small)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = ef.Trace.from_csv(path)
        assert trace.config["init"] == back.config["init"] == "array"
        assert np.all(init == 1.0)  # the caller's array is left as it was
        for col in ("t", "E", "I", "K", "mass", "min_v"):
            assert_allclose(back.column(col), trace.column(col), rtol=0, atol=0)
        assert back.meta == trace.meta

    def test_deterministic_bytes(self, gauss_grid_small, tmp_path):
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="bump:0.3", t_end=0.2, dt=1e-3)
        a = ef.run_linear(cfg, gauss_grid_small)
        b = ef.run_linear(cfg, gauss_grid_small)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()
