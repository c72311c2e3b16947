"""Time integration: conservation, decay, trace round-trips."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import entroflow as ef
from entroflow.errors import ConfigError, LinearSolveFailure, NewtonDiverged


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
        with pytest.raises(ConfigError):
            ef.initial_field(gauss_grid, f"csv:{path}")


class TestLinearFlow:
    def test_equilibrium_is_fixed_point(self, gauss_pot, gauss_grid_small):
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="const", t_end=0.2, dt=1e-3)
        tr = ef.run_linear(cfg, gauss_pot, gauss_grid_small)
        assert np.max(np.abs(tr.E)) <= 1e-13
        assert np.max(np.abs(tr.I)) <= 1e-13
        assert np.max(np.abs(tr.K)) <= 1e-13
        assert tr.mass_drift <= 1e-13
        # the increment of a constant field is exactly zero
        assert np.all(tr.min_v == 1.0)
        assert all(np.all(v == 1.0) for _, v in tr.fields)

    @pytest.mark.parametrize("scheme, theta", [("cn", 0.5), ("be", 1.0)])
    def test_step_matches_two_term_reference(self, scheme, theta, gauss_pot, gauss_grid):
        # (W + theta dt S) v' = W v - (1 - theta) dt S v, with S assembled here
        # from the conductances and solved by a banded Cholesky factorization
        from scipy.linalg import solveh_banded

        g, dt = gauss_grid, 1e-3
        c, W = g.conductance, g.node_mass
        sdiag = np.concatenate((c, [0.0])) + np.concatenate(([0.0], c))

        def S(v):
            return (sdiag * v - np.concatenate((c * v[1:], [0.0]))
                    - np.concatenate(([0.0], c * v[:-1])))

        ab = np.vstack((np.concatenate(([0.0], -theta * dt * c)), W + theta * dt * sdiag))
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="odd:0.2", t_end=0.2, dt=dt,
                            stride=20, audit_stride=1, scheme=scheme)
        tr = ef.run_linear(cfg, gauss_pot, g)
        assert len(tr.fields) == 11
        v = ef.initial_field(g, "odd:0.2")
        for step in range(1, 201):
            v = solveh_banded(ab, W * v - (1.0 - theta) * dt * S(v))
            if step % 20 == 0:
                got = tr.fields[step // 20][1]
                assert np.max(np.abs(got - v)) <= 1e-12 * np.max(np.abs(v))

    def test_mass_drift_at_round_off_on_a_fine_grid(self, gauss_pot):
        grid = ef.make_interval_grid(-8.0, 8.0, 20001, gauss_pot)
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="odd:0.2", t_end=1.0, dt=1e-3,
                            stride=50)
        assert ef.run_linear(cfg, gauss_pot, grid).mass_drift <= 1e-15

    def test_one_solve_per_step_and_no_operator_call(self, monkeypatch, gauss_pot,
                                                     gauss_grid_small):
        counts = spy_calls(monkeypatch, "dpttrs", "delta_g")
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="bump:0.3", t_end=0.1, dt=1e-3)
        trace = ef.run_linear(cfg, gauss_pot, gauss_grid_small)
        assert trace.meta["n_steps"] == 100
        assert counts == {"dpttrs": 100, "delta_g": 0}

    def test_mass_conserved(self, linear_run_p15):
        assert linear_run_p15.mass_drift <= 1e-10

    def test_entropy_decays_below_spectral_envelope(self, linear_run_p15):
        tr = linear_run_p15
        env = tr.E[0] * np.exp(-2.0 * tr.t)
        assert np.all(tr.E <= env * (1.0 + 1e-6))

    def test_fitted_rate_matches_gap(self, gauss_pot, gauss_grid):
        # twice the spectral gap of the discrete generator, computed
        # independently by a LAPACK tridiagonal eigensolve
        from scipy.linalg import eigh_tridiagonal
        from entroflow.spectrum import _assemble_symmetrized

        cfg = ef.FlowConfig(kind="linear", p=2.0, init="odd:0.2", t_end=4.0,
                            dt=1e-3, stride=20)
        tr = ef.run_linear(cfg, gauss_pot, gauss_grid)
        rate = ef.fit_exponential_rate(tr, "E", window=(0.5, 3.5))
        diag, off = _assemble_symmetrized(
            gauss_grid.node_mass, gauss_grid.conductance, 1.0,
            np.zeros(gauss_grid.n),
        )
        gap = eigh_tridiagonal(diag, off, select="i", select_range=(1, 1),
                               eigvals_only=True)[0]
        assert rate == pytest.approx(2.0 * gap, rel=0.02)
        assert rate == pytest.approx(2.0, rel=0.02)

    def test_snapshot_count_default(self, gauss_pot, gauss_grid_small):
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="bump:0.3", t_end=1.0, dt=1e-3)
        tr = ef.run_linear(cfg, gauss_pot, gauss_grid_small)
        assert len(tr.t) >= 200

    def test_backward_euler_option_runs(self, gauss_pot, gauss_grid_small):
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="bump:0.3", t_end=0.1,
                            dt=1e-3, scheme="be")
        tr = ef.run_linear(cfg, gauss_pot, gauss_grid_small)
        assert tr.mass_drift <= 1e-12
        assert np.all(np.diff(tr.E) < 0)


class TestPmeFlow:
    def test_equilibrium_is_fixed_point(self, gauss_pot, gauss_grid_small):
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=1.2, init="const", t_end=0.2, dt=1e-3)
        tr = ef.run_pme(cfg, gauss_pot, gauss_grid_small)
        assert np.max(np.abs(tr.E)) <= 1e-13
        assert np.max(np.abs(tr.I)) <= 1e-13

    def test_m_one_reproduces_linear(self, gauss_pot, gauss_grid_small):
        common = dict(p=1.5, init="bump:0.3", t_end=0.5, dt=2e-3, stride=25)
        lin = ef.run_linear(ef.FlowConfig(kind="linear", **common),
                            gauss_pot, gauss_grid_small)
        pme = ef.run_pme(ef.FlowConfig(kind="pme", m=1.0, **common),
                         gauss_pot, gauss_grid_small)
        assert np.max(np.abs(lin.E - pme.E)) <= 1e-8 * max(1.0, lin.E[0])
        assert np.max(np.abs(lin.I - pme.I)) <= 1e-8 * max(1.0, lin.I[0])

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
        with pytest.raises(ConfigError):
            ef.FlowConfig(kind="linear", p=1.5, scheme="rk4")


def spy_calls(monkeypatch, *names):
    """Count the calls the steppers make to the named ``flows`` globals."""
    from entroflow import flows

    counts = dict.fromkeys(names, 0)

    def spy(name):
        fn = getattr(flows, name)

        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(flows, name, wrapped)

    for name in names:
        spy(name)
    return counts


def failing_factorization(monkeypatch):
    """Make every LAPACK dpttrf call in the steppers report info=1; returns
    the list of calls made."""
    calls = []

    def dpttrf(d, e):
        calls.append(len(d))
        return d, e, 1

    monkeypatch.setattr("entroflow.flows.dpttrf", dpttrf)
    return calls


class TestSolveFailures:
    def test_linear_factorization_failure(self, monkeypatch, gauss_pot, gauss_grid_small):
        failing_factorization(monkeypatch)
        cfg = ef.FlowConfig(kind="linear", p=1.5, t_end=0.01, dt=1e-3)
        with pytest.raises(LinearSolveFailure):
            ef.run_linear(cfg, gauss_pot, gauss_grid_small)

    def test_newton_failure_exhausts_halvings(self, monkeypatch, gauss_pot, gauss_grid_small):
        calls = failing_factorization(monkeypatch)
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=1.2, t_end=0.01, dt=1e-3,
                            max_dt_halvings=2)
        with pytest.raises(NewtonDiverged):
            ef.run_pme(cfg, gauss_pot, gauss_grid_small)
        # depth-first bisection gives up at its first leaf: one try per depth
        assert len(calls) == 3

    def test_default_halvings_give_up_at_first_leaf(self, monkeypatch, gauss_pot):
        # 30 halvings deep, a full bisection tree would hold 2^30 substeps
        grid = ef.make_interval_grid(-8.0, 8.0, 201, gauss_pot)
        calls = failing_factorization(monkeypatch)
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=1.2, t_end=0.01, dt=1e-3)
        with pytest.raises(NewtonDiverged):
            ef.run_pme(cfg, gauss_pot, grid)
        assert len(calls) == cfg.max_dt_halvings + 1


class TestNewtonWork:
    def test_two_factorizations_per_step(self, monkeypatch, gauss_pot):
        # at n = 4001 the residual's round-off floor (~3e-14) lies above 1e-14:
        # Newton must stop once an update meets newton_tol, not line-search
        # against the floor
        counts = spy_calls(monkeypatch, "dpttrf", "delta_g")
        grid = ef.make_interval_grid(-8.0, 8.0, 4001, gauss_pot)
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=1.2, theta=0.5, init="bump:0.4",
                            t_end=0.02, dt=1e-3)
        trace = ef.run_pme(cfg, gauss_pot, grid)
        assert trace.meta["n_steps"] == 20
        assert counts["dpttrf"] == 40
        # L(v^m) once at the start, then once per accepted Newton update
        assert counts["delta_g"] <= 41
        assert trace.mass_drift <= 1e-13
        assert trace.meta["newton_iterations"] == 40
        assert trace.meta["dt_halvings"] == 0


    @pytest.mark.parametrize("m, dt, t_end", [(2.0, 1e-3, 0.2), (4.0, 0.5, 1.0)],
                             ids=["clamps", "halvings"])
    def test_carried_operator_matches_a_fresh_one(self, monkeypatch, tmp_path, gauss_pot,
                                                  m, dt, t_end):
        # each step reuses L(v^m) from the last accepted Newton residual, across
        # clamps and time-step halvings; evaluating it afresh must change nothing
        from entroflow import flows

        grid = ef.make_interval_grid(-8.0, 8.0, 801, gauss_pot)
        path = tmp_path / "compact.csv"
        np.savetxt(path, np.maximum(2.25 - (grid.nodes + 1.0) ** 2, 0.0), delimiter=",")
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=m, init=f"csv:{path}", t_end=t_end, dt=dt)
        carried = ef.run_pme(cfg, gauss_pot, grid)
        advance = flows._pme_advance

        def fresh(grid, bands, v, lv, *args, **kwargs):
            lv = ef.delta_g(grid, np.power(np.maximum(v, cfg.floor), m))
            return advance(grid, bands, v, lv, *args, **kwargs)

        monkeypatch.setattr(flows, "_pme_advance", fresh)
        recomputed = ef.run_pme(cfg, gauss_pot, grid)
        assert carried.clamps > 0
        assert (carried.meta["dt_halvings"] > 0) == (m == 4.0)
        assert carried._csv_text() == recomputed._csv_text()


class TestTraceIO:
    def test_csv_round_trip_exact(self, pme_run, tmp_path):
        path = tmp_path / "trace.csv"
        pme_run.to_csv(path)
        back = ef.Trace.from_csv(path)
        for col in ("t", "E", "I", "K", "mass", "min_v"):
            assert_allclose(back.column(col), pme_run.column(col), rtol=0, atol=0)
        assert back.config["p"] == pme_run.config["p"]
        assert back.grid_id == pme_run.grid_id

    def test_fields_round_trip(self, linear_run_p15, tmp_path):
        path = tmp_path / "fields.npz"
        linear_run_p15.save_fields(path)
        tr = ef.Trace(
            t=linear_run_p15.t, E=linear_run_p15.E, I=linear_run_p15.I,
            K=linear_run_p15.K, mass=linear_run_p15.mass,
            min_v=linear_run_p15.min_v, config=linear_run_p15.config,
            grid_id=linear_run_p15.grid_id,
        )
        tr.load_fields(path)
        assert len(tr.fields) == len(linear_run_p15.fields)
        idx0, v0 = tr.fields[0]
        assert idx0 == linear_run_p15.fields[0][0]
        assert_allclose(v0, linear_run_p15.fields[0][1], rtol=0, atol=0)

    def test_pme_meta_counters_round_trip(self, gauss_pot, gauss_grid_small, tmp_path):
        cfg = ef.FlowConfig(kind="pme", p=1.5, m=1.2, init="bump:0.4", t_end=0.05,
                            dt=1e-3)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            ef.run_pme(cfg, gauss_pot, gauss_grid_small).to_csv(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        meta = ef.Trace.from_csv(paths[0]).meta
        assert isinstance(meta["newton_iterations"], int)
        assert meta["newton_iterations"] >= meta["n_steps"]
        assert meta["dt_halvings"] == 0

    def test_deterministic_bytes(self, gauss_pot, gauss_grid_small, tmp_path):
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="bump:0.3", t_end=0.2, dt=1e-3)
        a = ef.run_linear(cfg, gauss_pot, gauss_grid_small)
        b = ef.run_linear(cfg, gauss_pot, gauss_grid_small)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()
