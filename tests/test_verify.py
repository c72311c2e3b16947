"""Verdict machinery: envelopes, rate fits, inequality audits, controls."""

import inspect
import math
import random
from dataclasses import replace

import numpy as np
import pytest

import entroflow as ef
from entroflow.errors import ConfigError, NonPositiveData, ParameterError, WindowTooShort
from entroflow.verify import _fit_rate, _median, _trial_field


def _synthetic_trace(rate=3.0, p=1.5, n=400, t_end=2.0):
    """Exact exponential columns satisfying both dissipation identities."""
    t = np.linspace(0.0, t_end, n)
    E = np.exp(-rate * t)
    I = rate * np.exp(-rate * t)  # dE/dt = -I
    K = (rate**2 * p / 8.0) * np.exp(-rate * t)  # dI/dt = -(8/p) K
    return ef.Trace(
        t=t, E=E, I=I, K=K, mass=np.ones(n), min_v=np.ones(n),
        config={"kind": "linear", "p": p}, grid_id="synthetic",
    )


def _equilibrium_trace(n=50):
    t = np.linspace(0.0, 1.0, n)
    z = np.zeros(n)
    return ef.Trace(
        t=t, E=z.copy(), I=z.copy(), K=z.copy(), mass=np.ones(n),
        min_v=np.ones(n), config={"kind": "linear", "p": 1.5}, grid_id="synthetic",
    )


class TestFitExponentialRate:
    def test_exact_on_exact_data(self):
        tr = _synthetic_trace(rate=3.0)
        assert ef.fit_exponential_rate(tr, "E") == pytest.approx(3.0, abs=1e-10)

    def test_window_selection(self):
        tr = _synthetic_trace(rate=2.0)
        assert ef.fit_exponential_rate(tr, "I", window=(0.5, 1.5)) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_window_too_short(self):
        tr = _synthetic_trace()
        with pytest.raises(WindowTooShort):
            ef.fit_exponential_rate(tr, "E", window=(0.0, 0.01))

    def test_nonpositive_data(self):
        tr = _synthetic_trace()
        tr.E[5] = 0.0
        with pytest.raises(NonPositiveData):
            ef.fit_exponential_rate(tr, "E")


class TestFitRate:
    def test_matches_polyfit_and_mpmath(self, rng):
        mpmath = pytest.importorskip("mpmath")
        for _ in range(20):
            n = int(rng.integers(10, 2000))
            t = np.sort(rng.uniform(0.0, 10.0, n))
            y = np.exp(-rng.uniform(0.1, 5.0) * t + rng.normal(0.0, 0.1, n))
            rate = _fit_rate(t, y)
            assert rate == pytest.approx(-np.polyfit(t, np.log(y), 1)[0], rel=1e-14)
            # the least-squares slope in 50 digits, from the logs numpy took
            with mpmath.workdps(50):
                tm = [mpmath.mpf(float(v)) for v in t]
                lm = [mpmath.mpf(float(v)) for v in np.log(y)]
                tbar, lbar = mpmath.fsum(tm) / n, mpmath.fsum(lm) / n
                slope = (mpmath.fsum((a - tbar) * (b - lbar) for a, b in zip(tm, lm))
                         / mpmath.fsum((a - tbar) ** 2 for a in tm))
            assert rate == pytest.approx(-float(slope), rel=1e-15)


class TestCheckEnvelope:
    def test_equilibrium_passes_with_zero_slack(self):
        tr = _equilibrium_trace()
        v = ef.check_envelope(tr, np.zeros(len(tr.t)), "E")
        assert v.passed and v.worst_violation == 0.0

    def test_true_rate_passes(self, linear_run_p15):
        tr = linear_run_p15
        v = ef.check_envelope(tr, ef.envelope_exponential(tr.E[0], 1.0, tr.t), "E")
        assert v.passed
        assert v.worst_violation >= 0.0

    def test_inflated_rate_fails(self, linear_run_p15):
        tr = linear_run_p15
        v = ef.check_envelope(tr, ef.envelope_exponential(tr.E[0], 1.5, tr.t), "E")
        assert not v.passed
        assert v.worst_violation < -0.1
        assert v.location > 0.0


class TestPoincare:
    def test_constant_field_is_degenerate(self, gauss_grid_small):
        # both sides at round-off: the trial tests nothing
        g = gauss_grid_small
        res = replace(ef.lambda1_linear(2.0, g), eigenvector=np.ones(g.n))
        v = ef.poincare_test(2.0, res, g, trials=0)
        assert v.details["degenerate_trials"] == v.details["trials"] == 1

    def test_degenerate_trials_do_not_set_the_margin(self, gauss_grid_small):
        # a constant trial (#1 here, and #0 when the eigenvector was the
        # Gaussian's constants) used to be the worst one, at slack 0.0
        g = gauss_grid_small
        res = ef.lambda1_linear(1.5, g)
        v = ef.poincare_test(1.5, res, g, trials=100, seed=1,
                             extra_trials=(np.ones(g.n),))
        assert v.details["degenerate_trials"] >= 1
        assert v.passed and v.worst_violation > 0.0 and v.location != 1
        # with every trial degenerate the verdict is their slack, 0 at trial 0
        only = ef.poincare_test(1.5, replace(res, eigenvector=np.ones(g.n)), g, trials=0)
        assert (only.worst_violation, only.location) == (0.0, 0)
        assert only.details["degenerate_trials"] == 1

    @pytest.mark.parametrize("p, slack", [(1.5, 0.3352), (2.0, 0.5)])
    def test_eigenvector_trial_is_near_extremal(self, gauss_grid_small, p, slack):
        # trial 0 is the Gaussian's gap eigenfunction x (less its left-end
        # value): at p = 2 it is tight in the sharp form E <= D / lambda, so
        # the checked form (2 / lambda) D leaves it the slack 1/2
        res = ef.lambda1_linear(p, gauss_grid_small)
        v = ef.poincare_test(p, res, gauss_grid_small, trials=100, seed=1)
        assert v.location == v.details["worst_trial"] == 0
        assert v.worst_violation == pytest.approx(slack, abs=1e-4)

    @pytest.mark.parametrize("lambda1, weak_wins", [(None, False), (0.1, True)],
                             ids=["lambda1-p", "weak"])
    def test_run_checks_tests_the_larger_constant(self, linear_run_p15, gauss_grid,
                                                  lambda1, weak_wins):
        # on the Gaussian at p = 1.5, lambda1(p) = 1 beats the weak constant
        # (p - 1) lambda1(2) = 0.5; a given lambda1 = 0.1 loses to it
        own = ef.lambda1_linear(1.5, gauss_grid)
        weak = 0.5 * ef.lambda1_linear(2.0, gauss_grid).lam
        lam = own.lam if lambda1 is None else lambda1
        assert (weak > lam) == weak_wins
        given = {} if lambda1 is None else {"lambda1": lambda1}
        (v,), _ = ef.run_checks(linear_run_p15, ["poincare"], lambda: gauss_grid,
                                trials=10, seed=2, **given)
        assert v.details["lambda"] == max(lam, weak)
        direct = ef.poincare_test(1.5, replace(own, lam=max(lam, weak)), gauss_grid,
                                  trials=10, seed=2)
        assert v == direct

    def test_worst_slack_does_not_rise_with_the_constant(self, gauss_grid_small):
        # the trials are fixed by the seed, and a larger constant only raises
        # each one's left side of 2 lambda E_p <= p I_p
        g = gauss_grid_small
        res = ef.lambda1_linear(1.5, g)
        verdicts = [ef.poincare_test(1.5, replace(res, lam=lam), g, trials=30, seed=4)
                    for lam in (0.1, 0.5, 1.0, 1.5, 3.0)]
        worst = [v.worst_violation for v in verdicts]
        assert worst == sorted(worst, reverse=True)
        assert worst[0] > 0.0 > worst[-1]
        assert len({v.details["degenerate_trials"] for v in verdicts}) == 1

    def test_trial_count_includes_extra_trials(self, gauss_grid_small):
        # trial 0 is the eigenvector, the extra trials come next, then the
        # seeded ones; the count covers them all, so a worst trial is below it
        g = gauss_grid_small
        xc = g.nodes - ef.integrate_dgamma(g, g.nodes)
        extra = tuple(1.0 + a * xc / np.max(np.abs(xc)) for a in (0.3, 0.02))
        res = replace(ef.lambda1_linear(1.5, g), lam=1.0)
        v = ef.poincare_test(1.5, res, g, trials=0, seed=0, extra_trials=extra)
        assert v.details["trials"] == 3
        assert v.location == v.details["worst_trial"] == 2
        v = ef.poincare_test(1.5, res, g, trials=4, seed=0, extra_trials=extra)
        assert v.details["trials"] == 7

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_scaling_invariance(self, gauss_grid_small, rng, p):
        # a trial enters as the unit-mass u^{2/p} / int u^{2/p}: its scale drops
        # out (trial 0, the constants, is degenerate and tests nothing)
        g = gauss_grid_small
        u = 1.0 + 0.3 * rng.random(g.n)
        res = replace(ef.lambda1_linear(p, g), lam=1.0, eigenvector=np.ones(g.n))
        s1, s2 = (ef.poincare_test(p, res, g, trials=0, extra_trials=(a * u,))
                  for a in (1.0, 7.0))
        assert s1.location == s2.location == 1
        assert s1.worst_violation == pytest.approx(s2.worst_violation, abs=1e-12)

    @pytest.mark.parametrize("p, lam, message", [
        (2.5, 1.0, "p must lie in \\(1, 2\\]; got 2.5"),
        (1.5, 0.0, "the inequality needs a finite positive eigenvalue; got 0.0"),
    ], ids=["p", "lambda"])
    def test_rejects_bad_p_and_constant(self, gauss_grid_small, p, lam, message):
        res = replace(ef.lambda1_linear(1.5, gauss_grid_small), lam=lam)
        with pytest.raises(ParameterError, match=message):
            ef.poincare_test(p, res, gauss_grid_small, trials=1)

    def test_trial_fields_are_the_formula_bitwise(self, gauss_grid_small):
        # reference: the trial as one expression with fresh temporaries
        def reference(rng):
            x = gauss_grid_small.nodes
            span = x[-1] - x[0]
            u = np.zeros(len(x))
            for _ in range(rng.randrange(1, 6)):
                center = rng.uniform(x[0] + 0.1 * span, x[-1] - 0.1 * span)
                width = rng.uniform(0.05, 0.2) * span
                u += rng.uniform(-1.0, 1.0) * np.exp(-0.5 * ((x - center) / width) ** 2)
            for j in range(rng.randrange(1, 4)):
                u += rng.uniform(-0.5, 0.5) * np.cos(math.pi * (j + 1) * (x - x[0]) / span)
            return np.maximum(u, 0.02 * np.max(np.abs(u)))

        ours, theirs = random.Random(3), random.Random(3)
        for _ in range(50):
            assert np.array_equal(_trial_field(gauss_grid_small, ours), reference(theirs))

    def test_classical_poincare_passes(self, gauss_grid):
        res = ef.lambda1_linear(2.0, gauss_grid)
        v = ef.poincare_test(2.0, res, gauss_grid, trials=100, seed=42)
        assert v.passed

    def test_deterministic_given_seed(self, gauss_grid_small):
        res = replace(ef.lambda1_linear(1.5, gauss_grid_small), lam=1.0)
        a = ef.poincare_test(1.5, res, gauss_grid_small, trials=20, seed=7)
        b = ef.poincare_test(1.5, res, gauss_grid_small, trials=20, seed=7)
        assert a.worst_violation == b.worst_violation
        assert a.to_dict() == b.to_dict()

    def test_inflated_eigenvalue_fails_on_near_extremal_trial(
        self, gauss_grid_small
    ):
        # small perturbations along the gap mode saturate the inequality as
        # p -> 1, so a 1.2x inflated eigenvalue is falsified at p = 1.05
        g = gauss_grid_small
        xc = g.nodes - ef.integrate_dgamma(g, g.nodes)
        u_ext = 1.0 + 0.02 * xc / np.max(np.abs(xc))
        res = ef.lambda1_linear(1.05, g)
        bad = ef.poincare_test(
            1.05, replace(res, lam=1.2), g, trials=20, seed=0, extra_trials=(u_ext,)
        )
        assert not bad.passed
        good = ef.poincare_test(
            1.05, replace(res, lam=1.0), g, trials=20, seed=0, extra_trials=(u_ext,)
        )
        assert good.passed


class TestDissipationAudit:
    @pytest.mark.parametrize("n", [1, 2, 7, 200, 201])
    def test_median_is_numpys(self, rng, n):
        for _ in range(20):
            a = rng.exponential(size=n) * 10.0 ** rng.uniform(-6, 2)
            assert _median(a) == float(np.median(a))

    def test_unknown_kind_and_two_snapshots_raise(self):
        tr = _synthetic_trace()
        with pytest.raises(ConfigError, match="unknown flow kind 'heat'"):
            ef.dissipation_audit(replace(tr, config={**tr.config, "kind": "heat"}))
        short = replace(tr, **{c: getattr(tr, c)[:2] for c in ("t", "E", "I", "K")})
        with pytest.raises(WindowTooShort, match="needs at least 3 snapshots"):
            ef.dissipation_audit(short)

    def test_linear_coefficient_two_m_c_is_eight_over_p(self):
        # the audit takes 2 m c from the params for both kinds; for the linear
        # flow (m = 1, c = 4/p) that is the same double as 8/p, doubling being exact
        ps = np.concatenate((np.linspace(1.05, 2.0, 1901),
                             1.05 + 0.95 * np.random.default_rng(3).random(1000)))
        for p in ps.tolist():
            params = ef.LinearParams(p)
            assert (2.0 * params.m * params.c).hex() == (8.0 / p).hex()

    def test_equilibrium_zero_mismatch(self):
        v = ef.dissipation_audit(_equilibrium_trace())
        assert v.passed and v.worst_violation == 0.0

    def test_exact_identities_within_centered_difference_error(self):
        tr = _synthetic_trace(rate=3.0, n=2000)
        v = ef.dissipation_audit(tr)
        assert v.passed
        # mismatch here is purely the O(spacing^2) centered-difference error
        spacing = tr.t[1] - tr.t[0]
        assert -v.worst_violation <= 5.0 * (3.0 * spacing) ** 2

    def test_corrupted_column_fails(self):
        tr = _synthetic_trace()
        tr.E[150:] *= 1.05
        v = ef.dissipation_audit(tr)
        assert not v.passed

    def test_linear_run_second_order_in_dt(self, gauss_grid_small):
        mism = []
        for dt in (2e-3, 1e-3):
            cfg = ef.FlowConfig(kind="linear", p=1.5, init="bump:0.4",
                                t_end=1.0, dt=dt, stride=10)
            tr = ef.run_linear(cfg, gauss_grid_small)
            v = ef.dissipation_audit(tr)
            assert v.passed
            mism.append(max(v.details["mismatch_entropy"], v.details["mismatch_fisher"]))
        assert 1.7 <= np.log2(mism[0] / mism[1]) <= 2.3


class TestRefinedAudit:
    def test_passes_on_gaussian_run(self, linear_run_p15):
        p = 1.5
        alpha = (2 - p) / p
        eps = (1.0 - alpha) / (2.0 * alpha)
        v = ef.refined_inequality_audit(linear_run_p15, eps)
        assert v.passed
        assert v.worst_violation >= -1e-8
        # every row is audited
        assert v.details["snapshots"] == len(linear_run_p15.t) == 201

    def test_corrupted_entropy_fails(self, linear_run_p15):
        # E, I, K and q4 all come from the trace's columns: a corrupted E
        # shows where it breaks the interpolation inequality against q4 and I
        tr = ef.Trace(
            t=linear_run_p15.t, E=linear_run_p15.E * 0.0 - 1.0,
            I=linear_run_p15.I, K=linear_run_p15.K, mass=linear_run_p15.mass,
            min_v=linear_run_p15.min_v, config=linear_run_p15.config,
            grid_id=linear_run_p15.grid_id, q4=linear_run_p15.q4,
        )
        v = ef.refined_inequality_audit(tr, 1.0)
        assert not v.passed

    @pytest.mark.parametrize("scale, passed", [(1.0 - 1e-5, False), (1.0 + 1e-5, True)],
                             ids=["smaller", "larger"])
    def test_q4_off_by_1e_5_is_caught_one_way(self, linear_run_p15, gauss_grid, scale,
                                              passed):
        # the interpolation inequality (p I)^2 <= 256 (1 + (p-1) E) q4 holds
        # with a slack of 8.4e-7 at the last row: a q4 1e-5 too small breaks it
        # there, and one 1e-5 too large only widens it
        eps = ef.epsilon_star(1.5, gauss_grid)
        clean = ef.refined_inequality_audit(linear_run_p15, eps)
        assert clean.passed and clean.location == 200
        assert 8e-7 < clean.worst_violation < 9e-7
        mutated = replace(linear_run_p15, q4=linear_run_p15.q4 * scale)
        v = ef.refined_inequality_audit(mutated, eps)
        assert v.passed == passed
        if not passed:
            assert v.location == 200
            assert -1e-5 < v.worst_violation < -9e-6

    def test_reads_p_from_trace(self, linear_run_p15):
        # the same columns labelled p = 1.9 are held to (1.9 I)^2 <= 256 (1 +
        # 0.9 E) q4, which the p = 1.5 run's last rows break; labelled p = 1.1
        # they pass with another worst slack than at p = 1.5
        verdicts = {}
        for p in (1.1, 1.5, 1.9):
            relabelled = replace(linear_run_p15, config={**linear_run_p15.config, "p": p})
            verdicts[p] = ef.refined_inequality_audit(relabelled, 0.5)
        assert verdicts[1.5].passed and verdicts[1.1].passed
        assert verdicts[1.1].worst_violation != verdicts[1.5].worst_violation
        assert not verdicts[1.9].passed

    @pytest.mark.parametrize("bad", [float("nan"), -1.0], ids=["nan", "negative"])
    def test_bad_q4_entry_fails_at_its_row(self, linear_run_p15, bad):
        # a q4 entry no field can have, NaN or below 0, fails the audit at
        # its own row instead of dropping out of the comparison
        q4 = linear_run_p15.q4.copy()
        q4[37] *= bad
        v = ef.refined_inequality_audit(replace(linear_run_p15, q4=q4), 0.5)
        assert not v.passed
        assert v.location == 37
        assert math.isnan(bad) == math.isnan(v.worst_violation)

    def test_rejects_nonpositive_epsilon(self, linear_run_p15):
        with pytest.raises(ParameterError, match="epsilon must be finite and positive; got 0.0"):
            ef.refined_inequality_audit(linear_run_p15, 0.0)

    def test_requires_q4(self):
        tr = _synthetic_trace()
        with pytest.raises(ConfigError, match="q4 column"):
            ef.refined_inequality_audit(tr, 1.0)
        with pytest.raises(ConfigError, match="q4 column"):
            ef.run_checks(tr, ["refined"], geometry=lambda: pytest.fail("built a grid"))

    @pytest.mark.parametrize("checks", [["envelope", "poincare"], ["refined"]])
    def test_p1_rejected_before_the_grid(self, checks):
        # both checks need p in (1, 2]; at p = 1 they used to fail only after
        # the grid was built and lambda1 solved
        tr = _synthetic_trace(p=1.0)
        with pytest.raises(ConfigError, match=f"the {checks[-1]} check needs p > 1"):
            ef.run_checks(tr, checks, geometry=lambda: pytest.fail("built a grid"))

    def test_equilibrium_trace_trivially_passes(self, gauss_grid_small):
        cfg = ef.FlowConfig(kind="linear", p=1.5, init="const", t_end=0.1,
                            dt=2e-3, stride=10)
        tr = ef.run_linear(cfg, gauss_grid_small)
        v = ef.refined_inequality_audit(tr, 1.0)
        assert v.passed


def test_run_checks_needs_a_flow_kind():
    # a config without kind used to be audited as linear until the
    # dissipation audit, after the grid and lambda1, rejected it
    tr = _synthetic_trace()
    tr.config.pop("kind")
    with pytest.raises(ConfigError, match="unknown flow kind None"):
        ef.run_checks(tr, ["envelope", "dissipation"],
                      geometry=lambda: pytest.fail("built a grid"))


@pytest.mark.parametrize("fn, keyword", [
    (ef.check_envelope, "tol"),
    (ef.poincare_test, "tol"),
    (ef.refined_inequality_audit, "tol"),
    (ef.refined_inequality_audit, "p"),
    (ef.lemma_audit, "tol"),
    (ef.lemma_audit, "m"),
    (ef.lemma_audit, "p"),
    (ef.dissipation_audit, "tol"),
    (ef.dissipation_audit, "kind"),
    (ef.run_checks, "p"),
], ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_verdict_takes_no_tolerance_or_p_override(fn, keyword):
    # the slack is criteria.SLACK_TOL and p, m come from the trace's config
    assert keyword not in inspect.signature(fn).parameters
