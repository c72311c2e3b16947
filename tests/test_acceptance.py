"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
summary lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

import entroflow as ef


def _report(num: int, text: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_gaussian_spectral_identity(gauss_pot, gauss_grid):
    ok = True
    detail = []
    for p in (1.2, 1.5, 2.0):
        t0 = time.perf_counter()
        res = ef.lambda1_linear(p, gauss_pot, gauss_grid)
        elapsed = time.perf_counter() - t0
        dist = ef.norm_dgamma(gauss_grid, res.eigenvector - 1.0)
        ok &= abs(res.lam - 1.0) <= 1e-3
        ok &= dist <= 1e-6
        ok &= elapsed < 1.0
        detail.append(f"p={p}: lam={res.lam:.2e}-ish err={abs(res.lam-1):.1e} "
                      f"vecdist={dist:.1e} {elapsed*1e3:.0f}ms")
    _report(1, "lambda1(p)=1 +- 1e-3 with constant eigenvector; " + "; ".join(detail), ok)


def test_criterion_2_theta_equivalence(gauss_pot, gauss_grid):
    power_pot = ef.power_law(1.5)
    power_grid = ef.make_interval_grid(-16.0, 16.0, 1600, power_pot)
    worst = 0.0
    for pot, grid in ((gauss_pot, gauss_grid), (power_pot, power_grid)):
        for p0 in (1.1, 1.5, 2.0):
            theta0 = 2.0 / p0 - 1.0
            a = ef.lambda1_pme(theta0, pot, grid).lam
            b = ef.lambda1_linear(p0, pot, grid).lam
            worst = max(worst, abs(a - b))
    _report(2, f"|lambda1_pme(2/p0-1) - lambda1_linear(p0)| worst {worst:.2e} <= 1e-12",
            worst <= 1e-12)


def test_criterion_3_exponential_decay(gauss_pot, gauss_grid, linear_run_p15):
    t0 = time.perf_counter()
    traces = {1.5: linear_run_p15}
    for p in (1.0, 2.0):
        cfg = ef.FlowConfig(kind="linear", p=p, init="odd:0.2", t_end=4.0,
                            dt=1e-3, stride=20)
        traces[p] = ef.run_linear(cfg, gauss_pot, gauss_grid)
    ok = True
    detail = []
    for p, tr in sorted(traces.items()):
        env = tr.E[0] * np.exp(-2.0 * tr.t)
        envelope_ok = bool(np.all(tr.E <= env * (1.0 + 1e-6)))
        ok &= envelope_ok
        detail.append(f"p={p} envelope {'ok' if envelope_ok else 'BROKEN'}")
    rate = ef.fit_exponential_rate(traces[1.5], "E", window=(0.5, 3.5))
    ok &= rate >= 2.0 * 0.98
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(3, f"E(t) <= E(0)e^{{-2t}}(1+1e-6) each snapshot; fitted rate "
               f"{rate:.5f} >= 1.96; {'; '.join(detail)}; {elapsed:.1f}s", ok)


def test_criterion_4_generalized_poincare(gauss_pot, gauss_grid):
    lam2 = ef.lambda1_linear(2.0, gauss_pot, gauss_grid).lam
    ok = True
    worsts = []
    for p in (1.2, 1.5, 2.0):
        res = ef.lambda1_linear(p, gauss_pot, gauss_grid)
        weak = (p - 1.0) * lam2 if p < 2.0 else None
        verdict = ef.poincare_test(
            p, res, gauss_grid, trials=100, seed=42,
            weak_lambda1=weak,
        )
        ok &= verdict.passed
        ok &= verdict.worst_violation >= -1e-8
        if weak is not None:
            ok &= verdict.details["weak_worst"] >= -1e-8
        worsts.append(f"p={p}: worst={verdict.worst_violation:.2e}")
    _report(4, "100-trial interpolation inequality (incl. eigenvector trial) "
               "and weak comparison; " + "; ".join(worsts), ok)


def test_criterion_5_semiclassical_scaling():
    t0 = time.perf_counter()
    beta = 1.5
    pot = ef.power_law(beta)
    pgrid = 1.0 + np.logspace(-3, -1, 8)
    lams = []
    for p in pgrid:
        coeff = 2.0 * (p - 1.0) / p
        r_star = ((2.0 - beta) / (2.0 * coeff)) ** (1.0 / beta)
        L = max(16.0, 3.0 * r_star)
        assert ef.tail_mass(pot, L, 1) < 1e-10  # truncation self-check
        n = int(math.ceil(2 * L / 0.01))
        n += n % 2  # even count keeps nodes off the singularity at 0
        grid = ef.make_interval_grid(-L, L, n, pot)
        lams.append(ef.lambda1_linear(p, pot, grid).lam)
    slope = float(np.polyfit(np.log(pgrid - 1.0), np.log(lams), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = abs(slope - 1.0 / 3.0) <= 0.1 and elapsed < 60.0
    _report(5, f"log-log slope of lambda1 vs (p-1) = {slope:.4f} = 1/3 +- 0.1; "
               f"{elapsed:.1f}s", ok)


def test_criterion_6_log_perturbation_bound():
    t0 = time.perf_counter()
    res = ef.example1_epsilon_bound(3, 2.0)
    closed_form_ok = abs(res.bound - (3.0 - 2.0 * math.sqrt(2.0))) <= 1e-12
    eps = 0.05
    assert eps < res.bound
    pot = ef.harmonic_log(eps, d=3)
    grid = ef.make_radial_grid(3, 12.0, 4000, pot)
    lam = ef.lambda1_linear(2.0, pot, grid).lam
    elapsed = time.perf_counter() - t0
    # the closed form 1 + c gamma_+ at c = 2(p-1)/p = 1; the grid value lies
    # 1.84e-5 above it at n = 4000
    error = lam - res.lambda1(eps, 1.0)
    ok = closed_form_ok and lam > 0.0 and 0.0 < error <= 2.5e-5 and elapsed < 10.0
    _report(6, f"bound(3,2)=3-2*sqrt(2) exact; radial lambda1(eps=0.05)="
               f"{lam:.4f} > 0, {error:.2e} above the closed form; {elapsed:.1f}s", ok)


def test_criterion_7_ellipse_region(rng):
    # (a) m = 1 line: member of the theta=1 region iff 2(p-1)(p-2) < 0 iff p in (1,2)
    ps = np.linspace(0.5, 2.5, 1000)
    line_ok = True
    for p in ps:
        member = ef.ellipse_margin(1.0, p, 1.0) < 0.0
        factored = 2.0 * (p - 1.0) * (p - 2.0) < 0.0
        interval = 1.0 < p < 2.0
        line_ok &= member == factored == interval
    # (b) bounding box of 1e4 member samples inside the stated rectangle
    half = math.sqrt(2.0) / 2.0
    ms = rng.uniform(1 - half - 0.1, 1 + half + 0.1, 10_000)
    qs = rng.uniform(-0.2, 3.2, 10_000)
    margins = np.array([ef.ellipse_margin(m, p, 1.0) for m, p in zip(ms, qs)])
    member = margins < 0.0
    box_ok = bool(
        ms[member].min() >= 1 - half - 1e-12 and ms[member].max() <= 1 + half + 1e-12
        and qs[member].min() >= -1e-12 and qs[member].max() <= 3.0 + 1e-12
    )
    # (c) discriminant sign identity on 1e4 random triples, zero mismatches
    mismatches = 0
    for _ in range(10_000):
        m = rng.uniform(0.2, 3.0)
        p = rng.uniform(0.2, 3.0)
        theta = rng.uniform(0.01, 1.0)
        disc = ef.discriminant(m, p, theta)
        margin = ef.ellipse_margin(m, p, theta)
        scale = max(abs(disc), abs(margin), 1.0)
        if abs(disc) < 1e-12 * scale or abs(margin) < 1e-12 * scale:
            continue
        if np.sign(disc) != np.sign(margin):
            mismatches += 1
    ok = line_ok and box_ok and mismatches == 0
    _report(7, f"m=1 line factorization at 1000 p-values; 1e4-sample bbox inside "
               f"[1-s2/2,1+s2/2]x[0,3]; sign identity mismatches={mismatches}", ok)


def test_criterion_8_pme_decay(pme_run, gauss_pot, gauss_grid):
    t0 = time.perf_counter()
    tr = pme_run
    monotone_ok = bool(np.all(np.diff(tr.E) < 0) and np.all(np.diff(tr.I) < 0))
    mass_ok = tr.mass_drift <= 1e-10
    lam = ef.lambda1_pme(0.5, gauss_pot, gauss_grid).lam
    consts = ef.constants_chain(1.2, 1.5, 0.5, lam, float(tr.E[0]))
    I0 = float(tr.I[0])
    env_I = ef.check_envelope(tr, lambda t: ef.envelope_pme(I0, consts.kappa, t)[0], "I")
    env_E = ef.check_envelope(tr, lambda t: ef.envelope_pme(I0, consts.kappa, t)[1], "E")
    lemma_worst = ef.lemma_audit(tr, 0.5, lam).worst_violation
    elapsed = time.perf_counter() - t0
    ok = (monotone_ok and mass_ok and env_I.passed and env_E.passed
          and lemma_worst >= -1e-8 and elapsed < 120.0)
    _report(8, f"E,I strictly decreasing; mass drift {tr.mass_drift:.1e}; "
               f"envelope slacks (I: {env_I.worst_violation:.2e}, "
               f"E: {env_E.worst_violation:.2e}); lemma worst slack "
               f"{lemma_worst:.2e}; {elapsed:.1f}s", ok)


def test_criterion_9_structure_preservation(gauss_pot, gauss_grid, gauss_grid_small):
    rng = np.random.default_rng(2024)
    worst_sbp = worst_sym = 0.0
    for _ in range(100):
        u = rng.standard_normal(gauss_grid.n)
        v = rng.standard_normal(gauss_grid.n)
        Lu = ef.delta_g(gauss_grid, u)
        Lv = ef.delta_g(gauss_grid, v)
        scale = ef.norm_dgamma(gauss_grid, u) * ef.norm_dgamma(gauss_grid, v)
        sbp = abs(ef.inner_dgamma(gauss_grid, u, Lv) + ef.dirichlet_form(gauss_grid, u, v))
        sym = abs(ef.inner_dgamma(gauss_grid, u, Lv) - ef.inner_dgamma(gauss_grid, v, Lu))
        worst_sbp = max(worst_sbp, sbp / scale)
        worst_sym = max(worst_sym, sym / scale)
    identities_ok = worst_sbp <= 1e-12 and worst_sym <= 1e-12

    orders = []
    for kind in ("linear", "pme"):
        mism = []
        for dt in (2e-3, 1e-3, 5e-4):
            kwargs = dict(p=1.5, init="bump:0.4", t_end=1.0, dt=dt, stride=10)
            if kind == "pme":
                cfg = ef.FlowConfig(kind="pme", m=1.2, **kwargs)
                trace = ef.run_pme(cfg, gauss_pot, gauss_grid_small)
            else:
                cfg = ef.FlowConfig(kind="linear", **kwargs)
                trace = ef.run_linear(cfg, gauss_pot, gauss_grid_small)
            verdict = ef.dissipation_audit(trace)
            assert verdict.passed
            mism.append(max(verdict.details["mismatch_entropy"],
                            verdict.details["mismatch_fisher"]))
        orders.extend(np.log2(np.array(mism[:-1]) / np.array(mism[1:])))
    orders_ok = all(1.7 <= o <= 2.3 for o in orders)
    ok = identities_ok and orders_ok
    _report(9, f"SBP {worst_sbp:.2e} and self-adjointness {worst_sym:.2e} <= 1e-12 "
               f"on 100 fields; dissipation orders {[f'{o:.2f}' for o in orders]} "
               f"in [1.7, 2.3]", ok)


def test_criterion_10_refined_inequalities(linear_run_p15, gauss_grid):
    p = 1.5
    alpha = (2.0 - p) / p
    eps = (1.0 - alpha) / (2.0 * alpha)
    verdict = ef.refined_inequality_audit(linear_run_p15, eps, gauss_grid)
    ok = verdict.passed and verdict.worst_violation >= -1e-8
    _report(10, f"quartic-gradient and interpolation inequalities along the "
                f"p=1.5 run, eps={eps}: worst slack {verdict.worst_violation:.2e} "
                f">= -1e-8 over {verdict.details['snapshots']} snapshots", ok)
