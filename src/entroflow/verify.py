"""Pass/fail verdicts: envelope checks, rate fits, inequality audits.

:func:`run_checks` is the one path from a trace to its report: the table
``CHECKS`` names every check, the flow kinds it applies to and, by its key
order, the order of the verdicts.

A check states each of its inequalities lhs <= rhs as the relative slack
``criteria._relative_slack(lhs, rhs)`` = (rhs - lhs) / max(|rhs|, |lhs|,
1e-300), negative where the inequality is broken, and :func:`_verdict` keeps
the first smallest of a check's slacks as its worst violation, with its
location: a snapshot time (envelope, lemma), a trace row (refined) or a
trial index (poincare).  ``dissipation`` reports minus its largest
normalized mismatch, at that snapshot's time.  Trace rows and Poincare
trials alike are (E_p, I_p) pairs of unit-mass fields, evaluated by
``functionals._Snapshot``.

A verdict is a function of the trace and the criterion's own inputs (theta,
lambda1, trials, seed): each audit reads p, and m for a porous-media trace,
from ``trace.config``, the one p (and m) whose E_p, I_p and K_p the trace
records.  Every verdict except ``dissipation`` passes down to the slack
-``criteria.SLACK_TOL`` (1e-8); the dissipation audit derives its tolerance
from the trace's snapshot spacing and decay rate.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

from . import criteria, spectrum
from .errors import ConfigError, NonPositiveData, ParameterError, WindowTooShort
from .functionals import LinearParams, PmeParams, _Snapshot
from .grid import Grid, _fsum_into, integrate_dgamma
from .spectrum import SpectralResult

__all__ = [
    "Verdict",
    "check_envelope",
    "fit_exponential_rate",
    "poincare_test",
    "dissipation_audit",
    "refined_inequality_audit",
    "lemma_audit",
    "run_checks",
]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check.  pass <=> worst_violation >= -tolerance."""

    name: str
    passed: bool
    worst_violation: float
    location: float | int | None
    tolerance: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "worst_violation": self.worst_violation,
            "location": self.location,
            "tolerance": self.tolerance,
            "details": self.details,
        }


def _finite_K(trace) -> None:
    if not np.isfinite(trace.K).all():
        raise ConfigError("trace has non-finite K entries; cannot audit")


def _verdict(name, slacks, locations, details, tol=criteria.SLACK_TOL) -> Verdict:
    """The verdict on the first smallest of a check's ``slacks``, located at
    the matching entry of ``locations``: a tie goes to the earlier entry, and
    a NaN slack counts as the smallest, so it fails the verdict."""
    k = int(np.argmin(slacks))
    worst = float(slacks[k])
    return Verdict(name=name, passed=bool(worst >= -tol), worst_violation=worst,
                   location=locations[k], tolerance=tol, details=details)


def check_envelope(trace, envelope, column: str = "E", name: str | None = None) -> Verdict:
    """Worst relative slack of value(t) <= bound(t) over the trace snapshots;
    ``envelope`` is the array of bounds at the snapshot times ``trace.t``."""
    values = trace.column(column)
    return _verdict(name or f"envelope[{column}]", criteria._relative_slack(values, envelope),
                    trace.t.tolist(), {"n_snapshots": len(values)})


def _fit_rate(t: np.ndarray, y: np.ndarray) -> float:
    """Negated least-squares slope of log(y) on t in closed form, from
    correctly rounded sums (:func:`grid._fsum_into`)."""
    work = np.empty(len(t))
    tc, lc = t - _fsum_into(t.copy(), work) / len(t), np.log(y)
    lc -= _fsum_into(lc.copy(), work) / len(lc)
    return -_fsum_into(tc * lc, work) / _fsum_into(tc * tc, work)


def fit_exponential_rate(trace, column: str, window: tuple[float, float] | None = None) -> float:
    """Least-squares decay rate of log(column) vs t (negated slope)."""
    t = trace.t
    y = trace.column(column)
    if window is not None:
        mask = (t >= window[0]) & (t <= window[1])
        t, y = t[mask], y[mask]
    if len(t) < 10:
        raise WindowTooShort(f"only {len(t)} snapshots in the fit window; need 10")
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise NonPositiveData("log-linear fit needs strictly positive finite data")
    return _fit_rate(t, y)


def _trial_field(grid: Grid, rng: random.Random) -> np.ndarray:
    """A random positive trial: a few Gaussian bumps plus low-frequency cosines,
    their counts, centres, widths and amplitudes drawn from ``rng``."""
    x = grid.nodes
    span = x[-1] - x[0]
    u = np.zeros(grid.n)
    for _ in range(rng.randrange(1, 6)):
        center = rng.uniform(x[0] + 0.1 * span, x[-1] - 0.1 * span)
        width = rng.uniform(0.05, 0.2) * span
        amp = rng.uniform(-1.0, 1.0)
        u += amp * np.exp(-0.5 * np.square((x - center) / width))
    for j in range(rng.randrange(1, 4)):
        amp = rng.uniform(-0.5, 0.5)
        u += amp * np.cos((x - x[0]) * (math.pi * (j + 1)) / span)
    scale = np.abs(u).max()
    if scale == 0.0:
        return np.ones(len(u))
    return np.maximum(u, 0.02 * scale)


def poincare_test(
    p: float,
    spectral: SpectralResult,
    grid: Grid,
    trials: int = 100,
    seed: int = 0,
    extra_trials: tuple = (),
) -> Verdict:
    """Generalized Poincare inequality 2 lambda E_p <= p I_p at lambda =
    ``spectral.lam`` (``details["lambda"]``), on ``trials`` random positive
    trials (:func:`_trial_field`, drawn from the standard library's
    ``random.Random(seed)``, which unlike ``numpy.random`` loads no OpenSSL)
    after ``spectral.eigenvector`` (from lambda1_linear(p)) as trial #0 and
    ``extra_trials``, deliberately near-extremal fields a caller injects.

    A trial u enters as the unit-mass field v = u^{2/p} / int u^{2/p}, with
    the E_p and I_p a linear flow records (:class:`functionals._Snapshot`):
    (int u^2 - (int u^{2/p})^p) / (p-1) <= (2/lambda) D(u, u) times
    2 lambda / (int u^{2/p})^p.  A trial whose two sides are both within
    2e-13 lambda max(1, int v^p) (a constant trial, or one clipped flat) tests
    nothing: it is counted in ``details["degenerate_trials"]``, and where
    every trial is, the verdict is slack 0 at trial 0.
    """
    if not (1.0 < p <= 2.0):
        raise ParameterError(f"p must lie in (1, 2]; got {p}")
    lam = spectral.lam
    if not (math.isfinite(lam) and lam > 0.0):
        raise ParameterError(f"the inequality needs a finite positive eigenvalue; got {lam}")
    if trials < 0 or seed < 0:
        raise ParameterError(f"trials and seed must be nonnegative; got {trials}, {seed}")
    rng = random.Random(seed)
    eig = spectral.eigenvector
    trial0 = np.maximum(np.abs(eig), 1e-8 * np.max(np.abs(eig)))
    fields = itertools.chain(
        [trial0],
        (np.asarray(u, float) for u in extra_trials),
        (_trial_field(grid, rng) for _ in range(trials)),
    )
    snapshot = _Snapshot(LinearParams(p), grid)
    slacks = []  # per trial its slack, None where degenerate
    for u in fields:
        v = np.power(np.abs(u), 2.0 / p)
        v /= integrate_dgamma(grid, v)
        E = snapshot.entropy(v)
        lhs, rhs = 2.0 * lam * E, p * snapshot.fisher(v)
        floor = 2e-13 * lam * max(1.0, 1.0 + (p - 1.0) * E)  # 1 + (p-1) E_p = int v^p
        degenerate = abs(lhs) <= floor and abs(rhs) <= floor
        slacks.append(None if degenerate else float(criteria._relative_slack(lhs, rhs)))
    worst, k = min(((s, i) for i, s in enumerate(slacks) if s is not None), default=(0.0, 0))
    details = {"trials": len(slacks), "seed": seed, "lambda": lam, "worst_trial": k,
               "degenerate_trials": slacks.count(None)}
    return _verdict("poincare", [worst], [k], details)


def _median(a: np.ndarray) -> float:
    """Median of a nonempty array by sorting: the middle element, or (a + b) / 2
    of the two middle ones.  The same value as np.median, whose first call in
    a process imports numpy.ma."""
    s = np.sort(a)
    k = len(s) // 2
    return float(s[k]) if len(s) % 2 else float((s[k - 1] + s[k]) / 2)


def _centered_mismatch(t, y, target):
    """max_k |(y_{k+1}-y_{k-1})/(t_{k+1}-t_{k-1}) - target_k| / max|target|."""
    if len(t) < 3:
        raise WindowTooShort("dissipation audit needs at least 3 snapshots")
    cd = (y[2:] - y[:-2]) / (t[2:] - t[:-2])
    mism = np.abs(cd - target[1:-1])
    scale = max(float(np.max(np.abs(target))), 1e-300)
    rel = mism / scale
    k = int(np.argmax(rel))
    return float(rel[k]), float(t[1 + k])


def dissipation_audit(trace) -> Verdict:
    """Check dE/dt = -I and the second-order identity along a trace.

    The second identity is dI/dt = -2 m c(m,p) K, with the flow kind, p and
    m read from ``trace.config``; the linear flow's params carry m = 1 and
    c = 4/p, so there it is -(8/p) K.  The mismatch of centered differences
    is second order in the snapshot spacing, and the tolerance,
    3 rate^3 spacing^2, scales accordingly.
    """
    kind = trace.config.get("kind")
    p = float(trace.config["p"])
    if kind == "pme":
        params = PmeParams(m=float(trace.config["m"]), p=p)
    elif kind == "linear":
        params = LinearParams(p)
    else:
        raise ConfigError(f"unknown flow kind {kind!r}")
    second_coeff = 2.0 * params.m * params.c
    t = trace.t
    _finite_K(trace)
    mis_E, loc_E = _centered_mismatch(t, trace.E, -trace.I)
    mis_I, loc_I = _centered_mismatch(t, trace.I, -second_coeff * trace.K)
    # centered-difference truncation ~ (rate * spacing)^2; estimate the rate
    spacing = _median(np.diff(t))
    pos = trace.I > 0
    if pos.sum() >= 10:
        rate = max(1.0, abs(_fit_rate(t[pos], trace.I[pos])))
    else:
        rate = 1.0
    tol = 3.0 * rate**3 * spacing**2
    # a tie goes to the entropy identity
    return _verdict(
        "dissipation", [-mis_E, -mis_I], [loc_E, loc_I],
        {"mismatch_entropy": mis_E, "mismatch_fisher": mis_I, "kind": kind}, tol,
    )


def _q4(trace) -> np.ndarray:
    if trace.q4 is None:
        raise ConfigError("trace has no q4 column for the refined check; rerun its flow")
    return trace.q4


def refined_inequality_audit(trace, epsilon: float) -> Verdict:
    """Row-wise audit of the two degenerate-regime inequalities:

        K_p >= 16 (alpha eps / (1+eps)) q4,
        (p I_p)^2 <= 4^4 (1 + (p-1) E_p) q4,        q4 = int |Dz|^4 dgamma, z = v^{p/4},

    at the trace's own p (``trace.config["p"]``), at every row, located at
    its row index.  q4, E, I and K all come from the same trace row, so a
    corrupted E, I or K column shows only where it breaks an inequality
    against the other columns: no independent density field backs q4.  A
    trace without the q4 column, or with a non-finite K, raises ConfigError.
    """
    q4 = _q4(trace)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ParameterError(f"epsilon must be finite and positive; got {epsilon}")
    _finite_K(trace)
    p = float(trace.config["p"])
    coeff = 16.0 * LinearParams(p).alpha * epsilon / (1.0 + epsilon)
    # per row the K inequality, then the (p I)^2 one, which loses a tie
    lhs = np.column_stack((coeff * q4, (p * trace.I) ** 2)).ravel()
    rhs = np.column_stack((trace.K, 256.0 * (1.0 + (p - 1.0) * trace.E) * q4)).ravel()
    return _verdict("refined_inequalities", criteria._relative_slack(lhs, rhs),
                    [k // 2 for k in range(2 * len(q4))],
                    {"epsilon": epsilon, "snapshots": len(q4)})


def lemma_audit(trace, theta: float, lambda1: float) -> Verdict:
    """Worst slack over a porous-media trace's (E, I, K) snapshots of the
    interpolation lemma (:func:`criteria.lemma_functional_check`, on the
    columns at once) at the trace's own m and p (``trace.config``), located
    at the snapshot's time.  A trace with a non-finite K raises ConfigError;
    a NaN in E or I fails the verdict at its row."""
    m, p = float(trace.config["m"]), float(trace.config["p"])
    _finite_K(trace)
    check = criteria.lemma_functional_check(m, p, theta, lambda1, (trace.E, trace.I, trace.K))
    return _verdict("lemma_interpolation", check.slack, trace.t.tolist(),
                    {"snapshots": len(trace.t)})


# check name -> the flow kinds it applies to; verdicts come in this order
CHECKS = {
    "envelope": ("linear", "pme"),
    "dissipation": ("linear", "pme"),
    "poincare": ("linear",),
    "refined": ("linear",),
    "lemma": ("pme",),
}


def run_checks(trace, checks, geometry, lambda1=None, trials: int = 100, seed: int = 0):
    """(verdicts, E bound at the snapshot times or None) of the named checks.
    Each envelope bound is evaluated once, over the array ``trace.t``.

    ``checks`` lists names of ``CHECKS`` (None: envelope and dissipation);
    verdicts follow the table's order.  An empty list, an unknown name, a
    trace whose config names no kind linear or pme, a check on a trace kind
    it does not apply to, ``poincare`` or ``refined`` at
    p = 1, ``refined`` at p = 2 or on a trace without the q4 column, or
    ``dissipation`` on a trace of fewer than 3 snapshots raises ConfigError
    before ``geometry`` (a callable returning the trace's grid, called at
    most once) or any eigensolve runs, and a non-finite ``lambda1`` raises
    ParameterError; a grid other than the one the trace records raises
    ConfigError.  The flow's eigenpair, lambda1_linear(p) or
    lambda1_pme(theta), is solved at most once; a given ``lambda1`` replaces
    its eigenvalue.  ``poincare`` tests the one constant max(lambda1(p),
    (p - 1) lambda1(2)), as the inequality holds at every constant below
    one at which it holds.  ``refined`` audits at the grid's
    :func:`spectrum.epsilon_star` (a ConfigError where it is 0).  p, m and
    theta are the trace's (theta defaults to 0.5): a verdict is a function of
    the trace and of ``lambda1``, ``trials`` and ``seed``.
    """
    checks = ("envelope", "dissipation") if checks is None else tuple(checks)
    if not checks:
        raise ConfigError(f"no checks named; valid checks: {', '.join(CHECKS)}")
    for name in checks:
        if name not in CHECKS:
            raise ConfigError(f"unknown check {name!r}; valid checks: {', '.join(CHECKS)}")
    kind = trace.config.get("kind")
    if kind not in ("linear", "pme"):
        raise ConfigError(f"unknown flow kind {kind!r}; a trace's config names "
                          "kind linear or pme")
    for name, kinds in CHECKS.items():
        if name in checks and kind not in kinds:
            raise ConfigError(f"the {name} check applies to {' and '.join(kinds)} traces")
    p = float(trace.config["p"])
    lambda1 = None if lambda1 is None else float(lambda1)
    if lambda1 is not None and not math.isfinite(lambda1):
        raise ParameterError(f"lambda1 must be finite; got {lambda1}")
    for name in ("poincare", "refined"):
        if name in checks and p <= 1.0:
            raise ConfigError(f"the {name} check needs p > 1; the trace has p = {p:g}")
    if "refined" in checks:
        if LinearParams(p).alpha <= 0.0:
            raise ConfigError("refined inequalities need p < 2")
        _q4(trace)
    if "dissipation" in checks and len(trace.t) < 3:
        raise ConfigError("the dissipation audit needs at least 3 snapshots; "
                          f"the trace has {len(trace.t)}")
    if kind == "pme":
        m, theta = float(trace.config["m"]), trace.config.get("theta")
        theta = 0.5 if theta is None else float(theta)

    @functools.cache
    def built():
        grid = geometry()
        if trace.grid_id and trace.grid_id != grid.ident:
            # its span as --domain A:B or --radial D:R gives it
            start = f"{grid.nodes[0]:g}" if grid.kind == "interval" else grid.d
            raise ConfigError(
                f"the trace was written on grid {trace.grid_id}, not on grid {grid.ident} "
                f"({grid.kind} {start}:{grid.nodes[-1]:g}, n={grid.n}, potential "
                f"{grid.potential.key()}); report needs the run's geometry flags: "
                "--potential, --domain, --radial and --n")
        return grid

    @functools.cache
    def spectral():
        res = (spectrum.lambda1_pme(theta, built()) if kind == "pme"
               else spectrum.lambda1_linear(p, built()))
        return res if lambda1 is None else replace(res, lam=lambda1)

    lam = lambda: spectral().lam if lambda1 is None else lambda1
    e_bound = None

    def envelope():
        nonlocal e_bound
        E0, I0, lam1, t = float(trace.E[0]), float(trace.I[0]), lam(), trace.t
        if kind == "pme":  # envelope_pme returns the (I, E) bounds
            kappa = criteria.constants_chain(m, p, theta, lam1, E0).kappa
            tag, bounds = "cubic", dict(zip("IE", criteria.envelope_pme(I0, kappa, t)))
        else:
            tag, bounds = "exp", {"E": criteria.envelope_exponential(E0, lam1, t),
                                  "I": criteria.envelope_exponential(I0, lam1, t)}
        e_bound = bounds["E"]
        return [check_envelope(trace, b, c, f"envelope[{c},{tag}]") for c, b in bounds.items()]

    def poincare():
        eigenpair, grid = spectral(), built()
        if p < 2.0:
            weak = (p - 1.0) * spectrum.lambda1_linear(2.0, grid).lam
            eigenpair = replace(eigenpair, lam=max(eigenpair.lam, weak))
        return [poincare_test(p, eigenpair, grid, int(trials), int(seed))]

    def refined():
        epsilon = spectrum.epsilon_star(p, built())
        if epsilon == 0.0:
            raise ConfigError(
                f"the refined inequalities hold for no epsilon > 0 at p={p:g} on this grid")
        return [refined_inequality_audit(trace, epsilon)]

    run = {
        "envelope": envelope,
        "dissipation": lambda: [dissipation_audit(trace)],
        "poincare": poincare,
        "refined": refined,
        "lemma": lambda: [lemma_audit(trace, theta, lam())],
    }
    verdicts = [v for name in CHECKS if name in checks for v in run[name]()]
    return verdicts, e_bound
