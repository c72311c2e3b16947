"""Pass/fail verdicts: envelope checks, rate fits, inequality audits.

:func:`run_checks` is the one path from a trace to its report: the table
``CHECKS`` names every check, the flow kinds it applies to and, by its key
order, the order of the verdicts.

Every verdict carries a signed worst violation (negative means the property
was broken beyond tolerance) and is a function of the trace and the
criterion's own inputs (theta, lambda1, epsilon, trials, seed): each audit
reads p, and m for a porous-media trace, from ``trace.config``, the one p
(and m) whose E_p, I_p and K_p the trace records.  Every verdict except
``dissipation`` is held to the fixed relative slack ``criteria.SLACK_TOL``
(1e-8); the dissipation audit derives its tolerance from the trace's
snapshot spacing and decay rate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import criteria, spectrum
from .errors import ConfigError, NonPositiveData, ParameterError, WindowTooShort
from .functionals import LinearParams, PmeParams
from .grid import Grid, _dirichlet_row, _fsum_rows, gradient_sq, integrate_dgamma
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

_TINY = 1e-300


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


def _verdict(name, worst, location, details, tol=criteria.SLACK_TOL) -> Verdict:
    return Verdict(
        name=name,
        passed=bool(worst >= -tol),
        worst_violation=float(worst),
        location=location,
        tolerance=tol,
        details=details,
    )


def check_envelope(trace, envelope, column: str = "E", name: str | None = None) -> Verdict:
    """Worst relative slack of bound(t) - value(t) over the trace snapshots."""
    values = trace.column(column)
    bounds = np.array([envelope(t) for t in trace.t])
    scale = np.maximum(np.maximum(np.abs(bounds), np.abs(values)), _TINY)
    slack = (bounds - values) / scale
    k = int(np.argmin(slack))
    return _verdict(
        name or f"envelope[{column}]",
        float(slack[k]),
        float(trace.t[k]),
        {"n_snapshots": len(values)},
    )


def _fit_rate(t: np.ndarray, y: np.ndarray) -> float:
    slope, _ = np.polyfit(t, np.log(y), 1)
    return -float(slope)


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


class _TrialFields:
    """Random positive trials: a few Gaussian bumps plus low-frequency cosines.

    Each call accumulates its trial in one work array and returns it, so the
    array is overwritten by the next call; the bumps and cosines go through a
    second one, and x - x[0] is computed once.
    """

    def __init__(self, grid: Grid):
        x = grid.nodes
        self.x, self.span, self.dx = x, x[-1] - x[0], x - x[0]
        self.u, self.term = np.empty(grid.n), np.empty(grid.n)

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        x, span, u, term = self.x, self.span, self.u, self.term
        u.fill(0.0)
        for _ in range(int(rng.integers(1, 6))):
            center = rng.uniform(x[0] + 0.1 * span, x[-1] - 0.1 * span)
            width = rng.uniform(0.05, 0.2) * span
            amp = rng.uniform(-1.0, 1.0)
            np.subtract(x, center, out=term)
            term /= width
            np.square(term, out=term)
            term *= -0.5
            np.exp(term, out=term)
            term *= amp
            u += term
        for j in range(int(rng.integers(1, 4))):
            amp = rng.uniform(-0.5, 0.5)
            np.multiply(self.dx, math.pi * (j + 1), out=term)
            term /= span
            np.cos(term, out=term)
            term *= amp
            u += term
        scale = np.abs(u, out=term).max()
        if scale == 0.0:
            return np.ones(len(u))
        return np.maximum(u, 0.02 * scale, out=u)


class _PoincareSides:
    """(int u^2, int |u|^{2/p}, Dirichlet form) against dgamma of a trial u
    normalized to unit mass, on work arrays reused across trials: one sum for
    the mass, then one :func:`grid._fsum_rows` call for all three integrals.
    Neither side depends on the constant, so every constant shares them."""

    def __init__(self, grid: Grid, p: float):
        n = grid.n
        self.grid, self.p = grid, p
        self.rows, self.work = np.empty((3, n)), np.empty((3, n))
        self.u, self.edge = np.empty(n), np.empty(n - 1)

    def __call__(self, u: np.ndarray) -> list[float]:
        grid, rows, mu = self.grid, self.rows, self.grid.dgamma_weights
        # scale-invariant; normalize for conditioning
        np.multiply(mu, u, out=rows[0])
        un = np.divide(u, _fsum_rows(rows[:1], self.work[:1])[0], out=self.u)
        np.multiply(un, un, out=rows[0])
        rows[0] *= mu
        np.abs(un, out=rows[1])
        np.power(rows[1], 2.0 / self.p, out=rows[1])
        rows[1] *= mu
        _dirichlet_row(grid, un, un, rows[2], self.edge)
        return _fsum_rows(rows, self.work)


def _poincare_slack(p: float, lam: float, sides) -> float:
    """Relative slack of the inequality with constant ``lam`` for one trial's
    :class:`_PoincareSides`."""
    second, moment, dirichlet = sides
    lhs = (second - moment**p) / (p - 1.0)
    rhs = (2.0 / lam) * dirichlet
    scale = max(abs(rhs), abs(lhs))
    if scale <= 1e-13 * max(1.0, second):
        return 0.0  # both sides at quadrature round-off (e.g. constant trials)
    return (rhs - lhs) / scale


def poincare_test(
    p: float,
    spectral: SpectralResult,
    grid: Grid,
    trials: int = 100,
    seed: int = 0,
    weak_lambda1: float | None = None,
    extra_trials: tuple = (),
) -> Verdict:
    """Interpolation inequality between variance-type entropy and the Dirichlet
    form with constant ``spectral.lam``, tested on seeded random positive
    trials plus ``spectral.eigenvector`` (from lambda1_linear(p)) as trial #0;
    ``extra_trials`` lets a caller inject deliberately near-extremal fields.

    With ``weak_lambda1`` set (e.g. (p-1) * lambda1(2)), the same trials are
    also checked against that constant; the verdict requires both to hold.
    """
    if not (1.0 < p <= 2.0):
        raise ParameterError(f"p must lie in (1, 2]; got {p}")
    if not (math.isfinite(spectral.lam) and spectral.lam > 0.0):
        raise ParameterError(
            f"the inequality needs a finite positive eigenvalue; got {spectral.lam}")
    if trials < 0 or seed < 0:
        raise ParameterError(f"trials and seed must be nonnegative; got {trials}, {seed}")
    rng = np.random.default_rng(seed)
    eig = spectral.eigenvector
    trial0 = np.maximum(np.abs(eig), 1e-8 * np.max(np.abs(eig)))
    trial_of = _TrialFields(grid)
    fields = itertools.chain(
        [trial0],
        (np.asarray(u, float) for u in extra_trials),
        (trial_of(rng) for _ in range(trials)),
    )
    lams = [spectral.lam] if weak_lambda1 is None else [spectral.lam, weak_lambda1]
    worst = [(np.inf, None)] * len(lams)
    sides_of = _PoincareSides(grid, p)
    for i, u in enumerate(fields):
        sides = sides_of(u)
        for j, lam in enumerate(lams):
            s = _poincare_slack(p, lam, sides)
            if s < worst[j][0]:
                worst[j] = (s, i)
    combined, location = worst[0]
    details = {"trials": trials + 1, "seed": seed, "worst_trial": location}
    if weak_lambda1 is not None:
        weak_worst, weak_idx = worst[1]
        details["weak_worst"] = weak_worst
        details["weak_worst_trial"] = weak_idx
        if weak_worst < combined:
            combined, location = weak_worst, weak_idx
    return _verdict("poincare", combined, location, details)


def _median(a: np.ndarray) -> float:
    """Median of a nonempty array by sorting: the middle element, or (a + b) / 2
    of the two middle ones.  The same value as np.median, whose first call in
    a process imports numpy.ma."""
    s = np.sort(a)
    k = len(s) // 2
    return float(s[k]) if len(s) % 2 else float((s[k - 1] + s[k]) / 2)


def _centered_mismatch(t, y, target, scale_floor=_TINY):
    """max_k |(y_{k+1}-y_{k-1})/(t_{k+1}-t_{k-1}) - target_k| / max|target|."""
    if len(t) < 3:
        raise WindowTooShort("dissipation audit needs at least 3 snapshots")
    cd = (y[2:] - y[:-2]) / (t[2:] - t[:-2])
    mism = np.abs(cd - target[1:-1])
    scale = max(float(np.max(np.abs(target))), scale_floor)
    rel = mism / scale
    k = int(np.argmax(rel))
    return float(rel[k]), float(t[1 + k])


def dissipation_audit(trace) -> Verdict:
    """Check dE/dt = -I and the second-order identity along a trace.

    The second identity is dI/dt = -(8/p) K for the linear flow and
    dI/dt = -2 m c(m,p) K for the porous-media flow, with the flow kind, p
    and m read from ``trace.config``.  The mismatch of centered differences
    is second order in the snapshot spacing, and the tolerance,
    3 rate^3 spacing^2, scales accordingly.
    """
    kind = trace.config.get("kind")
    p = float(trace.config["p"])
    if kind == "pme":
        params = PmeParams(m=float(trace.config["m"]), p=p)
        second_coeff = 2.0 * params.m * params.c
    elif kind == "linear":
        second_coeff = 8.0 / p
    else:
        raise ConfigError(f"unknown flow kind {kind!r}")
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
    worst = -max(mis_E, mis_I)
    loc = loc_E if mis_E >= mis_I else loc_I
    return _verdict(
        "dissipation", worst, loc,
        {"mismatch_entropy": mis_E, "mismatch_fisher": mis_I, "kind": kind}, tol,
    )


def refined_inequality_audit(trace, epsilon: float, grid: Grid) -> Verdict:
    """Snapshot-wise audit of the two degenerate-regime inequalities:

        K_p >= 16 (alpha eps / (1+eps)) int |Dz|^4 dgamma,        z = v^{p/4}
        (p I_p)^2 <= 4^4 (1 + (p-1) E_p) int |Dz|^4 dgamma,

    at the trace's own p (``trace.config["p"]``).  The quartic gradient term
    comes from the stored density snapshots (audit stride); E, I and K are
    read off the matching trace rows, so a corrupted scalar column is caught.
    A trace with a non-finite K raises ConfigError, as in :func:`dissipation_audit`.
    """
    if not trace.fields:
        raise ConfigError("trace carries no stored fields; rerun with audit fields")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ParameterError(f"epsilon must be finite and positive; got {epsilon}")
    _finite_K(trace)
    p = float(trace.config["p"])
    alpha = LinearParams(p).alpha
    coeff = 16.0 * alpha * epsilon / (1.0 + epsilon)
    worst, loc = np.inf, None
    count = 0
    for idx, v in trace.fields:
        z = np.power(np.maximum(v, 1e-300), p / 4.0)
        q4 = integrate_dgamma(grid, gradient_sq(grid, z) ** 2)
        E, I, K = float(trace.E[idx]), float(trace.I[idx]), float(trace.K[idx])
        s1 = (K - coeff * q4) / max(abs(K), abs(coeff * q4), _TINY)
        lhs = (p * I) ** 2
        rhs = 256.0 * (1.0 + (p - 1.0) * E) * q4
        s2 = (rhs - lhs) / max(abs(rhs), abs(lhs), _TINY)
        count += 1
        for s in (s1, s2):
            if s < worst:
                worst, loc = s, idx
    return _verdict(
        "refined_inequalities", worst, loc,
        {"epsilon": epsilon, "snapshots": count},
    )


def lemma_audit(trace, theta: float, lambda1: float) -> Verdict:
    """Worst slack over a porous-media trace's (E, I, K) snapshots of the
    interpolation lemma (:func:`criteria.lemma_functional_check`) at the
    trace's own m and p (``trace.config``), located at the snapshot's time.
    A trace with a non-finite K raises ConfigError."""
    m, p = float(trace.config["m"]), float(trace.config["p"])
    _finite_K(trace)
    worst, loc = np.inf, None
    for t, E, I, K in zip(trace.t, trace.E, trace.I, trace.K):
        chk = criteria.lemma_functional_check(m, p, theta, lambda1, (E, I, K))
        if chk.slack < worst:
            worst, loc = chk.slack, float(t)
    return _verdict("lemma_interpolation", worst, loc, {"snapshots": len(trace.t)})


# check name -> the flow kinds it applies to; verdicts come in this order
CHECKS = {
    "envelope": ("linear", "pme"),
    "dissipation": ("linear", "pme"),
    "poincare": ("linear",),
    "refined": ("linear",),
    "lemma": ("pme",),
}


def run_checks(trace, checks, geometry, lambda1=None, epsilon=None,
               trials: int = 100, seed: int = 0):
    """(verdicts, E bound at the snapshot times or None) of the named checks.

    ``checks`` lists names of ``CHECKS`` (None: envelope and dissipation);
    verdicts follow the table's order.  An unknown name, a check on a trace
    kind it does not apply to, or ``refined`` at p = 2 raises ConfigError
    before ``geometry`` (a callable returning the trace's (potential, grid),
    called at most once) or any eigensolve runs, and a non-finite
    ``lambda1`` raises ParameterError; a grid other than the one
    the trace records raises ConfigError.  The flow's eigenpair,
    lambda1_linear(p) or lambda1_pme(theta), is solved at most once; a given
    ``lambda1`` replaces its eigenvalue.  p, m and theta are the trace's
    (theta defaults to 0.5): a verdict is a function of the trace and of
    ``lambda1``, ``epsilon``, ``trials`` and ``seed``.
    """
    checks = ("envelope", "dissipation") if checks is None else tuple(checks)
    for name in checks:
        if name not in CHECKS:
            raise ConfigError(f"unknown check {name!r}; valid checks: {', '.join(CHECKS)}")
    kind = trace.config.get("kind", "linear")
    for name, kinds in CHECKS.items():
        if name in checks and kind not in kinds:
            raise ConfigError(f"the {name} check applies to {' and '.join(kinds)} traces")
    p = float(trace.config["p"])
    lambda1 = None if lambda1 is None else float(lambda1)
    if lambda1 is not None and not math.isfinite(lambda1):
        raise ParameterError(f"lambda1 must be finite; got {lambda1}")
    if "refined" in checks:
        alpha = LinearParams(p).alpha
        if alpha <= 0.0:
            raise ConfigError("refined inequalities need p < 2")
        epsilon = (1.0 - alpha) / (2.0 * alpha) if epsilon is None else float(epsilon)
    if kind == "pme":
        m, theta = float(trace.config["m"]), trace.config.get("theta")
        theta = 0.5 if theta is None else float(theta)

    @functools.cache
    def built():
        pot, grid = geometry()
        if trace.grid_id and trace.grid_id != grid.ident:
            raise ConfigError(
                f"the trace was written on grid {trace.grid_id}, not on grid {grid.ident}")
        return pot, grid

    @functools.cache
    def spectral():
        res = (spectrum.lambda1_pme(theta, *built()) if kind == "pme"
               else spectrum.lambda1_linear(p, *built()))
        return res if lambda1 is None else replace(res, lam=lambda1)

    lam = lambda: spectral().lam if lambda1 is None else lambda1
    e_bound = None

    def envelope():
        nonlocal e_bound
        E0, I0, lam1 = float(trace.E[0]), float(trace.I[0]), lam()
        if kind == "pme":  # envelope_pme returns the (I, E) bounds
            kappa = criteria.constants_chain(m, p, theta, lam1, E0).kappa
            tag, cols = "cubic", "IE"
            bound = lambda c, t: criteria.envelope_pme(I0, kappa, t)[cols.index(c)]
        else:
            tag, cols, x0 = "exp", "EI", {"E": E0, "I": I0}
            bound = lambda c, t: criteria.envelope_exponential(x0[c], lam1, t)
        out = [check_envelope(trace, functools.partial(bound, c), c, f"envelope[{c},{tag}]")
               for c in cols]
        e_bound = np.array([bound("E", t) for t in trace.t])
        return out

    def poincare():
        eigenpair, (pot, grid) = spectral(), built()
        weak = (p - 1.0) * spectrum.lambda1_linear(2.0, pot, grid).lam if p < 2.0 else None
        return [poincare_test(p, eigenpair, grid, int(trials), int(seed), weak_lambda1=weak)]

    run = {
        "envelope": envelope,
        "dissipation": lambda: [dissipation_audit(trace)],
        "poincare": poincare,
        "refined": lambda: [refined_inequality_audit(trace, epsilon, built()[1])],
        "lemma": lambda: [lemma_audit(trace, theta, lam())],
    }
    verdicts = [v for name in CHECKS if name in checks for v in run[name]()]
    return verdicts, e_bound
