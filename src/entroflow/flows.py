"""Time integration of the linear flow v_t = Lv and the nonlinear flow v_t = L(v^m).

L = -W^{-1} S is the grid's operator: W the node masses, S the stiffness
matrix of :func:`grid.stiffness_bands`, whose zero column sums make both
flows conserve the discrete mass.  A run records a trace row at each
t = j stride dt; row 0 is the initial field itself.  Neither flow takes steps
of ``dt``: ``dt`` and ``stride`` set only the row times, which the trace meta
records as ``dt``, ``n_steps`` (the last row is at n_steps dt) and ``stride``.

The linear flow is v(t) = exp(tL) v0, evaluated at the row times by
:class:`_Krylov`: shift-invert Lanczos (van den Eshof and Hochbruck, SIAM J.
Sci. Comput. 27, 2006) on windows that double in length from t = 0, each
restarted from the state at its start (Botchev, Grimm and Hochbruck, SIAM J.
Sci. Comput. 35, 2013).  The constant mode c (the mass) is split off and
the basis is orthogonal to it, so every row's mass is c up to the rounding of
adding c to each node.  Its meta adds ``windows`` (each window's span, its
number k of solves and its error estimate) and ``clamps``.

The nonlinear flow takes adaptive steps of Alexander's L-stable SDIRK3
(:class:`_PmeStepper`), each stage solved by undamped Newton/chord updates
and each step cut to end on a row time.  Every Newton iterate keeps the mass,
since 1^T S = 0.  Its meta adds ``clamps``, ``newton_iterations``,
``factorizations``, ``accepted`` and ``rejected`` steps and
``error_estimate``.  Tolerances and limits are module constants.

A run emits a Trace of (t, E, I, K, mass, min_v) and, for the linear flow,
q4 = int |D v^{p/4}|^4 dgamma, the one further scalar the refined audit
needs; no density field is kept.  Each run makes one
:class:`functionals._Snapshot`, which sums each integral of a row once,
correctly rounded, on its own work arrays.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._lapack import SPDTridiagonal
from .errors import ConfigError, LinearSolveFailure, NewtonDiverged, SolverDiverged
from .functionals import DEFAULT_FLOOR, LinearParams, PmeParams, _Snapshot
from .grid import Grid, delta_g, inner_dgamma, integrate_dgamma, norm_dgamma, stiffness_bands

__all__ = ["FlowConfig", "Trace", "initial_field", "run_linear", "run_pme"]

# most rows a run's trace may hold
_MAX_ROWS = 10**7


@dataclass
class FlowConfig:
    """Declarative description of one flow run.

    ``init`` is a builtin spec ("bump:0.3", "odd:0.2", "const"), "csv:path"
    naming a node-aligned column of densities, or an array of node values,
    which the trace's config echoes as "array".  ``dt`` and ``stride`` set only
    the row times: rows every ``stride`` dt up to round(t_end / dt) dt,
    rounded down to a whole number of strides.  The default ``dt`` is
    t_end / 200 and the default ``stride`` gives about 200 rows, so the
    default grid is 200 rows that end at t_end (to an ulp).  ``t_end`` and a
    given ``dt`` must be finite and positive, ``stride`` at least 1;
    :meth:`resolved` rejects a ``t_end`` that rounds to no step or to an
    overflowing count, a ``stride`` above the step count, and more than
    ``_MAX_ROWS`` (1e7) rows.  ``theta`` is the criterion's theta, which
    ``report`` reads for lambda1_pme.  Every field is a ``flow`` CLI flag;
    tolerances and limits are module constants.
    """

    kind: str  # 'linear' | 'pme'
    p: float
    m: float | None = None
    theta: float | None = None
    init: str = "bump:0.3"
    t_end: float = 1.0
    dt: float | None = None
    stride: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "pme"):
            raise ConfigError(f"unknown flow kind {self.kind!r}")
        if self.kind == "pme" and self.m is None:
            raise ConfigError("pme flow needs the nonlinearity exponent m")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ConfigError(f"t_end must be finite and positive; got {self.t_end}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"dt must be finite and positive; got {self.dt}")
        if self.stride is not None and self.stride < 1:
            raise ConfigError(f"stride must be at least 1; got {self.stride}")

    def resolved(self) -> tuple[float, int, int]:
        """(dt, n_steps, stride) with defaults filled in; ``n_steps`` is a
        multiple of ``stride``."""
        dt = self.dt if self.dt is not None else self.t_end / 200.0
        steps = self.t_end / dt if dt else math.inf  # a subnormal t_end / 200 is 0
        if not math.isfinite(steps):
            raise ConfigError(
                f"t_end={self.t_end:g} over dt={dt:g} is not a finite number of steps")
        n_steps = round(steps)
        if n_steps == 0:
            raise ConfigError(
                f"t_end={self.t_end:g} is under half the time step dt={dt:g}, so no step "
                "would run; give a smaller dt (--dt)"
            )
        stride = self.stride if self.stride is not None else max(1, n_steps // 200)
        if stride > n_steps:
            raise ConfigError(
                f"stride={stride} is more than the {n_steps} steps of t_end={self.t_end:g} "
                f"at dt={dt:g}, so no step would be recorded; give a smaller stride (--stride)")
        if n_steps // stride > _MAX_ROWS:
            raise ConfigError(
                f"t_end={self.t_end:g} at stride={stride} and dt={dt:g} is {n_steps // stride:.3g}"
                f" rows, over the cap of {_MAX_ROWS:.0e}; give a larger stride or dt or a shorter t_end")
        # the last recorded row is the last step: no computed step is discarded
        return dt, n_steps - n_steps % stride, stride


# the columns of every trace; a linear trace adds q4
_COLUMNS = ("t", "E", "I", "K", "mass", "min_v")


@dataclass
class Trace:
    """Scalar time series of a flow run: the ``_COLUMNS``, and q4 if linear."""

    t: np.ndarray
    E: np.ndarray
    I: np.ndarray
    K: np.ndarray
    mass: np.ndarray
    min_v: np.ndarray
    config: dict
    grid_id: str
    q4: np.ndarray | None = None  # None: a pme trace, or a linear one written without q4
    meta: dict = field(default_factory=dict)

    @property
    def clamps(self) -> int:
        """Node values a pme run raised to the density floor, from its meta."""
        return self.meta.get("clamps", 0)

    def column(self, name: str) -> np.ndarray:
        if name not in _COLUMNS + ("q4",) or getattr(self, name) is None:
            raise KeyError(f"trace has no column {name!r}")
        return getattr(self, name)

    @property
    def mass_drift(self) -> float:
        return float(np.max(np.abs(self.mass - 1.0)))

    def to_csv(self, path) -> None:
        text = self._csv_text()  # built first: a failure leaves no truncated file
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def _csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(self.config, sort_keys=True) + "\n")
        buf.write("# grid: " + self.grid_id + "\n")
        buf.write("# meta: " + json.dumps(self.meta, sort_keys=True) + "\n")
        names = _COLUMNS if self.q4 is None else _COLUMNS + ("q4",)
        buf.write(",".join(names) + "\n")
        for row in zip(*(getattr(self, name) for name in names)):
            buf.write(",".join(f"{x:.17g}" for x in row) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path) -> "Trace":
        """Read a trace CSV, whose header names its columns (``_COLUMNS``, then
        q4 or not); a malformed line, or a config line without the flow's
        ``kind`` and ``p`` (and ``m`` for pme), raises ConfigError naming it."""
        header: dict = {"config": {}, "meta": {}}
        grid_id = ""
        columns = _COLUMNS
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("t,"):
                    columns = tuple(line.split(","))
                    if columns not in (_COLUMNS, _COLUMNS + ("q4",)):
                        raise ConfigError(f"trace {path} line {lineno}: unknown header {line!r}")
                    continue
                try:
                    if line.startswith("#"):
                        key, _, body = line[1:].strip().partition(":")
                        if key == "grid":
                            grid_id = body.strip()
                        elif key in ("config", "meta"):
                            header[key] = json.loads(body)
                        continue
                    row = [float(x) for x in line.split(",")]
                except ValueError as exc:
                    raise ConfigError(f"trace {path} line {lineno}: {exc}") from None
                if len(row) != len(columns):
                    raise ConfigError(
                        f"trace {path} line {lineno}: {len(row)} columns, expected "
                        f"{len(columns)} ({','.join(columns)})"
                    )
                rows.append(row)
        if not rows:
            raise ConfigError(f"no data rows in trace {path}")
        config = header["config"]
        needed = ("kind", "p", "m") if config.get("kind") == "pme" else ("kind", "p")
        missing = [k for k in needed if config.get(k) is None]
        if missing:
            raise ConfigError(
                f"trace {path}: its '# config:' line lacks {', '.join(missing)}")
        return cls._from_rows(rows, config, grid_id, header["meta"])

    @classmethod
    def _from_rows(cls, rows, config: dict, grid_id: str, meta: dict) -> "Trace":
        """A trace of (t, E, I, K, mass, min_v) rows, all with q4 last or none."""
        cols = np.asarray(rows).T
        q4 = cols[6] if len(cols) > 6 else None
        return cls(*cols[:6], config=config, grid_id=grid_id, q4=q4, meta=meta)


def initial_field(grid: Grid, spec: str) -> np.ndarray:
    """Built-in initial data: unit mass, strictly positive.

    bump:a  -- off-center Gaussian bump, projected to zero weighted mean
    odd:a   -- linear profile centered at the weighted mean of x
    const   -- equilibrium
    csv:p   -- node-aligned column loaded from a file: the last column, with
               the checks of an array datum, normalized to unit mass
    """
    x = grid.nodes
    if spec == "const":
        return np.ones(grid.n)
    if ":" not in spec:
        raise ConfigError(f"cannot parse initial datum spec {spec!r}")
    kind, _, arg = spec.partition(":")
    if kind == "csv":
        try:
            v = np.loadtxt(arg, delimiter=",", ndmin=2)[:, -1]
        except ValueError as exc:
            raise ConfigError(f"cannot read initial datum file {arg!r}: {exc}") from None
        v = _initial_state(grid, v)
        mass = integrate_dgamma(grid, v)
        if not (math.isfinite(mass) and mass > 0.0):
            raise ConfigError(f"initial datum needs a finite positive mass; got {mass}")
        return v / mass
    try:
        amp = float(arg)
    except ValueError:
        raise ConfigError(f"initial datum {spec!r} needs a numeric amplitude") from None
    if not (0.0 < amp <= 0.8):
        raise ConfigError(f"perturbation amplitude must lie in (0, 0.8]; got {amp}")
    span = x[-1] - x[0]
    if kind == "bump":
        x0 = x[0] + 0.35 * span
        width = 0.08 * span
        phi = np.exp(-0.5 * ((x - x0) / width) ** 2)
    elif kind == "odd":
        phi = x - integrate_dgamma(grid, x)
    else:
        raise ConfigError(f"unknown initial datum family {kind!r}")
    phi = phi - integrate_dgamma(grid, phi)
    phi /= np.max(np.abs(phi))
    v = 1.0 + amp * phi
    return v / integrate_dgamma(grid, v)


def _initial_state(grid: Grid, init) -> np.ndarray:
    """The field a run starts from: :func:`initial_field` of a spec string,
    else a copy of the array (the run updates it in place), which must hold
    one finite, non-negative value per node.  Its unit mass is checked by
    the first snapshot."""
    if isinstance(init, str):
        return initial_field(grid, init)
    v = np.array(init, dtype=float)
    if v.shape != (grid.n,):
        raise ConfigError(f"initial datum has shape {v.shape}, grid needs ({grid.n},)")
    if not np.isfinite(v).all():
        raise ConfigError("initial datum has non-finite entries")
    if v.min() < 0.0:
        raise ConfigError("initial datum has negative entries")
    return v


# A Krylov window stops at the first k whose coefficients, at each of its row
# times, moved by less than _KRYLOV_TOL_W relative to the window's start in
# the dgamma norm (or than the state's rounding, _EPS |c|) and by less than
# _KRYLOV_TOL_MAX in the bound
# sum_i |dC_i| max|q_i| on the field's max norm.  A window whose max-norm
# bound stays above its tolerance for _KRYLOV_PATIENCE solves after the
# dgamma one is met, or that takes _MAX_KRYLOV solves, is split in two; a
# one-row window raises SolverDiverged instead.  gamma is the window's length
# over _GAMMA_DIV.  On harmonic_log:0.05 (--radial 3:12, bump:0.3, at every n
# from 1000 to 4000) the max-norm bound of the windows from t = 0.25 stalls
# at 1.5e-7 to 6.4e-7, and their halves converge.
_KRYLOV_TOL_W = 1e-12
_KRYLOV_TOL_MAX = 1e-7
_KRYLOV_PATIENCE = 4
_MAX_KRYLOV = 60
_GAMMA_DIV = 8.0
_EPS = np.finfo(float).eps


def _windows(n_rows: int) -> list[tuple[int, int]]:
    """(first, last) rows of the Krylov windows, halving back from the last
    row to row 1: the windows double in length from t = 0."""
    bounds = [n_rows]
    while bounds[-1] > 1:
        bounds.append(bounds[-1] // 2)
    bounds.append(0)
    return list(zip(bounds[:0:-1], bounds[-2::-1]))


class _Krylov:
    """exp(tL) v0 at the row times of one linear run, window by window.

    v0 = c + w with c its dgamma mean.  A window [a, b] takes a Lanczos basis
    q_1..q_k of A = (W + gamma S)^{-1} W = (1 - gamma L)^{-1} from w(a),
    orthonormal in the dgamma inner product (:func:`grid.inner_dgamma`)
    and orthogonal to the constants, and with the Ritz pairs (theta_j, z_j) of
    A sets w(a + tau) = |w(a)| sum_i C_i q_i, C(tau) = sum_j z_j z_j[0]
    e^{-tau (1 - theta_j)/(gamma theta_j)}.  The state at b starts the next
    window.  ``windows`` records each window's span ``t``, its basis size
    ``k`` and its last coefficient changes (``estimate``: relative in the
    dgamma norm, and the max-norm bound); a window that was split is listed,
    with ``split``, before its halves.  A row value below zero by at most
    ``_KRYLOV_TOL_MAX``, where the exact state is positive but below the
    expansion's error, is set to 0 and
    counted in ``clamps``; a lower one is left for the snapshot's
    NegativeDensity.  The basis rows are allocated one at a time and kept
    for the next window; the snapshot's work arrays are the iteration's
    scratch between rows.
    """

    counters = ("windows", "clamps")

    def __init__(self, grid: Grid, times: list[float], v: np.ndarray, snapshot: _Snapshot):
        self.grid, self.times, self.v0, self.snapshot = grid, times, v, snapshot
        self.system = SPDTridiagonal(grid.n)
        self.basis: list[np.ndarray] = []
        self.windows: list[dict] = []
        self.clamps = 0

    def _dot(self, x: np.ndarray, y: np.ndarray | None = None) -> float:
        """The dgamma inner product of x and y, or the dgamma mean of x, summed
        on the snapshot's work arrays."""
        row, work = self.snapshot.row, self.snapshot.work
        if y is None:
            return integrate_dgamma(self.grid, x, terms=row, work=work)
        return inner_dgamma(self.grid, x, y, terms=row, work=work)

    def _project(self, y: np.ndarray, k: int) -> float:
        """Remove from y its mean and its components on the first k basis rows:
        the Lanczos step (on the last two), then once more on all of them;
        returns its component on the k-th (0 if k = 0)."""
        last = 0.0
        for rows in (range(max(k - 2, 0), k), range(k)):
            y -= self._dot(y)
            for i in rows:
                h = self._dot(y, self.basis[i])
                y -= np.multiply(self.basis[i], h, out=self.snapshot.a)
                if i == k - 1:
                    last += h
        return last

    def __iter__(self):
        """The state at each row time: v0, then each row written over it (each
        window first copies its start into the basis)."""
        v = self.v0
        yield v
        if v.min() == v.max():
            # a constant field is its own trajectory (|w| = 0): no solve
            for _ in self.times[1:]:
                yield v
            return
        c = self._dot(v)
        pending = _windows(len(self.times) - 1)[::-1]
        while pending:
            first, last = pending.pop()
            coefficients = self._expand(v, c, first, last)
            if coefficients is None:
                mid = (first + last) // 2
                pending += [(mid, last), (first, mid)]
                continue
            for row in coefficients:
                np.multiply(self.basis[0], row[0], out=v)
                for i in range(1, len(row)):
                    v += np.multiply(self.basis[i], row[i], out=self.snapshot.a)
                v += c
                if -_KRYLOV_TOL_MAX <= v.min() < 0.0:
                    self.clamps += int(np.count_nonzero(v < 0.0))
                    np.maximum(v, 0.0, out=v)
                yield v

    def _expand(self, start: np.ndarray, c: float, first: int, last: int):
        """The coefficients (one row per row time in (first, last]) of
        start - c evolved from row ``first``; None if the window is split."""
        grid, system, basis, times = self.grid, self.system, self.basis, self.times
        gamma = (times[last] - times[first]) / _GAMMA_DIV
        taus = np.array(times[1:last - first + 1])
        # W + gamma S, written into the system's bands and factored in place
        d, e = stiffness_bands(grid.conductance, out=(system.d, system.e))
        d *= gamma
        d += grid.node_mass
        e *= gamma
        info = system.factor()
        if info != 0:
            raise LinearSolveFailure(
                f"cannot factor W + gamma S (gamma={gamma:g}): LAPACK dpttrf info={info}")
        if not basis:
            basis.append(np.empty(grid.n))
        q = np.subtract(start, c, out=basis[0])
        self._project(q, 0)
        beta0 = math.sqrt(self._dot(q, q))
        window = {"t": [times[first], times[last]]}
        if beta0 == 0.0:
            self.windows.append({**window, "k": 0, "estimate": [0.0, 0.0]})
            return np.zeros((len(taus), 1))
        q /= beta0
        # below the rounding of the state c + w, a change is not resolved
        tol_w = max(_KRYLOV_TOL_W, _EPS * abs(c) / beta0)
        sup = [float(np.abs(q, out=self.snapshot.a).max())]
        alpha, beta, previous, met = [], [], np.zeros((len(taus), 0)), None
        for k in range(1, _MAX_KRYLOV + 1):
            b = np.multiply(grid.node_mass, basis[k - 1], out=system.b)
            system.solve()
            alpha.append(self._project(b, k))
            norm = math.sqrt(self._dot(b, b))
            coeffs = self._coefficients(alpha, beta, gamma, taus)
            change = coeffs.copy()
            change[:, :k - 1] -= previous
            change_w = float(np.sqrt(np.square(change).sum(axis=1)).max())
            change_max = float((np.abs(change) * sup).sum(axis=1).max()) * beta0
            if change_w < tol_w or norm == 0.0:
                if change_max < _KRYLOV_TOL_MAX or norm == 0.0:
                    self.windows.append({**window, "k": k, "estimate": [change_w, change_max]})
                    return coeffs * beta0
                met = met or k
                if k - met >= _KRYLOV_PATIENCE:
                    break
            previous = coeffs
            beta.append(norm)
            if len(basis) == k:
                basis.append(np.empty(grid.n))
            np.divide(b, norm, out=basis[k])
            sup.append(float(np.abs(basis[k], out=self.snapshot.a).max()))
        if last - first > 1:
            self.windows.append({**window, "k": k, "estimate": [change_w, change_max],
                                 "split": True})
            return None
        raise SolverDiverged(
            f"linear flow window t in [{window['t'][0]:g}, {window['t'][1]:g}]: the Krylov "
            f"expansion of exp(tL) did not converge in {k} solves (last coefficient change "
            f"{change_w:.1e} relative in the dgamma norm, {change_max:.1e} in the max norm)")

    @staticmethod
    def _coefficients(alpha, beta, gamma, taus) -> np.ndarray:
        """exp(-tau (T^{-1} - 1)/gamma) e_1 for each tau, T the Lanczos matrix
        of A: rows of a (len(taus), k) array.  One eigh of T (LAPACK dsyevd,
        whose divide and conquer calls dgemm for k above 25); the products
        here are elementwise, in a fixed order."""
        k = len(alpha)
        T = np.diag(alpha)
        T[range(1, k), range(k - 1)] = T[range(k - 1), range(1, k)] = beta
        theta, Z = np.linalg.eigh(T)
        # a Ritz value at or below 0 is a mode too fast to resolve: rate inf
        theta = np.maximum(theta, np.finfo(float).tiny)
        with np.errstate(over="ignore"):
            rates = (1.0 - theta) / (gamma * theta)
        weights = np.exp(-np.multiply.outer(taus, rates)) * Z[0]
        out = np.zeros((len(taus), k))
        for j in range(k):
            out += np.multiply.outer(weights[:, j], Z[:, j])
        return out


def _run(config: FlowConfig, grid: Grid, kind: str, params, flow) -> Trace:
    """Run one flow.  ``flow(times, v, snapshot)`` makes the iterable of the
    states at the row times t = j stride dt, from the initial field v itself
    at t = 0 (it may use the snapshot's work arrays between rows).  The
    flow's ``counters`` join the trace meta."""
    if config.kind != kind:
        raise ConfigError(f"run_{kind} needs a config with kind={kind!r}")
    snapshot = _Snapshot(params(), grid)
    dt, n_steps, stride = config.resolved()
    times = [(j * stride) * dt for j in range(n_steps // stride + 1)]
    flow = flow(times, _initial_state(grid, config.init), snapshot)
    rows = [(t, *snapshot(state)) for t, state in zip(times, flow)]
    echo = asdict(config)
    if not isinstance(config.init, str):
        echo["init"] = "array"
    meta = {"dt": dt, "n_steps": n_steps, "stride": stride,
            **{name: getattr(flow, name) for name in flow.counters}}
    return Trace._from_rows(rows, echo, grid.ident, meta)


def run_linear(config: FlowConfig, grid: Grid) -> Trace:
    """v(t) = exp(tL) v0 at the snapshot times, by windowed shift-invert Lanczos."""
    return _run(config, grid, "linear", lambda: LinearParams(config.p),
                lambda times, v, snapshot: _Krylov(grid, times, v, snapshot))


# A stage's Newton ends at the first update whose max-norm residual is at most
# the largest of _NEWTON_TOL, 1e-3 of the step's error bound _TOL deviation,
# and the rounding 4 eps gamma h |W^{-1}S| max v^m (fine grids).  After an
# update that cuts it _CHORD_CONTRACTION-fold, the next one reuses the
# factorization (a chord update; Hairer & Wanner, Solving ODEs II, IV.8).
_NEWTON_TOL = 1e-12
_CHORD_CONTRACTION = 0.01

# Alexander's SDIRK (SIAM J. Numer. Anal. 14, 1977): L-stable, stiffly
# accurate, order 3.  _GAMMA is the root in (1/6, 1/2) of 6g^3 - 18g^2 + 9g - 1;
# each row of _A is a stage, the last the solution.  _ERR is b minus the
# order-2 weights on stages 1 and 2 that fit c1 and c2.
_GAMMA = 0.43586652150845899942
_A = ((_GAMMA,),
      ((1.0 - _GAMMA) / 2.0, _GAMMA),
      ((-6.0 * _GAMMA**2 + 16.0 * _GAMMA - 1.0) / 4.0,
       (6.0 * _GAMMA**2 - 20.0 * _GAMMA + 5.0) / 4.0, _GAMMA))
_ERR = (_A[2][0] - (1.0 - (1.0 - 2.0 * _GAMMA) / (1.0 - _GAMMA)),
        _A[2][1] - (1.0 - 2.0 * _GAMMA) / (1.0 - _GAMMA), _GAMMA)
# A step is accepted when its error estimate, a change of v^m, is at most
# _TOL times the dgamma norm of v^m - mass^m at its start, or 100 times the
# stages' Newton tolerance (its noise); in v it took 2.7 times the steps at a
# degenerate front (m = 4, n = 801).  The next step is
# h min(_GROW, max(_SHRINK, 0.9 err^(-1/3))); a Newton stall halves it;
# _MAX_REJECTIONS rejections in a row raise NewtonDiverged.
_TOL = 1e-6
_GROW, _SHRINK = 5.0, 0.2
_MAX_REJECTIONS = 30


class _PmeStepper:
    """The adaptive stepper of v_t = L(v^m) for one run.  ``error_estimate``
    sums the accepted steps' estimates over the deviation (see ``_TOL``), 0
    at a zero deviation: to first order a bound on the state's relative error
    where the flow contracts, as at m = 1.  ``lv`` is L(v^m) of the current state."""

    counters = ("clamps", "newton_iterations", "factorizations", "accepted", "rejected",
                "error_estimate")

    def __init__(self, grid: Grid, m: float, times: list[float], v: np.ndarray):
        self.grid, self.m, self.times, self.v = grid, m, times, v
        self.bands = stiffness_bands(grid.conductance)
        self.stiffness = 2.0 * float((self.bands[0] / grid.node_mass).max())  # |W^-1 S|
        self.clamps = self.newton_iterations = self.factorizations = 0
        self.accepted, self.rejected, self.error_estimate = 0, 0, 0.0
        self.system = SPDTridiagonal(grid.n)
        self.lv = self.operator(v)
        self.mass = integrate_dgamma(grid, v)
        self.t, self.h = 0.0, times[1]  # the first try is one row

    def operator(self, x: np.ndarray) -> np.ndarray:
        """L(max(x, floor)^m); unchanged by clamping x at the floor."""
        return delta_g(self.grid, np.power(np.maximum(x, DEFAULT_FLOOR), self.m))

    def _newton(self, x: np.ndarray, lx: np.ndarray, rhs: np.ndarray, gh: float):
        """The stage x - gh L(x^m) = rhs, from x, and its L(x^m); None if Newton
        stalls.  Solves (W D^{-1} + gh S)(D delta) = -W res, D = diag(dpow),
        and takes the whole update x + delta.  A chord update that does not
        lower the residual is redone fresh; a fresh one that does not is a
        stall, which rejects the step and so halves it (Hairer & Wanner II,
        IV.8): no damping."""
        wg = self.grid.node_mass
        sdiag, soff = self.bands
        m, system = self.m, self.system
        res = x - lx * gh - rhs
        rnorm = float(np.abs(res).max())
        for _ in range(50):
            if rnorm <= 1e-14:  # an unchanged state passes without a solve
                break
            if not self.chord:
                self.dpow = m * np.power(np.maximum(x, DEFAULT_FLOOR), m - 1.0)
                np.divide(wg, self.dpow, out=system.d)
                system.d += sdiag * gh
                np.multiply(soff, gh, out=system.e)
                self.factorizations += 1
                if system.factor() != 0:  # not positive definite
                    return None
            self.newton_iterations += 1
            system.b[:] = -wg * res
            system.solve()
            xt = x + system.b / self.dpow
            lt = self.operator(xt)
            rt = xt - lt * gh - rhs
            rtn = float(np.abs(rt).max())
            if not rtn < rnorm:  # also a NaN residual
                if self.chord:
                    self.chord = False
                    continue
                break
            self.chord = rtn <= _CHORD_CONTRACTION * rnorm
            x, lx, res, rnorm = xt, lt, rt, rtn
            if rnorm <= self.tol:
                break
        return (x, lx) if rnorm <= self.tol else None

    def _step(self, v: np.ndarray, h: float):
        """(state, its L(v^m), error estimate) a step h from v, or None if a
        stage stalls.  The estimate is the dgamma norm of D (W + gamma h S
        D)^{-1} W e, e = h sum_i _ERR_i L(Y_i^m): a change of v^m whose stiff
        modes the Newton matrix damps as the scheme does (Hairer & Wanner II)."""
        gh = _GAMMA * h
        rounding = float(4.0 * _EPS * gh * self.stiffness * v.max() ** self.m)
        self.tol = max(_NEWTON_TOL, 1e-3 * _TOL * self.deviation, rounding)
        x, lx, slopes = v, self.lv, []
        self.chord, start = False, self.factorizations
        for row in _A:
            rhs = v
            for a, k in zip(row, slopes):
                rhs = rhs + k * (a * h)
            stage = self._newton(x, lx, rhs, gh)
            if stage is None:
                return None
            x, lx = stage
            slopes.append(lx)
        if self.factorizations == start:  # no update: every stage is v
            return x, lx, 0.0
        e = sum(k * (c * h) for c, k in zip(_ERR, slopes))
        np.multiply(self.grid.node_mass, e, out=self.system.b)
        self.system.solve()
        return x, lx, norm_dgamma(self.grid, self.system.b)

    def advance(self, v: np.ndarray, t_row: float) -> np.ndarray:
        """The first accepted step toward ``t_row``, stretched to it if within
        10 %, halved if within twice the step.  Values below ``DEFAULT_FLOOR``
        are raised to it, and v - floor scaled back to the mass."""
        self.deviation = norm_dgamma(self.grid, np.power(v, self.m) - self.mass**self.m)
        for _ in range(_MAX_REJECTIONS):
            left = t_row - self.t
            h = left if left <= 1.1 * self.h else min(self.h, left / 2.0)
            step = self._step(v, h)
            if step is None:
                self.rejected += 1
                self.h = h / 2.0
                continue
            x, lx, error = step
            err = error / max(_TOL * self.deviation, 100.0 * self.tol)
            self.h = h * min(_GROW, max(_SHRINK, 0.9 * err ** (-1.0 / 3.0) if err else _GROW))
            if err > 1.0:
                self.rejected += 1
                continue
            self.accepted += 1
            self.error_estimate += error / self.deviation if self.deviation else 0.0
            self.t, self.lv = (t_row if h == left else self.t + h), lx
            if x.min() < DEFAULT_FLOOR:
                self.clamps += int(np.count_nonzero(x < DEFAULT_FLOOR))
                x = np.maximum(x, DEFAULT_FLOOR) - DEFAULT_FLOOR
                x *= (self.mass - DEFAULT_FLOOR) / integrate_dgamma(self.grid, x)
                x += DEFAULT_FLOOR
                self.lv = self.operator(x)
            return x
        raise NewtonDiverged(
            f"porous-media step at t={self.t:g} rejected {_MAX_REJECTIONS} times in a row; "
            f"last step size {h:.3g}")

    def __iter__(self):
        """The state at each row time, v itself at the first."""
        v = self.v
        yield v
        for t_row in self.times[1:]:
            while self.t < t_row:
                v = self.advance(v, t_row)
            yield v


def run_pme(config: FlowConfig, grid: Grid) -> Trace:
    """Integrate v_t = L(v^m) by adaptive SDIRK3 steps, undamped Newton per stage."""
    return _run(config, grid, "pme", lambda: PmeParams(m=config.m, p=config.p),
                lambda times, v, snapshot: _PmeStepper(grid, config.m, times, v))
