"""Time integration of the linear flow v_t = Lv and the nonlinear flow v_t = L(v^m).

L = -W^{-1} S is the grid's operator: W the node masses, S the stiffness
matrix of :func:`grid.stiffness_bands`, whose zero column sums make both
flows conserve the discrete mass.  A run records a trace row every
``stride`` steps of ``dt``, at t = j stride dt; row 0 is the initial field
itself.  The trace meta records ``dt``, ``n_steps`` (the last row is at
n_steps dt) and ``stride``.

The linear flow is v(t) = exp(tL) v0, evaluated at the row times by
:class:`_Krylov`: shift-invert Lanczos (van den Eshof and Hochbruck, SIAM J.
Sci. Comput. 27, 2006) on windows that double in length from t = 0, each
restarted from the state at its start (Botchev, Grimm and Hochbruck, SIAM J.
Sci. Comput. 35, 2013).  It takes no time steps, so ``dt`` and ``stride``
set only the row times.  The constant mode c (the mass) is split off and the
basis is orthogonal to it, so every row's mass is c up to the rounding of
adding c to each node.  Its meta adds ``windows`` (each window's span, its
number k of solves and its error estimate) and ``clamps``.

The nonlinear step is the trapezoidal (Crank-Nicolson) rule, theta =
``_THETA`` = 1/2: v' - theta dt L(v'^m) = v + (1-theta) dt L(v^m), solved by
a damped Newton iteration on the O(1)-scaled residual.  The Newton matrix is
factored once per step, at v; later updates reuse it (chord updates) while
each accepted update cuts the residual at least 100-fold
(``_CHORD_CONTRACTION``), so a typical step makes two updates and one
factorization.  Its iterates, L(x^m) and residuals are new arrays: at
n = 4001 rotating them through work arrays saved neither page faults nor
time.  Newton stops at the first accepted update whose max-norm residual is
at most ``_NEWTON_TOL`` (1e-12): the residual's round-off floor, about
eps dt |L(v^m)|, grows like dt/h^2, so a fixed target such as 1e-14 is out of
reach on fine grids.  If Newton stalls above the tolerance, the substep is
retried at half the size, and the rest of the time step keeps the smaller
size; the next time step starts at the full dt again.  A run fails with
NewtonDiverged after ``_MAX_DT_HALVINGS`` (30) halvings within one step.
The Newton system (W + theta dt S D) delta = -W res, D = diag(m v^{m-1}) > 0,
is solved in its symmetric form (W D^{-1} + theta dt S)(D delta) = -W res with
LAPACK ``pttrf``/``pttrs`` through one
:class:`entroflow._lapack.SPDTridiagonal`.  L(v^m) of the accepted state is
the operator value of its last residual; it is carried into the next step's
right-hand side instead of being evaluated again, and clamping v at
``DEFAULT_FLOOR`` leaves it unchanged because v^m is taken of max(v, floor).
A ``pme`` trace's meta adds ``clamps`` (node values raised to the floor, also
``Trace.clamps``), ``newton_iterations``, ``factorizations`` (``pttrf``
calls) and ``dt_halvings``.  Every tolerance and limit is a module constant,
not a setting.

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
from .grid import Grid, delta_g, inner_dgamma, integrate_dgamma, stiffness_bands

__all__ = ["FlowConfig", "Trace", "initial_field", "run_linear", "run_pme"]

# implicit weight of the nonlinear step: the trapezoidal (Crank-Nicolson) rule
_THETA = 0.5
# most time steps a run's time grid may hold
_MAX_STEPS = 10**7


@dataclass
class FlowConfig:
    """Declarative description of one flow run.

    ``init`` is a builtin spec ("bump:0.3", "odd:0.2", "const"),
    "csv:path" pointing at a node-aligned column of densities, or an array of
    node values, which the trace's config echoes as "array".  ``dt`` falls
    back to 10 h^2; ``stride`` to whatever yields about 200 snapshots.
    ``t_end`` and a given ``dt`` must be finite and positive, ``stride`` at
    least 1.  A run's time grid has round(t_end / dt) steps, rounded down to
    a whole number of strides, so its last step is its last recorded row (the
    linear flow evaluates the rows only, the pme flow takes every step);
    :meth:`resolved` rejects a ``t_end`` that rounds to no step, to an
    overflowing count or to more than ``_MAX_STEPS`` (1e7), and a ``stride``
    above the step count.  ``theta`` is the criterion's theta, which
    ``report`` reads for lambda1_pme, not the time-stepping weight.  The
    solvers' tolerances and limits are module constants (see the module
    docstring); every field here is a ``flow`` CLI flag.
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

    def resolved(self, grid: Grid) -> tuple[float, int, int]:
        """(dt, n_steps, stride) with defaults filled in for this grid;
        ``n_steps`` is a multiple of ``stride``."""
        dt = self.dt if self.dt is not None else 10.0 * grid.h**2
        steps = self.t_end / dt
        if not math.isfinite(steps):
            raise ConfigError(
                f"t_end={self.t_end:g} over dt={dt:g} is not a finite number of steps")
        n_steps = round(steps)
        if n_steps == 0:
            raise ConfigError(
                f"t_end={self.t_end:g} is under half the time step dt={dt:g}, so no step "
                "would run; give a smaller dt (--dt)"
            )
        if n_steps > _MAX_STEPS:
            raise ConfigError(
                f"t_end={self.t_end:g} over dt={dt:g} is {n_steps:.3g} steps, more than "
                f"the cap of {_MAX_STEPS:.0e}; give a shorter t_end or a larger dt")
        stride = self.stride if self.stride is not None else max(1, n_steps // 200)
        if stride > n_steps:
            raise ConfigError(
                f"stride={stride} is more than the {n_steps} steps of t_end={self.t_end:g} "
                f"at dt={dt:g}, so no step would be recorded; give a smaller stride (--stride)")
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
# at 1.4e-7 to 7.7e-7, and their halves converge.
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

    def __init__(self, grid: Grid, dt: float, stride: int, v: np.ndarray, snapshot: _Snapshot):
        self.grid, self.dt, self.stride, self.v0, self.snapshot = grid, dt, stride, v, snapshot
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

    def _time(self, row: int) -> float:
        return (row * self.stride) * self.dt

    def states(self, n_rows: int):
        """The state at rows 1..n_rows, written over v0 row by row (each window
        first copies its start into the basis)."""
        v = self.v0
        if v.min() == v.max():
            # a constant field is its own trajectory (|w| = 0): no solve
            for _ in range(n_rows):
                yield v
            return
        c = self._dot(v)
        pending = _windows(n_rows)[::-1]
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
        grid, system, basis = self.grid, self.system, self.basis
        gamma = (self._time(last) - self._time(first)) / _GAMMA_DIV
        taus = np.array([self._time(j - first) for j in range(first + 1, last + 1)])
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
        window = {"t": [self._time(first), self._time(last)]}
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
    """Run one flow.  ``flow(dt, stride, v, snapshot)`` makes the object
    whose ``states(n)`` yields the state at rows 1..n, one every ``stride``
    steps of dt (it may use the snapshot's work arrays between
    rows); row 0 is the initial field itself.  The flow's ``counters`` join
    the trace meta."""
    if config.kind != kind:
        raise ConfigError(f"run_{kind} needs a config with kind={kind!r}")
    snapshot = _Snapshot(params(), grid)
    dt, n_steps, stride = config.resolved(grid)
    v = _initial_state(grid, config.init)
    rows = [(0.0, *snapshot(v))]
    flow = flow(dt, stride, v, snapshot)
    for row, state in enumerate(flow.states(n_steps // stride), 1):
        rows.append(((row * stride) * dt, *snapshot(state)))
    echo = asdict(config)
    if not isinstance(config.init, str):
        echo["init"] = "array"
    meta = {"dt": dt, "n_steps": n_steps, "stride": stride,
            **{name: getattr(flow, name) for name in flow.counters}}
    return Trace._from_rows(rows, echo, grid.ident, meta)


def run_linear(config: FlowConfig, grid: Grid) -> Trace:
    """v(t) = exp(tL) v0 at the snapshot times, by windowed shift-invert Lanczos."""
    return _run(config, grid, "linear", lambda: LinearParams(config.p),
                lambda dt, stride, v, snapshot: _Krylov(grid, dt, stride, v, snapshot))


# Contraction test of the Newton updates within one step (Hairer & Wanner,
# Solving ODEs II, IV.8).  After an accepted update that cuts the max-norm
# residual at least this much, the next update reuses the factorization (a
# chord update); after a slower one it refactors at the current iterate.  A
# chord update costs about 0.6 of a refactored one, so reuse pays only where
# the iteration is already fast: at 0.1, a compact-support run (m = 2,
# n = 801, dt = 1e-3) took about 9 updates per step on one factorization
# where Newton takes 3; at 0.01 it takes 4 with 2 factorizations.
_CHORD_CONTRACTION = 0.01
# Newton ends a step at the first accepted update with max-norm residual at
# most this; a step fails after this many halvings of its substep
_NEWTON_TOL = 1e-12
_MAX_DT_HALVINGS = 30


class _PmeStepper:
    """The implicit stepper of v_t = L(v^m) for one run.

    Its ``counters`` go into ``Trace.meta``: ``clamps`` (node values raised
    to ``DEFAULT_FLOOR``), ``newton_iterations`` (Newton updates solved),
    ``factorizations`` (dpttrf calls) and ``dt_halvings`` (halved substeps).
    ``system`` holds the Newton matrix and its factors, and its right-hand
    side becomes the update; ``lv`` carries L(v^m) of the current state from
    step to step.  Every other array is a new one, so no step writes its
    input state or an iterate it keeps.
    """

    counters = ("clamps", "newton_iterations", "factorizations", "dt_halvings")

    def __init__(self, grid: Grid, m: float, dt: float, stride: int, v: np.ndarray):
        self.grid, self.m, self.dt, self.stride, self.v = grid, m, dt, stride, v
        self.bands = stiffness_bands(grid.conductance)
        self.clamps = self.newton_iterations = self.factorizations = self.dt_halvings = 0
        self.system = SPDTridiagonal(grid.n)
        self.lv = self.operator(v)

    def operator(self, x: np.ndarray) -> np.ndarray:
        """L(max(x, floor)^m); unchanged by clamping x at the floor."""
        return delta_g(self.grid, np.power(np.maximum(x, DEFAULT_FLOOR), self.m))

    @staticmethod
    def _residual(x, lx, tdt, rhs) -> tuple[np.ndarray, float]:
        """x - theta dt L(x^m) - rhs and its max norm."""
        res = x - lx * tdt - rhs
        return res, float(np.abs(res).max())

    def _newton(self, v_old: np.ndarray, lv_old: np.ndarray, dt: float):
        """One implicit step of size dt; None if Newton stalls.

        Takes (v_old, L(v_old^m)) and returns the new state with its L(v^m),
        the operator value of the last accepted residual.  The first update
        factors the Newton matrix at v_old; each later one reuses the
        factorization while the previous update met ``_CHORD_CONTRACTION``.
        A chord update that does not improve the residual is redone with a
        factorization at the current iterate and a damped line search; only
        such a fresh update that cannot improve ends the step.  Newton stops
        at the first accepted update whose max-norm residual is at most
        ``_NEWTON_TOL``; the 1e-14 test at the top of the loop only lets an
        unchanged state pass without a solve.
        """
        wg = self.grid.node_mass
        sdiag, soff = self.bands
        m, system = self.m, self.system
        tdt = _THETA * dt
        tsdiag = sdiag * tdt
        rhs = v_old + lv_old * ((1.0 - _THETA) * dt)
        x, lx = v_old, lv_old
        res, rnorm = self._residual(x, lx, tdt, rhs)
        chord = False
        for _ in range(50):
            if rnorm <= 1e-14:
                break
            if not chord:
                dpow = m * np.power(np.maximum(x, DEFAULT_FLOOR), m - 1.0)
                # W D^{-1} + theta dt S, which the factorization overwrites
                np.divide(wg, dpow, out=system.d)
                system.d += tsdiag
                np.multiply(soff, tdt, out=system.e)
                self.factorizations += 1
                if system.factor() != 0:  # not positive definite
                    return None
            self.newton_iterations += 1
            system.b[:] = -wg * res
            system.solve()
            delta = system.b / dpow
            lam = 1.0
            # a chord update gets the full step only, a fresh one a damped line search
            for _ in range(1 if chord else 30):
                xt = x + delta if lam == 1.0 else x + delta * lam
                lt = self.operator(xt)
                rt, rtn = self._residual(xt, lt, tdt, rhs)
                if rtn < rnorm:
                    break
                lam *= 0.5
            else:
                if chord:
                    chord = False
                    continue
                break
            chord = rtn <= _CHORD_CONTRACTION * rnorm
            x, lx, res, rnorm = xt, lt, rt, rtn
            if rnorm <= _NEWTON_TOL:
                break
        return (x, lx) if rnorm <= _NEWTON_TOL else None

    def states(self, n_rows: int):
        """The state after each further ``stride`` steps, n_rows times."""
        v = self.v
        for _ in range(n_rows):
            for _ in range(self.stride):
                v = self.advance(v)
            yield v

    def advance(self, v: np.ndarray) -> np.ndarray:
        """Advance v by dt, halving the substep where Newton stalls, then clamp
        it at ``DEFAULT_FLOOR``, which leaves the carried L(v^m) unchanged.

        ``left`` substeps of size dt / 2**depth remain.  A failed substep is
        retried at half the size, and the rest of the step keeps that size:
        a size that failed once is not tried again within the step.
        """
        lv, depth, left = self.lv, 0, 1
        while left:
            step = self._newton(v, lv, self.dt / 2**depth)
            if step is None:
                if depth >= _MAX_DT_HALVINGS:
                    raise NewtonDiverged(
                        f"nonlinear step failed after {depth} time-step halvings"
                    )
                self.dt_halvings += 1
                depth, left = depth + 1, 2 * left
                continue
            v, lv = step
            left -= 1
        self.lv = lv
        if v.min() < DEFAULT_FLOOR:
            self.clamps += int(np.count_nonzero(v < DEFAULT_FLOOR))
            v = np.maximum(v, DEFAULT_FLOOR)
        return v


def run_pme(config: FlowConfig, grid: Grid) -> Trace:
    """Integrate v_t = L(v^m) with damped Newton per implicit step."""
    return _run(config, grid, "pme", lambda: PmeParams(m=config.m, p=config.p),
                lambda dt, stride, v, snapshot: _PmeStepper(grid, config.m, dt, stride, v))
