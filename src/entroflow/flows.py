"""Time integration of the linear flow v_t = Lv and the nonlinear flow v_t = L(v^m).

Both steppers are conservative by construction: the weighted divergence form
has exact zero column sums, so implicit steps preserve the discrete mass to
solver round-off.  Both use the trapezoidal (Crank-Nicolson) rule, theta =
``_THETA`` = 1/2, which errs on the fast side for every mode, by a factor
e^{-(lambda dt)^3/12} per step, so the decay envelopes can be compared
tightly.

The linear step solves for its increment, (W + theta dt S) delta = -dt S v,
v' = v + delta.  -S v is the edge flux balance that :func:`grid.delta_g`
accumulates, so a constant field has delta = 0 exactly and the mass moves
only by the rounding of the small increment (about 2e-16 after 4000 steps
at n = 20001).  The step allocates nothing: the flux balance is written into
work arrays, the solve overwrites its right-hand side with delta, and v is
updated in place (on a copy of an array ``init``).  At n = 20001 each array
is 160 KB, above glibc malloc's default 128 KiB mmap threshold, so per-step
temporaries would be returned to the kernel and faulted in again every step.

The nonlinear step solves  v' - theta dt L(v'^m) = v + (1-theta) dt L(v^m)
with a damped Newton iteration on the O(1)-scaled residual.  The Newton
matrix is factored once per step, at v; later updates reuse it (chord
updates) while each accepted update cuts the residual at least 100-fold
(``_CHORD_CONTRACTION``), so a typical step makes two updates and one
factorization.  Its iterates, L(x^m) and residuals are new arrays.  At
n = 4001 (32 KB each) rotating them through work arrays saved neither page
faults nor time.  At n = 20001 (160 KB each) glibc malloc trims and regrows
its heap around them: a 1000-step run makes about 1e5 minor page faults
where work arrays made 7e3, and takes about 10 % longer.  Newton stops at
the first accepted update whose max-norm residual is at most ``_NEWTON_TOL``
(1e-12): the residual's round-off floor, about eps dt |L(v^m)|, grows like
dt/h^2, so a fixed target such as 1e-14 is out of reach on fine grids (the
floor is near 3e-14 at n = 4001 with dt = 1e-3 on [-8, 8]).  If Newton
stalls above the tolerance, the substep is retried at half the size, and the
rest of the time step keeps the smaller size; the next time step starts at
the full dt again.  A run fails with NewtonDiverged after
``_MAX_DT_HALVINGS`` (30) halvings within one step.  Both limits, and the
density floor ``DEFAULT_FLOOR``, are fixed constants, not settings.
:class:`_PmeStepper` owns this loop and the Newton iteration.  Both implicit
systems are the node masses W plus a multiple of the stiffness stencil S of
:func:`grid.stiffness_bands`, solved with LAPACK ``pttrf``/``pttrs``
through one :class:`entroflow._lapack.SPDTridiagonal` per run, which owns
the matrix and right-hand side buffers the routines overwrite; the Newton system (W + theta dt S D) delta = -W res,
D = diag(m v^{m-1}) > 0, is solved in its symmetric form
(W D^{-1} + theta dt S)(D delta) = -W res, written straight into the
system's diagonal.  L(v^m) of the accepted state is the operator value of
its last residual; it is carried into the next step's right-hand side (and
through time-step halvings) instead of being evaluated again, and clamping v
at ``DEFAULT_FLOOR`` leaves it unchanged because v^m is taken of max(v, floor).
A trace's meta records ``dt``, ``n_steps`` (the steps taken, whose last is
the last row) and ``stride``; a ``pme`` trace's meta adds the stepper's work:
``clamps`` (node values raised to the floor, also ``Trace.clamps``),
``newton_iterations`` (Newton updates solved), ``factorizations`` (LAPACK
``pttrf`` calls) and ``dt_halvings``.

Both flows share one time loop, :func:`_run`: a run is a config and a grid
(whose potential defines L), and the loop differs only in its stepper,
:class:`_LinearStepper` or :class:`_PmeStepper`, whose ``advance(v)`` returns
the state one step later.  A run emits a Trace: scalar time series of
(t, E, I, K, mass, min_v), and for the linear flow q4 = int |D v^{p/4}|^4
dgamma, the one further scalar the refined audit needs; no density field is
kept.  Each run makes one :class:`functionals._Snapshot`, which writes a
snapshot's integrands (E, the mass, the Fisher edge terms, K and q4) one
after another into the same work array and sums each with one correctly
rounded sum, so recording allocates no n-sized array, and the one mass sum
serves both the unit-mass check and the ``mass`` column.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._lapack import SPDTridiagonal
from .errors import ConfigError, LinearSolveFailure, NewtonDiverged
from .functionals import DEFAULT_FLOOR, LinearParams, PmeParams, _Snapshot
from .grid import Grid, _net_flux, delta_g, integrate_dgamma, stiffness_bands

__all__ = ["FlowConfig", "Trace", "initial_field", "run_linear", "run_pme"]

# implicit weight of both steppers: the trapezoidal (Crank-Nicolson) rule
_THETA = 0.5
# most time steps a run may take (about 2 minutes of the linear flow at n = 101)
_MAX_STEPS = 10**7


@dataclass
class FlowConfig:
    """Declarative description of one flow run.

    ``init`` is a builtin spec ("bump:0.3", "odd:0.2", "const"),
    "csv:path" pointing at a node-aligned column of densities, or an array of
    node values, which the trace's config echoes as "array".  ``dt`` falls
    back to 10 h^2; ``stride`` to whatever yields about 200 snapshots.
    ``t_end`` and a given ``dt`` must be finite and positive, ``stride`` at
    least 1.  A run takes round(t_end / dt) steps, rounded down to a whole
    number of strides, so its last step is its last recorded row;
    :meth:`resolved` rejects a ``t_end`` that rounds to no step, to an
    overflowing count or to more than ``_MAX_STEPS`` (1e7), and a ``stride``
    above the step count.  ``theta`` is the criterion's theta, which
    ``report`` reads for lambda1_pme, not the time-stepping weight.  The
    time-stepping weight, the solver's tolerance, halving limit and density
    floor are module constants (see the module docstring); every field here
    is a ``flow`` CLI flag.
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
    csv:p   -- node-aligned column loaded from a file
    """
    x = grid.nodes
    if spec == "const" or spec == "equilibrium":
        return np.ones(grid.n)
    if ":" not in spec:
        raise ConfigError(f"cannot parse initial datum spec {spec!r}")
    kind, _, arg = spec.partition(":")
    if kind == "csv":
        try:
            v = np.loadtxt(arg, delimiter=",", ndmin=2)[:, -1]
        except ValueError as exc:
            raise ConfigError(f"cannot read initial datum file {arg!r}: {exc}") from None
        if len(v) != grid.n:
            raise ConfigError(f"csv field has {len(v)} rows, grid has {grid.n}")
        if not np.isfinite(v).all():
            raise ConfigError("csv initial datum has non-finite entries")
        if v.min() < 0.0:
            raise ConfigError("csv initial datum has negative entries")
        mass = integrate_dgamma(grid, v)
        if not (math.isfinite(mass) and mass > 0.0):
            raise ConfigError(f"csv initial datum needs a finite positive mass; got {mass}")
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
        raise ConfigError(f"initial array has shape {v.shape}, grid needs ({grid.n},)")
    if not np.isfinite(v).all():
        raise ConfigError("initial array has non-finite entries")
    if v.min() < 0.0:
        raise ConfigError("initial array has negative entries")
    return v


class _LinearStepper:
    """The implicit stepper of v_t = Lv for one run: one tridiagonal solve per
    step for the increment (W + theta dt S) delta = -dt S v, on a single
    factorization; v is updated in place."""

    counters = ()

    def __init__(self, grid: Grid, config: FlowConfig, dt: float, v: np.ndarray):
        sdiag, soff = stiffness_bands(grid.conductance)
        system = SPDTridiagonal(grid.n)
        np.multiply(sdiag, _THETA * dt, out=system.d)
        system.d += grid.node_mass
        np.multiply(soff, _THETA * dt, out=system.e)
        info = system.factor()
        if info != 0:
            raise LinearSolveFailure(f"cannot factor the implicit system: LAPACK dpttrf info={info}")
        self.grid, self.dt, self.system = grid, dt, system
        self.flux = np.empty(grid.n - 1)

    def advance(self, v: np.ndarray) -> np.ndarray:
        # the solve overwrites its right-hand side b with delta
        b = self.system.b
        np.multiply(_net_flux(self.grid, v, out=b, flux=self.flux), self.dt, out=b)
        self.system.solve()
        v += b
        return v


def _run(config: FlowConfig, grid: Grid, kind: str, params, stepper) -> Trace:
    """Integrate one flow: ``stepper(grid, config, dt, v)`` makes the stepper
    whose ``advance`` takes v one step of dt, ``params()`` the functionals'
    parameters.  A snapshot row is recorded every ``stride`` steps, the last
    one at the last step; the stepper's ``counters`` join the trace meta."""
    if config.kind != kind:
        raise ConfigError(f"run_{kind} needs a config with kind={kind!r}")
    snapshot = _Snapshot(params(), grid)
    dt, n_steps, stride = config.resolved(grid)
    v = _initial_state(grid, config.init)
    stepper = stepper(grid, config, dt, v)
    rows = []
    for step in range(n_steps + 1):
        if step:
            v = stepper.advance(v)
        if step % stride == 0:
            rows.append((step * dt, *snapshot(v)))
    echo = asdict(config)
    if not isinstance(config.init, str):
        echo["init"] = "array"
    meta = {"dt": dt, "n_steps": n_steps, "stride": stride,
            **{name: getattr(stepper, name) for name in stepper.counters}}
    return Trace._from_rows(rows, echo, grid.ident, meta)


def run_linear(config: FlowConfig, grid: Grid) -> Trace:
    """Integrate v_t = Lv with the trapezoidal rule on a single factorization."""
    return _run(config, grid, "linear", lambda: LinearParams(config.p), _LinearStepper)


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

    def __init__(self, grid: Grid, config: FlowConfig, dt: float, v: np.ndarray):
        self.grid, self.dt = grid, dt
        self.bands = stiffness_bands(grid.conductance)
        self.m = config.m
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
    return _run(config, grid, "pme", lambda: PmeParams(m=config.m, p=config.p), _PmeStepper)
