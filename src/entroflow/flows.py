"""Time integration of the linear flow v_t = Lv and the nonlinear flow v_t = L(v^m).

Both steppers are conservative by construction: the weighted divergence form
has exact zero column sums, so implicit steps preserve the discrete mass to
solver round-off.  The default scheme is the trapezoidal (Crank-Nicolson)
rule; backward Euler is available as an option but its O(dt) bias makes every
mode decay slower than e^{-lambda t}, which breaks tight envelope comparisons
(the trapezoidal rule errs on the fast side, by a factor e^{-(lambda dt)^3/12}
per step).

The linear step solves for its increment, (W + theta dt S) delta = -dt S v,
v' = v + delta.  -S v is the edge flux balance that :func:`grid.delta_g`
accumulates, so a constant field has delta = 0 exactly and the mass moves
only by the rounding of the small increment (about 2e-16 after 4000 steps
at n = 20001).

The nonlinear step solves  v' - theta dt L(v'^m) = v + (1-theta) dt L(v^m)
with a damped Newton iteration on the O(1)-scaled residual.  Newton stops at
the first accepted update whose max-norm residual is at most ``newton_tol``:
the residual's round-off floor, about eps dt |L(v^m)|, grows like dt/h^2, so a
fixed target such as 1e-14 is out of reach on fine grids (the floor is near
3e-14 at n = 4001 with dt = 1e-3 on [-8, 8]).  If Newton stalls above the
tolerance the step is bisected in time (recursively, bounded depth).  Both
implicit systems are the node masses W plus a multiple of the stiffness
stencil S of :func:`grid.stiffness_bands`, solved with LAPACK
``pttrf``/``pttrs``; the Newton system (W + theta dt S D) delta = -W res,
D = diag(m v^{m-1}) > 0, is solved in its symmetric form
(W D^{-1} + theta dt S)(D delta) = -W res.  L(v^m) of the accepted state is
the operator value of its last residual; it is carried into the next step's
right-hand side (and through time-step halvings) instead of being evaluated
again, and clamping v at ``floor`` leaves it unchanged because v^m is taken
of max(v, floor).  ``run_pme`` records its work in ``Trace.meta``:
``newton_iterations`` (factorizations) and ``dt_halvings``.

A run emits a Trace: scalar time series of (t, E, I, K, mass, min_v) plus
full density snapshots every ``audit_stride`` records for the second-order
audits that cannot be reconstructed from scalars.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import ConfigError, LinearSolveFailure, NewtonDiverged
from .functionals import (
    DEFAULT_FLOOR,
    LinearParams,
    PmeParams,
    entropy_linear,
    entropy_pme,
    fisher_linear,
    fisher_pme,
    k_linear,
    k_pme,
)
from .grid import Grid, _net_flux, delta_g, integrate_dgamma, stiffness_bands

__all__ = ["FlowConfig", "Trace", "initial_field", "run_linear", "run_pme"]


@dataclass
class FlowConfig:
    """Declarative description of one flow run.

    ``init`` is a builtin spec ("bump:0.3", "odd:0.2", "const") or
    "csv:path" pointing at a node-aligned column of densities.  ``dt`` falls
    back to 10 h^2; ``stride`` to whatever yields about 200 snapshots.
    The pme stepper's Newton iteration ends a step at the first accepted
    update with max-norm residual at most ``newton_tol``; a step that stalls
    above it is halved in time, at most ``max_dt_halvings`` deep.
    """

    kind: str  # 'linear' | 'pme'
    p: float
    m: float | None = None
    theta: float | None = None
    init: str = "bump:0.3"
    t_end: float = 1.0
    dt: float | None = None
    stride: int | None = None
    audit_stride: int = 10
    scheme: str = "cn"  # 'cn' | 'be'
    floor: float = DEFAULT_FLOOR
    newton_tol: float = 1e-12
    max_dt_halvings: int = 30

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "pme"):
            raise ConfigError(f"unknown flow kind {self.kind!r}")
        if self.scheme not in ("cn", "be"):
            raise ConfigError(f"unknown scheme {self.scheme!r} (use 'cn' or 'be')")
        if self.kind == "pme" and self.m is None:
            raise ConfigError("pme flow needs the nonlinearity exponent m")
        if self.t_end <= 0.0:
            raise ConfigError("t_end must be positive")

    def resolved(self, grid: Grid) -> tuple[float, int, int]:
        """(dt, n_steps, stride) with defaults filled in for this grid."""
        dt = self.dt if self.dt is not None else 10.0 * grid.h**2
        n_steps = max(1, int(round(self.t_end / dt)))
        stride = self.stride if self.stride is not None else max(1, n_steps // 200)
        return dt, n_steps, stride


@dataclass
class Trace:
    """Scalar time series of a flow run plus stored density snapshots."""

    t: np.ndarray
    E: np.ndarray
    I: np.ndarray
    K: np.ndarray
    mass: np.ndarray
    min_v: np.ndarray
    config: dict
    grid_id: str
    fields: list[tuple[int, np.ndarray]] = field(default_factory=list)
    clamps: int = 0
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        try:
            return getattr(self, name)
        except AttributeError:
            raise KeyError(f"trace has no column {name!r}") from None

    @property
    def mass_drift(self) -> float:
        return float(np.max(np.abs(self.mass - 1.0)))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self._csv_text())

    def _csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(self.config, sort_keys=True) + "\n")
        buf.write("# grid: " + self.grid_id + "\n")
        buf.write("# meta: " + json.dumps(self.meta, sort_keys=True) + "\n")
        buf.write("t,E,I,K,mass,min_v\n")
        cols = (self.t, self.E, self.I, self.K, self.mass, self.min_v)
        for row in zip(*cols):
            buf.write(",".join(f"{x:.17g}" for x in row) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path) -> "Trace":
        config: dict = {}
        grid_id = ""
        meta: dict = {}
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("config:"):
                        config = json.loads(body[len("config:"):])
                    elif body.startswith("grid:"):
                        grid_id = body[len("grid:"):].strip()
                    elif body.startswith("meta:"):
                        meta = json.loads(body[len("meta:"):])
                    continue
                if line.startswith("t,"):
                    continue
                rows.append([float(x) for x in line.split(",")])
        if not rows:
            raise ConfigError(f"no data rows in trace {path}")
        arr = np.asarray(rows)
        return cls(
            t=arr[:, 0], E=arr[:, 1], I=arr[:, 2], K=arr[:, 3],
            mass=arr[:, 4], min_v=arr[:, 5],
            config=config, grid_id=grid_id, meta=meta,
        )

    def save_fields(self, path) -> None:
        if not self.fields:
            raise ConfigError("trace has no stored fields")
        idx = np.array([i for i, _ in self.fields], dtype=int)
        mat = np.stack([v for _, v in self.fields])
        np.savez(path, indices=idx, fields=mat, t=self.t, grid_id=self.grid_id)

    def load_fields(self, path) -> None:
        data = np.load(path, allow_pickle=False)
        gid = str(data["grid_id"])
        if gid and self.grid_id and gid != self.grid_id:
            raise ConfigError(
                f"field file was written for grid {gid}, trace has {self.grid_id}"
            )
        self.fields = [
            (int(i), np.asarray(row)) for i, row in zip(data["indices"], data["fields"])
        ]


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
        raw = np.loadtxt(arg, delimiter=",", ndmin=2)
        v = raw[:, -1].astype(float)
        if len(v) != grid.n:
            raise ConfigError(f"csv field has {len(v)} rows, grid has {grid.n}")
        if v.min() < 0.0:
            raise ConfigError("csv initial datum has negative entries")
        return v / integrate_dgamma(grid, v)
    amp = float(arg)
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


class _Recorder:
    """Accumulates snapshot rows and stored fields during a run."""

    def __init__(self, grid: Grid, evaluate, stride: int, audit_stride: int):
        self.grid = grid
        self.evaluate = evaluate
        self.stride = stride
        self.audit_stride = audit_stride
        self.rows: list[tuple[float, float, float, float, float, float]] = []
        self.fields: list[tuple[int, np.ndarray]] = []

    def maybe_record(self, step: int, t: float, v: np.ndarray) -> None:
        if step % self.stride != 0:
            return
        E, I, K = self.evaluate(v)
        mass = integrate_dgamma(self.grid, v)
        self.rows.append((t, E, I, K, mass, float(v.min())))
        snap_index = len(self.rows) - 1
        if snap_index % self.audit_stride == 0:
            self.fields.append((snap_index, v.copy()))


def _make_trace(recorder: _Recorder, config: FlowConfig, grid: Grid,
                clamps: int, meta: dict) -> Trace:
    arr = np.asarray(recorder.rows)
    return Trace(
        t=arr[:, 0], E=arr[:, 1], I=arr[:, 2], K=arr[:, 3],
        mass=arr[:, 4], min_v=arr[:, 5],
        config=asdict(config), grid_id=grid.ident,
        fields=recorder.fields, clamps=clamps, meta=meta,
    )


def _check_potential(pot, grid: Grid) -> None:
    if pot is not None and pot.key() != grid.potential.key():
        raise ConfigError(
            "potential does not match the one the grid was built with "
            f"({pot.key()} vs {grid.potential.key()})"
        )


def run_linear(config: FlowConfig, pot, grid: Grid) -> Trace:
    """Integrate v_t = Lv; one tridiagonal solve per step for the increment
    (W + theta dt S) delta = -dt S v, with a single factorization."""
    if config.kind != "linear":
        raise ConfigError("run_linear needs a config with kind='linear'")
    _check_potential(pot, grid)
    params = LinearParams(config.p)
    dt, n_steps, stride = config.resolved(grid)
    theta = 1.0 if config.scheme == "be" else 0.5

    wg = grid.node_mass
    sdiag, soff = stiffness_bands(grid.conductance)
    fdiag, foff, info = dpttrf(wg + theta * dt * sdiag, theta * dt * soff)
    if info != 0:
        raise LinearSolveFailure(f"cannot factor the implicit system: LAPACK dpttrf info={info}")

    def evaluate(v: np.ndarray):
        E = entropy_linear(params, v, grid)
        I = fisher_linear(params, v, grid, config.floor)
        K = k_linear(params, v, grid, config.floor) if v.min() >= config.floor else np.nan
        return E, I, K

    v = initial_field(grid, config.init) if isinstance(config.init, str) else np.asarray(config.init, float)
    rec = _Recorder(grid, evaluate, stride, config.audit_stride)
    rec.maybe_record(0, 0.0, v)
    for step in range(1, n_steps + 1):
        delta, _ = dpttrs(fdiag, foff, dt * _net_flux(grid, v))
        v = v + delta
        rec.maybe_record(step, step * dt, v)
    meta = {
        "scheme": config.scheme, "dt": dt, "n_steps": n_steps, "stride": stride,
        "t_end_effective": n_steps * dt,
    }
    return _make_trace(rec, config, grid, clamps=0, meta=meta)


class _StepFailed(Exception):
    pass


@dataclass
class _NewtonWork:
    """Work counters of the nonlinear stepper, echoed in ``Trace.meta``."""

    factorizations: int = 0
    halvings: int = 0


def _pme_operator(grid: Grid, x: np.ndarray, m: float, floor: float) -> np.ndarray:
    """L(max(x, floor)^m); unchanged by clamping x at ``floor``."""
    return delta_g(grid, np.power(np.maximum(x, floor), m))


def _pme_newton_step(
    grid: Grid,
    bands: tuple[np.ndarray, np.ndarray],
    v_old: np.ndarray,
    lv_old: np.ndarray,
    dt: float,
    theta: float,
    m: float,
    floor: float,
    newton_tol: float,
    work: _NewtonWork,
) -> tuple[np.ndarray, np.ndarray]:
    """One implicit step of v_t = L(v^m); raises _StepFailed if Newton stalls.

    Takes (v_old, L(v_old^m)) and returns the new state with its L(v^m), the
    operator value of the last accepted residual.  Newton stops at the first
    accepted update whose max-norm residual is at most ``newton_tol``; the
    1e-14 test at the top of the loop only lets an unchanged state pass
    without a solve.
    """
    wg = grid.node_mass
    sdiag, soff = bands
    rhs = v_old + (1.0 - theta) * dt * lv_old
    x, lx = v_old.copy(), lv_old
    res = x - theta * dt * lx - rhs
    rnorm = float(np.max(np.abs(res)))
    for _ in range(50):
        if rnorm <= 1e-14:
            break
        dpow = m * np.power(np.maximum(x, floor), m - 1.0)
        work.factorizations += 1
        fdiag, foff, info = dpttrf(wg / dpow + theta * dt * sdiag, theta * dt * soff)
        if info != 0:
            raise _StepFailed(f"Newton system not positive definite: LAPACK dpttrf info={info}")
        y, _ = dpttrs(fdiag, foff, -wg * res)
        delta = y / dpow
        lam = 1.0
        improved = False
        for _ in range(30):
            xt = x + lam * delta
            lt = _pme_operator(grid, xt, m, floor)
            rt = xt - theta * dt * lt - rhs
            rtn = float(np.max(np.abs(rt)))
            if rtn < rnorm:
                x, lx, res, rnorm = xt, lt, rt, rtn
                improved = True
                break
            lam *= 0.5
        if not improved or rnorm <= newton_tol:
            break
    if rnorm > newton_tol:
        raise _StepFailed(f"Newton residual {rnorm:.3e} above {newton_tol:.1e}")
    return x, lx


def _pme_advance(grid, bands, v, lv, dt, theta, m, floor, newton_tol, depth, max_depth, work):
    """Advance (v, L(v^m)) by dt, halving the step where Newton stalls."""
    try:
        return _pme_newton_step(grid, bands, v, lv, dt, theta, m, floor, newton_tol, work)
    except _StepFailed:
        if depth >= max_depth:
            raise NewtonDiverged(
                f"nonlinear step failed after {depth} time-step halvings"
            ) from None
        work.halvings += 1
        args = (theta, m, floor, newton_tol, depth + 1, max_depth, work)
        half, lhalf = _pme_advance(grid, bands, v, lv, dt / 2, *args)
        return _pme_advance(grid, bands, half, lhalf, dt / 2, *args)


def run_pme(config: FlowConfig, pot, grid: Grid) -> Trace:
    """Integrate v_t = L(v^m) with damped Newton per implicit step."""
    if config.kind != "pme":
        raise ConfigError("run_pme needs a config with kind='pme'")
    _check_potential(pot, grid)
    params = PmeParams(m=config.m, p=config.p)
    dt, n_steps, stride = config.resolved(grid)
    theta = 1.0 if config.scheme == "be" else 0.5

    def evaluate(v: np.ndarray):
        E = entropy_pme(params, v, grid)
        I = fisher_pme(params, v, grid, config.floor)
        K = k_pme(params, v, grid, config.floor) if v.min() >= config.floor else np.nan
        return E, I, K

    v = initial_field(grid, config.init) if isinstance(config.init, str) else np.asarray(config.init, float)
    rec = _Recorder(grid, evaluate, stride, config.audit_stride)
    rec.maybe_record(0, 0.0, v)
    clamps = 0
    work = _NewtonWork()
    bands = stiffness_bands(grid.conductance)
    # L(v^m) of the current state: each step returns it for the next one, and
    # clamping v at the floor leaves it unchanged
    lv = _pme_operator(grid, v, config.m, config.floor)
    for step in range(1, n_steps + 1):
        v, lv = _pme_advance(
            grid, bands, v, lv, dt, theta, config.m, config.floor, config.newton_tol,
            depth=0, max_depth=config.max_dt_halvings, work=work,
        )
        low = v < config.floor
        if np.any(low):
            clamps += int(low.sum())
            v = np.maximum(v, config.floor)
        rec.maybe_record(step, step * dt, v)
    meta = {
        "scheme": config.scheme, "dt": dt, "n_steps": n_steps, "stride": stride,
        "t_end_effective": n_steps * dt, "clamps": clamps,
        "newton_iterations": work.factorizations, "dt_halvings": work.halvings,
    }
    return _make_trace(rec, config, grid, clamps=clamps, meta=meta)
