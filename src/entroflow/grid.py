"""1D interval and radially symmetric grids for the weighted measure e^{-F} dx.

The diffusion operator is discretized in divergence form with weighted fluxes
through cell faces,

    (Lv)_i = [ c_{i+1/2} (v_{i+1} - v_i) - c_{i-1/2} (v_i - v_{i-1}) ] / (w_i g_i),

with zero flux through the two boundary faces.  In matrix form L = -W^{-1} S,
where W = diag(w_i g_i) and S is the symmetric tridiagonal stiffness matrix
built by :func:`stiffness_bands` (diagonal c_{i-1/2} + c_{i+1/2}, off-diagonal
-c_{i+1/2}).  That one stencil is the whole discretization: :func:`delta_g`
applies it edge by edge, and the implicit systems of both flows and the
matrices of every spectral quotient are built from its bands.  This makes
three properties structural rather than approximate:

* constants are in the kernel and mass is conserved exactly,
* L is self-adjoint in the discrete weighted inner product,
* the summation-by-parts identity  <u, Lv> = -D(u, v)  holds to round-off,
  where D is the edge-based Dirichlet form returned by :func:`dirichlet_form`.

Grids are uniform.  Radial grids stagger the first node to r = h/2 so that
singular families (log, sub-quadratic powers) are never evaluated at the
origin and the r^{d-1} Jacobian needs no special casing.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDomain, NonFiniteWeight, TailMassTooLarge
from .potential import Potential, _check_singular, log_weight, tail_mass

__all__ = [
    "Grid",
    "make_interval_grid",
    "make_radial_grid",
    "sphere_area",
    "stiffness_bands",
    "delta_g",
    "gradient_sq",
    "dirichlet_form",
    "integrate_dgamma",
    "inner_dgamma",
    "norm_dgamma",
]

_MIN_NODES = 16


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1} (2 for d=1, 2*pi, 4*pi, ...)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class Grid:
    """Immutable discretization; all operations on it are pure functions.

    Attributes
    ----------
    kind : 'interval' or 'radial'
    d : ambient dimension (1 for intervals)
    nodes : strictly increasing node positions
    h : uniform spacing
    dx_weights : per-node quadrature weight for the flat measure, including
        the radial Jacobian and sphere-area factor when kind='radial'
    g_values : e^{-F} at the nodes
    dgamma_weights : normalized weights, sum exactly 1, for integration
        against the probability measure
    g_face : per-edge face weights e^{-F} entering the conductances
    conductance : per-edge flux coefficients (face area * face g / h)
    node_mass : unnormalized node weights w_i g_i (denominator of the stencil)
    weight_mass : unnormalized sum(node_mass)
    """

    kind: str
    d: int
    nodes: np.ndarray = field(repr=False)
    h: float
    dx_weights: np.ndarray = field(repr=False)
    g_values: np.ndarray = field(repr=False)
    dgamma_weights: np.ndarray = field(repr=False)
    g_face: np.ndarray = field(repr=False)
    conductance: np.ndarray = field(repr=False)
    node_mass: np.ndarray = field(repr=False)
    weight_mass: float
    potential: Potential
    ident: str

    @property
    def n(self) -> int:
        return len(self.nodes)


def _finish_grid(kind, d, nodes, h, w, faces, face_area, pot) -> Grid:
    # log_weight admits x = 0 for the power family; a node there stays an error
    _check_singular(pot, nodes)
    F = log_weight(pot, nodes)
    with np.errstate(over="ignore", under="ignore"):
        g = np.exp(-F)
    if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
        raise NonFiniteWeight(
            "e^{-F} is not finite and positive at every node; "
            "shrink the domain or rescale the potential"
        )
    if pot.family == "tabulated":
        # F is known only at the nodes: geometric mean of the two node weights
        g_face = np.exp(-0.5 * (F[:-1] + F[1:]))
    else:
        g_face = np.exp(-log_weight(pot, faces))
    conductance = face_area * g_face / h
    wg = w * g
    mass = float(np.sum(wg))
    mu = wg / mass
    ident = hashlib.sha256(
        f"{kind}|{d}|{nodes[0]!r}|{nodes[-1]!r}|{len(nodes)}|{pot.key()}".encode()
    ).hexdigest()[:16]
    return Grid(
        kind=kind,
        d=d,
        nodes=nodes,
        h=h,
        dx_weights=w,
        g_values=g,
        dgamma_weights=mu,
        g_face=g_face,
        conductance=conductance,
        node_mass=wg,
        weight_mass=mass,
        potential=pot,
        ident=ident,
    )


def make_interval_grid(xL: float, xR: float, n: int, pot: Potential) -> Grid:
    """Uniform grid on [xL, xR] with trapezoid dx weights."""
    if n < _MIN_NODES:
        raise DegenerateDomain(f"need at least {_MIN_NODES} nodes, got {n}")
    if not xL < xR:
        raise DegenerateDomain(f"empty interval [{xL}, {xR}]")
    nodes = np.linspace(xL, xR, n)
    h = (xR - xL) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    faces = 0.5 * (nodes[:-1] + nodes[1:])
    return _finish_grid("interval", 1, nodes, h, w, faces, np.ones(n - 1), pot)


def make_radial_grid(
    d: int,
    R: float,
    n: int,
    pot: Potential,
    tail_tol: float | None = 1e-10,
) -> Grid:
    """Radially symmetric grid on (0, R]: first node staggered to r = h/2,
    last node exactly at R (spacing h = 2R/(2n-1)).

    dx weights carry the full |S^{d-1}| r^{d-1} Jacobian; the face at r = 0
    has zero area (d >= 2) or zero imposed flux (d = 1), the outermost face
    is the Neumann truncation.  For decaying families the relative weight
    beyond R is estimated analytically and must stay below ``tail_tol``.
    """
    if n < _MIN_NODES:
        raise DegenerateDomain(f"need at least {_MIN_NODES} nodes, got {n}")
    if d < 1:
        raise DegenerateDomain(f"dimension must be >= 1, got {d}")
    if R <= 0:
        raise DegenerateDomain(f"radius must be positive, got {R}")
    if tail_tol is not None and pot.family not in ("flat", "tabulated"):
        tm = tail_mass(pot, R, d)
        if tm > tail_tol:
            raise TailMassTooLarge(
                f"weight mass beyond R={R} is {tm:.3e} > {tail_tol:.1e}; enlarge R"
            )
    h = 2.0 * R / (2 * n - 1)
    nodes = (np.arange(n) + 0.5) * h
    area = sphere_area(d)
    w = area * nodes ** (d - 1) * h
    faces = (np.arange(1, n)) * h  # interior faces at r = h, 2h, ...
    return _finish_grid("radial", d, nodes, h, w, faces, area * faces ** (d - 1), pot)


def _check_field(grid: Grid, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n,):
        raise ValueError(f"field of length {v.shape} not aligned to grid (n={grid.n})")
    return v


def stiffness_bands(conductance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bands (diag, off) of the stiffness matrix S of edge conductances c:
    off = -c and diag_i = c_{i-1/2} + c_{i+1/2} rounded once, so each diagonal
    entry cancels its row's off-diagonals exactly (no flux through the ends)."""
    diag = np.zeros(len(conductance) + 1)
    diag[:-1] += conductance
    diag[1:] += conductance
    return diag, -conductance


def _net_flux(grid: Grid, v: np.ndarray) -> np.ndarray:
    """-S v, accumulated edge by edge from the fluxes c (v_{i+1} - v_i), so a
    constant field maps to exactly zero."""
    flux = grid.conductance * np.diff(v)
    out = np.zeros(grid.n)
    out[:-1] += flux
    out[1:] -= flux
    return out


def delta_g(grid: Grid, v) -> np.ndarray:
    """Discrete weighted Laplacian  Lv = div(g grad v)/g = -W^{-1} S v  with
    Neumann closure, from the edge fluxes of :func:`_net_flux`."""
    out = _net_flux(grid, _check_field(grid, v))
    out /= grid.node_mass
    return out


def gradient_sq(grid: Grid, v) -> np.ndarray:
    """Node field of |Dv|^2, edge values redistributed so that integrating it
    against dgamma reproduces the Dirichlet form exactly (summation by parts).
    """
    v = _check_field(grid, v)
    q = grid.conductance * np.diff(v) ** 2
    out = np.zeros(grid.n)
    out[:-1] += 0.5 * q
    out[1:] += 0.5 * q
    out /= grid.node_mass
    return out


def _fsum(a: np.ndarray) -> float:
    """Correctly rounded sum of a float64 array: the same double as
    ``math.fsum(a.tolist())``, computed in a few vectorized passes by
    error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31(1), 2008).

    Each pass rounds every remainder r_i to the grid of sigma = 2^k, with
    2^k >= 2 (n+1) max|r|.  The rounded parts q_i = (sigma + r_i) - sigma and
    the new remainders r_i - q_i are exact, and the q_i sum exactly in any
    order; so the total is the pass sums plus sum(r), and |sum(r)| < B =
    2^(bitlen(n+1) + e) for max|r| < 2^e.  Rounding is monotone: once the
    pass sums plus -B and plus B round to the same double, that double is
    the correctly rounded total.  Where extraction cannot be exact (non-finite
    input, a sigma that would overflow or whose grid would fall below the
    subnormal spacing) and for all-zero input (the sign of zero is fsum's
    rule), the sum is left to math.fsum.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return 0.0
    bits = (a.size + 1).bit_length()
    q = np.abs(a)
    top = float(q.max())
    if top == 0.0 or not math.isfinite(top):
        return math.fsum(a.tolist())
    r = a.copy()
    taus: list[float] = []
    while True:
        e = math.frexp(top)[1]
        if taus:
            bound = math.ldexp(1.0, bits + e)
            lo = math.fsum(taus + [-bound])
            if lo == math.fsum(taus + [bound]):
                return lo
        k = bits + e + 1
        # sigma and every partial sum stay below 2^1023, and the grid
        # spacing 2^(k-53) stays a multiple of the subnormal spacing 2^-1074
        if not -1021 <= k <= 1022:
            return math.fsum(a.tolist())
        sigma = math.ldexp(1.0, k)
        np.add(r, sigma, out=q)
        np.subtract(q, sigma, out=q)
        np.subtract(r, q, out=r)
        taus.append(float(q.sum()))
        np.abs(r, out=q)
        top = float(q.max())
        if top == 0.0:
            return math.fsum(taus)


def dirichlet_form(grid: Grid, u, v) -> float:
    """Edge-based Dirichlet form  disc. integral of Du . Dv dgamma.

    Summed with correct rounding (:func:`_fsum`), so the summation-by-parts
    identity against :func:`delta_g` holds to the per-term rounding level.
    """
    u = _check_field(grid, u)
    v = _check_field(grid, v)
    terms = grid.conductance * np.diff(u) * np.diff(v) / grid.weight_mass
    return _fsum(terms)


def integrate_dgamma(grid: Grid, f) -> float:
    """Discrete integral of a node field against the probability measure."""
    f = _check_field(grid, f)
    return _fsum(grid.dgamma_weights * f)


def inner_dgamma(grid: Grid, u, v) -> float:
    u = _check_field(grid, u)
    v = _check_field(grid, v)
    return _fsum(grid.dgamma_weights * u * v)


def norm_dgamma(grid: Grid, u) -> float:
    return math.sqrt(max(inner_dgamma(grid, u, u), 0.0))
