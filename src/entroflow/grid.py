"""1D interval and radially symmetric grids for the weighted measure e^{-F} dx.

The diffusion operator is discretized in divergence form with weighted fluxes
through cell faces,

    (Lv)_i = [ c_{i+1/2} (v_{i+1} - v_i) - c_{i-1/2} (v_i - v_{i-1}) ] / (w_i g_i),

with zero flux through the two boundary faces.  In matrix form L = -W^{-1} S,
where W = diag(w_i g_i) and S is the symmetric tridiagonal stiffness matrix
built by :func:`stiffness_bands` (diagonal c_{i-1/2} + c_{i+1/2}, off-diagonal
-c_{i+1/2}).  That one stencil is the whole discretization: :func:`delta_g`
applies it edge by edge, and the implicit systems of both flows and the
matrices of every spectral quotient (on an interval, its dual grid's) are
built from its bands.  This makes
three properties structural rather than approximate:

* constants are in the kernel and mass is conserved exactly,
* L is self-adjoint in the discrete weighted inner product,
* the summation-by-parts identity  <u, Lv> = -D(u, v)  holds to round-off,
  where D is the edge-based Dirichlet form returned by :func:`dirichlet_form`.

Grids are uniform and evaluate F alone, finite even at x = 0 for `power`.
Radial grids stagger the first node to r = h/2 so that the log family and
the F'/r of their spectra are never evaluated at the origin and the r^{d-1}
Jacobian needs no special casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDomain, NonFiniteWeight, ParameterError, TailMassTooLarge
from .potential import Potential, _sha256, log_weight, tail_mass

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
# largest relative weight mass a radial grid may cut off beyond R
_TAIL_TOL = 1e-10


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
    dgamma_weights : normalized weights, sum exactly 1, for integration
        against the probability measure
    conductance : per-edge flux coefficients (face area * face e^{-F} / h)
    node_mass : unnormalized node weights w_i e^{-F_i}, with w_i the flat dx
        quadrature weight (radial Jacobian and sphere area included); the
        denominator of the stencil
    weight_mass : unnormalized sum(node_mass)
    ident : the first 16 hex digits of the SHA-256 of kind, d, end nodes
        (written ``np.float64(-8.0)`` whatever numpy's scalar repr), n and
        ``potential.key()``; a trace records it, and ``report`` compares
        the grid it rebuilds against it.  The digest is ``hashlib.sha256``'s,
        computed by CPython's builtin module so that building a grid does not
        load OpenSSL
    """

    kind: str
    d: int
    nodes: np.ndarray = field(repr=False)
    h: float
    dgamma_weights: np.ndarray = field(repr=False)
    conductance: np.ndarray = field(repr=False)
    node_mass: np.ndarray = field(repr=False)
    weight_mass: float
    potential: Potential
    ident: str

    @property
    def n(self) -> int:
        return len(self.nodes)


def _finish_grid(kind, d, nodes, h, w, faces, face_area, pot) -> Grid:
    # F overflowing to +inf is a zero weight, reported just below
    with np.errstate(over="ignore", under="ignore"):
        F = log_weight(pot, nodes)
        g = np.exp(-F)
    if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
        raise NonFiniteWeight(
            "e^{-F} is not finite and positive at every node; "
            "shrink the domain or rescale the potential"
        )
    if pot.family == "tabulated":
        # F is known only at the nodes: geometric mean of the two node weights
        face_g = np.exp(-0.5 * (F[:-1] + F[1:]))
    else:
        face_g = np.exp(-log_weight(pot, faces))
    conductance = face_area * face_g / h
    wg = w * g
    with np.errstate(over="ignore"):
        mass = float(np.sum(wg))
    if not math.isfinite(mass):
        raise NonFiniteWeight("the weight mass overflows; shrink the domain")
    if not wg.min() > 0.0:
        raise NonFiniteWeight("a node weight underflows to 0; shrink the domain or "
                              "rescale the potential")
    mu = wg / mass
    # the end nodes are written as numpy 2 writes a float64 scalar, from the
    # Python float, so that the ident does not follow numpy's scalar repr
    ends = "|".join(f"np.float64({float(x)!r})" for x in (nodes[0], nodes[-1]))
    ident = _sha256(f"{kind}|{d}|{ends}|{len(nodes)}|{pot.key()}".encode()).hexdigest()[:16]
    return Grid(
        kind=kind,
        d=d,
        nodes=nodes,
        h=h,
        dgamma_weights=mu,
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
    if not math.isfinite(xR - xL):
        raise DegenerateDomain(f"interval [{xL}, {xR}] needs finite endpoints and width")
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
) -> Grid:
    """Radially symmetric grid on (0, R]: first node staggered to r = h/2,
    last node exactly at R (spacing h = 2R/(2n-1)).

    dx weights carry the full |S^{d-1}| r^{d-1} Jacobian; the face at r = 0
    has zero area (d >= 2) or zero imposed flux (d = 1), the outermost face
    is the Neumann truncation.  For decaying families the closed-form upper
    bound :func:`tail_mass` on the relative weight beyond R (at most 1.05
    times the exact fraction below 1e-6) must stay below ``_TAIL_TOL``.
    The potential carries the dimension: ``pot.d`` must equal ``d``; a table
    lacks the F' and F'' radial spectra sample (ParameterError).
    """
    if n < _MIN_NODES:
        raise DegenerateDomain(f"need at least {_MIN_NODES} nodes, got {n}")
    if d < 1:
        raise DegenerateDomain(f"dimension must be >= 1, got {d}")
    if not math.isfinite(R):
        raise DegenerateDomain(f"radius must be finite, got {R}")
    if R <= 0:
        raise DegenerateDomain(f"radius must be positive, got {R}")
    if pot.d != d:
        raise ParameterError(f"a radial grid in d = {d} needs a potential of that d; "
                             f"got d = {pot.d}")
    if pot.family == "tabulated":
        raise ParameterError("a tabulated potential is interval-only: it has no F', F''")
    if pot.family != "flat":
        tm = tail_mass(pot, R)
        if tm > _TAIL_TOL:
            raise TailMassTooLarge(
                f"weight mass beyond R={R} is up to {tm:.3e} > {_TAIL_TOL:.1e}; enlarge R"
            )
    h = 2.0 * R / (2 * n - 1)
    nodes = (np.arange(n) + 0.5) * h
    area = sphere_area(d)
    faces = (np.arange(1, n)) * h  # interior faces at r = h, 2h, ...
    # an overflowing Jacobian r^{d-1} h overflows the weight mass, which
    # _finish_grid reports
    with np.errstate(over="ignore"):
        w = area * nodes ** (d - 1) * h
        face_area = area * faces ** (d - 1)
    return _finish_grid("radial", d, nodes, h, w, faces, face_area, pot)


def _check_field(grid: Grid, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n,):
        raise ValueError(f"field of length {v.shape} not aligned to grid (n={grid.n})")
    return v


def stiffness_bands(conductance: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Bands (diag, off) of the stiffness matrix S of edge conductances c:
    off = -c and diag_i = c_{i-1/2} + c_{i+1/2} rounded once, so each diagonal
    entry cancels its row's off-diagonals exactly (no flux through the ends).
    ``out``, a (diag, off) pair of arrays, receives them in place of new ones."""
    diag, off = (np.empty(len(conductance) + 1), None) if out is None else out
    diag.fill(0.0)
    diag[:-1] += conductance
    diag[1:] += conductance
    return diag, np.negative(conductance, out=off)


def delta_g(grid: Grid, v, out=None, flux=None) -> np.ndarray:
    """Discrete weighted Laplacian  Lv = div(g grad v)/g = -W^{-1} S v  with
    Neumann closure, accumulated edge by edge from the fluxes
    c (v_{i+1} - v_i), so a constant field maps to exactly zero.

    ``out`` (n nodes) receives the result and ``flux`` (n - 1 edges) is
    scratch, in place of new arrays as with numpy's ``out=``; the result is
    the same bits either way.
    """
    v = _check_field(grid, v)
    flux = np.subtract(v[1:], v[:-1], out=flux)
    flux *= grid.conductance
    out = np.empty(grid.n) if out is None else out
    out.fill(0.0)
    out[:-1] += flux
    out[1:] -= flux
    out /= grid.node_mass
    return out


def gradient_sq(grid: Grid, v, out=None, edge=None) -> np.ndarray:
    """Node field of |Dv|^2, edge values redistributed so that integrating it
    against dgamma reproduces the Dirichlet form exactly (summation by parts).
    ``out`` (n nodes) and ``edge`` (n - 1 edges) as in :func:`delta_g`.
    """
    v = _check_field(grid, v)
    edge = np.subtract(v[1:], v[:-1], out=edge)
    np.square(edge, out=edge)
    edge *= grid.conductance
    edge *= 0.5
    out = np.empty(grid.n) if out is None else out
    out.fill(0.0)
    out[:-1] += edge
    out[1:] += edge
    out /= grid.node_mass
    return out


def _fsum_into(terms: np.ndarray, work: np.ndarray) -> float:
    """Correctly rounded sum of a 1-D float64 array, the same double as
    ``math.fsum(terms.tolist())``, computed in a few vectorized passes by
    error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31(1), 2008).  ``terms`` is
    overwritten with the remainders and ``work`` (same length) is scratch, so
    the sum allocates no n-sized array.

    Each pass rounds every remainder r_i to the grid of sigma = 2^k, with
    2^k >= 2 (n+1) max|r|.  The rounded parts q_i = (sigma + r_i) - sigma and
    the new remainders r_i - q_i are exact, and the q_i sum exactly in any
    order; so the total is the pass sums plus sum(r), and |sum(r)| <
    B = 2^(bitlen(n+1) + e) for max|r| < 2^e.  Rounding is monotone: once the
    pass sums plus -B and plus B round to the same double, that double is the
    correctly rounded total.  Where extraction cannot be exact (non-finite
    input, a sigma that would overflow or whose grid would fall below the
    subnormal spacing) and for all-zero input (the sign of zero is fsum's
    rule), the sum is left to math.fsum of the pass sums and remainders,
    whose exact sum is the array's.
    """
    if len(terms) == 0:
        return 0.0
    bits = (len(terms) + 1).bit_length()
    tau: list[float] = []
    while True:
        top = float(np.abs(terms, out=work).max())
        if top == 0.0 and tau:
            return math.fsum(tau)
        if top == 0.0 or not math.isfinite(top):
            return math.fsum(terms.tolist())
        e = math.frexp(top)[1]
        if tau:
            bound = math.ldexp(1.0, bits + e)
            lo = math.fsum(tau + [-bound])
            if lo == math.fsum(tau + [bound]):
                return lo
        k = bits + e + 1
        # sigma and every partial sum stay below 2^1023, and the grid spacing
        # 2^(k-53) stays a multiple of the subnormal spacing 2^-1074
        if not -1021 <= k <= 1022:
            return math.fsum(tau + terms.tolist())
        sigma = math.ldexp(1.0, k)
        np.add(terms, sigma, out=work)
        work -= sigma
        terms -= work
        tau.append(float(work.sum()))


def dirichlet_form(grid: Grid, u, v, terms=None, work=None) -> float:
    """Edge-based Dirichlet form  disc. integral of Du . Dv dgamma.

    Its n - 1 edge terms c (u_{i+1} - u_i)(v_{i+1} - v_i) / mass are summed
    with correct rounding (:func:`_fsum_into`), so the summation-by-parts
    identity against :func:`delta_g` holds to the per-term rounding level.
    ``terms`` receives the edge terms and ``work`` is scratch (n - 1 each;
    the sum overwrites both), in place of new arrays; the value is the same
    double either way.
    """
    u = _check_field(grid, u)
    v = _check_field(grid, v)
    work = np.subtract(u[1:], u[:-1], out=work)
    terms = np.multiply(grid.conductance, work, out=terms)
    if v is not u:
        np.subtract(v[1:], v[:-1], out=work)
    terms *= work
    terms /= grid.weight_mass
    return _fsum_into(terms, work)


def integrate_dgamma(grid: Grid, f, terms=None, work=None) -> float:
    """Discrete integral of a node field against the probability measure,
    one correctly rounded sum.  ``terms`` (which may be ``f`` itself) and
    ``work`` (n nodes each) as in :func:`dirichlet_form`."""
    terms = np.multiply(grid.dgamma_weights, _check_field(grid, f), out=terms)
    return _fsum_into(terms, np.empty_like(terms) if work is None else work)


def inner_dgamma(grid: Grid, u, v, terms=None, work=None) -> float:
    """Discrete dgamma inner product of two node fields; ``terms`` and
    ``work`` as in :func:`integrate_dgamma`."""
    terms = np.multiply(grid.dgamma_weights, _check_field(grid, u), out=terms)
    terms *= _check_field(grid, v)
    return _fsum_into(terms, np.empty_like(terms) if work is None else work)


def norm_dgamma(grid: Grid, u) -> float:
    return math.sqrt(max(inner_dgamma(grid, u, u), 0.0))
