"""Smallest eigenvalues of the weighted quotients driving the decay estimates.

Two quotients are discretized on the masses, conductances and potential V
of :func:`_quotient` with the grid's one stiffness stencil
(:func:`grid.stiffness_bands`); on an interval that is the dual grid of the
flow's own operator, so lambda1_linear(2) is its discrete spectral gap:

* lambda1_linear(p):   inf_w  [ 2(p-1)/p |Dw|^2 + V |w|^2 ] dgamma / |w|^2 dgamma
* lambda1_pme(theta):  inf_w  [ (1-theta) |Dw|^2 + V |w|^2 ] dgamma / |w|^2 dgamma

The discrete problem is a generalized symmetric pencil A w = lambda M w with
M the diagonal of masses; the M^{1/2} similarity turns it into a symmetric
tridiagonal matrix T.  Its smallest eigenpair comes from shifted inverse
iteration on the LAPACK pair the flows use (dpttrf/dpttrs through
:class:`entroflow._lapack.SPDTridiagonal`), from the constants.  Every shift
is one at which dpttrf factors T - sigma I, a Sturm test that proves it
lies below the spectrum, so the returned eigenvalue is bracketed and is the
smallest one (Parlett, The Symmetric Eigenvalue Problem, ch. 4).  The
vector's normalization, its Rayleigh quotient (the returned eigenvalue) and
its residual norm are each one correctly rounded sum
(:func:`grid._fsum_into`), not a BLAS dot product, so the eigenvalue is the
same double whatever the BLAS thread count; every step is O(n) and works in
place in five n-sized arrays besides T.  :func:`epsilon_star` needs only
the sign of lambda1: one Sturm test a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._lapack import SPDTridiagonal
from .errors import ParameterError, SolverDiverged
from .functionals import _exponents
from .grid import Grid, _fsum_into, norm_dgamma, stiffness_bands
from .potential import evaluate

__all__ = [
    "SpectralResult",
    "lambda1_linear",
    "lambda1_pme",
    "epsilon_star",
    "smallest_eigenpair",
]

_EPS = np.finfo(float).eps
# residual tolerance of every eigensolve, floored at the matvec round-off level
_EIG_TOL = 1e-10
# caps of the inverse iteration: solves per eigenpair, and factorizations
# tried for one shift (each failed one halves the eigenvalue bracket)
_MAX_SOLVES = 50
_MAX_FACTORIZATIONS = 200
# epsilon_star: bisection width, and how far below 0 the quotient may dip
_EPS_STAR_TOL = 1e-4
_EIG_FLOOR = 1e-8


@dataclass(frozen=True)
class SpectralResult:
    """Smallest eigenvalue with its eigenvector and solver diagnostics.

    The eigenvector is a node field of unit dgamma norm: radially the nodal
    one; on an interval the running sum u >= 0 (u_0 = 0) of the positive dual
    one, at p = 2 the flow's gap eigenfunction less its left-end value.
    ``residual`` is the 2-norm of the symmetrized operator residual; ``tol``
    is the tolerance it was held to: the fixed ``_EIG_TOL`` (1e-10) floored
    at the round-off level of one matrix-vector product.  ``iterations`` is
    the number of inverse-iteration solves (LAPACK dpttrs calls), at least 1.
    """

    lam: float
    eigenvector: np.ndarray = field(repr=False)
    residual: float
    iterations: int
    tol: float = _EIG_TOL

    def __float__(self) -> float:
        return self.lam


def smallest_eigenpair(
    diag: np.ndarray, off: np.ndarray
) -> tuple[float, np.ndarray, float, int, float, float]:
    """Smallest eigenpair of the symmetric tridiagonal matrix T with diagonal
    ``diag`` and off-diagonal ``off``, by certified shifted inverse iteration
    from a vector of ones (a diagonal T starts from the unit vector of its
    smallest entry, its exact eigenvector).

    Returns (lam, vector, residual, iterations, effective_tol, lower): the
    vector has unit 2-norm, lam is its Rayleigh quotient x^T T x, residual
    is |T x - lam x|, iterations counts the solves, and no eigenvalue of T
    lies below ``lower``, which is at most residual + effective_tol below
    lam; effective_tol is ``_EIG_TOL`` floored at the matvec round-off level
    8 eps |T|.  Raises ValueError for malformed bands, SolverDiverged for a
    non-finite T or where a cap of the iteration is reached.
    """
    diag, off = (np.ascontiguousarray(a, dtype=np.float64) for a in (diag, off))
    n = len(diag)
    if diag.ndim != 1 or n < 1 or off.shape != (n - 1,):
        raise ValueError(f"need n >= 1 diagonal and n - 1 off-diagonal entries in "
                         f"one dimension; got shapes {diag.shape}, {off.shape}")
    system = SPDTridiagonal(n)
    system.b[:] = 1.0
    return _inverse_iteration(diag, off, system)


def _rayleigh(diag, off, system, tx, work) -> tuple[float, float] | None:
    """Divide the vector x in ``system.b`` by its 2-norm; return its Rayleigh
    quotient rho = x^T T x and residual norm |T x - rho x|, with T x left in
    ``tx``.  Returns None, leaving x as it was, where the norm is zero or not
    finite.  The three sums are correctly rounded (:func:`grid._fsum_into`);
    ``system.d``, ``system.e`` and ``work`` are scratch."""
    x, d, e = system.b, system.d, system.e
    norm_sq = _fsum_into(np.multiply(x, x, out=d), work)
    if not 0.0 < norm_sq < math.inf:
        return None
    x /= math.sqrt(norm_sq)
    np.multiply(diag, x, out=tx)
    tx[:-1] += np.multiply(off, x[1:], out=e)
    tx[1:] += np.multiply(off, x[:-1], out=e)
    rho = _fsum_into(np.multiply(x, tx, out=d), work)
    np.subtract(tx, np.multiply(rho, x, out=d), out=d)
    return rho, math.sqrt(_fsum_into(np.square(d, out=d), work))


def _factor_at(diag, off, system, sigma: float) -> int:
    """dpttrf's ``info`` for T - sigma I, written into ``system`` and factored:
    0 exactly where it is positive definite; SolverDiverged where info < 0."""
    np.subtract(diag, sigma, out=system.d)
    system.e[:] = off
    info = system.factor()
    if info < 0:
        raise SolverDiverged(f"LAPACK dpttrf failed: info={info}")
    return info


def _factor_shifted(diag, off, system, sigma: float, lo: float,
                    hi: float) -> tuple[float, float]:
    """Factor T - s I into ``system`` (LAPACK dpttrf) at the first shift s,
    ``sigma`` and then midpoints of the bracket [lo, hi], at which it is
    positive definite; return the bracket (lo, hi) narrowed by the attempts.

    dpttrf succeeds exactly when its pivots, a Sturm sequence, are all
    positive, so every eigenvalue lies above a shift it factors, and
    ``hi`` becomes a shift where it fails (some eigenvalue lies at or below
    it).  A shift at or below ``lo`` must factor: SolverDiverged if it does
    not, as after ``_MAX_FACTORIZATIONS`` attempts."""
    for _ in range(_MAX_FACTORIZATIONS):
        if sigma >= hi:
            sigma = lo + 0.5 * (hi - lo)
            if sigma >= hi:  # no double between lo and hi
                sigma = lo
        info = _factor_at(diag, off, system, sigma)
        if info == 0:
            return max(lo, sigma), hi
        if sigma <= lo:
            raise SolverDiverged(f"LAPACK dpttrf refused the shift {sigma!r} at the lower "
                                 f"bound of the spectrum: info={info}")
        hi = sigma
    raise SolverDiverged(f"no positive definite shift in {_MAX_FACTORIZATIONS} "
                         f"factorizations: bracket [{lo!r}, {hi!r}]")


def _inverse_iteration(diag, off, system) -> tuple[float, np.ndarray, float, int, float, float]:
    """:func:`smallest_eigenpair` of the matrix with bands ``diag`` and
    ``off``, iterated in place from the start vector in ``system.b``.

    Each step solves (T - sigma I) y = x (dpttrs) at a shift that dpttrf
    factors: first rho - delta - tol/2 (the Rayleigh quotient less the
    residual norm, a lower bound on the eigenvalue nearest rho, less half
    the tolerance), else the bisection of :func:`_factor_shifted`.  The
    largest shift factored is the certified lower bound ``lo``, which
    starts at the Gershgorin bound less the tolerance.  After each solve
    the loop stops once delta <= tol and rho - lo <= delta + tol: then
    lambda1 lies in [lo, rho] and rho is within delta + tol of it.  A solve
    whose result is not finite is retried from the same vector at a shift
    backed off below ``lo``.  SolverDiverged after ``_MAX_SOLVES`` solves.
    """
    d, e, x = system.d, system.e, system.b
    tx, work = np.empty(system.n), np.empty(system.n)
    # |T| and the Gershgorin lower bound, written into the factor buffers
    abs_off = np.abs(off, out=e)
    tnorm = float(np.abs(diag, out=d).max() + 2.0 * abs_off.max(initial=0.0))
    if not math.isfinite(tnorm):
        raise SolverDiverged("the tridiagonal matrix has non-finite entries")
    tol = max(_EIG_TOL, 8.0 * _EPS * max(1.0, tnorm))
    if not abs_off.any():
        # a diagonal matrix: the unit vector of its smallest entry is exact
        x[:] = 0.0
        x[int(np.argmin(diag))] = 1.0
    d[:] = diag
    d[:-1] -= abs_off
    d[1:] -= abs_off
    lo, hi = float(d.min()) - tol, math.inf
    rho, delta = _rayleigh(diag, off, system, tx, work)
    iterations, backoff = 0, 0.0
    while iterations == 0 or not (delta <= tol and lo >= rho - delta - tol):
        if iterations == _MAX_SOLVES:
            raise SolverDiverged(
                f"inverse iteration did not converge in {_MAX_SOLVES} solves: residual "
                f"{delta:.3e} (tolerance {tol:.1e}), eigenvalue bracket [{lo!r}, {rho!r}]")
        sigma = lo - backoff if backoff else max(lo, rho - delta - 0.5 * tol)
        lo, hi = _factor_shifted(diag, off, system, sigma, lo, hi)
        tx[:] = x  # kept to retry from if the solve overflows
        system.solve()
        iterations += 1
        quotient = _rayleigh(diag, off, system, tx, work)
        if quotient is None:
            # T - sigma I is too near singular for the solve: back off below lo
            x[:] = tx
            backoff = max(2.0 * backoff, tol)
            continue
        (rho, delta), backoff = quotient, 0.0
    return rho, x, delta, iterations, tol, lo


def _assemble_symmetrized(
    mass: np.ndarray, conductance: np.ndarray, grad_coeff: float, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal matrix of the quotient [grad_coeff |Dw|^2 + V w^2]
    / [w^2] in the inner product weighted by ``mass``, assembled in place in
    the stiffness bands.  Given one more conductance than masses, the first
    and last are edges to nodes held at 0 (a Dirichlet closure)."""
    diag, off = stiffness_bands(conductance)
    if len(conductance) > len(mass):
        diag, off = diag[1:-1], off[1:-1]
    diag *= grad_coeff
    diag /= mass
    diag += V
    # sqrt factors kept separate: the product of adjacent masses can underflow
    root = np.sqrt(mass)
    off *= grad_coeff
    off /= root[:-1] * root[1:]
    return diag, off


def _quotient(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mass, conductance, V) for :func:`_assemble_symmetrized`.  On an
    interval, from the edge conductances C and node masses W alone: w = Du
    lives on the n - 1 edges, where D W^{-1} D^T C (the nonzero spectrum of
    -L) has masses C_e, conductances C_{i-1/2} C_{i+1/2} / W_i at interior
    nodes and V_e = g_e - g_{e+1} with g_i = (C_{i+1/2} - C_{i-1/2}) / W_i
    (~ -F'/h); at each half-cell end g is extrapolated linearly, and the rest
    of the diagonal (~ 2/h^2) is a ghost edge to w = 0, u's Neumann condition.
    A radial grid keeps its nodes and V = min(F'', F'/r) (F'' for d = 1): its
    commutator gives F'' + (d-1)/r^2, the l = 0 sector of the 1-form
    operator, not the criterion's Hessian infimum."""
    C, W = grid.conductance, grid.node_mass
    if grid.kind == "radial":
        _, dF, d2F = evaluate(grid.potential, grid.nodes)
        return W, C, np.minimum(d2F, dF / grid.nodes) if grid.d >= 2 else d2F
    kappa = np.empty(len(W))  # with a ghost edge at each end
    g = np.divide(np.subtract(C[1:], C[:-1], out=kappa[1:-1]), W[1:-1], out=kappa[1:-1])
    V = np.empty(len(C))
    np.subtract(g[:-1], g[1:], out=V[1:-1])
    V[0], V[-1] = V[1], V[-2]
    kappa[0] = C[0] * (C[0] / W[0] - 2.0 * g[0] + g[1])
    kappa[-1] = C[-1] * (C[-1] / W[-1] + 2.0 * g[-1] - g[-2])
    # C/W ~ 1/h^2, where the product of two tail conductances can underflow
    np.multiply(np.divide(C[1:], W[1:-1], out=g), C[:-1], out=g)
    return C, kappa, V


def _solve_quotient(grid: Grid, grad_coeff: float) -> SpectralResult:
    """The smallest eigenpair of :func:`_quotient` with gradient coefficient
    ``grad_coeff``, from the constants, as a :class:`SpectralResult`."""
    mass, conductance, V = _quotient(grid)
    diag, off = _assemble_symmetrized(mass, conductance, grad_coeff, V)
    del conductance, V  # before the solver's arrays: they set the peak
    system = SPDTridiagonal(len(mass))
    np.sqrt(mass, out=system.b)  # the symmetrized constants
    lam, y, residual, iterations, tol_eff, _ = _inverse_iteration(diag, off, system)
    del system, diag, off
    if y[int(np.argmax(np.abs(y)))] < 0.0:
        y = -y
    if grid.kind == "radial":
        w = y / np.sqrt(mass / grid.weight_mass)
    else:
        # the running sum of the edge field y / sqrt(C), scaled to unit norm
        w = np.zeros(grid.n)
        np.cumsum(np.divide(y, np.sqrt(mass), out=y), out=w[1:])
        w /= norm_dgamma(grid, w)
    return SpectralResult(lam=lam, eigenvector=w, residual=residual, iterations=iterations,
                          tol=tol_eff)


def lambda1_linear(p: float, grid: Grid) -> SpectralResult:
    """Smallest eigenvalue of  w -> -(2(p-1)/p) Lw + V w  in the weighted measure.

    At p = 1 the gradient coefficient vanishes and the matrix is diag(V), so
    the same eigensolve returns min V over the grid, with its eigenvector
    concentrated at a minimizing node (an edge on an interval: a step).
    """
    if not (1.0 <= p <= 2.0):
        raise ParameterError(f"p must lie in [1, 2]; got {p}")
    return _solve_quotient(grid, 2.0 * (p - 1.0) / p)


def lambda1_pme(theta: float, grid: Grid) -> SpectralResult:
    """Smallest eigenvalue of  w -> -(1-theta) Lw + V w  in the weighted measure.

    theta = 0 is accepted so that theta = 2/p - 1 covers p = 2.
    """
    if not (0.0 <= theta < 1.0):
        raise ParameterError(f"theta must lie in [0, 1); got {theta}")
    return _solve_quotient(grid, 1.0 - theta)


def epsilon_star(p: float, grid: Grid) -> float:
    """Largest eps in (0, (1-alpha)/alpha] keeping the modified quotient

        inf_w [ (1 - alpha(1+eps)) |Dw|^2 + V w^2 ] / [ w^2 ]

    nonnegative (>= -_EIG_FLOOR), to within _EPS_STAR_TOL by bisection.
    Returns 0 if even eps -> 0+ fails; the gradient coefficient must stay
    nonnegative, which caps eps at (1-alpha)/alpha.  Each point is one Sturm
    test: dpttrf factors T(eps) + _EIG_FLOOR I exactly when every eigenvalue
    of T(eps), the matrix the eigensolve would see, lies above -_EIG_FLOOR.
    A non-finite T(eps), whose NaN dpttrf would pass, raises SolverDiverged.
    """
    if not (1.0 < p < 2.0):
        raise ParameterError(f"p must lie strictly in (1, 2); got {p}")
    _, _, alpha = _exponents(1.0, p)  # (2 - p)/p
    cap = (1.0 - alpha) / alpha
    mass, conductance, V = _quotient(grid)
    system = SPDTridiagonal(len(mass))

    def feasible(eps: float) -> bool:
        coeff = max(0.0, 1.0 - alpha * (1.0 + eps))
        diag, off = _assemble_symmetrized(mass, conductance, coeff, V)
        if not (np.isfinite(diag).all() and np.isfinite(off).all()):
            raise SolverDiverged("the tridiagonal matrix has non-finite entries")
        return _factor_at(diag, off, system, -_EIG_FLOOR) == 0

    if feasible(cap):
        return cap
    if not feasible(0.0):
        return 0.0
    lo, hi = 0.0, cap  # feasible at lo, infeasible at hi
    while hi - lo > _EPS_STAR_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
