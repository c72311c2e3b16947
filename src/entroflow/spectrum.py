"""Smallest eigenvalues of the weighted quotients driving the decay estimates.

Two quotients are discretized, both from the grid's one stiffness stencil
(:func:`grid.stiffness_bands`):

* lambda1_linear(p):   inf_w  [ 2(p-1)/p |Dw|^2 + V |w|^2 ] dgamma / |w|^2 dgamma
* lambda1_pme(theta):  inf_w  [ (1-theta) |Dw|^2 + V |w|^2 ] dgamma / |w|^2 dgamma

The discrete problem is a generalized symmetric pencil A w = lambda M w with
M the diagonal of quadrature weights; the M^{1/2} similarity turns it into a
symmetric tridiagonal matrix.  Its smallest eigenpair comes from two LAPACK
routines called directly (stebz bisection for the eigenvalue, stein inverse
iteration for the vector; the pair scipy's ``eigh_tridiagonal`` would call,
made by :func:`entroflow._lapack.lowest` in the OpenBLAS numpy has loaded,
without importing scipy.linalg), refined by one Rayleigh quotient whose
residual is checked; every step is O(n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._lapack import lowest
from .errors import ParameterError, SolverDiverged
from .grid import Grid, stiffness_bands
from .potential import Potential, hessian_infimum_V

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
# epsilon_star: bisection width, and how far below 0 the quotient may dip
_EPS_STAR_TOL = 1e-4
_EIG_FLOOR = 1e-8


@dataclass(frozen=True)
class SpectralResult:
    """Smallest eigenvalue with its eigenvector and solver diagnostics.

    The eigenvector is normalized to unit norm in the dgamma inner product.
    ``residual`` is the 2-norm of the symmetrized operator residual; ``tol``
    is the tolerance it was held to: the fixed ``_EIG_TOL`` (1e-10) floored
    at the round-off level of one matrix-vector product.  ``iterations`` is
    the number of LAPACK eigensolve calls: 1 per solve, 0 when the p = 1
    shortcut needs none.
    """

    lam: float
    eigenvector: np.ndarray = field(repr=False)
    residual: float
    iterations: int
    tol: float = _EIG_TOL

    def __float__(self) -> float:
        return self.lam


def _tridiag_matvec(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def smallest_eigenpair(
    diag: np.ndarray, off: np.ndarray
) -> tuple[float, np.ndarray, float, int, float]:
    """Smallest eigenpair of a symmetric tridiagonal matrix.

    LAPACK stebz isolates the eigenvalue by bisection at full accuracy and
    stein recovers its eigenvector by inverse iteration; one Rayleigh
    quotient of the normalized vector then gives the returned eigenvalue and
    residual.  Returns (lam, vector, residual, iterations, effective_tol);
    the vector has unit 2-norm and ``iterations`` counts the LAPACK
    eigensolves, one stebz/stein pair (always 1).  Raises SolverDiverged if
    either routine reports info != 0 or the residual exceeds effective_tol,
    ``_EIG_TOL`` floored at the matvec round-off level 8 eps |T|.
    """
    vector, stebz_info, stein_info = lowest(diag, off)
    if stebz_info != 0:
        raise SolverDiverged(f"LAPACK dstebz failed: info={stebz_info}")
    if stein_info != 0:
        raise SolverDiverged(f"LAPACK dstein failed: info={stein_info}")
    x = vector / np.linalg.norm(vector)
    tx = _tridiag_matvec(diag, off, x)
    lam = float(np.dot(x, tx))
    residual = float(np.linalg.norm(tx - lam * x))
    tnorm = float(np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off), initial=0.0))
    tol_eff = max(_EIG_TOL, 8.0 * _EPS * max(1.0, tnorm))
    if not residual <= tol_eff:
        raise SolverDiverged(
            f"eigenvector residual {residual:.3e} above tolerance {tol_eff:.1e}"
        )
    return lam, x, residual, 1, tol_eff


def _assemble_symmetrized(
    node_mass: np.ndarray,
    conductance: np.ndarray,
    grad_coeff: float,
    V: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal matrix of the quotient

        [ grad_coeff |Dw|^2 + V w^2 ] / [ w^2 ]

    in the inner product weighted by ``node_mass``."""
    sdiag, soff = stiffness_bands(conductance)
    diag = grad_coeff * sdiag / node_mass + V
    # sqrt factors kept separate: the product of adjacent masses can underflow
    root = np.sqrt(node_mass)
    off = grad_coeff * soff / (root[:-1] * root[1:])
    return diag, off


def _solve_quotient(grid: Grid, grad_coeff: float, V: np.ndarray) -> SpectralResult:
    mass = grid.node_mass
    diag, off = _assemble_symmetrized(mass, grid.conductance, grad_coeff, V)
    lam, y, residual, iterations, tol_eff = smallest_eigenpair(diag, off)
    w = y / np.sqrt(mass / grid.weight_mass)
    if w[int(np.argmax(np.abs(w)))] < 0.0:
        w = -w
    return SpectralResult(
        lam=lam, eigenvector=w, residual=residual, iterations=iterations, tol=tol_eff
    )


def lambda1_linear(p: float, pot: Potential, grid: Grid) -> SpectralResult:
    """Smallest eigenvalue of  w -> -(2(p-1)/p) Lw + V w  in the weighted measure.

    p = 1 has a vanishing gradient coefficient, so the infimum is the
    essential infimum of V over the grid and is returned directly.
    """
    if not (1.0 <= p <= 2.0):
        raise ParameterError(f"p must lie in [1, 2]; got {p}")
    V = hessian_infimum_V(pot, grid)
    if p == 1.0:
        # the gradient term vanishes: the infimum is ess-inf V, attained by
        # concentration at the minimizing node
        idx = int(np.argmin(V))
        w = np.zeros(grid.n)
        w[idx] = 1.0 / np.sqrt(grid.dgamma_weights[idx])
        return SpectralResult(
            lam=float(V[idx]), eigenvector=w, residual=0.0, iterations=0
        )
    coeff = 2.0 * (p - 1.0) / p
    return _solve_quotient(grid, coeff, V)


def lambda1_pme(theta: float, pot: Potential, grid: Grid) -> SpectralResult:
    """Smallest eigenvalue of  w -> -(1-theta) Lw + V w  in the weighted measure.

    theta = 0 is accepted so that theta = 2/p - 1 covers p = 2.
    """
    if not (0.0 <= theta < 1.0):
        raise ParameterError(f"theta must lie in [0, 1); got {theta}")
    V = hessian_infimum_V(pot, grid)
    return _solve_quotient(grid, 1.0 - theta, V)


def epsilon_star(p: float, pot: Potential, grid: Grid) -> float:
    """Largest eps in (0, (1-alpha)/alpha] keeping the modified quotient

        inf_w [ (1 - alpha(1+eps)) |Dw|^2 + V w^2 ] / [ w^2 ]

    nonnegative (>= -_EIG_FLOOR), to within _EPS_STAR_TOL by bisection.
    Returns 0 if even eps -> 0+ fails; the gradient coefficient must stay
    nonnegative, which caps eps at (1-alpha)/alpha.
    """
    if not (1.0 < p < 2.0):
        raise ParameterError(f"p must lie strictly in (1, 2); got {p}")
    alpha = (2.0 - p) / p
    cap = (1.0 - alpha) / alpha
    V = hessian_infimum_V(pot, grid)

    def smallest(eps: float) -> float:
        coeff = max(0.0, 1.0 - alpha * (1.0 + eps))
        return _solve_quotient(grid, coeff, V).lam

    if smallest(cap) >= -_EIG_FLOOR:
        return cap
    if smallest(0.0) < -_EIG_FLOOR:
        return 0.0
    lo, hi = 0.0, cap  # feasible at lo, infeasible at hi
    while hi - lo > _EPS_STAR_TOL:
        mid = 0.5 * (lo + hi)
        if smallest(mid) >= -_EIG_FLOOR:
            lo = mid
        else:
            hi = mid
    return lo
