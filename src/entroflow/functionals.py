"""Entropy, Fisher information and second-order dissipation functionals.

Linear family (flow v_t = Lv), p in [1, 2], alpha = (2-p)/p (the m = 1 alpha
below), s = v^{p/2}:

    E_p = (1/(p-1)) int [v^p - 1 - p(v-1)] dgamma      (p=1: int [v log v - (v-1)])
    I_p = (4/p) int |Ds|^2 dgamma
    K_p = int |Ls|^2 dgamma + alpha int Ls |Ds|^2 / s dgamma

Porous-media family (flow v_t = L(v^m)), unit mass, v = s^beta with
c(m,p) = 4m(m+p-1)/(2m+p-2)^2 and the exponents of :func:`_exponents`,

    beta = (p/2 + m - 1)^{-1},   q = 1 + beta (m-1)/2,   alpha = (2-p)/(p + 2(m-1)):

    E = (1/(m+p-2)) int [v^{m+p-1} - 1] dgamma
    I = c(m,p) int |Ds|^2 dgamma
    K = int s^{beta(m-1)} |Ls|^2 dgamma + alpha int s^{beta(m-1)} Ls |Ds|^2/s dgamma

Both entropies are one Bregman form: with e = (m-1) + (p-1) (m = 1 in the
linear family),

    E = (1/e) int [v^{e+1} - 1 - (e+1)(v-1)] dgamma      (e = 0: int [v log v - (v-1)]),

whose added term integrates to zero at unit mass.  A linear snapshot adds
q4 = int |Dz|^4 dgamma, z = v^{p/4} = s^{1/2}, the quartic term of
:func:`verify.refined_inequality_audit`.

The params pick the family: :func:`entropy`, :func:`fisher` and
:func:`second_order` take ``(params, v, grid)`` and evaluate the
:class:`LinearParams` or :class:`PmeParams` forms above, checking unit mass
for the latter.  At m = 1 the porous-media forms reduce to the linear ones;
E is the same double for ``LinearParams(p)`` and ``PmeParams(m=1, p)``, and
the s-powers and the quadratic pieces go through the same helpers, so I and
K agree to round-off.  Every value is evaluated by :class:`_Snapshot`,
which a flow keeps for its whole run and each public functional makes for
one call.  Each integral is one correctly rounded sum of its integrand array
(:func:`grid.integrate_dgamma`, :func:`grid.dirichlet_form`), so no value
depends on the order of summation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FloorViolation,
    MassNotNormalized,
    NegativeDensity,
    ParameterError,
)
from .grid import (
    Grid,
    _check_field,
    delta_g,
    dirichlet_form,
    gradient_sq,
    integrate_dgamma,
)

__all__ = [
    "LinearParams",
    "PmeParams",
    "DEFAULT_FLOOR",
    "entropy",
    "fisher",
    "second_order",
]

# density floor: K divides by the s-field, fractional powers of v are taken of
# max(v, floor), and the pme flow clamps v to it
DEFAULT_FLOOR = 1e-12
_MASS_TOL = 1e-8


def _exponents(m: float, p: float) -> tuple[float, float, float]:
    """(beta, q, alpha) of the (m, p) family, the one definition of each.

    alpha = beta m - 1 and q = (p + 3(m-1)) / (p + 2(m-1)) are the same
    numbers, but against mpmath on 20000 random (m, p) in [1, 2.5] x
    [1.01, 1.99] beta m - 1 is off by up to 494 ulp and that q by 2.1, where
    the alpha and q below stay within 1.44 and 0.86 ulp (beta 1.48).  At
    m = 1 alpha is (2 - p)/p exactly: p + 2 * 0.0 is p.
    """
    beta = 1.0 / (p / 2.0 + (m - 1.0))
    return beta, 1.0 + beta * (m - 1.0) / 2.0, (2.0 - p) / (p + 2.0 * (m - 1.0))


@dataclass(frozen=True)
class LinearParams:
    """p in [1, 2]; p = 1 routes the entropy to the logarithmic branch.

    The m = 1 member of the porous-media family: it carries the m, beta, c
    and alpha of :class:`PmeParams` at m = 1, with c = 4/p and beta = 2/p."""

    p: float
    m = 1.0

    def __post_init__(self) -> None:
        if not (1.0 <= self.p <= 2.0):
            raise ParameterError(f"p must lie in [1, 2]; got {self.p}")

    @property
    def alpha(self) -> float:
        return _exponents(1.0, self.p)[2]

    @property
    def beta(self) -> float:
        return _exponents(1.0, self.p)[0]

    @property
    def c(self) -> float:
        return 4.0 / self.p

    @property
    def s_exponent(self) -> float:
        return self.p / 2.0


@dataclass(frozen=True)
class PmeParams:
    """m > 0 with p/2 + m > 1 and m + p != 2, p in (1, 2); m = 1 recovers the
    linear family."""

    m: float
    p: float

    def __post_init__(self) -> None:
        if not (1.0 < self.p < 2.0):
            raise ParameterError(f"p must lie strictly in (1, 2); got {self.p}")
        if not self.m > 0.0:
            raise ParameterError(f"m must be positive; got {self.m}")
        if not self.p / 2.0 + self.m - 1.0 > 0.0:
            raise ParameterError("need p/2 + m - 1 > 0 for the s-substitution")
        if self.m + self.p - 2.0 == 0.0:
            raise ParameterError(
                f"need m + p != 2: the entropy divides by m + p - 2 (m={self.m}, p={self.p})"
            )

    @property
    def s_exponent(self) -> float:
        # 1/beta; equals p/2 exactly when m = 1
        return self.p / 2.0 + (self.m - 1.0)

    @property
    def beta(self) -> float:
        return _exponents(self.m, self.p)[0]

    @property
    def alpha(self) -> float:
        return _exponents(self.m, self.p)[2]

    @property
    def q(self) -> float:
        return _exponents(self.m, self.p)[1]

    @property
    def c(self) -> float:
        return 4.0 * self.m * (self.m + self.p - 1.0) / (2.0 * self.m + self.p - 2.0) ** 2


def _check_nonnegative(v: np.ndarray) -> None:
    if np.any(v < 0.0):
        raise NegativeDensity(f"density has negative entries (min {v.min():.3e})")


def _check_floor(v: np.ndarray) -> None:
    if v.min() < DEFAULT_FLOOR:
        raise FloorViolation(
            f"density min {v.min():.3e} below floor {DEFAULT_FLOOR:.1e}; "
            "the K-functional divides by s"
        )


def _check_unit_mass(mass: float) -> None:
    if abs(mass - 1.0) > _MASS_TOL:
        raise MassNotNormalized(
            f"field mass {mass!r} differs from 1 by more than {_MASS_TOL:.0e}; "
            "normalize before evaluating the porous-media functionals"
        )


class _Snapshot:
    """E, I, K, the mass, the minimum and (linear) q4 of fields, on work arrays.

    A flow makes one per run and calls it on every snapshot.  Every stencil
    and every dgamma sum is a call of the grid's :func:`delta_g`,
    :func:`gradient_sq`, :func:`dirichlet_form` or :func:`integrate_dgamma`
    with the snapshot's arrays as its result and scratch (``out``, ``flux``,
    ``edge``, ``terms``, ``work``): each integrand is written into ``row``
    with ``out=`` ufuncs and summed where it lies, so a snapshot allocates
    no n-sized array.  The public functionals below evaluate through the
    same methods, so a snapshot's values are theirs bit for bit.  Between
    rows, the linear flow's Krylov expansion (:class:`flows._Krylov`) takes
    ``row``, ``work`` and ``a`` as its scratch.  The work arrays are rows of
    one block because six separate 160 KB arrays (n = 20001) land on the
    brk heap once glibc has raised its mmap threshold, where trimming and
    regrowing the heap top costs page faults and resident memory.
    """

    def __init__(self, params: LinearParams | PmeParams, grid: Grid):
        n = grid.n
        self.params, self.grid = params, grid
        self.pme = isinstance(params, PmeParams)
        # the integrand, the sum's scratch, the s-field and s - 1, then node
        # scratch: Ls and |Ds|^2 for K, v - 1 for E
        self.row, self.work, self.s, self.u, self.a, self.b = np.empty((6, n))
        self.edge = np.empty(n - 1)

    def __call__(self, v: np.ndarray) -> tuple[float, ...]:
        """The trace row of v after t: (E, I, K, mass, min_v), then q4 if linear.
        K is nan below the floor; a mass off 1 raises MassNotNormalized."""
        _check_nonnegative(v)
        E = self.entropy(v)
        mass = integrate_dgamma(self.grid, v, terms=self.row, work=self.work)
        _check_unit_mass(mass)
        s, u = self._s_field(v)
        I = self._fisher(u)
        min_v = float(v.min())
        row = (E, I, self._k(s, u) if min_v >= DEFAULT_FLOOR else np.nan, mass, min_v)
        return row if self.pme else (*row, self._q4(s, u))

    def entropy(self, v: np.ndarray) -> float:
        """(1/e) int [v^c - 1 - c(v-1)] dgamma, c = e + 1, in d = v - 1.

        The integrand is (expm1(c log1p d) - c d)/e, and v log1p d - d at
        e = 0: the 1 cancels exactly, so E is not stuck at the rounding of
        v^c - 1 near v = 1.  c = p + (m - 1) is p exactly at m = 1, and
        e = c - 1 is exact for every c above 1/2 (here c > p/2), so a node
        where v = 0 gives the term 1 exactly, in both branches.
        """
        out, d = self.row, self.a
        c = self.params.p + (self.params.m - 1.0)
        e = c - 1.0
        np.subtract(v, 1.0, out=d)
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf where v = 0
            np.log1p(d, out=out)
        if e == 0.0:
            # log1p(d) is -inf only where d rounds to -1 (v below 2^-54); at
            # -745 instead, v = 0 gives v * log = -0.0, not 0 * -inf = nan
            np.maximum(out, -745.0, out=out)
            out *= v
        else:
            out *= c
            np.expm1(out, out=out)
            d *= c
        out -= d
        if e != 0.0:
            out /= e
        return integrate_dgamma(self.grid, out, terms=out, work=self.work)

    def fisher(self, v: np.ndarray) -> float:
        return self._fisher(self._s_field(v)[1])

    def k(self, v: np.ndarray) -> float:
        return self._k(*self._s_field(v))

    def _s_field(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(s, s - 1), s = max(v, floor)^{1/beta}, as exp and expm1 of
        log(v)/beta: differences of s - 1 keep the digits that s, rounded near
        1, loses as v -> 1.  At exponent 1, (v, v - 1)."""
        exponent, s, u = self.params.s_exponent, self.s, self.u
        if exponent == 1.0:
            return v, np.subtract(v, 1.0, out=u)
        np.maximum(v, DEFAULT_FLOOR, out=s)
        np.log(s, out=s)
        s *= exponent
        np.expm1(s, out=u)
        return np.exp(s, out=s), u

    def _fisher(self, u: np.ndarray) -> float:
        total = dirichlet_form(self.grid, u, u, terms=self.row[:-1], work=self.edge)
        return self.params.c * total

    def _k(self, s: np.ndarray, u: np.ndarray) -> float:
        """Integral of s^{beta(m-1)} (|Ls|^2 + alpha Ls |Ds|^2 / s), u = s - 1."""
        grid, out, ls, gs = self.grid, self.row, self.a, self.b
        delta_g(grid, u, out=ls, flux=self.edge)  # Ls = Lu, Ds = Du
        gradient_sq(grid, u, out=gs, edge=self.edge)
        np.multiply(ls, ls, out=out)
        ls *= self.params.alpha
        ls *= gs
        ls /= s
        out += ls
        e2 = self.params.beta * (self.params.m - 1.0)
        if e2 != 0.0:
            out *= np.power(s, e2, out=gs)
        return integrate_dgamma(grid, out, terms=out, work=self.work)

    def _q4(self, s: np.ndarray, u: np.ndarray) -> float:
        """Integral of |Dz|^4, z = s^{1/2} (= v^{p/4} in the linear family),
        differenced as z - 1 = u/(z + 1)."""
        z1 = np.sqrt(s, out=self.a)
        z1 += 1.0
        gz = gradient_sq(self.grid, np.divide(u, z1, out=z1), out=self.b, edge=self.edge)
        np.multiply(gz, gz, out=self.row)
        return integrate_dgamma(self.grid, self.row, terms=self.row, work=self.work)


def _checked(params: LinearParams | PmeParams, v, grid: Grid, check) -> np.ndarray:
    """v as a grid field after ``check``, and of unit mass for PmeParams."""
    v = _check_field(grid, v)
    check(v)
    if isinstance(params, PmeParams):
        _check_unit_mass(integrate_dgamma(grid, v))
    return v


def entropy(params: LinearParams | PmeParams, v, grid: Grid) -> float:
    """Generalized entropy E; vanishes iff v is the unit-mass equilibrium."""
    v = _checked(params, v, grid, _check_nonnegative)
    return _Snapshot(params, grid).entropy(v)


def fisher(params: LinearParams | PmeParams, v, grid: Grid) -> float:
    """Entropy production I = c int |Ds|^2 dgamma."""
    v = _checked(params, v, grid, _check_nonnegative)
    return _Snapshot(params, grid).fisher(v)


def second_order(params: LinearParams | PmeParams, v, grid: Grid) -> float:
    """Second-order functional K; v must lie at or above ``DEFAULT_FLOOR``."""
    v = _checked(params, v, grid, _check_floor)
    return _Snapshot(params, grid).k(v)
