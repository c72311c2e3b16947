"""Entropy, Fisher information and second-order dissipation functionals.

Linear family (flow v_t = Lv), p in [1, 2], alpha = (2-p)/p, s = v^{p/2}:

    E_p = (1/(p-1)) int [v^p - 1 - p(v-1)] dgamma      (p=1: int [v log v - (v-1)])
    I_p = (4/p) int |Ds|^2 dgamma
    K_p = int |Ls|^2 dgamma + alpha int Ls |Ds|^2 / s dgamma

Porous-media family (flow v_t = L(v^m)), unit mass, v = s^beta with
beta = (p/2 + m - 1)^{-1}, alpha = beta*m - 1, c(m,p) = 4m(m+p-1)/(2m+p-2)^2:

    E = (1/(m+p-2)) int [v^{m+p-1} - 1] dgamma
    I = c(m,p) int |Ds|^2 dgamma
    K = int s^{beta(m-1)} |Ls|^2 dgamma + alpha int s^{beta(m-1)} Ls |Ds|^2/s dgamma

At m = 1 the porous-media forms reduce to the linear ones; the s-powers and
the quadratic pieces go through the same helpers so the agreement is exact to
round-off on unit-mass fields.
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
from .grid import Grid, delta_g, dirichlet_form, gradient_sq, integrate_dgamma

__all__ = [
    "LinearParams",
    "PmeParams",
    "DEFAULT_FLOOR",
    "entropy_linear",
    "fisher_linear",
    "k_linear",
    "entropy_pme",
    "fisher_pme",
    "k_pme",
]

DEFAULT_FLOOR = 1e-12
_MASS_TOL = 1e-8


@dataclass(frozen=True)
class LinearParams:
    """p in [1, 2]; p = 1 routes the entropy to the logarithmic branch."""

    p: float

    def __post_init__(self) -> None:
        if not (1.0 <= self.p <= 2.0):
            raise ParameterError(f"p must lie in [1, 2]; got {self.p}")

    @property
    def alpha(self) -> float:
        return (2.0 - self.p) / self.p

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
        return 1.0 / self.s_exponent

    @property
    def alpha(self) -> float:
        return self.beta * self.m - 1.0

    @property
    def q(self) -> float:
        return 1.0 + self.beta * (self.m - 1.0) / 2.0

    @property
    def c(self) -> float:
        return 4.0 * self.m * (self.m + self.p - 1.0) / (2.0 * self.m + self.p - 2.0) ** 2


def _check_nonnegative(v: np.ndarray) -> None:
    if np.any(v < 0.0):
        raise NegativeDensity(f"density has negative entries (min {v.min():.3e})")


def _check_floor(v: np.ndarray, floor: float) -> None:
    if v.min() < floor:
        raise FloorViolation(
            f"density min {v.min():.3e} below floor {floor:.1e}; "
            "the K-functional divides by s"
        )


def _check_unit_mass(grid: Grid, v: np.ndarray) -> None:
    mass = integrate_dgamma(grid, v)
    if abs(mass - 1.0) > _MASS_TOL:
        raise MassNotNormalized(
            f"field mass {mass!r} differs from 1 by more than {_MASS_TOL:.0e}; "
            "normalize before evaluating the porous-media functionals"
        )


def _s_field(v: np.ndarray, exponent: float, floor: float) -> np.ndarray:
    # fractional powers on clipped values; exponent 1.0 short-circuits exactly
    if exponent == 1.0:
        return v
    return np.power(np.maximum(v, floor), exponent)


def _fisher(grid: Grid, s: np.ndarray, coeff: float) -> float:
    return coeff * dirichlet_form(grid, s, s)


def _k_chain(grid: Grid, s: np.ndarray, weight: np.ndarray | None, alpha: float) -> float:
    Ls = delta_g(grid, s)
    Gs = gradient_sq(grid, s)
    quad = Ls * Ls + alpha * Ls * Gs / s
    if weight is not None:
        quad = weight * quad
    return integrate_dgamma(grid, quad)


def entropy_linear(params: LinearParams, v, grid: Grid) -> float:
    """Generalized entropy; vanishes iff v is the unit-mass equilibrium."""
    v = np.asarray(v, dtype=float)
    _check_nonnegative(v)
    p = params.p
    if p == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            vlogv = np.where(v > 0.0, v * np.log(np.maximum(v, 1e-300)), 0.0)
        return integrate_dgamma(grid, vlogv - (v - 1.0))
    integrand = (np.power(v, p) - 1.0 - p * (v - 1.0)) / (p - 1.0)
    return integrate_dgamma(grid, integrand)


def fisher_linear(params: LinearParams, v, grid: Grid, floor: float = DEFAULT_FLOOR) -> float:
    v = np.asarray(v, dtype=float)
    _check_nonnegative(v)
    s = _s_field(v, params.s_exponent, floor)
    return _fisher(grid, s, 4.0 / params.p)


def k_linear(params: LinearParams, v, grid: Grid, floor: float = DEFAULT_FLOOR) -> float:
    v = np.asarray(v, dtype=float)
    _check_floor(v, floor)
    s = _s_field(v, params.s_exponent, floor)
    return _k_chain(grid, s, None, params.alpha)


def entropy_pme(params: PmeParams, v, grid: Grid) -> float:
    v = np.asarray(v, dtype=float)
    _check_nonnegative(v)
    _check_unit_mass(grid, v)
    e = params.m + params.p - 2.0
    return integrate_dgamma(grid, (np.power(v, e + 1.0) - 1.0)) / e


def fisher_pme(params: PmeParams, v, grid: Grid, floor: float = DEFAULT_FLOOR) -> float:
    v = np.asarray(v, dtype=float)
    _check_nonnegative(v)
    _check_unit_mass(grid, v)
    s = _s_field(v, params.s_exponent, floor)
    return _fisher(grid, s, params.c)


def k_pme(params: PmeParams, v, grid: Grid, floor: float = DEFAULT_FLOOR) -> float:
    v = np.asarray(v, dtype=float)
    _check_floor(v, floor)
    _check_unit_mass(grid, v)
    return _k_pme_chain(params, grid, _s_field(v, params.s_exponent, floor))


def _k_pme_chain(params: PmeParams, grid: Grid, s: np.ndarray) -> float:
    e2 = params.beta * (params.m - 1.0)
    weight = None if e2 == 0.0 else np.power(s, e2)
    return _k_chain(grid, s, weight, params.alpha)


# A flow snapshot needs E, I and K of one field: these build its s-field once.
# The entropy checks v (sign; PME: unit mass) once for all three, and K is nan
# below the floor, where k_linear / k_pme would raise.


def _snapshot_linear(params: LinearParams, v: np.ndarray, grid: Grid, floor: float):
    """(entropy_linear, fisher_linear, k_linear) of v, K = nan where v dips below floor."""
    E = entropy_linear(params, v, grid)
    s = _s_field(v, params.s_exponent, floor)
    I = _fisher(grid, s, 4.0 / params.p)
    return E, I, (_k_chain(grid, s, None, params.alpha) if v.min() >= floor else np.nan)


def _snapshot_pme(params: PmeParams, v: np.ndarray, grid: Grid, floor: float):
    """(entropy_pme, fisher_pme, k_pme) of v, K = nan where v dips below floor."""
    E = entropy_pme(params, v, grid)
    s = _s_field(v, params.s_exponent, floor)
    I = _fisher(grid, s, params.c)
    return E, I, (_k_pme_chain(params, grid, s) if v.min() >= floor else np.nan)
