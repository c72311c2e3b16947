"""Confinement potentials F with exact derivatives and derived quantities.

Families
--------
harmonic          F(x) = x^2 / 2
harmonic_log      F(r) = r^2 / 2 + eps * log(r)      (radial, d >= 3, 0 < eps < d)
power             F(x) = |x|^beta / beta             (1 < beta <= 2)
flat              F = 0 (bounded domain, flat weight)
tabulated         node-aligned arrays of F, F', F''

Every family exposes closed-form F, F' and F''.  Tabulated potentials must
supply the derivatives explicitly; nothing is differentiated numerically,
because the Hessian-infimum field and the flat-measure ground-state reduction
are derivative-sensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "Potential",
    "harmonic",
    "harmonic_log",
    "power_law",
    "flat",
    "tabulated",
    "potential_from_spec",
    "evaluate",
    "hessian_infimum_V",
    "schrodinger_potential",
    "Example1Bound",
    "example1_epsilon_bound",
    "tail_mass",
]

_FAMILIES = ("harmonic", "harmonic_log", "power", "flat", "tabulated")


@dataclass(frozen=True)
class Potential:
    """Immutable confinement family; safe to share across threads."""

    family: str
    d: int = 1
    eps: float | None = None
    beta: float | None = None
    table_x: np.ndarray | None = field(default=None, repr=False)
    table_F: np.ndarray | None = field(default=None, repr=False)
    table_dF: np.ndarray | None = field(default=None, repr=False)
    table_d2F: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown potential family {self.family!r}")
        if self.d < 1:
            raise ParameterError("dimension d must be >= 1")
        if self.family == "harmonic_log":
            if self.d < 3:
                raise ParameterError("harmonic_log requires d >= 3")
            if not (self.eps is not None and 0.0 < self.eps < self.d):
                raise ParameterError(
                    f"harmonic_log requires eps in (0, d); got eps={self.eps}, d={self.d}"
                )
        if self.family == "power":
            if not (self.beta is not None and 1.0 < self.beta <= 2.0):
                raise ParameterError(
                    f"power family requires beta in (1, 2]; got {self.beta}"
                )
        if self.family == "tabulated":
            for arr in (self.table_x, self.table_F, self.table_dF, self.table_d2F):
                if arr is None:
                    raise ParameterError(
                        "tabulated potential needs x, F, F' and F'' arrays"
                    )
            n = len(self.table_x)
            if any(len(a) != n for a in (self.table_F, self.table_dF, self.table_d2F)):
                raise ParameterError("tabulated arrays must have equal length")

    @property
    def singular_at_origin(self) -> bool:
        return self.family in ("harmonic_log", "power")

    def key(self) -> str:
        """Short deterministic identity string (used in grid hashes)."""
        if self.family == "harmonic_log":
            return f"harmonic_log(eps={self.eps!r},d={self.d})"
        if self.family == "power":
            return f"power(beta={self.beta!r})"
        if self.family == "tabulated":
            probe = float(np.sum(self.table_F) + np.sum(self.table_x))
            return f"tabulated(n={len(self.table_x)},sum={probe!r})"
        return self.family


def harmonic(d: int = 1) -> Potential:
    return Potential("harmonic", d=d)


def harmonic_log(eps: float, d: int = 3) -> Potential:
    return Potential("harmonic_log", d=d, eps=float(eps))


def power_law(beta: float, d: int = 1) -> Potential:
    return Potential("power", d=d, beta=float(beta))


def flat(d: int = 1) -> Potential:
    return Potential("flat", d=d)


def tabulated(x, F, dF, d2F, d: int = 1) -> Potential:
    return Potential(
        "tabulated",
        d=d,
        table_x=np.asarray(x, dtype=float),
        table_F=np.asarray(F, dtype=float),
        table_dF=np.asarray(dF, dtype=float),
        table_d2F=np.asarray(d2F, dtype=float),
    )


def potential_from_spec(spec, d: int = 1) -> Potential:
    """Build a potential from a config mapping like {"family": "power", "beta": 1.5}.

    Accepts 'gaussian' as an alias for 'harmonic'.
    """
    if isinstance(spec, str):
        spec = {"family": spec}
    family = spec.get("family", "harmonic")
    if family == "gaussian":
        family = "harmonic"
    d = int(spec.get("d", d))
    if family == "harmonic":
        return harmonic(d)
    if family == "flat":
        return flat(d)
    if family == "power":
        return power_law(float(spec["beta"]), d)
    if family == "harmonic_log":
        return harmonic_log(float(spec["eps"]), d)
    raise ParameterError(f"cannot build potential from spec {spec!r}")


def _check_singular(pot: Potential, x: np.ndarray) -> None:
    if pot.singular_at_origin and np.any(x == 0.0):
        raise DomainError(f"{pot.family} potential is singular at x = 0")


def log_weight(pot: Potential, x) -> np.ndarray:
    """F alone, for weight evaluation at cell faces.

    Unlike :func:`evaluate` this admits x = 0 for the power family, where F
    itself is finite (only the derivatives are singular).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if pot.family == "power":
        return np.abs(x) ** pot.beta / pot.beta
    F, _, _ = evaluate(pot, x)
    return np.atleast_1d(F)


def evaluate(pot: Potential, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (F, F', F'') at x, exact closed forms (or the stored table)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    _check_singular(pot, x)
    if pot.family == "harmonic":
        F, dF, d2F = 0.5 * x * x, x.copy(), np.ones_like(x)
    elif pot.family == "flat":
        F, dF, d2F = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    elif pot.family == "harmonic_log":
        if np.any(x < 0):
            raise DomainError("harmonic_log is a radial family; needs r > 0")
        F = 0.5 * x * x + pot.eps * np.log(x)
        dF = x + pot.eps / x
        d2F = 1.0 - pot.eps / (x * x)
    elif pot.family == "power":
        b = pot.beta
        ax = np.abs(x)
        F = ax**b / b
        dF = np.sign(x) * ax ** (b - 1.0)
        d2F = (b - 1.0) * ax ** (b - 2.0)
    else:  # tabulated: exact node match only, no interpolation
        idx = np.searchsorted(pot.table_x, x)
        idx = np.clip(idx, 0, len(pot.table_x) - 1)
        span = max(1.0, float(np.ptp(pot.table_x)))
        if not np.allclose(pot.table_x[idx], x, atol=1e-12 * span, rtol=0.0):
            raise DomainError("tabulated potential queried off its nodes")
        F = pot.table_F[idx].astype(float)
        dF = pot.table_dF[idx].astype(float)
        d2F = pot.table_d2F[idx].astype(float)
    if scalar:
        return float(F[0]), float(dF[0]), float(d2F[0])
    return F, dF, d2F


def hessian_infimum_V(pot: Potential, grid) -> np.ndarray:
    """Smallest Hessian eigenvalue of F along the grid.

    On an interval this is F''.  For a radial profile in d >= 2 the Hessian
    eigenvalues are F'' (radial direction) and F'/r (tangential), so the
    infimum is their minimum.
    """
    x = grid.nodes
    _, dF, d2F = evaluate(pot, x)
    if grid.kind == "radial" and grid.d >= 2:
        return np.minimum(d2F, dF / x)
    return d2F


def schrodinger_potential(pot: Potential, grid, nu: float) -> np.ndarray:
    """Flat-measure ground-state potential  nu*V + |F'|^2/4 - (Laplacian F)/2.

    nu = p / (2(p-1)) >= 1.  The radial Laplacian of F is F'' + (d-1) F'/r.
    """
    if nu < 1.0:
        raise ParameterError(f"nu must be >= 1 (nu = p/(2(p-1))); got {nu}")
    x = grid.nodes
    _, dF, d2F = evaluate(pot, x)
    V = hessian_infimum_V(pot, grid)
    if grid.kind == "radial":
        lap_F = d2F + (grid.d - 1) * dF / x
    else:
        lap_F = d2F
    with np.errstate(over="raise", invalid="raise"):
        W = nu * V + 0.25 * dF * dF - 0.5 * lap_F
    if not np.all(np.isfinite(W)):
        raise DomainError("Schrodinger potential not finite on the grid")
    return W


@dataclass(frozen=True)
class Example1Bound:
    """Admissible log-perturbation size for F = r^2/2 + eps*log r on R^d."""

    d: int
    p: float
    nu: float
    b: float
    bound: float
    # eigenvalue stays positive without the compensation term when nu > d/2,
    # i.e. p < d/(d-1)
    positive_tail_regime: bool

    def a_squared(self, eps: float) -> float:
        """Diagnostic 1 - eps(2b - eps)/(d-2)^2; in [0, 1] iff eps <= bound."""
        return 1.0 - eps * (2.0 * self.b - eps) / (self.d - 2.0) ** 2

    def __float__(self) -> float:
        return self.bound


def example1_epsilon_bound(d: int, p: float) -> Example1Bound:
    """Largest admissible eps:  eps <= b - sqrt(b^2 - (d-2)^2),  b = 2 nu + d - 2."""
    if d < 3:
        raise ParameterError("the log-perturbed family needs d >= 3")
    if p == 1.0:
        raise ParameterError(
            "p = 1 gives infinite nu; the bound degenerates to the asymptotic "
            "order (d-2)^2 (p-1) / (2p) as p -> 1"
        )
    if not (1.0 < p <= 2.0):
        raise ParameterError(f"p must lie in (1, 2]; got {p}")
    nu = p / (2.0 * (p - 1.0))
    b = 2.0 * nu + d - 2.0
    bound = b - math.sqrt(b * b - (d - 2.0) ** 2)
    return Example1Bound(
        d=d, p=p, nu=nu, b=b, bound=bound, positive_tail_regime=nu > d / 2.0
    )


def tail_mass(pot: Potential, R: float, d: int | None = None) -> float:
    """Fraction of the weight r^{d-1} e^{-F} sitting beyond radius R.

    For d = 1 and an even potential this is the fraction of the line measure
    with |x| > R.  Flat and tabulated families have no decaying tail.

    Every decaying family has the weight r^{d-1-eps} e^{-r^beta/beta} (beta = 2
    except for ``power``, eps = 0 except for ``harmonic_log``); substituting
    u = r^beta/beta turns the fraction into the regularized upper incomplete
    gamma function Q((d - eps)/beta, R^beta/beta), evaluated in closed form.
    """
    if pot.family in ("flat", "tabulated"):
        raise DomainError(f"{pot.family} potential has no analytic tail estimate")
    if d is None:
        d = pot.d
    if R <= 0:
        raise ParameterError("R must be positive")
    beta = pot.beta if pot.family == "power" else 2.0
    eps = pot.eps if pot.family == "harmonic_log" else 0.0
    if d - eps <= 0.0:
        raise DomainError("weight is not integrable for this family")

    # deferred: scipy.special is needed by this function alone
    from scipy.special import gammaincc

    return float(gammaincc((d - eps) / beta, R**beta / beta))
