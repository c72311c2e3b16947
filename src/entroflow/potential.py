"""Confinement potentials F with exact derivatives and derived quantities.

Families
--------
harmonic          F(x) = x^2 / 2
harmonic_log      F(r) = r^2 / 2 + eps * log(r)      (radial, d >= 3, 0 < eps < d)
power             F(x) = |x|^beta / beta             (1 < beta <= 2)
flat              F = 0 (bounded domain, flat weight)
tabulated         node-aligned arrays of x and F (interval grids only)

Every closed-form family exposes F, F' and F'' (:func:`evaluate`), which
only radial spectra sample; a table carries F alone, all an interval needs.

A potential carries its dimension d: :func:`tail_mass` and radial grids read
it.  :func:`potential_from_spec` is the one parser of a spelling, the CLI's
``--potential`` text (``gaussian``, ``flat``, ``power:B``, ``harmonic_log:E``,
``tabulated:file.csv``) or a config mapping.
"""

from __future__ import annotations

import math
import numbers
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
    "Example1Bound",
    "example1_epsilon_bound",
    "tail_mass",
]

# The SHA-256 of grid idents and table keys.  hashlib maps OpenSSL's libcrypto
# (about 3.4 MB of resident memory) to hash some 80 bytes; CPython's builtin
# module gives the same digest without it, as the stdlib's random does for sha512.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.11 and older
    except ImportError:
        from hashlib import sha256 as _sha256

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

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown potential family {self.family!r}")
        if not (isinstance(self.d, numbers.Integral) and self.d >= 1):
            raise ParameterError(f"dimension d must be an integer >= 1; got {self.d!r}")
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
            if self.table_x is None or self.table_F is None:
                raise ParameterError("tabulated potential needs x and F arrays")
            if len(self.table_F) != len(self.table_x):
                raise ParameterError("tabulated arrays must have equal length")
            for name, a in (("x", self.table_x), ("F", self.table_F)):
                bad = np.flatnonzero(~np.isfinite(a))
                if len(bad):
                    raise ParameterError(f"tabulated column {name} is not finite at row {bad[0]}")

    def key(self) -> str:
        """Short deterministic identity string (used in grid hashes)."""
        if self.family == "harmonic_log":
            return f"harmonic_log(eps={self.eps!r},d={self.d})"
        if self.family == "power":
            return f"power(beta={self.beta!r})"
        if self.family == "tabulated":
            digest = _sha256()
            for arr in (self.table_x, self.table_F):
                digest.update(np.asarray(arr, dtype=float).tobytes())
            return f"tabulated(n={len(self.table_x)},sha256={digest.hexdigest()})"
        return self.family


def harmonic(d: int = 1) -> Potential:
    return Potential("harmonic", d=d)


def harmonic_log(eps: float, d: int = 3) -> Potential:
    return Potential("harmonic_log", d=d, eps=float(eps))


def power_law(beta: float, d: int = 1) -> Potential:
    return Potential("power", d=d, beta=float(beta))


def flat(d: int = 1) -> Potential:
    return Potential("flat", d=d)


def tabulated(x, F, d: int = 1) -> Potential:
    return Potential("tabulated", d=d, table_x=np.asarray(x, dtype=float),
                     table_F=np.asarray(F, dtype=float))


def potential_from_spec(spec, d: int = 1) -> Potential:
    """Build a potential from its ``--potential`` text or a config mapping.

    Text: ``gaussian`` (alias of ``harmonic``), ``flat``, ``power:B``,
    ``harmonic_log:E`` or ``tabulated:file.csv`` (exactly two comma-separated
    columns x and F, one row per node).  Mapping: {"family": ..., "beta": B,
    "eps": E, "d": D}, the family defaulting to harmonic and d to the
    argument; a table is named by text only.  A malformed or incomplete spec,
    or a d that is not a whole number, raises ParameterError.
    """
    if isinstance(spec, str):
        name, _, arg = spec.partition(":")
        fields = {"family": name, "beta": arg, "eps": arg}
    else:
        fields, arg = spec, None
    try:
        family = fields.get("family", "harmonic")
        dim = float(fields.get("d", d))
        if not dim.is_integer():
            raise ParameterError(f"cannot parse potential {spec!r}: d = {dim!r} is not an integer")
        d = int(dim)
        if family in ("gaussian", "harmonic"):
            return harmonic(d)
        if family == "flat":
            return flat(d)
        if family == "power":
            return power_law(float(fields["beta"]), d)
        if family == "harmonic_log":
            return harmonic_log(float(fields["eps"]), d)
        if family == "tabulated" and arg is not None:
            raw = np.loadtxt(arg, delimiter=",", ndmin=2)
            if raw.shape[1] != 2:
                raise ParameterError(f"tabulated potential file needs exactly two columns "
                                     f"x,F; got {raw.shape[1]}")
            return tabulated(raw[:, 0], raw[:, 1], d=d)
    except KeyError as exc:
        raise ParameterError(f"cannot parse potential {spec!r}: no {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"cannot parse potential {spec!r}: {exc}") from None
    raise ParameterError(f"unknown potential {spec!r}")


def _check_singular(pot: Potential, x: np.ndarray) -> None:
    if pot.family in ("harmonic_log", "power") and np.any(x == 0.0):
        raise DomainError(f"{pot.family} potential is singular at x = 0")


def _table_index(pot: Potential, x: np.ndarray) -> np.ndarray:
    """Table rows of the nodes x of a tabulated potential: exact node match
    only, no interpolation."""
    idx = np.searchsorted(pot.table_x, x)
    idx = np.clip(idx, 0, len(pot.table_x) - 1)
    span = max(1.0, float(np.ptp(pot.table_x)))
    if not np.allclose(pot.table_x[idx], x, atol=1e-12 * span, rtol=0.0):
        raise DomainError("tabulated potential queried off its nodes")
    return idx


def log_weight(pot: Potential, x) -> np.ndarray:
    """F alone: the F of :func:`evaluate`, or a table's F at its nodes.

    Unlike :func:`evaluate` this admits x = 0 for the power family, where F
    itself is finite (only the derivatives are singular).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if pot.family == "harmonic":
        return 0.5 * x * x
    if pot.family == "flat":
        return np.zeros_like(x)
    if pot.family == "harmonic_log":
        _check_singular(pot, x)
        if np.any(x < 0):
            raise DomainError("harmonic_log is a radial family; needs r > 0")
        return 0.5 * x * x + pot.eps * np.log(x)
    if pot.family == "power":
        return np.abs(x) ** pot.beta / pot.beta
    return pot.table_F[_table_index(pot, x)].astype(float)


def evaluate(pot: Potential, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (F, F', F'') at x in closed form; a table has none (ParameterError)."""
    if pot.family == "tabulated":
        raise ParameterError("a tabulated potential carries F alone, not F' or F''")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    _check_singular(pot, x)
    F = log_weight(pot, x)
    if pot.family == "harmonic":
        dF, d2F = x.copy(), np.ones_like(x)
    elif pot.family == "flat":
        dF, d2F = np.zeros_like(x), np.zeros_like(x)
    elif pot.family == "harmonic_log":
        dF = x + pot.eps / x
        d2F = 1.0 - pot.eps / (x * x)
    else:
        b = pot.beta
        ax = np.abs(x)
        dF = np.sign(x) * ax ** (b - 1.0)
        d2F = (b - 1.0) * ax ** (b - 2.0)
    if scalar:
        return float(F[0]), float(dF[0]), float(d2F[0])
    return F, dF, d2F


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

    def order(self, eps: float, c: float) -> float:
        """sigma = sqrt((d-2-eps)^2 - 4 eps/c), the gap between the two roots
        of  gamma^2 + (d-2-eps) gamma + eps/c = 0; at c = 2(p-1)/p it is real
        exactly when eps <= bound.  A uniform radial grid converges to
        :meth:`lambda1` at order min(sigma, 2)."""
        if not c > 0.0:
            raise ParameterError(f"gradient coefficient must be positive; got {c}")
        sigma_sq = (self.d - 2.0 - eps) ** 2 - 4.0 * eps / c
        if sigma_sq < 0.0:
            raise ParameterError(
                f"eps = {eps} leaves no real ground state r^gamma at c = {c}"
            )
        return math.sqrt(sigma_sq)

    def lambda1(self, eps: float, c: float) -> float:
        """Exact infimum over R^d of the weighted quotient
        [ c |Dw|^2 + V w^2 ] dgamma / w^2 dgamma  with V = 1 - eps/r^2:
        1 + c gamma_+, attained by w = r^gamma_+ with gamma_+ the larger root
        (c = 2(p-1)/p for lambda1_linear, 1 - theta for lambda1_pme)."""
        return 1.0 + c * 0.5 * (self.order(eps, c) - (self.d - 2.0 - eps))

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


def tail_mass(pot: Potential, R: float) -> float:
    """Upper bound on the fraction of the weight r^{d-1} e^{-F}, d = pot.d,
    beyond radius R (for d = 1 and an even F, the fraction with |x| > R).

    Every decaying family has the weight w = r^a e^{-r^beta/beta}, a = d-1-eps
    (beta = 2 but for ``power``, eps = 0 but for ``harmonic_log``), of total
    beta^{s-1} Gamma(s), s = (d - eps)/beta.  As w' = -psi w with
    psi(r) = r^{beta-1} - a/r, one integration by parts bounds the tail by
    w(R)/psi(R) where psi(R) > 0 and psi'(R) >= 0 (the Mills-ratio bound of
    Gordon, Ann. Math. Statist. 12, 1941); elsewhere, inside the bulk, by 1.
    Below 1e-6 it is at most 1.05 times the exact fraction Q(s, R^beta/beta).
    It is 0 where R^beta overflows.  Flat and tabulated families have no
    decaying tail (DomainError).
    """
    if pot.family in ("flat", "tabulated"):
        raise DomainError(f"{pot.family} potential has no analytic tail estimate")
    if not math.isfinite(R):
        raise ParameterError(f"R must be finite; got {R}")
    if R <= 0:
        raise ParameterError("R must be positive")
    beta = pot.beta if pot.family == "power" else 2.0
    # harmonic_log keeps eps < d, so the weight is integrable at r = 0
    eps = pot.eps if pot.family == "harmonic_log" else 0.0
    a, s = pot.d - 1.0 - eps, (pot.d - eps) / beta
    try:
        Rb = float(R) ** beta
    except OverflowError:
        return 0.0
    # R psi(R) = R^beta - a and R^2 psi'(R) = (beta - 1) R^beta + a
    if not (Rb > a and (beta - 1.0) * Rb + a >= 0.0):
        return 1.0
    log_tail = ((pot.d - eps) * math.log(R) - Rb / beta - math.log(Rb - a)
                - (s - 1.0) * math.log(beta) - math.lgamma(s))
    return math.exp(min(log_tail, 0.0))
