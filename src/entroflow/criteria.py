"""Closed-form admissibility conditions, constant chains and decay envelopes.

Everything here is double-precision arithmetic on closed forms; nothing is
fitted from data.  The admissible (m, p) region for a given theta is

    margin(m, p, theta) = (p + 2m - 4)^2 + [5m^2 + 2(2p-7)m + (p-3)^2] theta < 0,

equivalent to the discriminant condition b^2 - 4 a(theta) c < 0 of the
quadratic-form bound with

    q = 1 + beta (m-1)/2 = (p + 3(m-1)) / (p + 2(m-1)),
    alpha = (2 - p) / (p + 2(m-1)),   beta = (p/2 + m - 1)^{-1},
    a = theta / q^2,   b = 8 (alpha + 2 - 2q) / q^3,
    c = 16 (q - 1)(q - 1 - alpha) / q^4 + 2b

(q by its first form; beta, q and alpha come from :func:`functionals._exponents`);
the two sides are proportional,

    b^2 - 4 a c = 64 * margin / (q^6 (p + 2(m-1))^2),

so their signs agree wherever both are defined.  Because the margin is affine
in theta with a nonnegative theta-free part, membership gets easier as theta
grows: the family of regions is nested increasing in theta and shrinks to the
single point (m, p) = (1, 2) as theta -> 0+.  The margin is a positive
definite quadratic in (m, p), so :func:`region_report` gives the region's
center and bounding box exactly, and :func:`lemma_functional_check` checks
the interpolation lemma on one constant chain, for one snapshot or for a
trace's columns at once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    NonpositiveLambda,
    OutsideEllipse,
    ParameterError,
    QOutOfRange,
)
from .functionals import PmeParams, _exponents

__all__ = [
    "ellipse_margin",
    "discriminant",
    "RegionReport",
    "region_report",
    "PmeConstants",
    "constants_chain",
    "constants_report",
    "envelope_exponential",
    "envelope_pme",
    "theta_from_p",
    "LemmaCheck",
    "lemma_functional_check",
]


def _check_theta(theta: float) -> None:
    if not (0.0 < theta <= 1.0):
        raise ParameterError(f"theta must lie in (0, 1]; got {theta}")


def ellipse_margin(m: float, p: float, theta: float) -> float:
    """Left-hand side of the admissibility condition; membership <=> value < 0."""
    _check_theta(theta)
    return (p + 2.0 * m - 4.0) ** 2 + (
        5.0 * m * m + 2.0 * (2.0 * p - 7.0) * m + (p - 3.0) ** 2
    ) * theta


def _abc(m: float, p: float, theta: float) -> tuple[float, float, float, float]:
    """(q, a, b, c) of the quadratic-form bound for the second-order functional,
    from the exponents of :func:`functionals._exponents`."""
    _, q, alpha = _exponents(m, p)
    a = theta / q**2
    b = 8.0 * (alpha + 2.0 - 2.0 * q) / q**3
    c = 16.0 * (q - 1.0) * (q - 1.0 - alpha) / q**4 + 2.0 * b
    return q, a, b, c


def discriminant(m: float, p: float, theta: float) -> float:
    """b^2 - 4 a(theta) c; negative exactly when (m, p) is admissible."""
    _, a, b, c = _abc(m, p, theta)
    return b * b - 4.0 * a * c


@dataclass(frozen=True)
class RegionReport:
    """The admissible region at a given theta: its center and bounding box."""

    theta: float
    center: tuple[float, float]
    bbox: tuple[float, float, float, float]  # (m_min, m_max, p_min, p_max)

    def to_dict(self) -> dict:
        return {"theta": self.theta, "center": list(self.center), "bbox": list(self.bbox)}


def region_report(theta: float) -> RegionReport:
    """Center and bounding box of the ellipse margin(m, p, theta) < 0, in
    closed form.

    About the center (1, (2 + theta)/(1 + theta)), with m' = m - 1 and p'
    = p - (2 + theta)/(1 + theta), the margin is the positive definite form

        (4 + 5 theta) m'^2 + 4 (1 + theta) m' p' + (1 + theta) p'^2 - theta^2/(1 + theta)

    of determinant theta (1 + theta), so the box's half-widths are
    sqrt(theta/(1 + theta)) in m and sqrt(theta (4 + 5 theta))/(1 + theta) in p.
    """
    _check_theta(theta)
    m0, p0 = 1.0, (2.0 + theta) / (1.0 + theta)
    dm = math.sqrt(theta / (1.0 + theta))
    dp = math.sqrt(theta * (4.0 + 5.0 * theta)) / (1.0 + theta)
    return RegionReport(theta=theta, center=(m0, p0),
                        bbox=(m0 - dm, m0 + dm, p0 - dp, p0 + dp))


@dataclass(frozen=True)
class PmeConstants:
    """Full constant chain from (m, p, theta, lambda1, E0) to the cubic-decay rate."""

    m: float
    p: float
    theta: float
    lambda1: float
    E0: float
    q: float
    beta: float
    alpha: float
    c_mp: float
    a: float
    b: float
    c: float
    kappa1: float
    kappa2: float
    K: float
    kappa0: float
    kappa: float
    bracket_exponent: float  # (4 - 3q) / (3(2 - q))
    margin: float

    def decay_function(self, s: float) -> float:
        """F(s) = kappa0 * s * [(m+p-2) s + 1]^{-(4-3q)/(3(2-q))}; F(E) <= (3/2) I^{2/3}."""
        return (
            self.kappa0
            * s
            * ((self.m + self.p - 2.0) * s + 1.0) ** (-self.bracket_exponent)
        )


def _check_inputs(lambda1: float | None, E0: float) -> None:
    if not (math.isfinite(E0) and E0 >= 0.0):
        raise ParameterError(f"E0 must be finite and nonnegative; got {E0}")
    if lambda1 is not None and not math.isfinite(lambda1):
        raise ParameterError(f"lambda1 must be finite; got {lambda1}")


def constants_chain(
    m: float, p: float, theta: float, lambda1: float, E0: float
) -> PmeConstants:
    """Populate the whole constant chain; raises a named error per failed
    hypothesis, ParameterError unless E0 is finite and >= 0 and lambda1 finite."""
    _check_inputs(lambda1, E0)
    params = PmeParams(m=m, p=p)
    margin = ellipse_margin(m, p, theta)
    if not margin < 0.0:
        raise OutsideEllipse(
            f"(m={m}, p={p}) is outside the admissible region at theta={theta} "
            f"(margin={margin:.6g} >= 0)"
        )
    if not (1.0 < m < p + 1.0):
        raise QOutOfRange(
            f"need 1 < m < p+1 for q in (1, 4/3); got m={m}, p={p} (q={params.q:.6g})"
        )
    if not lambda1 > 0.0:
        raise NonpositiveLambda(f"lambda1 must be positive; got {lambda1}")
    q, a, b, c = _abc(m, p, theta)
    kappa1 = lambda1 / q**2
    kappa2 = c - b * b / (4.0 * a)
    K = 1.0 / (4.0 * q**8 * kappa1**2 * kappa2)
    c_mp = params.c
    kappa0 = 1.5 * m * (4.0 * K * c_mp) ** (-1.0 / 3.0)
    bracket_exponent = (4.0 - 3.0 * q) / (3.0 * (2.0 - q))
    kappa = kappa0 * ((m + p - 2.0) * E0 + 1.0) ** (-bracket_exponent)
    return PmeConstants(
        m=m, p=p, theta=theta, lambda1=lambda1, E0=E0,
        q=q, beta=params.beta, alpha=params.alpha, c_mp=c_mp,
        a=a, b=b, c=c, kappa1=kappa1, kappa2=kappa2, K=K,
        kappa0=kappa0, kappa=kappa, bracket_exponent=bracket_exponent,
        margin=margin,
    )


def constants_report(
    m: float, p: float, theta: float, lambda1: float | None, E0: float
) -> dict:
    """Non-raising variant: the three hypothesis booleans, plus every field of
    :func:`constants_chain` when they all hold (so ``"kappa" in report`` tells
    whether they do).  Bad inputs still raise ParameterError, as there."""
    _check_inputs(lambda1, E0)
    out: dict = {
        "m": m,
        "p": p,
        "theta": theta,
        "lambda1": lambda1,
        "E0": E0,
        "margin": ellipse_margin(m, p, theta),
    }
    out["in_ellipse"] = out["margin"] < 0.0
    out["q_in_range"] = 1.0 < m < p + 1.0
    out["lambda1_positive"] = lambda1 is not None and lambda1 > 0.0
    if out["in_ellipse"] and out["q_in_range"] and out["lambda1_positive"]:
        out.update(asdict(constants_chain(m, p, theta, lambda1, E0)))
    return out


def envelope_exponential(x0: float, lambda1: float, t):
    """x0 e^{-2 lambda1 t}: the exponential decay bound for entropy and Fisher,
    at a time or elementwise over an array of times."""
    return x0 * np.exp(-2.0 * lambda1 * t)


def envelope_pme(I0: float, kappa: float, t):
    """Cubic decay envelopes (I_bound, E_bound) for the porous-media flow, at
    a time or elementwise over an array of times.

    I_bound = I0 / u^3 and E_bound = 3 I0^{2/3} / (2 kappa u^2) with
    u = 1 + (kappa/3) I0^{1/3} t; the E bound is the t-to-infinity integral of
    the I bound.
    """
    if kappa <= 0.0:
        raise ParameterError(f"kappa must be positive; got {kappa}")
    if I0 < 0.0:
        raise ParameterError(f"I0 must be nonnegative; got {I0}")
    u = 1.0 + (kappa / 3.0) * I0 ** (1.0 / 3.0) * t
    return I0 / u**3, 3.0 * I0 ** (2.0 / 3.0) / (2.0 * kappa * u**2)


def theta_from_p(p0: float) -> float:
    """theta = 2/p0 - 1: the theta at which the two eigenvalue criteria coincide."""
    if not (1.0 < p0 <= 2.0):
        raise ParameterError(f"p0 must lie in (1, 2]; got {p0}")
    return 2.0 / p0 - 1.0


# the _relative_slack below zero that a check still passes:
# lemma_functional_check and every verdict of entroflow.verify except the
# dissipation audit, which derives its tolerance from the trace's snapshot
# spacing and decay rate
SLACK_TOL = 1e-8


def _relative_slack(lhs, rhs):
    """(rhs - lhs) / max(|rhs|, |lhs|, 1e-300), elementwise: how far lhs <= rhs
    holds, in [-1, 1] wherever the two sides share a sign.  A NaN side gives a
    NaN slack."""
    return (rhs - lhs) / np.maximum(np.maximum(np.abs(rhs), np.abs(lhs)), 1e-300)


@dataclass(frozen=True)
class LemmaCheck:
    """Both sides of the interpolation inequality tying I^{4/3} to K, and its
    relative slack: floats for one snapshot, arrays for columns of them."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    slack: float | np.ndarray  # _relative_slack(lhs, rhs)
    passed: bool | np.ndarray  # slack >= -SLACK_TOL


def lemma_functional_check(
    m: float,
    p: float,
    theta: float,
    lambda1: float,
    snapshot: tuple,
) -> LemmaCheck:
    """Check  I^{4/3} <= (1/3) [4 c(m,p)]^{4/3} K^{1/3} [(m+p-2) E + 1]^{(4-3q)/(3(2-q))} K2nd

    on an (E, I, K2nd) snapshot of floats, or elementwise on three equal-length
    columns, passing a relative slack down to -SLACK_TOL.  The constant chain
    is built once: the inequality reads none of its E0-dependent constants.
    A NaN in the snapshot gives a NaN slack, which does not pass.
    """
    E, I, Ksnap = map(np.asarray, snapshot)
    consts = constants_chain(m, p, theta, lambda1, E0=0.0)
    bracket = (m + p - 2.0) * E + 1.0
    lhs = I ** (4.0 / 3.0)
    rhs = (
        (1.0 / 3.0)
        * (4.0 * consts.c_mp) ** (4.0 / 3.0)
        * consts.K ** (1.0 / 3.0)
        * bracket**consts.bracket_exponent
        * Ksnap
    )
    slack = _relative_slack(lhs, rhs)
    return LemmaCheck(lhs=lhs, rhs=rhs, slack=slack, passed=slack >= -SLACK_TOL)
