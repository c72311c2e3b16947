"""Closed-form admissibility conditions, constant chains and decay envelopes.

Everything here is double-precision arithmetic on closed forms; nothing is
fitted from data.  The admissible (m, p) region for a given theta is

    margin(m, p, theta) = (p + 2m - 4)^2 + [5m^2 + 2(2p-7)m + (p-3)^2] theta < 0,

equivalent to the discriminant condition b^2 - 4 a(theta) c < 0 of the
quadratic-form bound with

    q = (p + 3(m-1)) / (p + 2(m-1)),   alpha = (2 - p) / (p + 2(m-1)),
    a = theta / q^2,   b = 8 (alpha + 2 - 2q) / q^3,
    c = 16 (q - 1)(q - 1 - alpha) / q^4 + 2b;

the two sides are proportional,

    b^2 - 4 a c = 64 * margin / (q^6 (p + 2(m-1))^2),

so their signs agree wherever both are defined.  Because the margin is affine
in theta with a nonnegative theta-free part, membership gets easier as theta
grows: the family of regions is nested increasing in theta and shrinks to the
single point (m, p) = (1, 2) as theta -> 0+.
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
from .functionals import PmeParams

__all__ = [
    "ellipse_margin",
    "discriminant",
    "RegionReport",
    "region_report",
    "PmeConstants",
    "constants_chain",
    "constants_report",
    "envelope_exponential",
    "envelope_refined",
    "refined_kappa",
    "envelope_pme",
    "theta_from_p",
    "LemmaCheck",
    "lemma_functional_check",
]


def ellipse_margin(m: float, p: float, theta: float) -> float:
    """Left-hand side of the admissibility condition; membership <=> value < 0."""
    if not (0.0 < theta <= 1.0):
        raise ParameterError(f"theta must lie in (0, 1]; got {theta}")
    return (p + 2.0 * m - 4.0) ** 2 + (
        5.0 * m * m + 2.0 * (2.0 * p - 7.0) * m + (p - 3.0) ** 2
    ) * theta


def _abc(m: float, p: float, theta: float) -> tuple[float, float, float, float]:
    """(q, a, b, c) of the quadratic-form bound for the second-order functional."""
    q = (p + 3.0 * (m - 1.0)) / (p + 2.0 * (m - 1.0))
    alpha = (2.0 - p) / (p + 2.0 * (m - 1.0))
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
    """Sampled summary of the admissible region at a given theta."""

    theta: float
    samples: int
    n_member: int
    center: tuple[float, float]
    bbox: tuple[float, float, float, float]  # (m_min, m_max, p_min, p_max)
    # theta' -> True when every sampled member at theta' is also a member at
    # theta (the family is nested increasing in theta)
    nested_in_self: dict[float, bool]

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "samples": self.samples,
            "n_member": self.n_member,
            "center": list(self.center),
            "bbox": list(self.bbox),
            "nested_in_self": {repr(k): v for k, v in self.nested_in_self.items()},
        }


def region_report(
    theta: float,
    samples: int = 200,
    thetas_check: tuple[float, ...] = (),
) -> RegionReport:
    """Sample the (m, p) rectangle around the theta = 1 region.

    Returns measured centroid and bounding box of the member points, plus,
    for each theta' < theta in ``thetas_check``, whether the sampled region
    at theta' is contained in the one at theta.
    """
    if samples < 2:
        raise ParameterError(f"samples must be at least 2; got {samples}")
    half = math.sqrt(2.0) / 2.0
    ms = np.linspace(1.0 - half - 0.15, 1.0 + half + 0.15, samples)
    ps = np.linspace(-0.25, 3.25, samples)
    M, P = np.meshgrid(ms, ps, indexing="ij")
    member = ellipse_margin(M, P, theta) < 0.0
    n_member = int(member.sum())
    if n_member == 0:
        center = (math.nan, math.nan)
        bbox = (math.nan, math.nan, math.nan, math.nan)
    else:
        center = (float(M[member].mean()), float(P[member].mean()))
        bbox = (
            float(M[member].min()),
            float(M[member].max()),
            float(P[member].min()),
            float(P[member].max()),
        )
    nested = {}
    for tp in thetas_check:
        if not (0.0 < tp < theta):
            raise ParameterError("containment checks need 0 < theta' < theta")
        member_tp = ellipse_margin(M, P, tp) < 0.0
        nested[tp] = bool(np.all(member | ~member_tp))
    return RegionReport(
        theta=theta,
        samples=samples,
        n_member=n_member,
        center=center,
        bbox=bbox,
        nested_in_self=nested,
    )


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


def envelope_exponential(x0: float, lambda1: float, t: float) -> float:
    """x0 e^{-2 lambda1 t}: the exponential decay bound for entropy and Fisher."""
    return x0 * math.exp(-2.0 * lambda1 * t)


def envelope_refined(I0: float, kappa: float, t: float) -> float:
    """I0 / (1 + kappa I0 t): algebraic bound in the degenerate lambda1 = 0 regime."""
    if kappa < 0.0:
        raise ParameterError(f"kappa must be nonnegative; got {kappa}")
    return I0 / (1.0 + kappa * I0 * t)


def refined_kappa(p: float, epsilon: float, E0: float) -> float:
    """Rate constant of the degenerate regime:

        kappa = (alpha eps / (1 + eps)) * (p/2) / (1 + (p-1) E0),

    with alpha = (2-p)/p; feeds :func:`envelope_refined`.
    """
    if not (1.0 < p < 2.0):
        raise ParameterError(f"p must lie strictly in (1, 2); got {p}")
    if epsilon <= 0.0:
        raise ParameterError(f"epsilon must be positive; got {epsilon}")
    alpha = (2.0 - p) / p
    return (alpha * epsilon / (1.0 + epsilon)) * (p / 2.0) / (1.0 + (p - 1.0) * E0)


def envelope_pme(I0: float, kappa: float, t: float) -> tuple[float, float]:
    """Cubic decay envelopes (I_bound, E_bound) for the porous-media flow.

    I_bound = I0 / u^3 and E_bound = 3 I0^{2/3} / (2 kappa u^2) with
    u = 1 + (kappa/3) I0^{1/3} t; the E bound is the t-to-infinity integral of
    the I bound.
    """
    if kappa <= 0.0:
        raise ParameterError(f"kappa must be positive; got {kappa}")
    if I0 < 0.0:
        raise ParameterError(f"I0 must be nonnegative; got {I0}")
    if I0 == 0.0:
        return 0.0, 0.0
    u = 1.0 + (kappa / 3.0) * I0 ** (1.0 / 3.0) * t
    return I0 / u**3, 3.0 * I0 ** (2.0 / 3.0) / (2.0 * kappa * u**2)


def theta_from_p(p0: float) -> float:
    """theta = 2/p0 - 1: the theta at which the two eigenvalue criteria coincide."""
    if not (1.0 < p0 <= 2.0):
        raise ParameterError(f"p0 must lie in (1, 2]; got {p0}")
    return 2.0 / p0 - 1.0


# relative slack below zero that a check still passes: lemma_functional_check
# and every verdict of entroflow.verify except the dissipation audit, which
# derives its tolerance from the trace's snapshot spacing and decay rate
SLACK_TOL = 1e-8


@dataclass(frozen=True)
class LemmaCheck:
    """Both sides of the interpolation inequality tying I^{4/3} to K, with the
    quartic-optimization witness f(eta) = K1 + K2 eta^4 - K3 eta evaluated at
    its minimizer eta_bar = (K3 / (4 K2))^{1/3}."""

    lhs: float
    rhs: float
    slack: float  # (rhs - lhs) / max(|rhs|, |lhs|, tiny)
    K1: float
    K2: float
    K3: float
    eta_bar: float
    f_eta_bar: float
    passed: bool


def lemma_functional_check(
    m: float,
    p: float,
    theta: float,
    lambda1: float,
    snapshot: tuple[float, float, float],
) -> LemmaCheck:
    """Check  I^{4/3} <= (1/3) [4 c(m,p)]^{4/3} K^{1/3} [(m+p-2) E + 1]^{(4-3q)/(3(2-q))} K2nd

    on one (E, I, K) snapshot, passing a relative slack down to -SLACK_TOL.
    Also evaluates the quartic witness, which is nonnegative exactly when the
    inequality holds.
    """
    E, I, Ksnap = snapshot
    consts = constants_chain(m, p, theta, lambda1, E0=max(E, 0.0))
    bracket = (m + p - 2.0) * E + 1.0
    lhs = I ** (4.0 / 3.0)
    rhs = (
        (1.0 / 3.0)
        * (4.0 * consts.c_mp) ** (4.0 / 3.0)
        * consts.K ** (1.0 / 3.0)
        * bracket**consts.bracket_exponent
        * Ksnap
    )
    scale = max(abs(lhs), abs(rhs), 1e-300)
    slack = (rhs - lhs) / scale
    K1 = Ksnap
    K2 = consts.K * bracket ** (3.0 * consts.bracket_exponent)
    K3 = I / consts.c_mp
    eta_bar = (K3 / (4.0 * K2)) ** (1.0 / 3.0) if K2 > 0.0 else 0.0
    f_eta_bar = K1 + K2 * eta_bar**4 - K3 * eta_bar
    return LemmaCheck(
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        K1=K1,
        K2=K2,
        K3=K3,
        eta_bar=eta_bar,
        f_eta_bar=f_eta_bar,
        passed=slack >= -SLACK_TOL,
    )
