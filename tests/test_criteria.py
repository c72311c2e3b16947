"""Closed-form constants, the admissible region, envelopes and the lemma check."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
import sympy

import entroflow as ef
from entroflow.errors import (
    NonpositiveLambda,
    OutsideEllipse,
    ParameterError,
    QOutOfRange,
)


class TestEllipseMargin:
    def test_m_one_theta_one_factorization(self):
        # reduces to 2(p-1)(p-2) on the m = 1 line
        for p in np.linspace(0.2, 2.8, 27):
            assert ef.ellipse_margin(1.0, p, 1.0) == pytest.approx(
                2.0 * (p - 1.0) * (p - 2.0), abs=1e-12
            )

    def test_hand_values(self):
        assert ef.ellipse_margin(1.2, 1.5, 0.5) == pytest.approx(-0.065, abs=1e-12)
        assert ef.ellipse_margin(2.0, 2.0, 0.5) == pytest.approx(8.5, abs=1e-12)

    def test_affine_in_theta(self, rng):
        for _ in range(50):
            m, p = rng.uniform(0.3, 2.5, 2)
            t1, t2 = sorted(rng.uniform(0.05, 1.0, 2))
            mid = 0.5 * (t1 + t2)
            lin = 0.5 * (ef.ellipse_margin(m, p, t1) + ef.ellipse_margin(m, p, t2))
            assert ef.ellipse_margin(m, p, mid) == pytest.approx(lin, rel=1e-12, abs=1e-12)

    def test_membership_easier_for_larger_theta(self, rng):
        # the theta-free part is a square, so {margin < 0} grows with theta
        for _ in range(200):
            m, p = rng.uniform(0.3, 2.5, 2)
            t1, t2 = sorted(rng.uniform(0.05, 1.0, 2))
            if ef.ellipse_margin(m, p, t1) < 0.0:
                assert ef.ellipse_margin(m, p, t2) < 0.0

    def test_theta_validation(self):
        with pytest.raises(ParameterError):
            ef.ellipse_margin(1.2, 1.5, 0.0)


class TestDiscriminantIdentity:
    def test_exact_proportionality(self, rng):
        # b^2 - 4ac = 64 * margin / (q^6 (p + 2(m-1))^2), checked pointwise
        for _ in range(2000):
            m = rng.uniform(0.2, 3.0)
            p = rng.uniform(0.2, 3.0)
            theta = rng.uniform(0.01, 1.0)
            P2 = p + 2.0 * (m - 1.0)
            q = (p + 3.0 * (m - 1.0)) / P2
            if abs(P2) < 1e-3 or abs(q) < 1e-3:
                continue
            disc = ef.discriminant(m, p, theta)
            margin = ef.ellipse_margin(m, p, theta)
            predicted = 64.0 * margin / (q**6 * P2**2)
            assert disc == pytest.approx(predicted, rel=1e-9, abs=1e-9)

    def test_sign_agreement_mass_sample(self, rng):
        mism = 0
        for _ in range(10_000):
            m = rng.uniform(0.2, 3.0)
            p = rng.uniform(0.2, 3.0)
            theta = rng.uniform(0.01, 1.0)
            disc = ef.discriminant(m, p, theta)
            margin = ef.ellipse_margin(m, p, theta)
            scale = max(abs(disc), abs(margin), 1.0)
            if abs(disc) < 1e-12 * scale or abs(margin) < 1e-12 * scale:
                continue  # dead band around the boundary
            if np.sign(disc) != np.sign(margin):
                mism += 1
        assert mism == 0


def _sampled_members(theta, box, samples=801):
    """Sample grid over ``box`` widened by 10 % on each side (at least 0.05),
    its member mask under ellipse_margin and its spacings (dm, dp)."""
    m_min, m_max, p_min, p_max = box
    wm, wp = max(0.1 * (m_max - m_min), 0.05), max(0.1 * (p_max - p_min), 0.05)
    ms = np.linspace(m_min - wm, m_max + wm, samples)
    ps = np.linspace(p_min - wp, p_max + wp, samples)
    M, P = np.meshgrid(ms, ps, indexing="ij")
    return M, P, ef.ellipse_margin(M, P, theta) < 0.0, (ms[1] - ms[0], ps[1] - ps[0])


THETAS = (0.01, 0.05, 0.2, 0.5, 0.8, 1.0)


class TestRegionReport:
    def test_theta_one_closed_form(self):
        rep = ef.region_report(1.0)
        half = math.sqrt(2.0) / 2.0
        assert rep.center == (1.0, 1.5)
        assert_allclose(rep.bbox, (1.0 - half, 1.0 + half, 0.0, 3.0), rtol=0.0, atol=1e-15)
        assert rep.to_dict() == {"theta": 1.0, "center": [1.0, 1.5], "bbox": list(rep.bbox)}

    @pytest.mark.parametrize("theta", THETAS)
    def test_box_against_sampled_members(self, theta):
        # the sampler region_report used to be is the oracle: every sampled
        # member lies in the box, and each box edge is within one grid
        # spacing of a member
        rep = ef.region_report(theta)
        M, P, member, (dm, dp) = _sampled_members(theta, rep.bbox)
        m_min, m_max, p_min, p_max = rep.bbox
        assert member.any()
        assert m_min <= M[member].min() <= m_min + dm
        assert m_max - dm <= M[member].max() <= m_max
        assert p_min <= P[member].min() <= p_min + dp
        assert p_max - dp <= P[member].max() <= p_max

    @pytest.mark.parametrize("theta", THETAS)
    def test_center_margin_is_minimal(self, theta):
        m0, p0 = ef.region_report(theta).center
        assert ef.ellipse_margin(m0, p0, theta) == pytest.approx(
            -theta**2 / (1.0 + theta), rel=1e-13, abs=1e-17)

    @pytest.mark.parametrize("small, theta", [(0.05, 0.2), (0.2, 0.8), (0.5, 1.0)])
    def test_nesting_in_theta(self, small, theta):
        # members at theta' < theta are members at theta, and so the boxes nest
        M, P, member, _ = _sampled_members(theta, ef.region_report(theta).bbox)
        member_small = ef.ellipse_margin(M, P, small) < 0.0
        assert member_small.any()
        assert np.all(member | ~member_small)
        lo, hi = ef.region_report(small).bbox, ef.region_report(theta).bbox
        assert hi[0] < lo[0] and lo[1] < hi[1] and hi[2] < lo[2] and lo[3] < hi[3]

    def test_shrinks_toward_point_as_theta_vanishes(self):
        for theta in (1e-2, 1e-4, 1e-8, 1e-12):
            m_min, m_max, p_min, p_max = ef.region_report(theta).bbox
            reach = 3.0 * math.sqrt(theta)  # the half-widths are O(sqrt(theta))
            assert 1.0 - reach < m_min < 1.0 < m_max < 1.0 + reach
            assert 2.0 - reach < p_min < 2.0 < p_max < 2.0 + reach

    @pytest.mark.parametrize("theta", [0.0, -0.1, 1.5, math.nan])
    def test_rejects_theta_outside_unit_interval(self, theta):
        with pytest.raises(ParameterError, match="theta must lie in"):
            ef.region_report(theta)


class TestConstantsChain:
    def test_q_formulas_agree(self, rng):
        # 1 + beta(m-1)/2 equals (p + 3(m-1)) / (p + 2(m-1))
        from entroflow.criteria import _abc

        for _ in range(300):
            m = rng.uniform(0.5, 2.5)
            p = rng.uniform(1.05, 1.95)
            if p / 2 + m - 1 <= 0.05:
                continue
            assert ef.PmeParams(m=m, p=p).q == pytest.approx(
                _abc(m, p, 0.5)[0], abs=1e-14
            )

    def test_reference_values(self):
        c = ef.constants_chain(1.2, 1.5, 0.5, lambda1=1.0, E0=0.0)
        assert c.q == pytest.approx(2.1 / 1.9, rel=1e-12)
        assert c.c_mp == pytest.approx(8.16 / 3.61, rel=1e-12)
        assert c.kappa1 == pytest.approx(1.0 / c.q**2, rel=1e-14)
        assert c.kappa2 > 0.0 and c.K > 0.0 and c.kappa > 0.0
        # with E0 = 0 the bracket is 1, so kappa == kappa0
        assert c.kappa == pytest.approx(c.kappa0, rel=1e-14)

    def test_kappa2_positive_iff_inside(self):
        c = ef.constants_chain(1.2, 1.5, 0.5, 1.0, 0.0)
        assert c.kappa2 == pytest.approx(c.c - c.b**2 / (4 * c.a), rel=1e-12)
        assert ef.discriminant(1.2, 1.5, 0.5) < 0.0

    def test_m_to_one_limits(self):
        # q -> 1 and the bracket exponent -> 1/3 as m -> 1+
        for m, tol in ((1.01, 0.05), (1.001, 0.005)):
            c = ef.constants_chain(m, 1.5, 0.5, 1.0, 0.0)
            assert c.q == pytest.approx(1.0, abs=tol)
            assert c.bracket_exponent == pytest.approx(1.0 / 3.0, abs=tol)

    def test_hypothesis_errors(self):
        with pytest.raises(OutsideEllipse):
            ef.constants_chain(2.0, 2.0 - 1e-9, 0.5, 1.0, 0.0)
        with pytest.raises(OutsideEllipse):
            ef.constants_chain(1.2, 1.5, 0.05, 1.0, 0.0)
        with pytest.raises(NonpositiveLambda):
            ef.constants_chain(1.2, 1.5, 0.5, 0.0, 0.0)
        with pytest.raises(QOutOfRange):
            ef.constants_chain(0.95, 1.5, 0.9, 1.0, 0.0)

    def test_report_booleans(self):
        rep = ef.constants_report(2.0, 2.0 - 1e-9, 0.5, 1.0, 0.0)
        assert rep["in_ellipse"] is False
        assert "kappa" not in rep
        ok = ef.constants_report(1.2, 1.5, 0.5, 1.0, 0.1)
        assert ok["in_ellipse"] and ok["q_in_range"] and ok["lambda1_positive"]
        assert ok["kappa"] > 0


class TestEnvelopes:
    def test_exponential(self):
        assert ef.envelope_exponential(1.0, 1.0, 0.0) == 1.0
        assert ef.envelope_exponential(1.0, 1.0, math.log(2) / 2) == pytest.approx(0.5)
        assert ef.envelope_exponential(3.7, 0.0, 5.0) == 3.7

    def test_pme_at_zero_time(self):
        I0, kappa = 0.11, 1.1
        ib, eb = ef.envelope_pme(I0, kappa, 0.0)
        assert ib == I0
        assert eb == pytest.approx(3.0 * I0 ** (2.0 / 3.0) / (2.0 * kappa))

    def test_pme_zero_start(self):
        assert ef.envelope_pme(0.0, 1.0, 2.0) == (0.0, 0.0)
        ib, eb = ef.envelope_pme(0.0, 1.0, np.linspace(0.0, 2.0, 5))
        assert not ib.any() and not eb.any() and ib.shape == eb.shape == (5,)

    @pytest.mark.parametrize("I0, kappa, message", [
        (1.0, 0.0, "kappa must be positive; got 0.0"),
        (1.0, -1.0, "kappa must be positive; got -1.0"),
        (-1e-3, 1.0, "I0 must be nonnegative; got -0.001"),
    ], ids=["kappa-zero", "kappa-negative", "I0-negative"])
    def test_pme_rejects_bad_inputs(self, I0, kappa, message):
        with pytest.raises(ParameterError, match=message):
            ef.envelope_pme(I0, kappa, 1.0)

    def test_an_array_of_times_is_each_time(self):
        # the bounds over a trace's times are the bounds at each time, to an
        # ulp: numpy's array power may round u^3 otherwise than the C pow
        t = np.linspace(0.0, 4.0, 41)
        for x0, rate in [(0.3, 1.1), (2.0, 0.25)]:
            bounds = ef.envelope_exponential(x0, rate, t)
            assert_allclose(bounds, [ef.envelope_exponential(x0, rate, float(s)) for s in t],
                            rtol=2.3e-16, atol=0)
        ib, eb = ef.envelope_pme(0.2, 0.9, t)
        assert_allclose(np.stack([ib, eb], axis=1),
                        [ef.envelope_pme(0.2, 0.9, float(s)) for s in t], rtol=2.3e-16, atol=0)

    def test_pme_large_time_asymptote(self):
        kappa = 0.7
        for I0 in (0.05, 1.0, 20.0):
            t = 1e8
            ib, _ = ef.envelope_pme(I0, kappa, t)
            assert ib * t**3 == pytest.approx(27.0 / kappa**3, rel=1e-5)

    def test_pme_monotone_in_t_and_kappa(self):
        ts = np.linspace(0, 10, 50)
        vals = [ef.envelope_pme(1.0, 1.0, t)[0] for t in ts]
        assert np.all(np.diff(vals) < 0)
        assert ef.envelope_pme(1.0, 2.0, 1.0)[0] < ef.envelope_pme(1.0, 1.0, 1.0)[0]

    def test_envelope_integral_relation(self):
        # the E bound is the integral of the I bound from t to infinity
        from scipy.integrate import quad

        I0, kappa, t0 = 0.3, 0.9, 0.7
        tail, _ = quad(lambda s: ef.envelope_pme(I0, kappa, s)[0], t0, np.inf)
        assert tail == pytest.approx(ef.envelope_pme(I0, kappa, t0)[1], rel=1e-9)


class TestThetaFromP:
    def test_values(self):
        assert ef.theta_from_p(2.0) == 0.0
        assert ef.theta_from_p(4.0 / 3.0) == pytest.approx(0.5, abs=1e-15)
        assert ef.theta_from_p(1.0001) == pytest.approx(0.99980002, abs=1e-8)

    def test_coefficient_identity(self):
        for p0 in np.linspace(1.01, 2.0, 21):
            assert 1.0 - ef.theta_from_p(p0) == pytest.approx(
                2.0 * (p0 - 1.0) / p0, abs=1e-15
            )

    def test_range_guard(self):
        with pytest.raises(ParameterError):
            ef.theta_from_p(2.5)
        with pytest.raises(ParameterError):
            ef.theta_from_p(1.0)


class TestLemmaCheck:
    def test_equilibrium_snapshot(self):
        chk = ef.lemma_functional_check(1.2, 1.5, 0.5, 1.0, (0.0, 0.0, 0.0))
        assert chk.passed
        assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.slack == 0.0

    def test_quartic_witness_equivalence(self, rng):
        # f(eta_bar) >= 0 iff K1 >= 3 K3^{4/3} / (4^{4/3} K2^{1/3}), verified
        # against brute-force minimization of f over an eta grid
        for _ in range(200):
            K1, K2, K3 = rng.uniform(0.01, 2.0, 3)
            eta_bar = (K3 / (4.0 * K2)) ** (1.0 / 3.0)
            f_bar = K1 + K2 * eta_bar**4 - K3 * eta_bar
            etas = np.linspace(1e-4, 5.0 * eta_bar, 4001)
            f_min = np.min(K1 + K2 * etas**4 - K3 * etas)
            assert f_bar <= f_min + 1e-9
            rhs_ineq = 3.0 * K3 ** (4.0 / 3.0) / (4.0 ** (4.0 / 3.0) * K2 ** (1.0 / 3.0))
            assert (f_bar >= 0.0) == (K1 >= rhs_ineq - 1e-15)

    def test_holds_along_pme_trace(self, pme_run, gauss_grid):
        lam = ef.lambda1_pme(0.5, gauss_grid).lam
        for E, I, K in zip(pme_run.E, pme_run.I, pme_run.K):
            chk = ef.lemma_functional_check(1.2, 1.5, 0.5, lam, (E, I, K))
            assert chk.passed
            assert chk.slack >= -1e-8

    def test_columns_match_rows(self, pme_run, gauss_grid):
        # the columns at once agree with the snapshots one at a time up to
        # the rounding of numpy's vectorized pow
        lam = ef.lambda1_pme(0.5, gauss_grid).lam
        cols = ef.lemma_functional_check(1.2, 1.5, 0.5, lam, (pme_run.E, pme_run.I, pme_run.K))
        rows = [ef.lemma_functional_check(1.2, 1.5, 0.5, lam, snap)
                for snap in zip(pme_run.E, pme_run.I, pme_run.K)]
        for field in ("lhs", "rhs", "slack"):
            np.testing.assert_array_max_ulp(
                getattr(cols, field), np.array([getattr(r, field) for r in rows]), maxulp=4)
        assert cols.passed.all()

    def test_nan_snapshot_fails_its_row(self):
        # the chain no longer reads E, so a NaN E is a failed row, not a bad input
        chk = ef.lemma_functional_check(1.2, 1.5, 0.5, 1.0, (np.array([0.01, np.nan]),
                                                              np.array([0.02, 0.01]),
                                                              np.array([1.0, 1.0])))
        assert chk.passed.tolist() == [True, False]
        assert math.isnan(chk.slack[1])

    def test_audit_builds_one_constant_chain(self, pme_run, monkeypatch):
        calls = []
        chain = ef.criteria.constants_chain

        def counted(*args, **kwargs):
            calls.append(args)
            return chain(*args, **kwargs)

        monkeypatch.setattr("entroflow.criteria.constants_chain", counted)
        assert ef.lemma_audit(pme_run, 0.5, 1.0).passed
        assert len(calls) == 1 < len(pme_run.t)


class TestDecayFunction:
    def test_linear_near_zero(self):
        c = ef.constants_chain(1.2, 1.5, 0.5, 1.0, 0.0)
        for s in (1e-6, 1e-9):
            assert c.decay_function(s) == pytest.approx(c.kappa0 * s, rel=1e-4)

    def test_bounded_by_fisher_along_trace(self, pme_run, gauss_grid):
        # F(E(t)) <= (3/2) I(t)^{2/3} at every snapshot
        lam = ef.lambda1_pme(0.5, gauss_grid).lam
        c = ef.constants_chain(1.2, 1.5, 0.5, lam, float(pme_run.E[0]))
        for E, I in zip(pme_run.E, pme_run.I):
            assert c.decay_function(E) <= 1.5 * I ** (2.0 / 3.0) * (1.0 + 1e-10)


def _symbolic_quadratic_form():
    """a, b, c and the margin of the criteria module docstring, in sympy."""
    m, p, theta = sympy.symbols("m p theta", positive=True)
    s = p + 2 * (m - 1)
    q = (p + 3 * (m - 1)) / s
    alpha = (2 - p) / s
    a = theta / q**2
    b = 8 * (alpha + 2 - 2 * q) / q**3
    c = 16 * (q - 1) * (q - 1 - alpha) / q**4 + 2 * b
    margin = (p + 2 * m - 4) ** 2 + (5 * m**2 + 2 * (2 * p - 7) * m + (p - 3) ** 2) * theta
    return (m, p, theta), q, s, a, b, c, margin


def _fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


class TestDiscriminantIdentitySymbolic:
    def test_identity_holds_symbolically(self):
        # b^2 - 4ac = 64 margin / (q^6 (p + 2(m-1))^2)
        _, q, s, a, b, c, margin = _symbolic_quadratic_form()
        assert sympy.simplify(b**2 - 4 * a * c - 64 * margin / (q**6 * s**2)) == 0

    def test_float_code_matches_exact_values(self):
        syms, _, _, a, b, c, margin = _symbolic_quadratic_form()
        exact = sympy.lambdify(syms, (a, b, c, margin), modules="sympy")
        rng = np.random.default_rng(7)
        points = []
        while len(points) < 50:
            m, p, theta = rng.uniform(0.8, 1.6), rng.uniform(1.0, 2.5), rng.uniform(0.05, 1.0)
            if ef.ellipse_margin(m, p, theta) < 0.0:
                points.append((m, p, theta))
        for m, p, theta in points:
            # exact rational values at the float inputs
            ea, eb, ec, emargin = map(_fraction, exact(*map(sympy.Rational, (m, p, theta))))
            fm, fp = Fraction(m), Fraction(p)
            assert eb * eb - 4 * ea * ec < 0  # admissible: the discriminant test agrees
            # errors are measured against the size of the terms that cancel
            disc_scale = eb * eb + abs(4 * ea * ec)
            margin_scale = (fp + 2 * fm - 4) ** 2 + abs(emargin - (fp + 2 * fm - 4) ** 2)
            disc_err = Fraction(ef.discriminant(m, p, theta)) - (eb * eb - 4 * ea * ec)
            margin_err = Fraction(ef.ellipse_margin(m, p, theta)) - emargin
            assert abs(disc_err) <= Fraction(1e-12) * disc_scale
            assert abs(margin_err) <= Fraction(1e-12) * margin_scale
