"""The vectorized quadrature sum returns exactly the double math.fsum returns."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import entroflow as ef
from entroflow.grid import _fsum_into

# Deterministic example sets so the suite gives the same verdict on every run.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)
LARGE = settings(derandomize=True, database=None, deadline=None, max_examples=25)


def _fsum(a):
    terms = np.array(a, dtype=np.float64)
    return _fsum_into(terms, np.empty_like(terms))


def _outcome(total, a):
    """Hex of the sum (tells -0.0 from 0.0), or the name of the error raised."""
    try:
        return total(a).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


def assert_same_as_fsum(values):
    a = np.asarray(values, dtype=np.float64)
    assert _outcome(_fsum, a) == _outcome(lambda x: math.fsum(x.tolist()), a)


scaled = st.builds(
    lambda m, k: m * 10.0**k,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(-300, 300),
)
subnormal = st.integers(-(2**40), 2**40).map(lambda i: i * 5e-324)
ordinary = st.builds(
    lambda m, k: m * 10.0**k,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(-30, 30),
)
tie_part = st.builds(
    lambda part, sign, k: sign * part * 2.0**k,
    st.sampled_from([1.0, 2.0**-53, 2.0**-54, 2.0**-106, 2.0**-107, 2.0**-159]),
    st.sampled_from([1.0, -1.0]),
    st.integers(-40, 40),
)


@PROPERTY
@given(arrays(np.float64, st.integers(0, 64),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([]))
@example(np.array([2.5]))
@example(np.array([1e308, 1e308]))  # intermediate overflow: both raise
def test_any_finite_array(a):
    assert_same_as_fsum(a)


@PROPERTY
@given(st.lists(st.one_of(scaled, subnormal), min_size=1, max_size=200))
def test_magnitudes_from_1e_minus_300_to_1e300_and_subnormals(values):
    assert_same_as_fsum(values)


@PROPERTY
@given(st.lists(scaled, min_size=1, max_size=100),
       st.one_of(subnormal, st.floats(-1e-280, 1e-280)),
       st.randoms(use_true_random=False))
def test_exact_cancellation(b, tiny, rnd):
    values = b + [-x for x in b] + [tiny]
    rnd.shuffle(values)
    assert_same_as_fsum(values)


@PROPERTY
@given(st.lists(tie_part, min_size=1, max_size=12))
@example([1.0, 2.0**-53])  # halfway, rounds to even: 1.0
@example([1.0, 2.0**-53, 2.0**-106])  # just above halfway: 1 + 2^-52
@example([1.0, 2.0**-53, -(2.0**-106)])  # just below halfway: 1.0
@example([1.0 + 2.0**-52, 2.0**-53])  # halfway from an odd last bit: up
def test_halfway_ties(values):
    assert_same_as_fsum(values)


@PROPERTY
@given(st.lists(st.sampled_from([0.0, -0.0]), max_size=6),
       st.floats(allow_nan=False, allow_infinity=False))
def test_signed_zeros(zeros, x):
    assert_same_as_fsum(zeros)
    assert_same_as_fsum(zeros + [x, -x])


@LARGE
@given(st.integers(0, 2**32 - 1), st.integers(1000, 30000), st.integers(-250, 250))
def test_large_arrays(seed, n, k):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-40, 40, n) * 10.0**k
    assert_same_as_fsum(a)
    assert_same_as_fsum(np.concatenate([a, -a[::-1], [2.0**-1070]]))


@pytest.mark.parametrize("values", [
    [math.nan],
    [1.0, math.nan, 2.0],
    [math.inf, 1.0],
    [-math.inf, -1.0, 3.0],
    [math.inf, math.inf],
    [math.nan, math.inf],
])
def test_non_finite_input_follows_fsum(values):
    assert_same_as_fsum(values)
    big = np.linspace(-1.0, 1.0, 20001)
    big[777] = values[0]
    assert_same_as_fsum(big)


def _array(kind, n, rng):
    if kind == "ordinary":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    if kind == "zeros":
        return np.where(rng.random(n) < 0.5, 0.0, -0.0)
    if kind == "subnormal":
        return rng.integers(-(2**40), 2**40, n) * 5e-324
    a = rng.standard_normal(n)
    a[int(rng.integers(n))] = 1.5e308 if kind == "huge" else float(kind)
    return a


# arrays that leave the extraction passes for math.fsum: all zeros, non-finite
# entries, a first sigma that would overflow (k > 1022) and remainders whose
# grid would fall below the subnormal spacing (k < -1021)
@PROPERTY
@given(st.sampled_from(["ordinary", "zeros", "nan", "inf", "-inf", "huge", "subnormal"]),
       st.integers(1, 300), st.integers(0, 2**32 - 1))
@example("subnormal", 1, 1)
def test_every_fallback_kind(kind, n, seed):
    assert_same_as_fsum(_array(kind, n, np.random.default_rng(seed)))


@pytest.mark.parametrize("kind", ["ordinary", "zeros", "nan", "huge", "subnormal"])
def test_every_fallback_kind_on_a_long_array(kind):
    assert_same_as_fsum(_array(kind, 2000, np.random.default_rng(0)))


@PROPERTY
@given(st.lists(ordinary, min_size=5, max_size=5))
def test_cancellation_forcing_extra_passes(values):
    # the exact cancellation of the first two terms leaves 2^-1000 for later passes
    assert_same_as_fsum(values + [-x for x in values[:2]] + [2.0**-1000])


@pytest.mark.parametrize("head", [[1.0, -1.0], [1.0, 0.5]])
def test_remainders_below_the_subnormal_grid_after_a_pass(head):
    # the first pass cancels 1 and -1 exactly; the subnormal remainders that
    # are left need a sigma below 2^-1021 and go to math.fsum
    assert_same_as_fsum(head + [2.0**-1060, 3 * 2.0**-1070, -(2.0**-1074)])


def test_sliced_view_sums_only_its_own_entries(rng):
    # a snapshot sums the n - 1 Fisher edge terms in row[:-1] with work[:-1]
    row, work = rng.standard_normal(20001), np.empty(20001)
    row[-1], work[-1] = 7.0, 9.0
    want = math.fsum(row[:-1].tolist())
    assert _fsum_into(row[:-1], work[:-1]).hex() == want.hex()
    assert (row[-1], work[-1]) == (7.0, 9.0)


def test_opposite_infinities_raise_value_error():
    with pytest.raises(ValueError):
        _fsum(np.array([1.0, math.inf, -math.inf]))
    with pytest.raises(ValueError):
        math.fsum([1.0, math.inf, -math.inf])


def test_quadrature_equals_fsum_on_fine_gaussian_grid(gauss_pot, rng):
    g = ef.make_interval_grid(-8.0, 8.0, 20001, gauss_pot)
    u = rng.standard_normal(g.n)
    v = np.cos(3.0 * g.nodes) + 0.1 * g.nodes**2
    for f in (u, v, g.nodes, g.nodes**2, np.ones(g.n)):
        assert ef.integrate_dgamma(g, f) == math.fsum((g.dgamma_weights * f).tolist())
    for a, b in ((u, v), (v, v), (u, u)):
        assert ef.inner_dgamma(g, a, b) == math.fsum((g.dgamma_weights * a * b).tolist())
        terms = g.conductance * np.diff(a) * np.diff(b) / g.weight_mass
        assert ef.dirichlet_form(g, a, b) == math.fsum(terms.tolist())
