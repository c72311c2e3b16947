"""The batched quadrature sum gives each row exactly the double math.fsum gives."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entroflow.grid import _fsum_rows

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

ordinary = st.builds(
    lambda m, k: m * 10.0**k,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(-30, 30),
)
# rows that leave the extraction passes for math.fsum: all zeros, non-finite
# entries, a first sigma that would overflow (k > 1022) and remainders whose
# grid would fall below the subnormal spacing (k < -1021)
fallback = st.sampled_from(["zeros", "nan", "inf", "-inf", "huge", "subnormal"])


def _row(kind, n, rng):
    if kind == "ordinary":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    if kind == "zeros":
        return np.where(rng.random(n) < 0.5, 0.0, -0.0)
    if kind == "subnormal":
        return rng.integers(-(2**40), 2**40, n) * 5e-324
    row = rng.standard_normal(n)
    row[int(rng.integers(n))] = 1.5e308 if kind == "huge" else float(kind)
    return row


def _same_as_fsum(rows):
    want = [math.fsum(r.tolist()) for r in rows]
    got = _fsum_rows(rows.copy(), np.empty_like(rows))
    assert [x.hex() for x in got] == [x.hex() for x in want]


@PROPERTY
@given(st.lists(st.one_of(st.just("ordinary"), fallback), min_size=1, max_size=6),
       st.integers(1, 300), st.integers(0, 2**32 - 1))
@example(["ordinary", "zeros", "nan", "huge", "subnormal", "ordinary"], 2000, 0)
@example(["subnormal", "ordinary"], 1, 1)
def test_mixed_rows_match_fsum(kinds, n, seed):
    rng = np.random.default_rng(seed)
    _same_as_fsum(np.stack([_row(kind, n, rng) for kind in kinds]))


@PROPERTY
@given(st.lists(st.lists(ordinary, min_size=5, max_size=5), min_size=1, max_size=5))
def test_rows_settling_after_different_passes(values):
    # the exact cancellation in the second half forces extra passes on some rows
    rows = np.array([v + [-x for x in v[:2]] + [2.0**-1000] for v in values])
    _same_as_fsum(rows)


def test_empty_rows_sum_to_zero():
    assert _fsum_rows(np.empty((3, 0)), np.empty((3, 0))) == [0.0, 0.0, 0.0]


def test_remainders_below_the_subnormal_grid_after_a_pass():
    # the first pass cancels 1 and -1 exactly; the subnormal remainders that
    # are left need a sigma below 2^-1021 and go to math.fsum
    tiny = [2.0**-1060, 3 * 2.0**-1070, -(2.0**-1074)]
    _same_as_fsum(np.array([[1.0, -1.0] + tiny, [1.0, 0.5] + tiny]))
