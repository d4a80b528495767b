import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from summa import accumulation
from summa.accumulation import compensated_cumsum, compensated_sums_at

B = accumulation._BLOCK


def neumaier_loop(values):
    """Per-element Neumaier running sums: the reference the vectorized
    ``compensated_cumsum`` must reproduce bit for bit."""
    arr = np.asarray(values, dtype=np.float64)
    out = np.empty(arr.size, dtype=np.float64)
    total = 0.0
    comp = 0.0
    for i, x in enumerate(arr.tolist()):
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
        out[i] = total + comp
    return out


def bits(arr):
    """int64 view with every NaN mapped to one pattern.

    Which operand's NaN an addition propagates (and so its sign bit) is not
    fixed even within one numpy call: the SIMD body and the scalar tail of
    ``np.add`` disagree.  NaN positions are compared, NaN payloads are not.
    """
    arr = np.array(arr, dtype=np.float64)
    arr[np.isnan(arr)] = np.nan
    return arr.view(np.int64)


def assert_matches_reference(values):
    values = np.asarray(values, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = compensated_cumsum(values)
    assert got.dtype == np.float64
    assert got.shape == (values.size,)
    ref = neumaier_loop(values)
    np.testing.assert_array_equal(bits(got), bits(ref))
    assert_sampled_matches(values, ref)


def assert_sampled_matches(values, ref):
    """``compensated_sums_at`` against the loop's sums at a spread of
    checkpoints: the first, the last, and every block edge in between."""
    if not ref.size:
        return
    block = accumulation._BLOCK
    edges = np.arange(0, ref.size + block, block)
    idx = np.unique(np.clip(np.concatenate(
        ([0, ref.size - 1], edges - 1, edges, edges + 1)), 0, ref.size - 1))
    # np.maximum, unlike Python's max, propagates NaN
    peak = np.maximum.accumulate(ref)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at = compensated_sums_at(values, idx + 1)
        at_max = compensated_sums_at(values, idx + 1, running_max=True)
    np.testing.assert_array_equal(bits(at), bits(ref[idx]))
    np.testing.assert_array_equal(bits(at_max), bits(peak[idx]))


spread = st.builds(math.ldexp,
                   st.floats(-1.0, 1.0, allow_nan=False),
                   st.integers(-200, 200))
specials = st.sampled_from([math.inf, -math.inf, math.nan, -0.0])


@st.composite
def alternating(draw):
    mags = draw(st.lists(spread.map(abs), max_size=60))
    return [m if i % 2 == 0 else -m for i, m in enumerate(mags)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(spread, max_size=80),
    alternating(),
    st.lists(st.one_of(spread, specials), max_size=80),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=80),
))
def test_bit_identical_to_neumaier_loop(values):
    assert_matches_reference(values)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 1000, 10_007])
def test_bit_identical_on_long_inputs(n):
    # long enough to cover numpy's vector bodies, not just scalar tails
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-200, 201, n))
    x[1::2] = -np.abs(x[::2][: x[1::2].size])  # pairs that nearly cancel
    assert_matches_reference(x)
    if n >= 64:
        x[rng.integers(0, n, 4)] = [math.inf, -math.inf, math.nan, -0.0]
        assert_matches_reference(x)


def test_numpy_accumulate_is_left_to_right():
    # 1 + 2**-53 rounds back to 1 at every step only when the adds go
    # strictly left to right; any pairwise or blocked order reaches 1 + k ulp
    x = np.full(1024, 2.0 ** -53)
    x[0] = 1.0
    assert np.add.accumulate(x).tolist() == [1.0] * x.size



@pytest.mark.parametrize("stop", [1, 5, B, 3 * B + 7])
def test_indices_match_arange(stop):
    # one reused buffer gives the floats np.arange gives, block by block,
    # and in the last block whose arange bounds are exact, up to 2**53 - 1
    indices = accumulation._indices(stop)
    size = min(B, stop)
    for lo in [*range(0, stop, size), 2 ** 53 - size - 1]:
        hi = min(lo + size, max(stop, lo + size))
        assert (indices(lo, hi).tobytes()
                == np.arange(lo + 1.0, hi + 1.0).tobytes())


def specials_at_edges(x):
    """A copy of x with -0.0, ±inf and NaN placed on and next to the block
    edges."""
    x = x.copy()
    n = x.size
    for edge, special in zip(range(B, n + 2, B), (-0.0, math.inf, math.nan)):
        at = np.arange(edge - 2, edge + 2)
        x[at[at < n]] = np.array([special, -0.0, special, -special])[at < n]
    return x


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_bit_identical_across_block_edges(k, offset):
    n = k * B + offset
    # finite terms of mixed scale carry a running total and compensation
    # over every edge; the specials then poison them on, before and after
    # an edge
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-60, 61, n))
    assert_matches_reference(x)
    assert_matches_reference(specials_at_edges(x))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.one_of(
    st.lists(spread, max_size=40),
    alternating(),
    st.lists(st.one_of(spread, specials), max_size=40),
))
def test_bit_identical_at_any_block_size(block, values):
    # every short input then crosses several block edges
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(accumulation, "_BLOCK", block)
        assert_matches_reference(values)


# values where a TwoSum step can overflow although the loop's sum does not
# (Boldo, Graillat and Muller, ACM TOMS 44, 2017), or meets an inf or NaN.
# Odd multiples of 2**970, half an ulp of DBL_MAX, added to +-DBL_MAX make
# the rounding ties after which total - prev overflows; ``ties`` draws
# only those, since few lists of the other values hit one
_DBL_MAX = np.finfo(np.float64).max
near_overflow = st.sampled_from([
    s * v for s in (1.0, -1.0)
    for v in (_DBL_MAX, _DBL_MAX / 2, 1.7e308,
              *(c * math.ldexp(1.0, 970) for c in (1, 2, 3, 5, 7)),
              math.inf, 5e-324, math.ldexp(1.0, -1060), 0.0)] + [math.nan])
ties = st.sampled_from([s * v for s in (1.0, -1.0) for v in (
    _DBL_MAX, *(c * math.ldexp(1.0, 970) for c in (1, 3, 5, 7)))])


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 8), st.one_of(
    st.lists(near_overflow, max_size=12),
    st.lists(ties, max_size=8),
    st.lists(st.one_of(near_overflow, spread), max_size=24),
))
# -3 * 2**970 + DBL_MAX is a tie that rounds up, and then so does
# total - prev: TwoSum overflows where the loop's correction is -2**970
@example(2, [-(2.0 ** 970)] * 3 + [_DBL_MAX])
def test_guarded_two_sum_near_overflow(block, values):
    # the guard redoes exactly the blocks whose TwoSum steps went
    # non-finite; without it the sums differ from the loop's
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(accumulation, "_BLOCK", block)
        assert_matches_reference(values)


class TestSampledSums:
    N = 2 * B + 4097

    def terms(self):
        rng = np.random.default_rng(7)
        return np.abs(rng.standard_normal(self.N)) * 1e-3

    def test_matches_full_array_formulas(self):
        x = self.terms()
        idx = np.array([0, 1, B - 2, B - 1, B, B + 1, 2 * B, self.N - 1])
        full = compensated_cumsum(x)
        np.testing.assert_array_equal(bits(compensated_sums_at(x, idx + 1)),
                                      bits(full[idx]))
        np.testing.assert_array_equal(
            bits(compensated_sums_at(x, idx + 1, running_max=True)),
            bits(np.maximum.accumulate(full)[idx]))

    def test_callable_terms_match_array_terms(self):
        x = self.terms()
        idx = np.array([3, B + 5, self.N - 1])
        seen = []

        def fill(lo, hi, out):
            seen.append((lo, hi))
            out[:] = x[lo:hi]
            return out

        got = compensated_sums_at(fill, idx + 1, running_max=True)
        np.testing.assert_array_equal(
            bits(got), bits(np.maximum.accumulate(compensated_cumsum(x))[idx]))
        assert seen == [(0, B), (B, 2 * B), (2 * B, self.N)]

    def test_stops_at_last_index(self):
        def fill(lo, hi, out):
            assert hi <= B + 1
            out[:] = 1.0
            return out

        assert compensated_sums_at(fill, [B + 1]).tolist() == [B + 1.0]

    def test_overflow_mid_block(self):
        # the sums overflow in the middle of the second block and stay
        # non-finite; the running max follows the reference's np.maximum,
        # not Python's max, which would drop a NaN
        x = self.terms()
        x[B + 100:B + 102] = 1.7e308
        idx = np.array([B - 1, B + 99, B + 100, B + 101, self.N - 1])
        full = compensated_cumsum(x)
        assert np.isfinite(full[B + 100])
        assert not np.any(np.isfinite(full[B + 101:]))
        np.testing.assert_array_equal(bits(compensated_sums_at(x, idx + 1)),
                                      bits(full[idx]))
        np.testing.assert_array_equal(
            bits(compensated_sums_at(x, idx + 1, running_max=True)),
            bits(np.maximum.accumulate(full)[idx]))

    def test_no_checkpoints(self):
        assert compensated_sums_at(np.ones(3), []).shape == (0,)

    @pytest.mark.parametrize("cps", [[0], [2, 2], [3, 1], [4]])
    def test_bad_checkpoints(self, cps):
        with pytest.raises(ValueError):
            compensated_sums_at(np.ones(3), cps)
