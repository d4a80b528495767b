import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summa.accumulation import compensated_cumsum


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
    np.testing.assert_array_equal(bits(got), bits(neumaier_loop(values)))


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

