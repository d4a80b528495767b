import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summa.rendering import render_number, render_rows


def ref_render_number(x):
    """The exponent-search formatter: the reference ``render_number`` must
    reproduce string for string."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot render non-finite value {x!r}")
    if x == 0.0:
        return "0"
    mag = abs(x)
    if mag < 1e-4 or mag >= 1e16:
        return f"{x:.16e}"
    exponent = math.floor(math.log10(mag))
    # log10 can land one off right at a power-of-ten boundary
    if 10.0 ** exponent > mag:
        exponent -= 1
    elif 10.0 ** (exponent + 1) <= mag:
        exponent += 1
    decimals = max(0, 16 - exponent)
    return f"{x:.{decimals}f}"


def _near_powers_of_ten(ulps=3):
    out = []
    for e in range(-6, 18):
        x = float(f"1e{e}")
        below = above = x
        near = [x]
        for _ in range(ulps):
            below = math.nextafter(below, 0.0)
            above = math.nextafter(above, math.inf)
            near += [below, above]
        out += near + [-v for v in near]
    return out


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min,
               math.nextafter(sys.float_info.min, 0.0), sys.float_info.max,
               -sys.float_info.max, 1.0, -1.0, 0.1, 1 / 3, 2.0 ** 53,
               *_near_powers_of_ten()]


def test_edge_values_match_reference():
    assert [render_number(x) for x in EDGE_VALUES] == [
        ref_render_number(x) for x in EDGE_VALUES]


@settings(max_examples=1000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_any_finite_double_matches_reference(x):
    assert render_number(x) == ref_render_number(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_raises(x):
    with pytest.raises(ValueError, match="cannot render non-finite value"):
        render_number(x)


def ref_rows(index, columns):
    """``render_rows``'s bytes, one ``render_number`` call per cell."""
    rows = len(index)
    lines = []
    for i, n in enumerate(index):
        cells = [str(n)]
        for col in columns:
            skip = rows - (0 if col is None else len(col))
            cells.append("" if i < skip else render_number(col[i - skip]))
        lines.append(",".join(cells) + "\n")
    return "".join(lines).encode()


def kernel_cells(values):
    """The cells ``render_rows`` writes for ``values``, one per row."""
    text = render_rows(np.arange(len(values)), [np.array(values, float)])
    return [line.split(",")[1] for line in text.decode().splitlines()]


# 2**k + j/8 for k = 40..52: the 17-digit roundings of these fall on ties
# (2**48 + 1/8 = 281474976710656.125 reads ...656.12) and near them
DYADIC_TIES = [sign * (2.0 ** k + j / 8) for k in range(40, 53)
               for j in range(-64, 65) for sign in (1.0, -1.0)]

_SUBNORMALS = st.builds(lambda m, sign: sign * m * 5e-324,
                        st.integers(1, 2 ** 52 - 1),
                        st.sampled_from([1.0, -1.0]))
_TIES = st.builds(lambda k, j, sign: sign * (2.0 ** k + j / 8),
                  st.integers(40, 52), st.integers(-1024, 1024),
                  st.sampled_from([1.0, -1.0]))
_DOUBLES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from(EDGE_VALUES), st.sampled_from([0.0, -0.0]),
                     _SUBNORMALS, _TIES)


def test_kernel_edge_values_and_ties():
    values = EDGE_VALUES + DYADIC_TIES
    assert kernel_cells(values) == [render_number(x) for x in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(_DOUBLES, min_size=1, max_size=64))
def test_kernel_matches_render_number(values):
    assert kernel_cells(values) == [render_number(x) for x in values]


@st.composite
def _tables(draw):
    """An index and 1..4 columns over the same rows, each column absent
    or shorter than the index (its leading cells blank), mixing fixed,
    zero and scientific cells."""
    rows = draw(st.integers(1, 24))
    index = draw(st.lists(st.integers(0, 2 ** 53), min_size=rows,
                          max_size=rows))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.none() | st.integers(0, rows))
        columns.append(None if size is None else np.array(
            draw(st.lists(_DOUBLES, min_size=size, max_size=size)), float))
    return index, columns


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_rows_match_reference(table):
    index, columns = table
    assert render_rows(np.array(index), columns) == ref_rows(index, columns)


def test_mixed_block():
    column = np.array([1.5, 0.0, 1e-5, -2e16, -0.0, 123.25, 5e-324, -1e-4])
    zeros = np.zeros(5)
    index = [0, 9, 10, 99, 100, 12345, 2 ** 53 - 1, 2 ** 53]
    text = render_rows(np.array(index), [column, None, zeros])
    assert text == ref_rows(index, [column, None, zeros])
    assert text.splitlines()[:2] == [b"0,1.5000000000000000,,", b"9,0,,"]


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_kernel_non_finite_raises(x):
    with pytest.raises(ValueError,
                       match=f"cannot render non-finite value {x!r}"):
        render_rows(np.arange(3), [np.array([1.0, x, 2.0])])
