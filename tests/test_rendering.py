import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summa.rendering import render_number


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
