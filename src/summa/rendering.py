"""Deterministic number rendering for report and trace files.

Floats are written with 17 significant digits, which round-trips every
double exactly and keeps diffs stable across runs.  Values with magnitude
below 1e-4 or at least 1e16 switch to lowercase scientific notation.
"""

from __future__ import annotations

import math

__all__ = ["render_number"]


def render_number(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot render non-finite value {x!r}")
    if x == 0.0:
        return "0"
    if 1e-4 <= abs(x) < 1e16:
        # '#' keeps trailing zeros: 17 significant digits, fixed point
        return f"{x:#.17g}"
    return f"{x:.16e}"
