"""Exact rational reference for ``cesaro_t`` at a few sampled indices.

t_m = (1/A_m^alpha) * sum_(v=1..m) A_(m-v)^(alpha-1) * v * x_v, evaluated on
the float inputs taken as exact dyadic rationals, so the measured error is
the transform's own and not the rounding of its input.  The coefficients
come from ``summa.oracle``; at alpha = 1 the kernel A^0 is identically 1
and A_m^1 = m + 1, so that case skips building a million-entry table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np
from summa.oracle import rational_cesaro_coefficients


def _scaled_integers(x: np.ndarray) -> tuple[list[int], int]:
    """Integers X and a shift D with x_v = X_v / 2**D exactly."""
    nonzero = x[x != 0.0]
    if nonzero.size == 0:
        return [0] * x.size, 0
    _, exps = np.frexp(nonzero)
    shift = int(53 - exps.min())
    if int(exps.max()) + shift > 1000:
        raise ValueError("input magnitudes span too many binades for one scale")
    return [int(v) for v in np.ldexp(x, shift).tolist()], shift


def _kernel_integers(alpha: Fraction, n_max: int) -> tuple[list[int], int]:
    """Integers K_j and a scale L with A_j^(alpha-1) = K_j / L for j <= n_max."""
    kernel = rational_cesaro_coefficients(alpha - 1, n_max)
    scale = math.lcm(*(k.denominator for k in kernel))
    return [k.numerator * (scale // k.denominator) for k in kernel], scale


def exact_t(x: np.ndarray, alpha: float, indices) -> dict[int, Fraction]:
    """Exact t_m^alpha of (x_1, x_2, ...) for each m in ``indices``."""
    x = np.asarray(x, dtype=np.float64)
    ints, shift = _scaled_integers(x)
    terms = [v * xi for v, xi in enumerate(ints, start=1)]  # v * x_v * 2**D
    a = Fraction(alpha)
    out = {}
    if a == 1:
        total, done = 0, 0
        for m in sorted(set(indices)):
            total += sum(terms[done:m])
            done = m
            out[m] = Fraction(total, (m + 1) << shift)
        return out
    last = max(indices)
    kernel, scale = _kernel_integers(a, last - 1)
    denom = rational_cesaro_coefficients(a, last)
    for m in sorted(set(indices)):
        numer = sum(map(mul, reversed(kernel[:m]), terms[:m]))
        out[m] = Fraction(numer, scale << shift) / denom[m]
    return out


def max_rel_error(approx, exact: dict[int, Fraction]) -> float:
    """max over m of |approx[m] - exact[m]| / |exact[m]|; ``approx`` maps m -> float."""
    worst = 0.0
    for m, e in exact.items():
        err = abs(Fraction(float(approx[m])) - e)
        if e == 0:
            rel = 0.0 if err == 0 else math.inf
        else:
            rel = float(err / abs(e))
        worst = max(worst, rel)
    return worst
