"""Cesaro means of fractional order.

For order alpha > -1 the binomial coefficients A_n^alpha are defined by
A_0^alpha = 1 and the recurrence A_n^alpha = A_(n-1)^alpha * (n + alpha) / n,
equivalently the product of (alpha + j)/j over j = 1..n.  The two transforms
computed here are

    sigma_n^alpha = (1/A_n^alpha) * sum_(v=0..n) A_(n-v)^(alpha-1) * s_v
    t_n^alpha     = (1/A_n^alpha) * sum_(v=1..n) A_(n-v)^(alpha-1) * v * a_v

with s_v the partial sums of (a_v).  sigma is the order-alpha mean of the
partial sums, t the order-alpha mean of the sequence (n * a_n).  For
0 < alpha <= 1 the maximal sequence w_n^alpha is |t_n^alpha| at alpha = 1 and
the running maximum of |t_v^alpha| over v <= n for fractional alpha.

Everything here is double precision; alpha = 1 collapses to O(N) compensated
cumulative sums since the kernel A^0 is identically 1.  Fractional orders
take the direct O(N^2) sums, and each inner sum
sum_(i=0..n) kernel[n-i] * x[i] is the exactly rounded sum of its IEEE
products: bit-identical to ``math.fsum`` over those products, including
the exceptions fsum raises.  A blocked numpy kernel gets there without a
per-index Python loop.  Rows of the Toeplitz product are summed in blocks
with ``np.add.accumulate``; the exact rounding error of every addition
(Knuth's TwoSum) gives sum = hi + sum(errors) exactly, and a rounding
certificate (Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM
J. Sci. Comput. 26, 2005) accepts hi + lo only when the error bound on lo
keeps the exact sum strictly inside the rounding interval of the result.
Rows it cannot certify (ties or near-ties, zero sums, non-finite values,
magnitudes near overflow) fall back to ``math.fsum``, in ascending row
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .accumulation import compensated_cumsum
from .sequences import RealSequence

__all__ = [
    "cesaro_coefficients",
    "cesaro_sigma",
    "cesaro_t",
    "w_sequence",
    "CesaroTransforms",
    "compute_transforms",
]


def _binomial_weights(order: float, n_max: int) -> np.ndarray:
    """A_0^order .. A_n_max^order by the defining recurrence, any real order.

    Orders <= -1 are only ever used internally for the sigma/t kernels of
    public orders in (-1, 0]; order -1 is the degenerate kernel (1, 0, 0, ...).
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    out = np.empty(n_max + 1, dtype=np.float64)
    out[0] = 1.0
    if n_max >= 1:
        j = np.arange(1, n_max + 1, dtype=np.float64)
        out[1:] = np.cumprod((order + j) / j)
    return out


def cesaro_coefficients(alpha: float, n_max: int) -> np.ndarray:
    """Coefficients A_0^alpha .. A_n_max^alpha; requires alpha > -1.

    All entries are positive for alpha > -1 since every recurrence factor
    (alpha + j)/j is positive.
    """
    if not math.isfinite(alpha) or alpha <= -1.0:
        raise ValueError("alpha must be a finite number greater than -1")
    return _binomial_weights(float(alpha), n_max)


# Elements per block temporary (256 KiB of float64): small enough that the
# block's working set stays in cache, large enough that numpy call overhead
# is a few per cent of the time.
_BLOCK_ELEMENTS = 1 << 15
# w * 2**-51 is four times gamma_w = w*u/(1 - w*u) with u = 2**-53 for any
# practical w: a factor two covers the rounding of the computed sum of
# |errors|, a factor two the rounding of the acceptance comparison.
_BOUND_PER_TERM = math.ldexp(1.0, -51)
# Rows whose sum of |products| stays below this never overflow in the
# running sums, in TwoSum or in fsum's partials, and their result has finite
# neighbours on both sides.
_MAGNITUDE_LIMIT = math.ldexp(1.0, 1020)


def _kernel_dot_prefixes(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[n] = sum_(i=0..n) kernel[n-i] * x[i], each exactly rounded.

    Bit-identical to ``math.fsum`` over the products of each row, and raises
    what the first raising row's fsum raises.
    """
    size = x.size
    out = np.empty(size, dtype=np.float64)
    # toeplitz[n, i] = kernel[n - i] for i <= n and 0 beyond: a strided view
    # of the reversed kernel followed by zeros
    padded = np.zeros(2 * size - 1)
    padded[:size] = kernel[size - 1::-1]
    toeplitz = sliding_window_view(padded, size)[::-1]
    cap = max(_BLOCK_ELEMENTS, size + 1)
    prod_buf, run_buf, tmp_buf, err_buf = (np.empty(cap) for _ in range(4))
    with np.errstate(over="ignore", invalid="ignore"):
        # one bound for every row, per row only when it fails
        all_small = (float(np.max(np.abs(kernel[:size])))
                     * float(np.max(np.abs(x))) * size) < _MAGNITUDE_LIMIT
    n0 = 0
    while n0 < size:
        # rows n0..n1-1, each padded to width n1, with a leading zero
        # column for the running sums: rows * (n1 + 1) <= cap
        rows = (math.isqrt((n0 + 1) ** 2 + 4 * cap) - (n0 + 1)) // 2
        rows = max(1, min(size - n0, rows))
        n1 = width = n0 + rows
        m = rows * width
        with np.errstate(all="ignore"):
            p = np.multiply(toeplitz[n0:n1, :width], x[:width],
                            out=prod_buf[:m].reshape(rows, width))
            run = run_buf[: rows * (width + 1)].reshape(rows, width + 1)
            run[:, 0] = 0.0
            np.add.accumulate(p, axis=1, out=run[:, 1:])
            prev, s = run[:, :-1], run[:, 1:]
            # TwoSum: err = (prev + p) - s exactly, since s = fl(prev + p)
            b = np.subtract(s, prev, out=tmp_buf[:m].reshape(rows, width))
            err = np.subtract(s, b, out=err_buf[:m].reshape(rows, width))
            np.subtract(prev, err, out=err)
            err += np.subtract(p, b, out=b)
            # the row sum is hi + sum(err) exactly; lo is that sum rounded
            hi = run[:, -1]
            lo = err.sum(axis=1)
            bound = np.abs(err, out=err).sum(axis=1)
            bound *= width * _BOUND_PER_TERM
            # r + res = hi + lo exactly
            r = hi + lo
            z = r - hi
            res = (hi - (r - z)) + (lo - z)
            # half the gap to each neighbour of r
            up = np.nextafter(r, np.inf) - r
            up *= 0.5
            down = r - np.nextafter(r, -np.inf)
            down *= 0.5
            # zero sums go to fsum, which decides the sign of zero
            ok = ((bound < up - res) & (bound < down + res) & (r != 0.0)
                  & (np.abs(r) < _MAGNITUDE_LIMIT))
            if not all_small:
                ok &= np.max(np.abs(p), axis=1) * width < _MAGNITUDE_LIMIT
        out[n0:n1] = r
        for n in (n0 + np.flatnonzero(~ok)).tolist():
            out[n] = math.fsum((kernel[n::-1] * x[: n + 1]).tolist())
        n0 = n1
    return out


def cesaro_sigma(a: RealSequence, alpha: float) -> RealSequence:
    """Order-alpha Cesaro means sigma_0^alpha .. sigma_N^alpha of the partial sums.

    The input must start at index 0 (the means involve s_0 = a_0).
    """
    if a.start_index != 0:
        raise ValueError("cesaro_sigma requires a sequence starting at index 0")
    if not math.isfinite(alpha) or alpha <= -1.0:
        raise ValueError("alpha must be a finite number greater than -1")
    s = compensated_cumsum(a.values)
    if alpha == 1.0:
        # Kernel A^0 is all ones: sigma is the arithmetic mean of s_0..s_n.
        numer = compensated_cumsum(s)
        sigma = numer / np.arange(1.0, s.size + 1.0)
    else:
        kernel = _binomial_weights(alpha - 1.0, s.size - 1)
        denom = cesaro_coefficients(alpha, s.size - 1)
        sigma = _kernel_dot_prefixes(kernel, s) / denom
    return RealSequence(start_index=0, values=sigma)


def cesaro_t(a: RealSequence, alpha: float) -> RealSequence:
    """Order-alpha means t_1^alpha .. t_N^alpha of the sequence (n * a_n).

    Accepts input starting at index 0 (a_0 is ignored: the defining sum runs
    from v = 1) or at index 1.
    """
    if a.start_index not in (0, 1):
        raise ValueError("cesaro_t requires a sequence starting at index 0 or 1")
    if not math.isfinite(alpha) or alpha <= -1.0:
        raise ValueError("alpha must be a finite number greater than -1")
    n_last = a.end_index
    if n_last < 1:
        raise ValueError("cesaro_t needs at least one term with index >= 1")
    tail = a.range_view(1, n_last)
    x = tail * np.arange(1.0, n_last + 1.0)
    if alpha == 1.0:
        numer = compensated_cumsum(x)
        t = numer / np.arange(2.0, n_last + 2.0)
    else:
        kernel = _binomial_weights(alpha - 1.0, n_last - 1)
        denom = cesaro_coefficients(alpha, n_last)[1:]
        t = _kernel_dot_prefixes(kernel, x) / denom
    return RealSequence(start_index=1, values=t)


def w_sequence(t: RealSequence, alpha: float) -> RealSequence:
    """Maximal sequence w_n^alpha built from t: defined for 0 < alpha <= 1 only.

    alpha = 1:        w_n = |t_n|
    0 < alpha < 1:    w_n = max_(v<=n) |t_v|   (non-decreasing, >= |t_n|)
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("w is defined for 0 < alpha <= 1 only")
    if t.start_index != 1:
        raise ValueError("w expects a t-sequence starting at index 1")
    mags = np.abs(t.values)
    if alpha == 1.0:
        w = mags
    else:
        w = np.maximum.accumulate(mags)
    return RealSequence(start_index=1, values=w)


@dataclass(frozen=True)
class CesaroTransforms:
    """Bundle of all order-alpha transforms of one input prefix.

    ``w`` is None outside 0 < alpha <= 1, where the maximal sequence is not
    defined.
    """

    alpha: float
    coefficients: np.ndarray
    sigma: RealSequence
    t: RealSequence
    w: RealSequence | None


def compute_transforms(a: RealSequence, alpha: float) -> CesaroTransforms:
    """sigma, t, w (where defined) and the coefficient table for one input."""
    if a.start_index != 0:
        raise ValueError("compute_transforms requires a sequence starting at index 0")
    coeffs = cesaro_coefficients(alpha, a.end_index)
    sigma = cesaro_sigma(a, alpha)
    t = cesaro_t(a, alpha)
    w = w_sequence(t, alpha) if 0.0 < alpha <= 1.0 else None
    return CesaroTransforms(alpha=float(alpha), coefficients=coeffs,
                            sigma=sigma, t=t, w=w)
