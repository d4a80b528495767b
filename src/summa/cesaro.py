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
per-index Python loop.  Each row of the Toeplitz product gets one
error-free extraction (ExtractVector of Rump, Ogita and Oishi, "Accurate
floating-point summation part I: faithful rounding", SIAM J. Sci. Comput.
31, 2008): with sigma a power of two well above the row's largest
product, the high parts q = (p + sigma) - sigma sum exactly in any order,
and the residuals p - q are exact and tiny, so their floating-point sum has
an a-priori error bound.  A rounding certificate (Ogita, Rump and Oishi,
"Accurate sum and dot product", SIAM J. Sci. Comput. 26, 2005) accepts the
rounded sum of the two parts only when that bound keeps the exact sum
strictly inside the rounding interval of the result.  The bound grows like
width**3 times the largest product, so from widths of about 2**16 on it
fails rows whose sum is not far above their largest product; those rows
get a second extraction, of their residuals, and a second certificate.
Correct rounding is unique, so a certified row equals fsum's result
whatever order numpy sums in.  Rows neither certificate accepts (ties or
near-ties, zero or subnormal sums, non-finite values, magnitudes near
overflow) fall back to ``math.fsum``, in ascending row order.
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


# Elements per block buffer (512 KiB of float64, two buffers): large enough
# that numpy call overhead is a few per cent of the time, small enough that
# both buffers stay in a 2 MiB L2 cache.  At n = 4096 on a 2-core Xeon host,
# 2**15 and 2**17 were each about 10 % slower.
_BLOCK_ELEMENTS = 1 << 16


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(a + b) and the error e with s + e = a + b exactly (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _extract(p: np.ndarray, buf: np.ndarray) -> tuple[np.ndarray, ...]:
    """One error-free extraction per row of p: (tau, lo, bound).

    tau is the exact sum of the row's high parts, lo the floating-point sum
    of its residuals, which overwrite p, and bound is at least twice the
    error of lo.  buf (the shape of p) holds the high parts.
    """
    width = p.shape[1]
    # sigma = 2**s per row with max|p| < 2**(s - extra) (frexp gives
    # max|p| < 2**e, subnormals and powers of two included) and
    # 2**extra >= width + 2
    pmax = np.maximum(p.max(axis=1), -p.min(axis=1))
    s = np.frexp(pmax)[1] + (width + 1).bit_length()
    sigma = np.ldexp(1.0, s)[:, None]
    # |p| <= sigma/4, so q = fl(sigma + p) - sigma is exact (Sterbenz) and a
    # multiple of ulp(sigma)/2, and sum|q| < sigma: every partial sum of q
    # is a float, so tau is exact in any order.  p - q is the rounding
    # error of sigma + p: exact, and at most ulp(sigma)/2
    q = np.add(p, sigma, out=buf)
    q -= sigma
    tau = q.sum(axis=1)
    lo = np.subtract(p, q, out=p).sum(axis=1)
    # any-order float sum of width terms of at most ulp(sigma)/2:
    # |error of lo| <= gamma_(width-1) * width * 2**(s - 53)
    # < width**2 * 2**(s - 106) for width < 2**26, and the error is a
    # multiple of 2**-1074.  bound is four times that; ldexp rounding below
    # the normal range takes at most half of it, and a bound below 2**-1074
    # means lo is exact
    return tau, lo, np.ldexp(float(width * width), s - 104)


def _round(tau: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r = fl(tau + lo), and the margin of the rounding certificate.

    Where the exact sum lies within bound / 2 of tau + lo and
    bound < margin, r is the exactly rounded sum: margin is how far tau + lo
    lies inside the rounding interval of r, and the factor two covers its
    rounding.
    """
    r, res = _two_sum(tau, lo)
    # half the gap to each neighbour of r
    up = np.nextafter(r, np.inf) - r
    up *= 0.5
    down = r - np.nextafter(r, -np.inf)
    down *= 0.5
    # No other test is needed.  A sum of zero, or below 2**-1021, has
    # half-gaps that round to 0, and so margin 0, and fsum decides the sign
    # of zero.  A non-finite product makes q or p - q NaN, and so r.  Where
    # sigma overflows (s >= 1024) every q is NaN; where it does not,
    # sum|p| < 2**1023, so neither fsum's partials nor r and its neighbours
    # overflow.
    return r, np.minimum(up - res, down + res)


def _row_sums(p: np.ndarray, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of p, and where they are exactly rounded for certain.

    p is overwritten; buf (the shape of p) is scratch.  Call under
    ``np.errstate(all="ignore")``.
    """
    tau, lo, bound = _extract(p, buf)
    r, margin = _round(tau, lo)
    ok = bound < margin
    # The bound of one extraction grows like width**3 * max|p|: from a width
    # of about 2**16 on it fails rows whose sum is not far above their
    # largest product.  Those rows get a second extraction, of their
    # residuals (each at most 2**-53 * sigma).  Its own bound is at most
    # about width * 2**-51 times the first, and the rounding error e of
    # rho = fl(tau2 + lo2) is at most ulp(rho) / 2, with
    # |rho| <= width * 2**-53 * sigma.  Rows with margin 0 (parts that add
    # to a midpoint, mostly exact ties, which no certificate accepts, and
    # sums below 2**-1021) and non-finite rows go straight to fsum.
    bad = np.flatnonzero(~ok & (margin > 0))
    if bad.size:
        # the exact sum is tau + tau2 + the exact sum of the new residuals,
        # and rho + e = tau2 + lo2
        tau2, lo2, bound2 = _extract(p[bad], buf[:bad.size])
        rho, e = _two_sum(tau2, lo2)
        # so it lies within bound2 / 2 + |e| of tau + rho; the certificate
        # wants twice that, and twice again covers the rounding here
        r[bad], margin = _round(tau[bad], rho)
        ok[bad] = 2.0 * bound2 + 4.0 * np.abs(e) < margin
    return r, ok


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
    cap = max(_BLOCK_ELEMENTS, size)
    prod_buf, high_buf = np.empty(cap), np.empty(cap)
    n0 = 0
    while n0 < size:
        # rows n0..n1-1, each padded to width n1: rows * n1 <= cap
        rows = (math.isqrt(n0 * n0 + 4 * cap) - n0) // 2
        rows = max(1, min(size - n0, rows))
        n1 = width = n0 + rows
        m = rows * width
        with np.errstate(all="ignore"):
            p = np.multiply(toeplitz[n0:n1, :width], x[:width],
                            out=prod_buf[:m].reshape(rows, width))
            r, ok = _row_sums(p, high_buf[:m].reshape(rows, width))
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
