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
cumulative sums since the kernel A^0 is identically 1.  The coefficients are
a compensated product, within about half an ulp of the exact one.

Fractional orders convolve in O(N log N), and each inner sum
sum_(i=0..n) kernel[n-i] * x[i] is the exact sum of the products of the
float operands, rounded once.  Each operand is split exactly into signed
b-bit integer slices, each slice is transformed once (``rfft``), the slice
pairs of equal weight are multiplied and added in frequency space, and each
such group, transformed back and rounded to the nearest integer, is its
exact integer convolution (float-FFT integer multiplication: C. Percival,
"Rapid multiplication modulo the sum and difference of highly composite
numbers", Math. Comp. 72, 2003).  A row's groups form one Python integer,
which int division rounds once, ties to even, so the output does not depend
on how the FFT rounds.  A non-finite operand raises ``ValueError``, and a
row whose exact sum lies beyond the float range raises ``OverflowError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

_EPS = 2.0 ** -53
# rows rounded per batch of Python ints, which bounds the memory they take
_ROW_CHUNK = 1 << 16


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = fl(a * b) and e with p + e = a * b exactly (Dekker, with each
    factor split into halves of 26 bits by Veltkamp's 2**27 + 1); exact
    while |a|, |b| stay below about 2**996 and nothing underflows."""
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _binomial_weights(order: float, n_max: int) -> np.ndarray:
    """A_0^order .. A_n_max^order by the defining product, any real order.

    Orders <= -1 are only ever used internally for the sigma/t kernels of
    public orders in (-1, 0]; order -1 is the degenerate kernel (1, 0, 0, ...).
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    out = np.empty(n_max + 1, dtype=np.float64)
    out[0] = 1.0
    if n_max >= 1:
        j = np.arange(1.0, n_max + 1.0)
        with np.errstate(all="ignore"):
            # the factor (order + j) / j is f * (1 + d): s + es = order + j
            # (TwoSum), and s - f * j is exact, the remainder of the division
            s = order + j
            z = s - order
            es = (order - (s - z)) + (j - z)
            f = s / j
            hi, lo = _two_product(f, j)
            d = ((s - hi) - lo + es) / (f * j)
            # step j rounds p_(j-1) * f_j = p_j + e_j, so the exact product
            # is p_n * prod(1 + e_j / p_j) * prod(1 + d_j); the products of
            # the small terms are their sums to far below an ulp
            p = np.cumprod(f)
            e = _two_product(np.concatenate(([1.0], p[:-1])), f)[1]
            rel = e / p + d
            # a zero factor (order -1) leaves exact zeros, and an overflowing
            # product stays non-finite
            rel[~np.isfinite(rel)] = 0.0
            out[1:] = np.where(np.isfinite(p), p + p * np.cumsum(rel), p)
    return out


def cesaro_coefficients(alpha: float, n_max: int) -> np.ndarray:
    """Coefficients A_0^alpha .. A_n_max^alpha; requires alpha > -1.

    All entries are positive for alpha > -1 since every recurrence factor
    (alpha + j)/j is positive.
    """
    if not math.isfinite(alpha) or alpha <= -1.0:
        raise ValueError("alpha must be a finite number greater than -1")
    return _binomial_weights(float(alpha), n_max)


def _slices(v: np.ndarray, b: int) -> tuple[int, list[np.ndarray]]:
    """e and integer-valued slices c_1, c_2, .. with |c_j| < 2**b and
    v = sum_j c_j * 2**(e - b*j) exactly; trailing zero slices are dropped.

    v must be finite.  Before step j every |rem| < 2**(e - b*(j-1)), so the
    scaled rem is below 2**b, and it is exact wherever it reaches 1; c_j is
    rem truncated to multiples of 2**(e - b*j), which is a float (fewer bits
    of rem, or rem itself), and so is what it leaves in rem.
    """
    e = int(np.frexp(np.abs(v).max())[1])
    rem = v.copy()
    out = []
    while rem.any():
        shift = b * (len(out) + 1) - e
        c = np.trunc(np.ldexp(rem, shift))
        rem -= np.ldexp(c, -shift)
        out.append(c)
    return e, out


def _round_rows(values: list[np.ndarray], b: int, s: int) -> np.ndarray:
    """Each row's sum_g values[g] * 2**(s + b * (G - 1 - g)), a Python int
    times 2**s, rounded once by int division (to nearest, ties to even)."""
    size = values[0].size
    out = np.empty(size)
    for r in range(0, size, _ROW_CHUNK):
        total = 0
        for v in values:
            total = (total << b) + v[r:r + _ROW_CHUNK].astype(object)
        try:
            out[r:r + _ROW_CHUNK] = np.true_divide(total << max(s, 0),
                                                   1 << max(-s, 0))
        except OverflowError:
            raise OverflowError("a Cesaro sum overflows the float range"
                                ) from None
    return out


def _kernel_dot_prefixes(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[n] = sum_(i=0..n) kernel[n-i] * x[i]: the exact sum, rounded once.

    Raises ValueError for a non-finite operand and OverflowError for a row
    whose exact sum lies beyond the float range.  An exactly zero row is +0.
    """
    size = x.size
    if not (np.isfinite(kernel).all() and np.isfinite(x).all()):
        raise ValueError("Cesaro sums need finite terms")
    if not (kernel.any() and x.any()):
        return np.zeros(size)
    fft = np.fft
    # a cyclic length of 2**a or 3 * 2**a, at least 2 * size - 1, wraps no
    # product into rows 0..size-1
    length = 1 << (2 * size - 2).bit_length()
    if 3 * length >= 4 * (2 * size - 1):
        length = 3 * length // 4
    # Percival's bound (Math. Comp. 72, 2003, Theorem 5.1; Brent and
    # Zimmermann, Theorem 3.3.2): transforming u and v of length 2**k,
    # multiplying and transforming back, with roots of unity accurate to
    # eps, misses each entry of the convolution by less than
    # |u| |v| ((1 + eps)**(3k) (1 + eps sqrt5)**(3k + 1) (1 + eps)**(3k) - 1)
    # < |u| |v| eps (13 k + 3) (Euclidean norms).  Adding a group's P
    # products in frequency space adds at most (P - 1) eps |u| |v| per pair
    # (the l1 norm of that error over the length bounds its effect on each
    # entry).  So a group is off by less than sum |u_i| |v_j| eps
    # (13 k + 3 + P), and b is chosen to keep that below 1/4: rounding to
    # the nearest integer is then exact, and the group values, at most
    # sum |u_i| |v_j|, stay below 2**51.  The bound is proved for radix-2
    # complex transforms, and numpy's pocketfft takes radix 2, 3 and 4
    # steps, so every call also measures the largest distance to the
    # nearest integer and retries with narrower slices at 1/4 or more.
    # Slices below 2**b have |u| < 2**b sqrt(size): the first b tried is
    # the largest that one pair of such slices allows.
    growth = _EPS * (13 * (length - 1).bit_length() + 3)
    for b in range(int(math.log2(0.25 / (size * growth))) // 2, 0, -1):
        (ek, ks), (ex, xs) = _slices(kernel, b), _slices(x, b)
        norm_k = [math.sqrt(np.dot(c, c)) for c in ks]
        norm_x = [math.sqrt(np.dot(c, c)) for c in xs]
        groups = [[(i, g - i) for i in range(max(0, g - len(xs) + 1),
                                             min(len(ks), g + 1))
                   if norm_k[i] and norm_x[g - i]]
                  for g in range(len(ks) + len(xs) - 1)]
        if max(sum(norm_k[i] * norm_x[j] for i, j in pairs)
               * (growth + _EPS * len(pairs)) for pairs in groups) >= 0.25:
            continue
        spec_k = [fft.rfft(c, length) if n else None
                  for c, n in zip(ks, norm_k)]
        spec_x = [fft.rfft(c, length) if n else None
                  for c, n in zip(xs, norm_x)]
        del ks, xs
        values, worst = [], 0.0
        for pairs in groups:
            if not pairs:  # no pair of non-zero slices has this weight
                values.append(np.zeros(size, dtype=np.int64))
                continue
            c = fft.irfft(sum(spec_k[i] * spec_x[j] for i, j in pairs),
                          length)[:size]
            v = np.rint(c)
            worst = max(worst, float(np.abs(c - v).max()))
            values.append(v.astype(np.int64))
        if worst < 0.25:
            return _round_rows(values, b, ek + ex - b * (len(groups) + 1))
    raise FloatingPointError("FFT error of 1/4 or more at every slice width")


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
