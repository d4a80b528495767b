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
numbers", Math. Comp. 72, 2003).  A row's groups, int64 values below
2**51, are carried into base-2**b digits and rounded once in int64
arithmetic, to nearest with ties to even, subnormal results included, so
the output does not depend on how the FFT rounds.  A non-finite operand
raises ``ValueError``, and a row whose exact sum lies beyond the float
range raises ``OverflowError``.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import accumulation
from .accumulation import compensated_cumsum
from .sequences import _NON_FINITE, RealSequence, _adopt

__all__ = [
    "cesaro_coefficients",
    "cesaro_sigma",
    "cesaro_t",
    "w_sequence",
]

_EPS = 2.0 ** -53
# rows rounded per batch, which bounds the memory of the digit temporaries;
# batches of 2**14 rows round faster than of 2**12 or 2**16
_ROW_CHUNK = 1 << 14


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


def _carry(groups: list[np.ndarray], b: int) -> list[np.ndarray]:
    """Base-2**b digits with the same row sums as the int64 groups (most
    significant first): every digit below the top one in [0, 2**b), the top
    one signed.  ``>>`` floors, so each carry is exact."""
    digits = groups[:]
    carry = 0
    for g in range(len(groups) - 1, 0, -1):
        t = groups[g] + carry
        carry = t >> b
        t &= (1 << b) - 1
        digits[g] = t
    digits[0] = groups[0] + carry
    return digits


def _round_rows(values: list[np.ndarray], b: int, s: int) -> np.ndarray:
    """Each row's sum_g values[g] * 2**(s + b * (G - 1 - g)) of int64 groups
    with |values[g]| < 2**51, rounded once (to nearest, ties to even).

    The groups are carried into digits (``_carry``), and a row whose top
    digit is negative is negated and carried again, so that its digits give
    the magnitude.  The magnitude's top bits, at most 62 of them, fill an
    int64 window, the last digit to reach it only in part; what falls below
    the window only counts as zero or not (a sticky bit).  The window is
    rounded by hand to 53 bits, or to the 2**-1074 grid where that is
    coarser, and ``ldexp`` of the rounded integer, at most 2**53, is exact.
    """
    size = values[0].size
    out = np.empty(size)
    for lo in range(0, size, _ROW_CHUNK):
        digits = _carry([v[lo:lo + _ROW_CHUNK] for v in values], b)
        neg = digits[0] < 0
        if neg.any():
            sign = 1 - 2 * neg.astype(np.int64)
            for d in digits:  # new arrays, not the caller's groups
                d *= sign
            digits = _carry(digits, b)
        win = np.zeros_like(digits[0])
        dropped = np.zeros_like(win)  # the row's bits below the window
        lost = np.zeros_like(win)  # nonzero where any of them is set
        for d in digits:
            # the top digit, below 2**53, always fits whole.  win < 2**62
            # converts to at most 2**62, so frexp gives 63 at most.  It
            # overstates the bit length by one where the conversion rounds
            # up to a power of two: win is then at least 1 - 2**-54 times
            # it, and stays so as bits are appended.  So a row takes fewer
            # bits, never too many, and none after a digit taken in part
            e = np.frexp(win.astype(np.float64))[1]
            drop = np.clip(e - (62 - b), 0, b)
            top = d >> drop
            win = (win << (b - drop)) | top
            lost |= d - (top << drop)
            dropped += drop
        # the window's last bit is worth 2**exp.  Rounding off r bits keeps
        # 53, or the bits down to 2**-1074 where that grid is coarser.  A
        # row with r of 63 or more lies below half a step of its grid and
        # rounds to zero, so r stops at 63 and the shifts stay in range.
        # Where frexp overstates the bit length, one bit fewer is kept, and
        # the nearest float is that power of two either way.
        exp = s + dropped
        e = np.frexp(win.astype(np.float64))[1]
        r = np.clip(np.maximum(e - 53, -1074 - exp), 0, 63)
        q = win >> r
        rem = win - (q << r)
        half = 1 << np.maximum(r - 1, 0)
        q += (rem > half) | ((rem == half) & ((lost != 0) | (q & 1 == 1)))
        with np.errstate(over="ignore"):
            mag = np.ldexp(q.astype(np.float64), exp + r)
        if np.isinf(mag).any():
            raise OverflowError("a Cesaro sum overflows the float range")
        out[lo:lo + _ROW_CHUNK] = np.where(neg, -mag, mag)
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
        # a group's pair (i, j) takes slices i and nk + j.  Each slice is
        # transformed at the first group that uses it and its spectrum is
        # dropped after the last one
        nk = len(ks)
        slices = ks + xs
        del ks, xs
        last = {}
        for g, pairs in enumerate(groups):
            for i, j in pairs:
                last[i] = last[nk + j] = g
        spec = {}
        values, worst = [], 0.0
        for g, pairs in enumerate(groups):
            if not pairs:  # no pair of non-zero slices has this weight
                values.append(np.zeros(size, dtype=np.int64))
                continue
            for i, j in pairs:
                for t in (i, nk + j):
                    if t not in spec:
                        spec[t] = fft.rfft(slices[t], length)
                        slices[t] = None
            c = fft.irfft(sum(spec[i] * spec[nk + j] for i, j in pairs),
                          length)[:size]
            v = np.rint(c)
            worst = max(worst, float(np.abs(c - v).max()))
            values.append(v.astype(np.int64))
            for t in [t for t in spec if last[t] == g]:
                del spec[t]
        if worst < 0.25:
            return _round_rows(values, b, ek + ex - b * (len(groups) + 1))
    raise FloatingPointError("FFT error of 1/4 or more at every slice width")


def _mean(x: np.ndarray, alpha: float, first: int) -> np.ndarray:
    """Order-alpha means of the terms x_0, x_1, .. of indices first,
    first + 1, ..:

        out[n] = sum_(i=0..n) A_(n-i)^(alpha-1) x_i / A_(first+n)^alpha

    At alpha = 1 the kernel A^0 is all ones and A_m^1 = m + 1, so the
    numerator is a compensated cumulative sum; every other alpha is
    checked by ``cesaro_coefficients`` before the kernel runs.
    """
    if alpha == 1.0:
        return compensated_cumsum(x) / np.arange(first + 1.0,
                                                 first + x.size + 1.0)
    denom = cesaro_coefficients(alpha, first + x.size - 1)[first:]
    kernel = _binomial_weights(alpha - 1.0, x.size - 1)
    return _kernel_dot_prefixes(kernel, x) / denom


def _t_blocks(a: np.ndarray, alpha: float,
              lam: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """t_1^alpha .. t_N^alpha of the terms a_1..a_N, or of a_v * lam_v when
    ``lam`` is given, as consecutive blocks of at most ``_BLOCK`` values.

    Every t is computed this way, so each has one set of bits.  At alpha =
    1 the means are streamed (``_running_means``), so no n-long array is
    ever held.  Other orders run the kernel over all N terms now, before
    the caller allocates its own block buffers, and yield slices of its t.
    A block is a view that the next one may overwrite.  A non-finite t
    raises ``ValueError``, and so does a non-finite a_v * lam_v, with the
    message ``RealSequence`` gives.
    """
    if alpha == 1.0:
        return _running_means(a, lam)
    terms = a if lam is None else a * lam
    if not np.isfinite(terms).all():
        raise ValueError(_NON_FINITE)
    t = _mean(terms * np.arange(1.0, a.size + 1.0), alpha, 1)
    if not np.isfinite(t).all():
        raise ValueError(_NON_FINITE)
    size = accumulation._BLOCK
    return (t[lo:lo + size] for lo in range(0, t.size, size))


def _running_means(a: np.ndarray, lam: np.ndarray | None
                   ) -> Iterator[np.ndarray]:
    """``_RunningMeans`` over the blocks of a (and lam)."""
    means = _RunningMeans(a.size)
    size = max(1, min(accumulation._BLOCK, a.size))
    for lo in range(0, a.size, size):
        yield means.push(a[lo:lo + size],
                         None if lam is None else lam[lo:lo + size])


class _RunningMeans:
    """t_n^1, the compensated sum of v * a_v (v * (a_v * lam_v)) over
    v <= n, divided by n + 1, for the blocks of a (and lam) pushed in order,
    each at most ``_BLOCK`` long.  The terms are formed per block, outside
    any ``np.errstate``; any non-finite term leaves t non-finite from there
    on, so checking t checks the terms too."""

    def __init__(self, n: int) -> None:
        size = max(1, min(accumulation._BLOCK, n))
        self._acc = accumulation._Neumaier(size)
        self._v = accumulation._indices(n)
        self._x, self._t = np.empty(size), np.empty(size)
        self._lo = 0

    def push(self, a: np.ndarray, lam: np.ndarray | None = None
             ) -> np.ndarray:
        """The block of t for this block of a: a view that the next push
        overwrites.  A non-finite t raises ``ValueError``."""
        lo, m = self._lo, a.size
        hi = self._lo = lo + m
        x, t = self._x[:m], self._t[:m]
        if lam is None:
            np.multiply(a, self._v(lo, hi), out=x)
        else:
            np.multiply(a, lam, out=x)
            np.multiply(x, self._v(lo, hi), out=x)
        total, comp = self._acc.push(x)
        with np.errstate(invalid="ignore", over="ignore"):
            np.add(total, comp, out=t)
        # A_n^1 = n + 1
        np.divide(t, self._v(lo + 1, hi + 1), out=t)
        if not np.isfinite(t).all():
            raise ValueError(_NON_FINITE)
        return t


def _w_blocks(a: np.ndarray, alpha: float) -> Iterator[np.ndarray]:
    """w_1^alpha .. w_N^alpha of the terms a_1..a_N, block by block as
    ``_t_blocks`` yields t, for a trace that takes the abs of its values:
    at alpha = 1 the blocks are t itself, whose abs is w, and below 1 the
    running max of |t| is carried from block to block."""
    blocks = _t_blocks(a, alpha)
    if alpha == 1.0:
        return blocks

    def running_max() -> Iterator[np.ndarray]:
        peak = 0.0
        for t in blocks:
            w = np.maximum.accumulate(np.abs(t))
            np.maximum(w, peak, out=w)
            peak = w[-1]
            yield w
    return running_max()


def cesaro_sigma(a: RealSequence, alpha: float) -> RealSequence:
    """Order-alpha Cesaro means sigma_0^alpha .. sigma_N^alpha of the partial sums.

    The input must start at index 0 (the means involve s_0 = a_0).
    """
    if a.start_index != 0:
        raise ValueError("cesaro_sigma requires a sequence starting at index 0")
    return _adopt(0, _mean(compensated_cumsum(a.values), alpha, 0))


def cesaro_t(a: RealSequence, alpha: float) -> RealSequence:
    """Order-alpha means t_1^alpha .. t_N^alpha of the sequence (n * a_n).

    Accepts input starting at index 0 (a_0 is ignored: the defining sum runs
    from v = 1) or at index 1.
    """
    if a.start_index not in (0, 1):
        raise ValueError("cesaro_t requires a sequence starting at index 0 or 1")
    n_last = a.end_index
    if n_last < 1:
        raise ValueError("cesaro_t needs at least one term with index >= 1")
    blocks = _t_blocks(a.range_view(1, n_last), alpha)
    t = np.empty(n_last)  # after the fractional kernel has run
    lo = 0
    for block in blocks:
        t[lo:lo + block.size] = block
        lo += block.size
    return _adopt(1, t)


def w_sequence(t: RealSequence, alpha: float) -> RealSequence:
    """Maximal sequence w_n^alpha built from t: defined for 0 < alpha <= 1 only.

    alpha = 1:        w_n = |t_n|
    0 < alpha < 1:    w_n = max_(v<=n) |t_v|   (non-decreasing, >= |t_n|)
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("w is defined for 0 < alpha <= 1 only")
    if t.start_index != 1:
        raise ValueError("w expects a t-sequence starting at index 1")
    w = np.abs(t.values)
    if alpha != 1.0:
        np.maximum.accumulate(w, out=w)
    return _adopt(1, w)
