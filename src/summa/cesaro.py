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
a compensated product, within about half an ulp of the exact one.  Every
mean is handed out a block at a time by one source (``_MeanSource``), of
one or two lanes of terms, at every order.  The source forms each lane's
terms itself, as the product of the lane's factors: a sequence's blocks,
a slice of an array, or the indices v (``_indices``).  ``cesaro_sigma``
and ``cesaro_t`` drain one lane, of s_v and of v * a_v, and the checker's
one pass over a bundle reads w of a_n and t of a_n * lambda_n from two
lanes of one source, of v * a_v and of v * a_v * lambda_v, so both get
the same bits.

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
the output does not depend on how the FFT rounds.  One call takes one or
more operands of the kernel's size: the coefficients and the kernel are
made once, the kernel is sliced once per slice width and each of its
slices transformed once, and each operand keeps its own slices, width,
exponent and rounding, and leaves the call's operand list once its rows
are settled.  It is the one finiteness gate of the fractional means: a
non-finite operand is a ``ValueError`` as in ``RealSequence``, else a
non-finite kernel one of its own, and a row beyond the float range an
``OverflowError``, each of that operand alone.  Where the denominators
A_n^alpha overflow (a large alpha), ``_MeanSource`` runs no kernel: an
operand that is not finite keeps that message, and a finite one is refused
with an error that names alpha.  Below that overflow the kernel is finite,
since |A_m^(alpha-1)| <= max(A_m^alpha, 1).
"""

from __future__ import annotations

import math
from typing import Sequence

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
    # in blocks, so every temporary is block-sized: the product and the
    # sum of rel carry into each block as the seed of its first element,
    # and cumprod and cumsum run strictly left to right, so the bits are
    # those of one pass over all n_max factors
    last_p, last_sum = 1.0, None
    for start in range(1, n_max + 1, accumulation._BLOCK):
        j = np.arange(float(start),
                      float(min(start + accumulation._BLOCK, n_max + 1)))
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
            # q[i] is the product before factor j[i], q[i + 1] the one after
            q = np.cumprod(np.concatenate(([last_p], f)))
            p = q[1:]
            e = _two_product(q[:-1], f)[1]
            rel = e / p + d
            # a zero factor (order -1) leaves exact zeros, and an overflowing
            # product stays non-finite
            rel[~np.isfinite(rel)] = 0.0
            if last_sum is not None:
                rel[0] += last_sum
            np.add.accumulate(rel, out=rel)
            out[start:start + j.size] = np.where(np.isfinite(p), p + p * rel, p)
        last_p, last_sum = p[-1], rel[-1]
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


class _SlicedKernel:
    """The kernel split into b-bit slices (``_slices``), their norms, and
    the spectra of those that some operand has used, each transformed
    once; a slice is dropped once it is transformed."""

    def __init__(self, kernel: np.ndarray, b: int, length: int) -> None:
        self.b, self.length = b, length
        self.e, self.slices = _slices(kernel, b)
        self.norms = [math.sqrt(np.dot(c, c)) for c in self.slices]
        self.spectra: dict[int, np.ndarray] = {}

    def transform(self, i: int) -> None:
        if i not in self.spectra:
            self.spectra[i] = np.fft.rfft(self.slices[i], self.length)
            self.slices[i] = None


def _rows_at_width(kernel: _SlicedKernel, x: np.ndarray, growth: float,
                   last: bool) -> np.ndarray | None:
    """x's rows through the kernel's slices, at their width b; None where
    the certificate or the FFT check fails at b.  Raises OverflowError for
    a row beyond the float range.

    x's slices pair with the kernel's by weight into groups.  Each slice is
    transformed at the first group that uses it, and x's spectra are
    dropped after the last; the kernel's are, too, where x is the ``last``
    operand at this width, else a later operand reuses them.
    """
    b, size, length = kernel.b, x.size, kernel.length
    ex, xs = _slices(x, b)
    norm_k, norm_x = kernel.norms, [math.sqrt(np.dot(c, c)) for c in xs]
    groups = [[(i, g - i) for i in range(max(0, g - len(xs) + 1),
                                         min(len(norm_k), g + 1))
               if norm_k[i] and norm_x[g - i]]
              for g in range(len(norm_k) + len(xs) - 1)]
    if max(sum(norm_k[i] * norm_x[j] for i, j in pairs)
           * (growth + _EPS * len(pairs)) for pairs in groups) >= 0.25:
        return None
    last_k, last_x = {}, {}
    for g, pairs in enumerate(groups):
        for i, j in pairs:
            last_k[i] = last_x[j] = g
    spec, values, worst = {}, [], 0.0
    for g, pairs in enumerate(groups):
        if not pairs:  # no pair of non-zero slices has this weight
            values.append(np.zeros(size, dtype=np.int64))
            continue
        for i, j in pairs:
            kernel.transform(i)
            if j not in spec:
                spec[j] = np.fft.rfft(xs[j], length)
                xs[j] = None
        (i, j), *rest = pairs
        acc = kernel.spectra[i] * spec[j]
        for i, j in rest:
            acc += kernel.spectra[i] * spec[j]
        c = np.fft.irfft(acc, length)[:size]
        del acc
        v = np.rint(c)
        c -= v
        worst = max(worst, float(np.abs(c, out=c).max()))
        del c
        values.append(v.astype(np.int64))
        for j in [j for j in spec if last_x[j] == g]:
            del spec[j]
        if last:
            for i in [i for i in kernel.spectra if last_k.get(i) == g]:
                del kernel.spectra[i]
    if worst >= 0.25:
        return None
    return _round_rows(values, b, kernel.e + ex - b * (len(groups) + 1))


def _kernel_dot_prefixes(kernel: np.ndarray, xs: list) -> list:
    """out[n] = sum_(i=0..n) kernel[n-i] * x[i] for each operand x in
    ``xs``, every one of the kernel's size: the exact sum, rounded once.
    Each entry of ``xs`` is set to None as soon as its operand's rows or
    error are settled, so an operand is freed before the next one's rows
    start unless the caller holds it.

    Each entry is its operand's rows or what it raised: ValueError for a
    non-finite operand (``_NON_FINITE``, tested first) or else a non-finite
    kernel ("Cesaro sums need finite terms", tested once per call),
    OverflowError for a row whose exact sum lies beyond the float range,
    FloatingPointError where the transforms miss at every slice width.  An exactly zero row is +0.  The kernel is
    sliced once per slice width and each of its slices transformed once,
    for every operand that width serves; an operand whose certificate or
    FFT check fails at a width retries alone at a narrower one.  Its rows
    are exact, so they depend on neither the width nor the other operands.
    """
    size = kernel.size
    finite_kernel = bool(np.isfinite(kernel).all())
    out: list = [None] * len(xs)
    todo = []
    for i in range(len(xs)):
        if not np.isfinite(xs[i]).all():
            out[i] = ValueError(_NON_FINITE)
        elif not finite_kernel:
            out[i] = ValueError("Cesaro sums need finite terms")
        elif kernel.any() and xs[i].any():
            todo.append(i)
            continue
        else:
            out[i] = np.zeros(size)
        xs[i] = None  # settled
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
        if not todo:
            break
        sliced, retry = _SlicedKernel(kernel, b, length), []
        for i in todo:
            try:
                out[i] = _rows_at_width(sliced, xs[i], growth, i == todo[-1])
            except OverflowError as e:
                out[i] = e
            if out[i] is None:  # kept for the narrower width
                retry.append(i)
            else:
                xs[i] = None
        todo = retry
    for i in todo:
        out[i] = FloatingPointError(
            "FFT error of 1/4 or more at every slice width")
        xs[i] = None
    return out


def _settled(result):
    """``result``, raised where it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result


def _indices(lo: int, hi: int) -> np.ndarray:
    """The indices lo + 1..hi of offsets lo..hi-1, as floats: the v of
    v * a_v."""
    return np.arange(lo + 1.0, hi + 1.0)


class _MeanSource:
    """Order-alpha means of one or two lanes of terms, handed out a block
    at a time.  A lane's terms are x_0, x_1, .. of indices first,
    first + 1, .., and its means

        out[n] = sum_(i=0..n) A_(n-i)^(alpha-1) x_i / A_(first+n)^alpha,

    t^alpha for first = 1 and x_i = (i + 1) a_(i+1).  A ``maximal`` lane
    hands out w^alpha instead: |t| at alpha = 1, else the running max of
    |t|, carried from block to block (max is exact, so the bits are those
    of one whole-array max).  A lane is a tuple of factors ``f(lo, hi)``,
    each giving its values at offsets lo..hi-1 (a role's ``_block``, a
    slice of an array, ``_indices``), and its terms x_lo..x_(hi-1) are
    their product, left to right.  Each distinct factor is read once per
    block, so a factor that two lanes share is made once.

    At alpha = 1 the kernel A^0 is all ones and A_m^1 = m + 1, so each push
    forms the block's terms and sums them as the lanes of one
    ``accumulation._Neumaier``, then divides.  Every other alpha is checked
    by ``cesaro_coefficients``, and the means are made whole as the source
    starts: the terms of every index (a block at a time, so that no role
    keeps more than a block), the coefficients and the kernel once, and one
    kernel call (``_kernel_dot_prefixes``, the one finiteness gate of the
    operands) for every lane; a push hands out slices.  Where
    A^alpha overflows (a large alpha), no kernel runs: a lane of finite
    terms is refused with an error that names alpha.

    A lane is dead where the kernel refused its operand or its means went
    non-finite: ``dead`` holds its error, and the lane hands out zeros from
    then on, so no later block of a caller's sums is redone."""

    def __init__(self, alpha: float, n: int, lanes: list[tuple],
                 maximal: Sequence[bool] = (False,), first: int = 1) -> None:
        size = min(accumulation._BLOCK, n)
        self._lanes, self._maximal, self._first = lanes, maximal, first
        self._whole, self.dead = None, {}
        if alpha == 1.0:
            self._acc = accumulation._Neumaier(size, len(lanes))
            self._x = accumulation._lane_buffer(size, len(lanes))
            self._out = np.empty((len(lanes), size))
            return
        self._denom = cesaro_coefficients(alpha, first + n - 1)[first:]
        xs = [np.empty(n) for _ in lanes]
        for lo in range(0, n, accumulation._BLOCK):  # a role keeps one block
            hi = min(lo + accumulation._BLOCK, n)
            self._terms(lo, hi, [x[lo:hi] for x in xs])
        over = ~np.isfinite(self._denom)
        if over.any():  # no kernel call; an operand's own error comes first
            error = ValueError(f"alpha={alpha:g}: the Cesaro coefficients "
                               f"A_n^alpha overflow from n = "
                               f"{first + int(np.argmax(over))}")
            self._whole = [error if np.isfinite(x).all()
                           else ValueError(_NON_FINITE) for x in xs]
        else:  # A_m^(alpha-1) <= max(A_m^alpha, 1), so the kernel is finite
            kernel = _binomial_weights(alpha - 1.0, n - 1)
            self._whole = _kernel_dot_prefixes(kernel, xs)
        self.dead = {lane: rows for lane, rows in enumerate(self._whole)
                     if isinstance(rows, Exception)}

    def _terms(self, lo: int, hi: int, out: list[np.ndarray]) -> None:
        """Each lane's terms x_lo..x_(hi-1) into ``out``, one array per
        lane: its factors' blocks multiplied left to right, a single one
        copied.  The blocks are freed on return."""
        blocks = {f: f(lo, hi) for f in dict.fromkeys(sum(self._lanes, ()))}
        for lane, x in zip(self._lanes, out):
            head, *rest = (blocks[f] for f in lane)
            if not rest:
                x[:] = head
            for f in rest:
                head = np.multiply(head, f, out=x)

    def push(self, lo: int, hi: int) -> list[np.ndarray]:
        """Each lane's means of indices lo..hi-1, the block after the last
        one pushed.  The values are views that the next push may
        overwrite."""
        if self._whole is None:
            x = self._x[:hi - lo]
            self._terms(lo, hi, accumulation._lanes(x))
            total, comp = self._acc.push(x)
            # lane j's total + comp, from column j (or all of a single lane)
            values = list(np.add(total.T, comp.T, out=self._out[:, :hi - lo]))
            denom = np.arange(self._first + lo + 1.0, self._first + hi + 1.0)
        else:
            values = [None if lane in self.dead else rows[lo:hi]
                      for lane, rows in enumerate(self._whole)]
            denom = self._denom[lo:hi]
        for lane, v in enumerate(values):
            if lane not in self.dead:
                v /= denom
                if self._maximal[lane]:
                    np.abs(v, out=v)
                    if self._whole is not None:  # from the last block's w
                        w = self._whole[lane][max(lo - 1, 0):hi]
                        np.maximum.accumulate(w, out=w)
                if not np.isfinite(v).all():
                    self.dead[lane] = ValueError(_NON_FINITE)
                    if self._whole is None:
                        # the lane sums from zero again, else every later
                        # block would be redone
                        self._acc.restart(lane)
            if lane in self.dead:
                values[lane] = np.zeros(hi - lo)
        return values


@np.errstate(all="ignore")
def _means(alpha: float, n: int, factors: tuple, first: int) -> np.ndarray:
    """The means (``_MeanSource``) of one lane, of terms the product of
    ``factors``, over all n indices, or its error raised.  Arithmetic that
    overflows warns nothing: it leaves a non-finite term or mean, which is
    the lane's error."""
    source, out = _MeanSource(alpha, n, [factors], first=first), np.empty(n)
    for lo in range(0, n, accumulation._BLOCK):
        hi = min(lo + accumulation._BLOCK, n)
        out[lo:hi] = source.push(lo, hi)[0]
        if source.dead:
            raise source.dead[0]
    return out


def cesaro_sigma(a: RealSequence, alpha: float) -> RealSequence:
    """Order-alpha Cesaro means sigma_0^alpha .. sigma_N^alpha of the partial sums.

    The input must start at index 0 (the means involve s_0 = a_0).
    """
    if a.start_index != 0:
        raise ValueError("cesaro_sigma requires a sequence starting at index 0")
    s = compensated_cumsum(a.values)
    return _adopt(0, _means(alpha, s.size, (lambda lo, hi: s[lo:hi],), 0))


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
    values = a.range_view(1, n_last)
    return _adopt(1, _means(alpha, n_last,
                            (lambda lo, hi: values[lo:hi], _indices), 1))


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
