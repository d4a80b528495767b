"""Compensated accumulation helpers.

Partial-sum traces compare a slowly growing sum against a reference at
geometric checkpoints, and the term-identity checks subtract adjacent means
that agree to many digits.  Plain left-to-right accumulation loses up to
n*eps relative accuracy there, which is visible at the tolerances this
package promises, so running sums are Neumaier-compensated (Neumaier, ZAMM
54, 1974; error stays at a few ulp of the true prefix regardless of length).

Both entry points run one private kernel (``_Neumaier``) over blocks of
``_BLOCK`` terms, so every temporary is a block-sized buffer that stays in
cache and is reused from block to block.  Within a block the running sums are
``np.add.accumulate`` seeded with the total carried from the block before,
which adds strictly left to right as the textbook per-element loop does
(kept as the reference in ``tests/test_accumulation.py``); each step's
correction is an elementwise function of the previous running sum, the term
and the new running sum; and the loop's compensation is itself a plain
left-to-right sum of those corrections, seeded with the compensation
carried from the block before.

The loop's correction is Neumaier's branch: (big - total) + small, with big
the larger in magnitude of the previous sum and the term.  The block loop
computes Knuth's branch-free TwoSum instead, five flops with no compare or
select.  Where the new total is finite and no TwoSum step overflows, both
are the exact rounding error of the addition, so they are the same number.
TwoSum can overflow spuriously in ``total - prev`` near the largest double
(Boldo, Graillat and Muller, ACM TOMS 44, 2017), and at an inf or NaN it
gives NaN where Neumaier's branch may give an infinity.  Either way the step
is non-finite, and a non-finite term keeps every later left-to-right sum of
the compensation non-finite.  So a block whose carried compensation comes
out non-finite is redone with Neumaier's branch, and only such a block.
The outputs are therefore bit-identical to the loop's at every block size.
NaN outputs sit at the same indices as the loop's; their sign bit is not
part of the contract, since which operand's NaN an addition propagates
varies even within one numpy call.

``compensated_cumsum`` writes every prefix sum.  ``compensated_sums_at``
keeps only the sums at the requested checkpoints (and, on request, their
running maximum, carried from block to block as a per-block maximum),
stops at the last checkpoint, and can take its terms block by block from a
callable, so a checkpoint trace never holds an n-long array of terms or
sums.  Block sources take their indices from one reusable buffer
(``_indices``) rather than from a fresh ``np.arange`` per block.

The same loop also runs pushed: ``_Neumaier`` and ``_SampledSums`` take
their terms a block at a time from a caller that makes the blocks, as the
checker's one pass over a bundle does, and ``_PairwiseSum`` gives what
``np.sum`` gives over a range of values that arrive in blocks.
"""

from __future__ import annotations

from typing import Callable, Generator

import numpy as np

__all__ = ["compensated_cumsum", "compensated_sums_at"]

# terms per block: at n = 1e6, 2**12, 2**13 and 2**16 were slower and 2**15
# no faster
_BLOCK = 1 << 14

class _Neumaier:
    """The loop's running sums, fed a block of at most ``size`` terms at a
    time; the total and the compensation carry from block to block."""

    def __init__(self, size: int) -> None:
        self._running = np.empty(size + 1)
        self._comp = np.empty(size + 1)
        self._spare = np.empty(size)
        self._running[0] = self._comp[0] = 0.0
        self._m = 0

    def push(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(total, comp)`` after each term of x: ``total[j]`` and
        ``comp[j]`` are the loop's running sum and running compensation
        after term j of this block, so the compensated prefix sum is
        ``total[j] + comp[j]``.  Both are views into buffers that the next
        push overwrites."""
        m, running, comp = x.size, self._running, self._comp
        running[0], comp[0] = running[self._m], comp[self._m]
        self._m = m
        run, err, back = running[:m + 1], comp[1:m + 1], self._spare[:m]
        with np.errstate(invalid="ignore", over="ignore"):
            # run[0] is the total before this block and run[j + 1] the
            # loop's `total` after term j
            run[1:] = x
            np.add.accumulate(run, out=run)
            prev, total = run[:-1], run[1:]
            # TwoSum: back = total - prev, err = (prev - (total - back))
            # + (x - back)
            np.subtract(total, prev, out=back)
            np.subtract(total, back, out=err)
            np.subtract(prev, err, out=err)
            np.subtract(x, back, out=back)
            err += back
            np.add.accumulate(comp[:m + 1], out=comp[:m + 1])
            if not np.isfinite(comp[m]):
                # a step met an overflow, an inf or a NaN: redo the block
                # with the loop's own correction
                _neumaier_corrections(prev, x, total, err)
                np.add.accumulate(comp[:m + 1], out=comp[:m + 1])
        return total, err


def _neumaier_corrections(prev: np.ndarray, x: np.ndarray, total: np.ndarray,
                          out: np.ndarray) -> None:
    """Neumaier's corrections (big - total) + small into ``out``, big the
    larger in magnitude of prev and x (prev on ties, NaN -> x)."""
    big = np.abs(prev) >= np.abs(x)
    np.subtract(np.where(big, prev, x), total, out=out)
    out += np.where(big, x, prev)


def _indices(stop: int) -> Callable[[int, int], np.ndarray]:
    """indices(lo, hi): the floats lo + 1 .. hi that ``np.arange(lo + 1.0,
    hi + 1.0)`` gives (exact below 2**53), for the blocks of a loop over
    0..stop.  They are written into one buffer that each call overwrites,
    as ``iota + (lo + 1.0)``."""
    size = max(1, min(_BLOCK, stop))
    iota = np.arange(float(size))
    out = np.empty(size)

    def indices(lo: int, hi: int) -> np.ndarray:
        return np.add(iota[:hi - lo], lo + 1.0, out=out[:hi - lo])
    return indices


def compensated_cumsum(values) -> np.ndarray:
    """All prefix sums of ``values``, each compensated (Neumaier).

    out[i] = values[0] + ... + values[i] with error O(eps * sum|values|),
    independent of i.  Non-finite input propagates without warnings.
    """
    arr = np.asarray(values, dtype=np.float64)
    out = np.empty(arr.size)
    size = max(1, min(_BLOCK, arr.size))
    acc = _Neumaier(size)
    for lo in range(0, arr.size, size):
        total, comp = acc.push(arr[lo:lo + size])
        with np.errstate(invalid="ignore", over="ignore"):
            np.add(total, comp, out=out[lo:lo + total.size])
    return out


class _SampledSums:
    """``compensated_sums_at`` fed its terms a block at a time.

    ``push(x)`` takes the next x.size terms, at most ``_BLOCK``; terms past
    the last checkpoint are ignored.  ``sums`` holds the result once the
    terms up to the last checkpoint have all been pushed.
    """

    def __init__(self, checkpoints, running_max: bool = False) -> None:
        idx = np.asarray(checkpoints, dtype=np.int64) - 1
        if idx.size and (idx[0] < 0 or np.any(idx[1:] <= idx[:-1])):
            raise ValueError(
                "checkpoints must be strictly increasing and >= 1")
        self.sums = np.empty(idx.size)
        self.stop = int(idx[-1]) + 1 if idx.size else 0
        size = max(1, min(_BLOCK, self.stop))
        self._idx, self._running_max = idx, running_max
        self._acc = _Neumaier(size)
        self._block = np.empty(size) if running_max else None
        self._lo = self._first = 0
        # running maximum of every sum before the current block.  A prefix
        # sum is never -0.0 (the loop starts from +0.0), so equal sums are
        # equal bits and the order in which maxima are taken cannot show
        self._peak = np.float64(-np.inf)

    def push(self, x: np.ndarray) -> None:
        lo = self._lo
        m = min(x.size, self.stop - lo)
        if m <= 0:
            return
        self._lo = lo + m
        total, comp = self._acc.push(x[:m])
        first = self._first
        last = self._first = int(np.searchsorted(self._idx, lo + m))
        local = self._idx[first:last] - lo
        out = self.sums
        with np.errstate(invalid="ignore", over="ignore"):
            if not self._running_max:
                np.add(total[local], comp[local], out=out[first:last])
                return
            block = np.add(total, comp, out=self._block[:m])
            if local.size:
                # maxima of the stretches that end at each sampled index
                starts = np.concatenate(([0], local[:-1] + 1))
                seg = np.maximum.reduceat(block[:local[-1] + 1], starts)
                seg[0] = np.maximum(seg[0], self._peak)
                np.maximum.accumulate(seg, out=out[first:last])
            self._peak = np.maximum(self._peak, block.max())


def compensated_sums_at(terms, checkpoints, *, running_max: bool = False
                        ) -> np.ndarray:
    """The compensated sum of the first c terms for each checkpoint c.

    That is ``compensated_cumsum(terms)[c - 1]``, without the n-long arrays;
    checkpoints are strictly increasing and at least 1, and no term after
    the last checkpoint is read.  With ``running_max`` each sum is replaced
    by the largest sum up to it, as ``np.maximum.accumulate`` would give
    (NaN propagating).  ``terms`` is an array, or a callable
    ``terms(lo, hi, out)`` that returns terms lo..hi-1, typically written
    into the block buffer ``out``; it is called once per block, in order,
    outside any ``np.errstate``.
    """
    sums = _SampledSums(checkpoints, running_max)
    if callable(terms):
        source = terms
    else:
        arr = np.asarray(terms, dtype=np.float64)
        if sums.stop > arr.size:
            raise ValueError(
                f"checkpoint {sums.stop} exceeds {arr.size} terms")

        def source(lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
            return arr[lo:hi]
    size = max(1, min(_BLOCK, sums.stop))
    buf = np.empty(size)
    for lo in range(0, sums.stop, size):
        hi = min(lo + size, sums.stop)
        sums.push(source(lo, hi, buf[:hi - lo]))
    return sums.sums


# a range this long or shorter is one np.add.reduce call in ``_PairwiseSum``
_LEAF = 1 << 14


def _pairwise(length: int) -> Generator[int, float, float]:
    """The sum of a range as numpy's pairwise ``np.add.reduce`` forms it,
    from the sums of its leaves: yields each leaf's length in order, is sent
    that leaf's np.add.reduce, and returns the total.  numpy splits a range
    longer than a leaf at half its length rounded down to a multiple of 8
    and adds the two halves' sums; within a leaf it does the same."""
    if length <= _LEAF:
        return (yield length)
    half = length // 2
    half -= half % 8
    head = yield from _pairwise(half)
    return head + (yield from _pairwise(length - half))


class _PairwiseSum:
    """``np.sum(values[start:start + length])``, bit for bit, from the values
    pushed a block at a time (``push(lo, block)`` with block holding
    values[lo:lo + block.size], blocks in order and contiguous).  A leaf
    that spans blocks is copied together; ``total`` is set once the range
    has been pushed."""

    def __init__(self, start: int, length: int) -> None:
        self.total = None if length else 0.0
        self._tree = _pairwise(length)
        self._pos = start  # first value not yet summed
        self._need = next(self._tree) if length else 0
        self._buf = np.empty(min(length, _LEAF))
        self._held = 0  # values of the current leaf copied into _buf

    def push(self, lo: int, block: np.ndarray) -> None:
        end = lo + block.size
        while self._need and self._pos < end:
            take = min(self._need - self._held, end - self._pos)
            part = block[self._pos - lo:self._pos - lo + take]
            self._pos += take
            if take == self._need:  # the whole leaf sits in this block
                leaf = part
            else:
                self._buf[self._held:self._held + take] = part
                self._held += take
                if self._held < self._need:
                    return
                leaf, self._held = self._buf[:self._need], 0
            try:
                self._need = self._tree.send(np.add.reduce(leaf))
            except StopIteration as done:
                self.total, self._need = done.value, 0
