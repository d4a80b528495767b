"""Compensated accumulation helpers.

Partial-sum traces compare a slowly growing sum against a reference at
geometric checkpoints, and the term-identity checks subtract adjacent means
that agree to many digits.  Plain left-to-right accumulation loses up to
n*eps relative accuracy there, which is visible at the tolerances this
package promises, so running sums are Neumaier-compensated (Neumaier, ZAMM
54, 1974; error stays at a few ulp of the true prefix regardless of length).

``compensated_cumsum`` writes every prefix sum.  It runs a private kernel
(``_Neumaier``) over blocks of ``_BLOCK`` terms, so every temporary is a
block-sized buffer that stays in cache and is reused from block to block.
Within a block the running sums are
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

The same loop also runs pushed: ``_Neumaier`` and ``_SampledSums`` take
their terms a block at a time from a caller that makes the blocks, as the
checker's one pass over a bundle does.  ``_SampledSums`` keeps only the
sums at the requested checkpoints and ignores terms past the last
checkpoint, so it holds no n-long array of sums.

A pushed accumulator carries one chain of sums or two independent ones
(lanes), by the shape of its buffers: (m,) for one lane, (m, 2) for two,
lane j in column j.  The two scans of a two-lane block run once each, on
the buffer viewed as m complex128 values: numpy adds complex numbers as two
float additions, real part to real part and imaginary to imaginary, with no
rescaling or special case at zeros, infinities or NaN, so each lane gets
the bits of its own float scan (pinned in ``tests/test_accumulation.py``).
Only addition is componentwise: complex multiplication mixes the parts
(0 * inf, signed zeros), so every other step runs on the float view.  A
block is redone in both lanes when either lane's compensation comes out
non-finite.  That is bit-safe: a lane whose compensation stays finite had
only finite TwoSum steps, on which the redo gives the same bits.  The
scans are latency-bound, so two lanes cost little more than one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["compensated_cumsum"]

# terms per block: at n = 1e6, 2**12, 2**13 and 2**16 were slower and 2**15
# no faster
_BLOCK = 1 << 14


def _lane_buffer(size: int, lanes: int) -> np.ndarray:
    """An empty buffer of ``size`` values in each of ``lanes`` (1 or 2)
    lanes: shape (size,) for one lane, (size, 2) for two."""
    return np.empty((size,) if lanes == 1 else (size, lanes))


def _lanes(buf: np.ndarray) -> list[np.ndarray]:
    """The lanes of a block buffer, each a 1-D view: a 1-D buffer is one
    lane, an (m, 2) buffer two, lane j its column j."""
    return [buf] if buf.ndim == 1 else list(buf.T)


class _Neumaier:
    """The loop's running sums, fed a block of at most ``size`` terms at a
    time in each of ``lanes`` (1 or 2) independent chains; the total and
    the compensation carry from block to block."""

    def __init__(self, size: int, lanes: int = 1) -> None:
        self._running = _lane_buffer(size + 1, lanes)
        self._comp = _lane_buffer(size + 1, lanes)
        self._spare = _lane_buffer(size, lanes)
        self._running[0] = self._comp[0] = 0.0
        self._m = 0
        # what np.add.accumulate scans: two lanes as one complex128 array
        self._scans = [buf if lanes == 1 else buf.view(np.complex128)[:, 0]
                       for buf in (self._running, self._comp)]

    def push(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(total, comp)`` after each term of x, x of shape (m,) for one
        lane and (m, 2) for two: ``total[j]`` and ``comp[j]`` are the
        loop's running sum and running compensation after term j of this
        block, so the compensated prefix sum is ``total[j] + comp[j]``.
        Both are views into buffers that the next push overwrites."""
        m, running, comp = len(x), self._running, self._comp
        running[0], comp[0] = running[self._m], comp[self._m]
        self._m = m
        run, err, back = running[:m + 1], comp[1:m + 1], self._spare[:m]
        scan_run, scan_comp = (s[:m + 1] for s in self._scans)
        with np.errstate(invalid="ignore", over="ignore"):
            # run[0] is the total before this block and run[j + 1] the
            # loop's `total` after term j
            run[1:] = x
            np.add.accumulate(scan_run, out=scan_run)
            prev, total = run[:-1], run[1:]
            # TwoSum: back = total - prev, err = (prev - (total - back))
            # + (x - back)
            np.subtract(total, prev, out=back)
            np.subtract(total, back, out=err)
            np.subtract(prev, err, out=err)
            np.subtract(x, back, out=back)
            err += back
            np.add.accumulate(scan_comp, out=scan_comp)
            if not np.isfinite(comp[m]).all():
                # a step met an overflow, an inf or a NaN: redo the block
                # with the loop's own correction, in both lanes (a lane
                # whose compensation stayed finite gets the same bits)
                _neumaier_corrections(prev, x, total, err)
                np.add.accumulate(scan_comp, out=scan_comp)
        return total, err

    def restart(self, lane: int) -> None:
        """Carry zeros into ``lane``'s next push (its sums go unread)."""
        for buf in (self._running, self._comp):
            _lanes(buf)[lane][self._m] = 0.0


def _neumaier_corrections(prev: np.ndarray, x: np.ndarray, total: np.ndarray,
                          out: np.ndarray) -> None:
    """Neumaier's corrections (big - total) + small into ``out``, big the
    larger in magnitude of prev and x (prev on ties, NaN -> x)."""
    big = np.abs(prev) >= np.abs(x)
    np.subtract(np.where(big, prev, x), total, out=out)
    out += np.where(big, x, prev)


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
    """The compensated sum of the first c terms for each checkpoint c
    (``compensated_cumsum(terms)[c - 1]``), fed the terms a block at a
    time, in one or two lanes (``_Neumaier``), on a validated grid: at
    least one checkpoint, strictly increasing from 1 on.

    ``push(x)`` takes the next len(x) terms, at most ``_BLOCK``, of every
    lane; terms past the last checkpoint are ignored.  ``sums`` holds the
    result, one column per lane when there are two, once the terms up to
    the last checkpoint have all been pushed.
    """

    def __init__(self, checkpoints, lanes: int = 1) -> None:
        self._idx = np.asarray(checkpoints, dtype=np.int64) - 1
        self.sums = _lane_buffer(self._idx.size, lanes)
        self.stop = int(self._idx[-1]) + 1
        self._acc = _Neumaier(min(_BLOCK, self.stop), lanes)
        self._lo = self._first = 0

    def push(self, x: np.ndarray) -> None:
        lo = self._lo
        m = min(len(x), self.stop - lo)
        if m <= 0:
            return
        self._lo = lo + m
        total, comp = self._acc.push(x[:m])
        first = self._first
        last = self._first = int(np.searchsorted(self._idx, lo + m))
        local = self._idx[first:last] - lo
        with np.errstate(invalid="ignore", over="ignore"):
            np.add(total[local], comp[local], out=self.sums[first:last])

