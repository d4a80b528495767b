"""Compensated accumulation helpers.

Partial-sum traces compare a slowly growing sum against a reference at
geometric checkpoints, and the term-identity checks subtract adjacent means
that agree to many digits.  Plain left-to-right accumulation loses up to
n*eps relative accuracy there, which is visible at the tolerances this
package promises, so running sums are Neumaier-compensated (Neumaier, ZAMM
54, 1974; error stays at a few ulp of the true prefix regardless of length).

Both entry points run one private loop over blocks of ``_BLOCK`` terms, so
every temporary is a block-sized buffer that stays in cache and is reused
from block to block.  Within a block the running sums are
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
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

__all__ = ["compensated_cumsum", "compensated_sums_at"]

# terms per block: at n = 1e6, 2**12, 2**13 and 2**16 were slower and 2**15
# no faster
_BLOCK = 1 << 14

# source(lo, hi, buf) -> terms[lo:hi], either buf filled in place or a view
_Source = Callable[[int, int, np.ndarray], np.ndarray]


def _neumaier_blocks(source: _Source, stop: int
                     ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(lo, total, comp)`` for each block of terms[0:stop].

    ``total[j]`` and ``comp[j]`` are the loop's running sum and running
    compensation after term ``lo + j``, so the compensated prefix sum is
    ``total[j] + comp[j]``.  Both are views into buffers that the next
    block overwrites.  ``source`` is called outside any ``np.errstate``, so
    whatever warnings computing the terms raises stay visible.
    """
    size = max(1, min(_BLOCK, stop))
    running = np.empty(size + 1)
    comp = np.empty(size + 1)
    terms = np.empty(size)
    spare = np.empty(size)
    running[0] = comp[0] = 0.0
    for lo in range(0, stop, size):
        m = min(size, stop - lo)
        x = source(lo, lo + m, terms[:m])
        run, err, back = running[:m + 1], comp[1:m + 1], spare[:m]
        with np.errstate(invalid="ignore", over="ignore"):
            # run[0] is the total before this block and run[j + 1] the
            # loop's `total` after term lo + j
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
        yield lo, total, err
        running[0], comp[0] = running[m], comp[m]


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


def _array_source(values) -> tuple[_Source, int]:
    arr = np.asarray(values, dtype=np.float64)
    return (lambda lo, hi, buf: arr[lo:hi]), arr.size


def compensated_cumsum(values) -> np.ndarray:
    """All prefix sums of ``values``, each compensated (Neumaier).

    out[i] = values[0] + ... + values[i] with error O(eps * sum|values|),
    independent of i.  Non-finite input propagates without warnings.
    """
    source, n = _array_source(values)
    out = np.empty(n)
    for lo, total, comp in _neumaier_blocks(source, n):
        with np.errstate(invalid="ignore", over="ignore"):
            np.add(total, comp, out=out[lo:lo + total.size])
    return out


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
    idx = np.asarray(checkpoints, dtype=np.int64) - 1
    if idx.size and (idx[0] < 0 or np.any(idx[1:] <= idx[:-1])):
        raise ValueError("checkpoints must be strictly increasing and >= 1")
    if callable(terms):
        source = terms
    else:
        source, n = _array_source(terms)
        if idx.size and idx[-1] >= n:
            raise ValueError(f"checkpoint {idx[-1] + 1} exceeds {n} terms")
    out = np.empty(idx.size)
    if not idx.size:
        return out
    stop = int(idx[-1]) + 1
    sums = np.empty(min(_BLOCK, stop))
    # running maximum of every sum before the current block.  A prefix sum
    # is never -0.0 (the loop starts from +0.0), so equal sums are equal
    # bits and the order in which maxima are taken cannot show
    peak = np.float64(-np.inf)
    first = 0
    for lo, total, comp in _neumaier_blocks(source, stop):
        m = total.size
        last = int(np.searchsorted(idx, lo + m))
        local = idx[first:last] - lo
        with np.errstate(invalid="ignore", over="ignore"):
            if not running_max:
                np.add(total[local], comp[local], out=out[first:last])
            else:
                block = np.add(total, comp, out=sums[:m])
                if local.size:
                    # maxima of the stretches that end at each sampled index
                    starts = np.concatenate(([0], local[:-1] + 1))
                    seg = np.maximum.reduceat(block[:local[-1] + 1], starts)
                    seg[0] = np.maximum(seg[0], peak)
                    np.maximum.accumulate(seg, out=out[first:last])
                peak = np.maximum(peak, block.max())
        first = last
    return out
