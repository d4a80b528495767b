"""Finite-scale verdicts for the sequence classes the factor theorems quote.

Nothing here proves an asymptotic property; every check reports what holds
on the blocks it has read.  Differences follow the package convention
(D b)_n = b_n - b_(n+1).

Each check is a private block step, a generator that only the checker's
pass runs: it is sent each block (``checker._Block``) and then None, and
returns its verdict as a plain tuple.  A step that only looks for a first
violation returns at it, and the pass sends it no more blocks; the others
return when the blocks end.  A step judges values on the block and
differences on the block's window, which adds the two values before it, so
it carries only a running maximum or sums.  It takes epsilon, k, the
floor and the slack from ``CesaroParams`` and ``Tolerances``, which refuse
values a step could not judge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

import numpy as np

from .accumulation import _PairwiseSum

if TYPE_CHECKING:
    from .checker import _Block

__all__ = []


def _quasi_monotone_steps(length: int
                          ) -> Generator[None, _Block | None,
                                         tuple[int | None, int | None,
                                               float | None]]:
    """The prefix verdict for the delta-quasi-monotone class, which asks
    for b_n -> 0, b_n > 0 ultimately and (D b)_n >= -delta_n, on the
    blocks' Q and delta (``length`` values from index 1; delta's last value
    is never read).  Returns (first_violation, positivity_from,
    trend_ratio): the first n with (D Q)_n < -delta_n (None when the
    difference condition holds at every index where it exists), the first
    index from which all values are positive (None when even the last is
    not), and the mean of |Q| over the last quarter over that of the first,
    a decay diagnostic only, never a proof of Q_n -> 0 (None when a quarter
    is empty or the first has mean zero).  The trend means are np.mean's
    bits (``_PairwiseSum``); a non-positive delta raises with the first
    window that holds Q's difference at its index."""
    quarter = length // 4
    head = _PairwiseSum(0, quarter)
    tail = _PairwiseSum(length - quarter, quarter)
    first_violation = last_not_positive = None
    while (block := (yield)) is not None:
        w = block.window
        if np.any(w.delta[:-1] <= 0.0):
            bad = int(w.n[np.argmax(w.delta[:-1] <= 0.0)])
            raise ValueError(f"delta must be positive everywhere; first "
                             f"non-positive entry at index {bad}")
        bad_mask = w.Q[:-1] - w.Q[1:] < -w.delta[:-1]
        if first_violation is None and np.any(bad_mask):
            first_violation = int(w.n[np.argmax(bad_mask)])
        not_pos = np.nonzero(~(block.Q > 0.0))[0]
        if not_pos.size:
            last_not_positive = int(block.n[not_pos[-1]])
        mags = np.abs(block.Q)
        head.push(block.lo, mags)
        tail.push(block.lo, mags)

    if last_not_positive is None:
        positivity_from = 1
    elif last_not_positive == length:
        positivity_from = None
    else:
        # first index of the longest all-positive suffix
        positivity_from = last_not_positive + 1

    trend_ratio = None
    if quarter >= 1:
        head_mean = float(head.total / quarter)
        tail_mean = float(tail.total / quarter)
        trend_ratio = tail_mean / head_mean if head_mean > 0.0 else None

    return first_violation, positivity_from, trend_ratio


def _inf_ratio_steps() -> Generator[None, _Block | None,
                                    tuple[int | None, float]]:
    """The almost-increasing witness of the blocks' X: returns (bad, inf)
    at the first non-positive value, bad its index and inf what the blocks
    before it gave, else (None, inf_ratio) when the blocks end, inf_ratio
    the least X_n / max_(v<=n) X_v (near zero at scale: not almost
    increasing), with the running max carried from block to block."""
    peak, low = -np.inf, np.inf
    while (block := (yield)) is not None:
        if np.any(block.X <= 0.0):
            return int(block.n[np.argmax(block.X <= 0.0)]), low
        c = np.maximum.accumulate(block.X)
        np.maximum(c, peak, out=c)
        peak = c[-1]
        low = min(low, float(np.min(block.X / c)))
    return None, low


def _weight_steps(epsilon: float, k: float, rel_tol: float
                  ) -> Generator[None, _Block | None,
                                 tuple[int | None, bool]]:
    """The first n where (n^(epsilon-k) |phi_n|^k) rises by more than
    ``rel_tol`` relative (rounding noise of a constant term), or is not
    finite, phi the blocks' |phi|: returns (that index, whether the term
    there is non-finite) as soon as a window holds it, else (None, False)
    when the blocks end.  A term's rise into the next is judged in the
    first window that holds both."""
    while (block := (yield)) is not None:
        n, phi = block.window.n, block.window.phi
        # float arrays of the window's length, reused in place
        with np.errstate(all="ignore"):
            seq = np.power(n, epsilon - k)
            tmp = np.abs(phi)
            np.power(tmp, k, out=tmp)
            seq *= tmp
            np.abs(seq, out=tmp)
            slack = np.maximum(tmp[1:], tmp[:-1])
            slack *= rel_tol
            rise = np.subtract(seq[1:], seq[:-1], out=tmp[:-1])
        # comparisons with NaN are False, so non-finite entries are flagged
        # on their own
        bad = ~np.isfinite(seq)
        bad[:-1] |= rise > slack
        if np.any(bad):
            j = int(np.argmax(bad))
            return int(n[j]), not np.isfinite(seq[j])
    return None, False
