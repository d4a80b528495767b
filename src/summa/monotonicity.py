"""Finite-scale verdicts for the sequence classes the factor theorems quote.

Nothing here proves an asymptotic property; every check reports what holds
on the stored prefix and is explicit about that in its field names
(``holds_on_range``).  Differences follow
the package convention  (D b)_n = b_n - b_(n+1).

Each check is a private block step, a generator that only the checker's
pass runs: it is sent each block (``checker._Block``) and then None, and
returns the verdict.  It judges values on the block and differences on
the block's window, which adds the two values before it, so it carries only
a running maximum, sums or the first violation.  It takes epsilon, k, the
floor and the slack from ``CesaroParams`` and ``Tolerances``, which refuse
values a step could not judge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

import numpy as np

from .accumulation import _PairwiseSum

if TYPE_CHECKING:
    from .checker import _Block

__all__ = ["QuasiMonotoneVerdict"]


@dataclass(frozen=True)
class QuasiMonotoneVerdict:
    """Prefix verdict for the delta-quasi-monotone class.

    The class requires b_n -> 0, b_n > 0 ultimately, and
    (D b)_n >= -delta_n for a given positive sequence (delta_n).  On a
    prefix: ``holds_on_range`` covers the difference condition at every
    available index, ``positivity_from`` is the first index from which all
    stored values are positive (None when even the final value is not), and
    the trend fields compare the final-quarter mean against the
    first-quarter mean as a decay diagnostic only, never as a proof of
    b_n -> 0.
    """

    holds_on_range: bool
    first_violation: int | None
    positivity_from: int | None
    trend_ratio: float | None


def _quasi_monotone_steps(length: int
                          ) -> Generator[None, _Block | None,
                                         QuasiMonotoneVerdict]:
    """Check (D Q)_n >= -delta_n wherever Q's difference exists, on the
    blocks' Q and delta (``length`` values from index 1; delta's last value
    is never read).  The trend means are np.mean's bits (``_PairwiseSum``);
    a non-positive delta raises with the first window that holds Q's
    difference at its index."""
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

    return QuasiMonotoneVerdict(holds_on_range=first_violation is None,
                                first_violation=first_violation,
                                positivity_from=positivity_from,
                                trend_ratio=trend_ratio)


def _inf_ratio_steps() -> Generator[None, _Block | None,
                                    tuple[int | None, float]]:
    """The almost-increasing witness of the blocks' X: returns the index of
    the first non-positive value (None when all are positive) and, if there
    is none, inf_ratio, the least X_n / max_(v<=n) X_v (near zero at scale:
    not almost increasing), with the running max carried from block to
    block."""
    peak, low, bad = -np.inf, np.inf, None
    while (block := (yield)) is not None:
        if bad is None and np.any(block.X <= 0.0):
            bad = int(block.n[np.argmax(block.X <= 0.0)])
        elif bad is None:
            c = np.maximum.accumulate(block.X)
            np.maximum(c, peak, out=c)
            peak = c[-1]
            low = min(low, float(np.min(block.X / c)))
    return bad, low


def _weight_steps(epsilon: float, k: float, rel_tol: float
                  ) -> Generator[None, _Block | None,
                                 tuple[int | None, bool]]:
    """The first n where (n^(epsilon-k) |phi_n|^k) rises by more than
    ``rel_tol`` relative (rounding noise of a constant term), or is not
    finite, phi the blocks' |phi|: returns that index (None when there is
    none) and whether the term there is non-finite.  A term's rise into the
    next is judged in the first window that holds both."""
    first, non_finite = None, False
    while (block := (yield)) is not None:
        if first is None:
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
            # comparisons with NaN are False, so non-finite entries are
            # flagged on their own
            bad = ~np.isfinite(seq)
            bad[:-1] |= rise > slack
            if np.any(bad):
                j = int(np.argmax(bad))
                first, non_finite = int(n[j]), not np.isfinite(seq[j])
    return first, non_finite
