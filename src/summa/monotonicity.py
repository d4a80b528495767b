"""Finite-scale verdicts for the sequence classes the factor theorems quote.

Nothing here proves an asymptotic property; every check reports what holds
on the stored prefix and is explicit about that in its field names
(``holds_on_range``, ``almost_increasing_at_scale``).  Differences follow
the package convention  (D b)_n = b_n - b_(n+1).

Each check is a private block step: a generator sent windows in order
(``None`` ends them), the indices n as floats and the values there, that
returns the verdict.  The checker's pass sends each block with the two
values before it, so a step carries only a running maximum, sums or the
first violation; the public functions send one window, with the same bits.
So no check holds an n-long array of its own: the almost-increasing witness
keeps inf_ratio, not the running maximum it is taken against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator

import numpy as np

from .accumulation import _PairwiseSum
from .sequences import RealSequence

__all__ = [
    "QuasiMonotoneVerdict",
    "AlmostIncreasingWitness",
    "quasi_monotone_check",
    "almost_increasing_diagnostic",
    "power_weight_monotonicity_check",
]


def _drive(steps: Generator, start: int, *values: np.ndarray):
    """The verdict of a block step sent ``values`` from index ``start``."""
    next(steps)
    steps.send((np.arange(start, start + values[0].size, dtype=np.float64),
                *values))
    try:
        steps.send(None)
    except StopIteration as done:
        return done.value


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


def quasi_monotone_check(b: RealSequence, delta: RealSequence) -> QuasiMonotoneVerdict:
    """Check (D b)_n >= -delta_n wherever both sides are stored.

    ``delta`` must be positive and must cover every index where the
    difference of ``b`` exists (b.start_index .. b.end_index - 1).
    """
    if len(b) < 2:
        raise ValueError("need at least two values to difference b")
    lo, hi = b.start_index, b.end_index - 1
    if delta.start_index > lo or delta.end_index < hi:
        raise ValueError(f"delta must cover indices [{lo}, {hi}], got "
                         f"[{delta.start_index}, {delta.end_index}]")
    # delta_N is never read: the last difference is at index N - 1
    dvals = np.append(delta.range_view(lo, hi), 1.0)
    return _drive(_quasi_monotone_steps(len(b), lo), lo, b.values, dvals)


def _quasi_monotone_steps(length: int, start: int
                          ) -> Generator[None, tuple | None,
                                         QuasiMonotoneVerdict]:
    """``quasi_monotone_check`` as a block step, sent (n, b, delta)
    windows of b's ``length`` values from index ``start``.  The trend means
    are np.mean's bits (``_PairwiseSum``); a non-positive delta raises
    with the first window that holds b's difference at its index."""
    quarter = length // 4
    head = _PairwiseSum(0, quarter)
    tail = _PairwiseSum(length - quarter, quarter)
    first_violation = last_not_positive = None
    while (window := (yield)) is not None:
        n, b, d = window
        if np.any(d[:-1] <= 0.0):
            bad = int(n[np.argmax(d[:-1] <= 0.0)])
            raise ValueError(f"delta must be positive everywhere; first "
                             f"non-positive entry at index {bad}")
        bad_mask = b[:-1] - b[1:] < -d[:-1]
        if first_violation is None and np.any(bad_mask):
            first_violation = int(n[np.argmax(bad_mask)])
        not_pos = np.nonzero(~(b > 0.0))[0]
        if not_pos.size:
            last_not_positive = int(n[not_pos[-1]])
        mags = np.abs(b)
        offset = int(n[0]) - start
        head.push(offset, mags)
        tail.push(offset, mags)

    if last_not_positive is None:
        positivity_from = start
    elif last_not_positive == start + length - 1:
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


@dataclass(frozen=True)
class AlmostIncreasingWitness:
    """Sandwich witness inf_ratio * c_n <= b_n <= c_n, c the running max.

    c_n = max_(v<=n) b_v is non-decreasing, and inf_ratio = min_n b_n / c_n
    is the largest constant that fits below; c itself is not kept.
    inf_ratio stuck near zero as the range grows is the signature of a
    sequence that is not almost increasing.
    """

    inf_ratio: float
    floor: float
    almost_increasing_at_scale: bool


def almost_increasing_diagnostic(b: RealSequence,
                                 floor: float = 1e-6) -> AlmostIncreasingWitness:
    """Witness construction for the almost-increasing class on a prefix.

    Requires b positive.  The verdict compares inf_ratio against ``floor``:
    a genuine almost-increasing sequence keeps inf_ratio bounded away from
    zero at every scale, so any fixed positive floor eventually separates
    the two classes.  The floor is a Python or numpy real number, not a
    boolean.
    """
    if (isinstance(floor, bool)
            or not isinstance(floor, (int, float, np.integer, np.floating))
            or not (math.isfinite(floor) and floor > 0.0)):
        raise ValueError("floor must be a positive finite number")
    bad, inf_ratio = _drive(_inf_ratio_steps(), b.start_index, b.values)
    if bad is not None:
        raise ValueError(f"b must be positive everywhere; first non-positive "
                         f"entry at index {bad}")
    return AlmostIncreasingWitness(
        inf_ratio=inf_ratio,
        floor=float(floor),
        almost_increasing_at_scale=bool(inf_ratio > floor),
    )


def _inf_ratio_steps() -> Generator[None, tuple | None,
                                    tuple[int | None, float]]:
    """Block step sent (n, b) windows: returns the index of the first
    non-positive value (None when all are positive) and, if there is none,
    inf_ratio, the least b_n / max_(v<=n) b_v, with the running max
    carried from window to window.  A window's values at indices already
    seen are skipped."""
    last, peak, low, bad = -np.inf, -np.inf, np.inf, None
    while (window := (yield)) is not None:
        n, b = window
        fresh = int(np.searchsorted(n, last, side="right"))
        n, b, last = n[fresh:], b[fresh:], n[-1]
        if bad is None and np.any(b <= 0.0):
            bad = int(n[np.argmax(b <= 0.0)])
        elif bad is None:
            c = np.maximum.accumulate(b)
            np.maximum(c, peak, out=c)
            peak = c[-1]
            low = min(low, float(np.min(b / c)))
    return bad, low


def power_weight_monotonicity_check(phi: np.ndarray, epsilon: float, k: float,
                                    rel_tol: float = 1e-12) -> int | None:
    """First index n where (n^(epsilon-k) |phi_n|^k) increases, else None.

    ``phi`` holds |phi_n| for n = 1..len(phi).  The comparison allows a
    relative slack ``rel_tol`` >= 0 so that analytically constant
    sequences (classic weights with epsilon = 1) are not failed on rounding
    noise.
    An entry that is not finite (a power overflowed) is a violation at its
    own index, found without floating-point warnings.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 1 or phi.size < 2:
        raise ValueError("need at least two weight values")
    if not all(math.isfinite(v) for v in (epsilon, k, rel_tol)):
        raise ValueError("epsilon, k and rel_tol must be finite")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if k < 1.0:
        raise ValueError("k must be at least 1")
    if rel_tol < 0.0:
        # a negative slack would fail an exactly constant term
        raise ValueError("rel_tol must not be negative")
    return _drive(_weight_steps(epsilon, k, rel_tol), 1, phi)[0]


def _weight_steps(epsilon: float, k: float, rel_tol: float
                  ) -> Generator[None, tuple | None,
                                 tuple[int | None, bool]]:
    """``power_weight_monotonicity_check`` as a block step, sent (n, |phi|)
    windows: returns the first violation (None when there is none) and
    whether the term there is non-finite.  A term's rise into the next is
    judged in the first window that holds both."""
    first, non_finite = None, False
    while (window := (yield)) is not None:
        if first is None:
            n, phi = window
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
