"""Finite-scale verdicts for the sequence classes the factor theorems quote.

Nothing here proves an asymptotic property; every check reports what holds
on the stored prefix and is explicit about that in its field names
(``holds_on_range``, ``almost_increasing_at_scale``).  Differences follow
the package convention  (D b)_n = b_n - b_(n+1).

Each check is a private block step: a generator sent the sequence's blocks
in order (``None`` ends them) that carries what the next block needs (the
last value or two, a running maximum, the first violation) and returns the
verdict.  The checker's pass over a bundle sends them its blocks; the public
functions send their whole arrays as one block, which gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator

import numpy as np

from .accumulation import _PairwiseSum
from .sequences import RealSequence, _adopt

__all__ = [
    "QuasiMonotoneVerdict",
    "AlmostIncreasingWitness",
    "quasi_monotone_check",
    "almost_increasing_diagnostic",
    "power_weight_monotonicity_check",
]

_EMPTY = np.empty(0)


def _drive(steps: Generator, block):
    """Send ``block`` to a block step as its only block; return its verdict."""
    next(steps)
    steps.send(block)
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
    return _drive(_quasi_monotone_steps(len(b), lo), (b.values, dvals))


def _quasi_monotone_steps(length: int, start: int
                          ) -> Generator[None, tuple | None,
                                         QuasiMonotoneVerdict]:
    """``quasi_monotone_check`` as a block step, sent (b, delta) blocks
    aligned on b's ``length`` values from index ``start``.  The trend means
    are np.mean's bits (``_PairwiseSum``); a non-positive delta raises when
    its block comes."""
    quarter = length // 4
    head = _PairwiseSum(0, quarter)
    tail = _PairwiseSum(length - quarter, quarter)
    lo, prev_b, prev_d = 0, _EMPTY, _EMPTY
    first_violation = last_not_positive = None
    while (blocks := (yield)) is not None:
        b, d = blocks
        base = start + lo - prev_b.size  # index of the first carried value
        eb, dvals = np.concatenate((prev_b, b)), np.concatenate((prev_d, d))
        dvals = dvals[:-1]
        if np.any(dvals <= 0.0):
            bad = base + int(np.argmax(dvals <= 0.0))
            raise ValueError(f"delta must be positive everywhere; first "
                             f"non-positive entry at index {bad}")
        bad_mask = eb[:-1] - eb[1:] < -dvals
        if first_violation is None and np.any(bad_mask):
            first_violation = base + int(np.argmax(bad_mask))
        not_pos = np.nonzero(~(b > 0.0))[0]
        if not_pos.size:
            last_not_positive = lo + int(not_pos[-1])
        mags = np.abs(b)
        head.push(lo, mags)
        tail.push(lo, mags)
        prev_b, prev_d = b[-1:], d[-1:]
        lo += b.size

    if last_not_positive is None:
        positivity_from = start
    elif last_not_positive == length - 1:
        positivity_from = None
    else:
        # first index of the longest all-positive suffix
        positivity_from = start + last_not_positive + 1

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
    """Sandwich witness A * c_n <= b_n <= B * c_n with c the running max.

    c is non-decreasing by construction, B = 1 exactly (b_n <= c_n always),
    and A = inf_ratio = min_n b_n / c_n.  inf_ratio stuck near zero as the
    range grows is the signature of a sequence that is not almost
    increasing.
    """

    c: RealSequence
    inf_ratio: float
    A: float
    B: float
    floor: float
    almost_increasing_at_scale: bool


def almost_increasing_diagnostic(b: RealSequence,
                                 floor: float = 1e-6) -> AlmostIncreasingWitness:
    """Witness construction for the almost-increasing class on a prefix.

    Requires b positive.  The verdict compares inf_ratio against ``floor``:
    a genuine almost-increasing sequence keeps inf_ratio bounded away from
    zero at every scale, so any fixed positive floor eventually separates
    the two classes.
    """
    if not (isinstance(floor, (int, float)) and math.isfinite(floor) and floor > 0.0):
        raise ValueError("floor must be a positive finite number")
    bad, inf_ratio = _drive(_inf_ratio_steps(), b.values)
    if bad is not None:
        raise ValueError(f"b must be positive everywhere; first non-positive "
                         f"entry at index {b.start_index + bad}")
    cvals = np.maximum.accumulate(b.values)
    # sandwich sanity: b <= c exactly, and inf_ratio * c <= b up to one
    # rounding of the product
    assert np.all(b.values <= cvals)
    assert np.all(inf_ratio * cvals <= b.values * (1.0 + 4.0 * np.finfo(float).eps))
    return AlmostIncreasingWitness(
        c=_adopt(b.start_index, cvals),
        inf_ratio=inf_ratio,
        A=inf_ratio,
        B=1.0,
        floor=float(floor),
        almost_increasing_at_scale=bool(inf_ratio > floor),
    )


def _inf_ratio_steps() -> Generator[None, np.ndarray | None,
                                    tuple[int | None, float]]:
    """Block step sent b's blocks: returns the offset of the first
    non-positive value (None when all are positive) and, if there is none,
    inf_ratio, the least b_n / max_(v<=n) b_v, with the running max
    carried from block to block."""
    lo, peak, low, bad = 0, -np.inf, np.inf, None
    while (b := (yield)) is not None:
        if bad is None and np.any(b <= 0.0):
            bad = lo + int(np.argmax(b <= 0.0))
        elif bad is None:
            c = np.maximum.accumulate(b)
            np.maximum(c, peak, out=c)
            peak = c[-1]
            low = min(low, float(np.min(b / c)))
        lo += b.size
    return bad, low


def power_weight_monotonicity_check(phi: np.ndarray, epsilon: float, k: float,
                                    rel_tol: float = 1e-12) -> int | None:
    """First index n where (n^(epsilon-k) |phi_n|^k) increases, else None.

    ``phi`` holds |phi_n| for n = 1..len(phi).  The comparison allows a
    relative slack ``rel_tol`` so that analytically constant sequences
    (classic weights with epsilon = 1) are not failed on rounding noise.
    An entry that is not finite (a power overflowed) is a violation at its
    own index, found without floating-point warnings.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 1 or phi.size < 2:
        raise ValueError("need at least two weight values")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if k < 1.0:
        raise ValueError("k must be at least 1")
    return _drive(_weight_steps(epsilon, k, rel_tol), phi)[0]


def _weight_steps(epsilon: float, k: float, rel_tol: float
                  ) -> Generator[None, np.ndarray | None,
                                 tuple[int | None, float | None]]:
    """``power_weight_monotonicity_check`` as a block step, sent |phi|'s
    blocks: returns the first violation and phi there (None, None when
    there is none).  The last term of a block is carried, and its rise is
    judged with the next block."""
    lo, prev, prev_phi = 0, _EMPTY, _EMPTY
    first = phi_first = None
    while (phi := (yield)) is not None:
        hi, base = lo + phi.size, lo - prev.size
        if first is None:
            # float arrays of the block's length, reused in place
            with np.errstate(all="ignore"):
                seq = np.arange(lo + 1.0, hi + 1.0)
                np.power(seq, epsilon - k, out=seq)
                tmp = np.abs(phi)
                np.power(tmp, k, out=tmp)
                seq *= tmp
                seq = np.concatenate((prev, seq))
                tmp = np.abs(seq)
                slack = np.maximum(tmp[1:], tmp[:-1])
                slack *= rel_tol
                rise = np.subtract(seq[1:], seq[:-1], out=tmp[:-1])
            # comparisons with NaN are False, so non-finite entries are
            # flagged on their own
            bad = ~np.isfinite(seq)
            bad[:-1] |= rise > slack
            if np.any(bad):
                j = int(np.argmax(bad))
                first = base + j + 1
                phi_first = np.concatenate((prev_phi, phi))[j]
            prev, prev_phi = seq[-1:], phi[-1:]
        lo = hi
    return first, phi_first
