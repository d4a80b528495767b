"""Finite-scale verdicts for the sequence classes the factor theorems quote.

Nothing here proves an asymptotic property; every check reports what holds
on the stored prefix and is explicit about that in its field names
(``holds_on_range``, ``almost_increasing_at_scale``).  Differences follow
the package convention  (D b)_n = b_n - b_(n+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import RealSequence, _adopt

__all__ = [
    "QuasiMonotoneVerdict",
    "AlmostIncreasingWitness",
    "quasi_monotone_check",
    "almost_increasing_diagnostic",
    "power_weight_monotonicity_check",
]


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
    dvals = delta.range_view(lo, hi)
    if np.any(dvals <= 0.0):
        bad = lo + int(np.argmax(dvals <= 0.0))
        raise ValueError(f"delta must be positive everywhere; first "
                         f"non-positive entry at index {bad}")

    diffs = b.values[:-1] - b.values[1:]
    bad_mask = diffs < -dvals
    if np.any(bad_mask):
        holds = False
        first_violation = lo + int(np.argmax(bad_mask))
    else:
        holds = True
        first_violation = None

    positive = b.values > 0.0
    if positive[-1]:
        # last index of the longest all-positive suffix
        not_pos = np.nonzero(~positive)[0]
        offset = 0 if not_pos.size == 0 else int(not_pos[-1]) + 1
        positivity_from = b.start_index + offset
    else:
        positivity_from = None

    quarter = len(b) // 4
    if quarter >= 1:
        head = float(np.mean(np.abs(b.values[:quarter])))
        tail = float(np.mean(np.abs(b.values[-quarter:])))
        trend_ratio = tail / head if head > 0.0 else None
    else:
        trend_ratio = None

    return QuasiMonotoneVerdict(holds_on_range=holds,
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
    if np.any(b.values <= 0.0):
        bad = b.start_index + int(np.argmax(b.values <= 0.0))
        raise ValueError(f"b must be positive everywhere; first non-positive "
                         f"entry at index {bad}")
    cvals = np.maximum.accumulate(b.values)
    ratios = b.values / cvals
    inf_ratio = float(np.min(ratios))
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
    # three float arrays of the input's length, reused in place
    with np.errstate(all="ignore"):
        seq = np.arange(1.0, phi.size + 1.0)
        np.power(seq, epsilon - k, out=seq)
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
        return int(np.argmax(bad)) + 1
    return None
