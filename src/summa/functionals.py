"""Weighted summability functionals and their partial-sum traces.

The general functional attached to a mean sequence (t_n) with weights
(phi_n) and exponent k >= 1 is

    sum_n n^(-k) * |phi_n * t_n|^k.

Two named weight choices recover the classical absolute-summability series
(with the monotonicity exponent epsilon = 1):

    classic:  phi_n = n^(1 - 1/k)        ->  sum n^(-1)      * |t_n|^k
    indexed:  phi_n = n^(beta + 1 - 1/k) ->  sum n^(beta*k-1) * |t_n|^k

Traces never materialize infinite series; they report compensated partial
sums at caller-chosen checkpoints, each checkpoint's value the compensated
sum of the terms up to it.  Every checkpoint list in the package,
config grids included, goes through ``validate_checkpoints``.  For the
checker's pass over a bundle, a weight also gives |phi_n| a block at a time
(``WeightSpec._phi_block``), and ``_PowerTrace`` takes a trace's values
block by block as the pass pushes them, for one trace or for two that
share phi and their accumulate scans (lanes); ``weighted_power_trace``
pushes the blocks of whole arrays.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import accumulation
from .accumulation import _SampledSums, _lane_buffer, _lanes
from .sequences import RealSequence, _real

__all__ = [
    "WeightKind",
    "WeightSpec",
    "CheckpointTrace",
    "FunctionalTrace",
    "weighted_power_trace",
]


class WeightKind(str, enum.Enum):
    EXPLICIT_PHI = "explicit_phi"
    CLASSIC = "classic"
    INDEXED = "indexed"


@dataclass(frozen=True)
class WeightSpec:
    """Weight recipe: an explicit (phi_n) prefix or a named power form."""

    kind: WeightKind
    phi: RealSequence | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        kind = WeightKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is WeightKind.EXPLICIT_PHI:
            if self.phi is None:
                raise ValueError("explicit_phi weight requires a phi sequence")
            if self.phi.start_index > 1:
                raise ValueError("explicit phi must cover indices from 1")
        elif self.phi is not None:
            raise ValueError(f"{kind.value} weight takes no explicit phi")
        if self.beta is not None:
            beta = _real(self.beta)
            if not math.isfinite(beta) or beta < 0.0:
                raise ValueError("beta must be finite and non-negative")
            object.__setattr__(self, "beta", beta)
            if kind is not WeightKind.INDEXED:
                raise ValueError("beta applies to the indexed weight only")

    def _require(self, n_max: int) -> None:
        """Refuse an explicit phi that stops before index n_max."""
        if self.phi is not None and self.phi.end_index < n_max:
            raise ValueError(f"explicit phi covers only indices up to "
                             f"{self.phi.end_index}, need {n_max}")

    def _phi_block(self, lo: int, n: np.ndarray, k: float,
                   beta_default: float = 0.0) -> np.ndarray:
        """|phi_n| for the indices n = lo + 1..lo + n.size, given as the
        floats n.  Complex-valued weights from the parent definition are
        represented by their moduli; nothing downstream ever uses more than
        |phi_n|.  An explicit phi is not checked for finiteness."""
        if self.phi is not None:
            first = self.phi.start_index
            return np.abs(self.phi._block(lo + 1 - first,
                                          lo + n.size + 1 - first))
        if self.kind is WeightKind.CLASSIC:
            return np.power(n, 1.0 - 1.0 / k)
        beta = self.beta if self.beta is not None else float(beta_default)
        return np.power(n, beta + 1.0 - 1.0 / k)


def validate_checkpoints(checkpoints: Sequence[int], limit: int | None = None,
                         *, at_least: int = 1,
                         dyadic: bool = False) -> tuple[int, ...]:
    """The checkpoints as a tuple of ints, or ValueError saying what is wrong.

    Checkpoints are strictly increasing indices >= 1, at least ``at_least``
    of them and none above ``limit`` when one is given.  ``dyadic`` grids
    (the ``checkpoints`` field of a config) must lie within 1..limit and
    halve exactly: each checkpoint is the next one // 2.  numpy integers
    are integers; floats and booleans are not.
    """
    cps = tuple(checkpoints)
    if not all(isinstance(c, numbers.Integral) and not isinstance(c, bool)
               for c in cps):
        raise ValueError("checkpoints must be integers")
    cps = tuple(int(c) for c in cps)
    if len(cps) < at_least:
        raise ValueError("at least one checkpoint required" if at_least == 1
                         else f"at least {at_least} checkpoints required")
    if dyadic:
        if cps[0] < 1 or cps[-1] > limit:
            raise ValueError(f"must lie within 1..{limit}")
        for a, b in zip(cps, cps[1:]):
            if a != b // 2:
                raise ValueError(f"not dyadic: {a} is not {b} // 2")
    elif cps[0] < 1 or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing and >= 1")
    elif limit is not None and cps[-1] > limit:
        raise ValueError(f"checkpoint {cps[-1]} exceeds available prefix "
                         f"length {limit}")
    return cps


@dataclass(frozen=True)
class CheckpointTrace:
    """Partial sums of a term series sampled at checkpoints.

    ``reference``, when present, is what the sums are judged against (one
    value per checkpoint): growth diagnostics divide by it and trace files
    print it next to the ratio.  Sums and ratios must be finite, so a series
    whose arithmetic overflowed is refused here rather than written.
    """

    checkpoints: tuple[int, ...]
    partial_sums: np.ndarray
    reference: np.ndarray | None = None

    def __post_init__(self) -> None:
        cps = validate_checkpoints(self.checkpoints)
        sums = np.asarray(self.partial_sums, dtype=np.float64).copy()
        if sums.shape != (len(cps),):
            raise ValueError("one partial sum per checkpoint required")
        if not np.all(np.isfinite(sums)):
            raise ValueError("partial sums must be finite")
        sums.setflags(write=False)
        object.__setattr__(self, "checkpoints", cps)
        object.__setattr__(self, "partial_sums", sums)
        if self.reference is not None:
            ref = np.asarray(self.reference, dtype=np.float64)
            if ref.shape != sums.shape:
                raise ValueError("reference must align with the checkpoints")
            if np.any(ref == 0.0):
                raise ValueError("reference entries must be non-zero")
            with np.errstate(all="ignore"):
                if not np.all(np.isfinite(sums / ref)):
                    raise ValueError("sum/reference ratios must be finite")
            object.__setattr__(self, "reference", ref)

    def __len__(self) -> int:
        return len(self.checkpoints)


@dataclass(frozen=True)
class FunctionalTrace(CheckpointTrace):
    """Partial sums of a non-negative term series, sampled at checkpoints."""

    def __post_init__(self) -> None:
        super().__post_init__()
        sums = self.partial_sums
        if np.any(sums < 0.0) or np.any(np.diff(sums) < 0.0):
            raise ValueError("partial sums of non-negative terms must be "
                             "non-negative and non-decreasing")


class _PowerTrace:
    """The sums of ``weighted_power_trace``, fed the indices n, phi and the
    values of each of ``lanes`` (1 or 2) traces a block at a time
    (``push``, blocks in order, each at most ``_BLOCK`` long); values past
    the last checkpoint are ignored.  The lanes share phi and every
    accumulate scan (``accumulation._Neumaier``)."""

    def __init__(self, k: float, checkpoints: tuple[int, ...],
                 lanes: int = 1) -> None:
        self._k, self._cps = k, checkpoints
        self._sums = _SampledSums(checkpoints, lanes)
        size = min(accumulation._BLOCK, self._sums.stop)
        self._terms = _lane_buffer(size, lanes)
        self._scratch = np.empty(size)
        self._lo = 0

    def push(self, n: np.ndarray, phi: np.ndarray, *values: np.ndarray
             ) -> None:
        """One block of values for each lane, in lane order."""
        lo = self._lo
        hi = self._lo = lo + values[0].size
        if lo >= self._sums.stop:
            return
        m = min(hi, self._sums.stop) - lo
        out, scratch = self._terms[:m], self._scratch[:m]
        # lane by lane, each op reading contiguous operands: broadcasting
        # over the (m, 2) buffer, or an op in place on one of its columns,
        # is far slower.  |phi v| / n is |phi v / n|, since dividing by
        # n > 0 rounds symmetrically
        for col, v in zip(_lanes(out), values):
            np.multiply(phi[:m], v[:m], out=scratch)
            np.divide(scratch, n[:m], out=col)
        np.abs(out, out=out)
        self._sums.push(np.power(out, self._k, out=out))

    def trace(self, lane: int = 0) -> FunctionalTrace:
        # the running max guards FunctionalTrace's non-decreasing check.  It
        # has moved no sum: no compensated prefix of non-negative terms was
        # seen to dip, in F1-F3's cond11 and conclusion terms to n = 2**20
        # nor in 40,000 random arrays of subnormal to near-overflow terms
        return FunctionalTrace(checkpoints=self._cps,
                               partial_sums=np.maximum.accumulate(
                                   _lanes(self._sums.sums)[lane]))


@np.errstate(all="ignore")
def weighted_power_trace(values, k: float, phi: np.ndarray,
                         checkpoints: Sequence[int]) -> FunctionalTrace:
    """Trace of sum_n n^(-k) |phi_n * values_n|^k, values indexed from 1.

    ``values`` is an array aligned with phi.  The checker's pass pushes
    its t and w blocks into the same ``_PowerTrace`` instead, so the two
    give the same bits.
    """
    phi = np.asarray(phi, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != phi.shape:
        raise ValueError("values and phi must align")
    if k < 1.0:
        raise ValueError("k must be at least 1")
    cps = validate_checkpoints(checkpoints, phi.size)
    trace = _PowerTrace(k, cps)
    size = accumulation._BLOCK
    for lo in range(0, cps[-1], size):
        hi = min(lo + size, cps[-1])
        trace.push(np.arange(lo + 1.0, hi + 1.0), phi[lo:hi], values[lo:hi])
    return trace.trace()
