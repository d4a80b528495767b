"""Weighted summability functionals and their partial-sum traces.

The general functional attached to a mean sequence (t_n) with weights
(phi_n) and exponent k >= 1 is

    sum_n n^(-k) * |phi_n * t_n|^k.

Two named weight choices recover the classical absolute-summability series
(with the monotonicity exponent epsilon = 1):

    classic:  phi_n = n^(1 - 1/k)        ->  sum n^(-1)      * |t_n|^k
    indexed:  phi_n = n^(beta + 1 - 1/k) ->  sum n^(beta*k-1) * |t_n|^k

Traces never materialize infinite series; they report compensated partial
sums at caller-chosen checkpoints.  Every checkpoint list in the package,
config grids included, goes through ``validate_checkpoints``.  For the
checker's pass over a bundle, a weight also gives |phi_n| a block at a time
(``WeightSpec._phi_block``), and ``_PowerTrace`` takes a trace's values
block by block.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import accumulation
from .accumulation import _indices, _SampledSums, compensated_sums_at
from .cesaro import cesaro_t
from .sequences import CesaroParams, RealSequence

__all__ = [
    "WeightKind",
    "WeightSpec",
    "CheckpointTrace",
    "FunctionalTrace",
    "weighted_power_trace",
    "ReductionIdentityReport",
    "reduction_identity_check",
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
            beta = float(self.beta)
            if not math.isfinite(beta) or beta < 0.0:
                raise ValueError("beta must be finite and non-negative")
            object.__setattr__(self, "beta", beta)
            if kind is not WeightKind.INDEXED:
                raise ValueError("beta applies to the indexed weight only")

    def phi_values(self, n_max: int, k: float, beta_default: float = 0.0) -> np.ndarray:
        """|phi_n| for n = 1..n_max.  Complex-valued weights from the parent

        definition are represented by their moduli; nothing downstream ever
        uses more than |phi_n|.
        """
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.phi is not None and self.phi.end_index < n_max:
            raise ValueError(f"explicit phi covers only indices up to "
                             f"{self.phi.end_index}, need {n_max}")
        return self._phi_block(0, n_max, k, beta_default)

    def _phi_block(self, lo: int, hi: int, k: float,
                   beta_default: float = 0.0) -> np.ndarray:
        """|phi_n| for n = lo + 1..hi, the same bits as those entries of
        ``phi_values``; an explicit phi is not checked for finiteness."""
        if self.phi is not None:
            first = self.phi.start_index
            return np.abs(self.phi._block(lo + 1 - first, hi + 1 - first))
        n = np.arange(lo + 1.0, hi + 1.0)
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
    halve exactly: each checkpoint is the next one // 2.
    """
    cps = tuple(int(c) for c in checkpoints)
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
    """The sums of ``weighted_power_trace``, fed phi and the values a block
    at a time (``push``, blocks in order, each at most ``_BLOCK`` long);
    blocks past the last checkpoint are ignored."""

    def __init__(self, k: float, checkpoints: tuple[int, ...]) -> None:
        self._k, self._cps = k, checkpoints
        self._sums = _SampledSums(checkpoints, running_max=True)
        self._n = _indices(self._sums.stop)
        self._terms = np.empty(max(1, min(accumulation._BLOCK,
                                          self._sums.stop)))
        self._lo = 0

    def push(self, phi: np.ndarray, values: np.ndarray) -> None:
        lo = self._lo
        hi = self._lo = lo + values.size
        if lo >= self._sums.stop:
            return
        hi = min(hi, self._sums.stop)
        out = self._terms[:hi - lo]
        np.multiply(phi[:hi - lo], values[:hi - lo], out=out)
        np.abs(out, out=out)
        out /= self._n(lo, hi)
        self._sums.push(np.power(out, self._k, out=out))

    def trace(self) -> FunctionalTrace:
        # compensated prefixes of non-negative terms can dip by one ulp;
        # the running max restores exact monotonicity without moving any
        # value beyond that ulp
        return FunctionalTrace(checkpoints=self._cps,
                               partial_sums=self._sums.sums)


def weighted_power_trace(values, k: float, phi: np.ndarray,
                         checkpoints: Sequence[int]) -> FunctionalTrace:
    """Trace of sum_n n^(-k) |phi_n * values_n|^k, values indexed from 1.

    Shared workhorse: the functional proper feeds it t, the hypothesis
    checks feed it the maximal sequence w.  ``values`` is an array aligned
    with phi, or an iterator of consecutive blocks that together hold
    values_1 .. values_N, N = len(phi), such as the Cesaro streams yield.
    Each block is read before the next is drawn, and every block is drawn,
    those past the last checkpoint included, so that whatever checks the
    source makes on its blocks all run.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if isinstance(values, Iterator):
        blocks = values
    else:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != phi.shape:
            raise ValueError("values and phi must align")
        blocks = iter((values,))
    if k < 1.0:
        raise ValueError("k must be at least 1")
    cps = validate_checkpoints(checkpoints, phi.size)
    trace = _PowerTrace(k, cps)
    size = max(1, min(accumulation._BLOCK, cps[-1]))
    out = np.empty(size)
    head, drawn = np.empty(0), 0

    def draw() -> np.ndarray:
        nonlocal drawn
        block = next(blocks, None)
        if block is None:
            raise ValueError("values and phi must align")
        drawn += block.size
        return block

    def read(m: int) -> np.ndarray:
        """The next m values: requests come in order and cover the values
        in turn, so they are read off the blocks as they come."""
        nonlocal head
        if not head.size:
            head = draw()
        if head.size >= m:  # one block holds them: a view, no copy
            view, head = head[:m], head[m:]
            return view
        filled = 0
        while filled < m:  # each piece is copied before the next block
            if not head.size:
                head = draw()
            take = min(m - filled, head.size)
            out[filled:filled + take] = head[:take]
            head, filled = head[take:], filled + take
        return out[:m]

    for lo in range(0, cps[-1], size):
        hi = min(lo + size, cps[-1])
        trace.push(phi[lo:hi], read(hi - lo))
    drawn += sum(block.size for block in blocks)
    if drawn != phi.size:
        raise ValueError("values and phi must align")
    return trace.trace()


@dataclass(frozen=True)
class ReductionIdentityReport:
    """Named-weight traces next to their direct reduced forms.

    The deviations are term-wise: max over n of the relative gap between the
    phi-form term and the reduced-form term.  Both classic pairs and indexed
    pairs agree analytically; the report measures the floating-point gap.
    """

    m: int
    k: float
    beta: float
    classic_trace: FunctionalTrace
    classic_direct_trace: FunctionalTrace
    indexed_trace: FunctionalTrace
    indexed_direct_trace: FunctionalTrace
    max_rel_dev_classic: float
    max_rel_dev_indexed: float


def _max_rel_deviation(x: np.ndarray, y: np.ndarray) -> float:
    scale = np.maximum(np.abs(x), np.abs(y))
    diff = np.abs(x - y)
    mask = scale > 0.0
    if not np.any(mask):
        return 0.0
    return float(np.max(diff[mask] / scale[mask]))


def reduction_identity_check(a: RealSequence, params: CesaroParams,
                             m: int) -> ReductionIdentityReport:
    """Check both named-weight reductions term-by-term out to index m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    t = cesaro_t(a, params.alpha)
    if len(t) < m:
        raise ValueError(f"t prefix has length {len(t)}, need {m}")
    k, beta = params.k, params.beta
    n = np.arange(1.0, m + 1.0)
    tm = np.abs(t.values[:m])

    phi_classic = np.power(n, 1.0 - 1.0 / k)
    terms_classic = np.power(phi_classic * tm / n, k)
    terms_eq_classic = np.power(tm, k) / n

    phi_indexed = np.power(n, beta + 1.0 - 1.0 / k)
    terms_indexed = np.power(phi_indexed * tm / n, k)
    terms_eq_indexed = np.power(n, beta * k - 1.0) * np.power(tm, k)

    cps = tuple(range(1, m + 1))

    def trace(terms: np.ndarray) -> FunctionalTrace:
        sums = compensated_sums_at(terms, cps, running_max=True)
        return FunctionalTrace(checkpoints=cps, partial_sums=sums)

    return ReductionIdentityReport(
        m=m, k=k, beta=beta,
        classic_trace=trace(terms_classic),
        classic_direct_trace=trace(terms_eq_classic),
        indexed_trace=trace(terms_indexed),
        indexed_direct_trace=trace(terms_eq_indexed),
        max_rel_dev_classic=_max_rel_deviation(terms_classic, terms_eq_classic),
        max_rel_dev_indexed=_max_rel_deviation(terms_indexed, terms_eq_indexed),
    )
