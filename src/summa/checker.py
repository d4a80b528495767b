"""Finite-scale verdicts for the summability factor theorems.

Two theorem shapes are checked.  The older one (order 1 means, five
hypotheses) asks for a positive non-decreasing X with

    (i)   |lambda_n| X_n = O(1)
    (ii)  sum_(v<=n) v X_v |D^2 lambda_v| = O(1)
    (iii) (n^(epsilon-k) |phi_n|^k) non-increasing
    (iv)  sum_(v<=n) v^(-k) |phi_v t_v|^k = O(X_n)

The sharper one (orders 0 < alpha <= 1, eight hypotheses) replaces the
second-difference condition with a quasi-monotone majorant Q of
|D lambda| whose series sum n Q_n X_n converges, asks X to be almost
increasing, gates the parameters by k*alpha + epsilon > 1, and replaces the
t-trace by the maximal-sequence trace

    sum_(n<=m) n^(-k) (w_n^alpha |phi_n|)^k = O(X_m).

Each theorem is one ordered table of (condition, record builder) pairs;
MAIN_CONDITIONS and THEOREM_A_CONDITIONS are their first columns.  A check
is one pass over the bundle in blocks of ``accumulation._BLOCK`` indices
(``_Context.run``): each block of a, lambda, X, Q, delta and phi is made
once, from the role's own block source, as a window from two indices
before the block, which holds every difference across its edge
(differences follow the package convention (D b)_n = b_n - b_(n+1)).  The
block goes to every builder still running: one generator per record, which
carries only what no window holds (a running maximum, sampled compensated
sums) and returns its ``ConditionRecord`` as soon as its verdict is known,
a pointwise record at its first violation, a scale record and the
quasi-monotone record (whose trend reads every block) when the blocks end.
The pass takes the conclusion's trace beside the table and keeps it on
the bundle for ``conclusion_diagnostic``.

cond11 and the conclusion apply one functional to two means, w of a_n and
t of a_n * lambda_n, so their traces are the two lanes of one power trace,
fed by the two lanes of one ``cesaro._MeanSource``.  The pass makes both
once every builder has started: lane 0 is cond11's w, lane 1 the
conclusion's t, and a pass with no table (``conclusion_diagnostic``'s own)
has the t lane alone.  It pushes each block once, after the builders, and
cond11 and the pass read their traces (``_Context.mean_trace``) when the
blocks end.  The source holds every order's arithmetic and forms the
terms v * a_v and v * a_v * lambda_v itself, from the roles' blocks and
``cesaro._indices``: the checker names the factors, feeds the trace what
the source hands back, and tests no alpha.  At alpha = 1 the pass holds
no n-long array; at other orders the source makes both means whole
before the first block, in one kernel call.  Each block's terms and sums
sit side by side in (m, 2) buffers, whose accumulate scans run once as
complex128 (``accumulation``: complex addition is two float additions,
so each lane has the bits of its own scan).  A lane whose mean goes
non-finite, or whose operand the fractional kernel refuses, raises its
error when its builder reads it; the other runs on.

Errors keep the order of a bundle whose roles were made whole before the
check: a role's non-finite value (a, lambda, X, Q, delta, an explicit phi,
in that order) is raised first, after the pass has read every block; then
the first record error in table order.  A trace whose sums overflowed, or
whose reference X underflowed to zero, is refused with the name of its
record (or ``conclusion``) before the message; a lane's error is not.

The pass runs under one ``np.errstate(all="ignore")``: arithmetic that
overflows warns nowhere in it, and surfaces as a non-finite value that a
record, a trace or a lane refuses, so a caller sees the error and no
RuntimeWarning.

Every O(.) statement, the conclusion included, is judged at scale from a
CheckpointTrace by a log-log slope fit over the tail of a geometric
checkpoint grid; every pointwise statement is checked element-wise with
the first violating index reported (the majorant and weight records count
a non-finite value as a violation).  Verdicts say what holds on the
computed range, nothing more.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field
from typing import Generator, NamedTuple, Sequence

import numpy as np

from . import accumulation
from .accumulation import _SampledSums
from .cesaro import _indices, _MeanSource, _settled
from .functionals import (CheckpointTrace, FunctionalTrace, WeightSpec,
                          _PowerTrace, validate_checkpoints)
from .sequences import CesaroParams, RealSequence, _real, _verify

__all__ = [
    "GrowthVerdict",
    "GrowthDiagnostic",
    "Tolerances",
    "dyadic_checkpoints",
    "growth_diagnostic",
    "FamilyBundle",
    "ConditionRecord",
    "HypothesisReport",
    "MAIN_CONDITIONS",
    "THEOREM_A_CONDITIONS",
    "check_main_theorem",
    "check_theorem_a",
    "conclusion_diagnostic",
]


class GrowthVerdict(str, enum.Enum):
    BOUNDED_CONSISTENT = "bounded_consistent"
    GROWTH_DETECTED = "growth_detected"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Tolerances:
    """Knobs for the scale diagnostics; recorded verbatim in every report."""

    slope: float = 0.1
    ratio: float = 1.5
    inf_ratio_floor: float = 1e-6
    weight_rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            v = _real(getattr(self, f.name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{f.name} tolerance must be positive and finite")
            object.__setattr__(self, f.name, v)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "Tolerances":
        extra = set(obj) - {f.name for f in dataclasses.fields(cls)}
        if extra:
            raise ValueError(f"unknown tolerance fields: {sorted(extra)}")
        return cls(**obj)


# seven checkpoints: enough for a stable tail fit while keeping trace files
# small
_DYADIC_SPAN = 64


def dyadic_checkpoints(n: int) -> tuple[int, ...]:
    """Halving grid from n down to about n/64: n, n/2, n/4, ..."""
    if n < 1:
        raise ValueError("n must be positive")
    floor = max(1, n // _DYADIC_SPAN)
    cps = []
    m = n
    while m >= floor:
        cps.append(m)
        m //= 2
    return tuple(reversed(cps))


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Log-log tail slope of checkpointed values, with its verdict.

    ``values`` are the trace's partial sums, divided by the trace's
    reference when it has one.  ``slope`` is fitted on the upper
    half of the checkpoints; None when too few positive values remain to
    fit.  ``last_mid_ratio`` is values[-1]/values[mid]; None when the mid
    value is zero but the last is not, or when the quotient overflows.
    """

    checkpoints: tuple[int, ...]
    values: np.ndarray
    slope: float | None
    last_mid_ratio: float | None
    verdict: GrowthVerdict

    def to_json(self) -> dict:
        return {
            "checkpoints": list(self.checkpoints),
            "values": [float(v) for v in self.values.tolist()],
            "slope": self.slope,
            "last_mid_ratio": self.last_mid_ratio,
            "verdict": self.verdict.value,
        }


@np.errstate(all="ignore")
def growth_diagnostic(trace: CheckpointTrace,
                      tolerances: Tolerances | None = None) -> GrowthDiagnostic:
    """Judge boundedness-at-scale of a checkpointed trace.

    The trace's partial sums are divided by its reference when it has one:
    a trace whose reference is X at the checkpoints tests sums = O(X).

    bounded_consistent requires both a tail slope below the slope tolerance
    and a last/mid ratio below the ratio tolerance; a slope at or above the
    tolerance is growth_detected; anything else is inconclusive.
    """
    tol = tolerances or Tolerances()
    cps = validate_checkpoints(trace.checkpoints, at_least=4)
    vals = trace.partial_sums
    if trace.reference is not None:
        vals = vals / trace.reference

    mags = np.abs(vals)
    mid = len(cps) // 2

    tail_cp = np.asarray(cps[mid:], dtype=np.float64)
    tail_mag = mags[mid:]
    usable = tail_mag > 0.0
    if int(np.count_nonzero(usable)) >= 2:
        slope = float(np.polyfit(np.log(tail_cp[usable]),
                                 np.log(tail_mag[usable]), 1)[0])
    elif np.all(tail_mag == 0.0):
        slope = 0.0
    else:
        slope = None

    if mags[mid] > 0.0:
        ratio = float(mags[-1] / mags[mid])
        # a quotient that overflows is reported as None, since JSON holds
        # no inf; the verdict is the same, as inf never passed the ratio test
        if not math.isfinite(ratio):
            ratio = None
    elif mags[-1] == 0.0:
        ratio = 1.0
    else:
        ratio = None

    if slope is not None and slope >= tol.slope:
        verdict = GrowthVerdict.GROWTH_DETECTED
    elif (slope is not None and slope < tol.slope
          and ratio is not None and ratio < tol.ratio):
        verdict = GrowthVerdict.BOUNDED_CONSISTENT
    else:
        verdict = GrowthVerdict.INCONCLUSIVE

    return GrowthDiagnostic(checkpoints=cps, values=vals, slope=slope,
                            last_mid_ratio=ratio, verdict=verdict)


@dataclass(frozen=True)
class FamilyBundle:
    """One theorem instance: all sequences aligned on indices 1..N.

    ``lam`` is the factor sequence (serialized under the key "lambda"; the
    Python name avoids the keyword).  Q and delta are only present for the
    eight-hypothesis theorem.  An explicit phi must cover indices 1..N.
    The checks read every sequence, phi included, a block at a time, so a
    bundle of generated sequences is never made whole by them; a sequence's
    ``values`` make it whole on first read.
    """

    label: str
    a: RealSequence
    lam: RealSequence
    X: RealSequence
    weight: WeightSpec
    params: CesaroParams
    Q: RealSequence | None = None
    delta: RealSequence | None = None

    def __post_init__(self) -> None:
        named = {"a": self.a, "lambda": self.lam, "X": self.X}
        if self.Q is not None:
            named["Q"] = self.Q
        if self.delta is not None:
            named["delta"] = self.delta
        n = len(self.a)
        for name, seq in named.items():
            if seq.start_index != 1:
                raise ValueError(f"bundle sequence {name!r} must start at index 1")
            if len(seq) != n:
                raise ValueError(f"bundle sequence {name!r} has length "
                                 f"{len(seq)}, expected {n}")
        self.weight._require(n)

    @property
    def n(self) -> int:
        return len(self.a)

    def _roles(self) -> dict[str, RealSequence | None]:
        """The sequences whose non-finite values are errors, in the order
        they are reported: a, lambda, X, Q, delta and an explicit phi, each
        under the name of its field of a pass block."""
        return {"a": self.a, "lam": self.lam, "X": self.X, "Q": self.Q,
                "delta": self.delta, "phi": self.weight.phi}


@dataclass(frozen=True)
class ConditionRecord:
    """Verdict for one hypothesis: element-wise records use pass/fail with a

    first violating index, scale records carry the growth verdict and its
    fitted slope."""

    condition: str
    verdict: str
    passed: bool
    first_violation: int | None = None
    slope: float | None = None
    notes: str = ""

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class HypothesisReport:
    theorem: str
    label: str
    n: int
    records: tuple[ConditionRecord, ...]
    tolerances: Tolerances
    checkpoints: tuple[int, ...]
    traces: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "label": self.label,
            "n": self.n,
            "checkpoints": list(self.checkpoints),
            "tolerances": self.tolerances.to_json(),
            "records": [r.to_json() for r in self.records],
            "all_passed": self.all_passed,
        }


def _fmt(x: float | None) -> str:
    return "none" if x is None else f"{x:.6g}"


def _pass_fail(condition: str, passed: bool, notes: str,
               first_violation: int | None = None) -> ConditionRecord:
    return ConditionRecord(condition=condition,
                           verdict="pass" if passed else "fail", passed=passed,
                           first_violation=first_violation, notes=notes)


def _named(name: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a ValueError it raises prefixed with
    ``name``: a trace that a record's arithmetic overflowed is refused under
    the record's name."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from None


class _Block(NamedTuple):
    """One block of a pass: indices lo + 1..hi, as the floats n, and those
    values of every role (Q and delta None when the bundle has none), phi
    as |phi_n|: views into ``window``, the same fields from index
    max(lo - 2, 0) + 1, which holds every difference that ends here."""

    lo: int
    hi: int
    n: np.ndarray
    phi: np.ndarray
    a: np.ndarray
    lam: np.ndarray
    X: np.ndarray
    Q: np.ndarray | None = None
    delta: np.ndarray | None = None
    window: "_Block | None" = None

# a record builder: sent blocks until it returns its record (None: no more)
_Step = Generator[None, "_Block | None", object]
_LIVE = object()


def _advance(step: _Step, block: _Block | None) -> object:
    """Send ``block`` (None: the blocks have ended) to a builder: _LIVE
    while it runs, else what it returned or the exception it raised."""
    try:
        step.send(block)
    except StopIteration as done:
        return done.value
    except Exception as e:  # reported after the role errors, in table order
        return e
    return _LIVE


def _sample(idx: np.ndarray, block: _Block, values: np.ndarray,
            out: np.ndarray) -> None:
    """out[i] = the value at 0-based position idx[i], for the positions
    that fall in this block; idx is increasing."""
    first, last = np.searchsorted(idx, (block.lo, block.hi))
    out[first:last] = values[idx[first:last] - block.lo]


@dataclass
class _Context:
    """What every record builder of one check reads, and the traces it adds."""

    bundle: FamilyBundle
    checkpoints: tuple[int, ...]
    tol: Tolerances
    traces: dict = field(default_factory=dict)
    # the means and their power traces, made by each run (``mean_trace``)
    _source: _MeanSource | None = None
    _trace: _PowerTrace | None = None

    @classmethod
    def of(cls, bundle: FamilyBundle, checkpoints: Sequence[int] | None,
           tolerances: Tolerances | None) -> "_Context":
        """Defaults filled in: the dyadic grid over 1..n, default knobs."""
        cps = (dyadic_checkpoints(bundle.n) if checkpoints is None
               else checkpoints)
        return cls(bundle=bundle,
                   checkpoints=validate_checkpoints(cps, bundle.n, at_least=4),
                   tol=tolerances or Tolerances())

    @np.errstate(all="ignore")
    def run(self, table) -> tuple[list, object]:
        """One pass over the bundle: each builder's record, or the exception
        it raised, and the conclusion's trace, or the exception reading it
        raised.  Every builder starts, then the means.  Each block's window
        of every role is made once, its block checked, sent to every builder
        still running and then pushed into the means; a role's non-finite
        value is raised once every block has been read.  The pass is the one
        ``np.errstate`` scope of a check (see the module docstring)."""
        b = self.bundle
        roles = [(name, seq) for name, seq in b._roles().items()
                 if seq is not None]
        steps = [build(self, name) for name, build in table]
        results = [_advance(step, None) for step in steps]
        # lane 0 is cond11's w of a_n, lane 1 the conclusion's t of
        # a_n * lambda_n; a pass with no table (conclusion_diagnostic's
        # own) has the t lane alone.  The means start once every builder
        # has: at fractional orders that is the kernel call, the pass's
        # peak at large n; what the builders hold by then is their block
        # buffers, under 1 MiB
        w, t = (b.a._block, _indices), (b.a._block, b.lam._block, _indices)
        lanes = [w, t] if table else [t]
        self._source = _MeanSource(b.params.alpha, b.n, lanes,
                                   [lane is w for lane in lanes])
        self._trace = _PowerTrace(b.params.k, self.checkpoints, len(lanes))
        failed = len(roles)  # the first role, in order, found non-finite
        k, beta = b.params.k, b.params.beta
        size = accumulation._BLOCK
        for lo in range(0, b.n, size):
            hi, start = min(lo + size, b.n), max(lo - 2, 0)
            n = np.arange(start + 1.0, hi + 1.0)
            window = _Block(start, hi, n,
                            b.weight._phi_block(start, n, k, beta),
                            **{name: seq._block(start, hi)
                               for name, seq in roles if name != "phi"})
            block = _Block(lo, hi, *(None if v is None else v[lo - start:]
                                     for v in window[2:-1]), window)
            for r, (name, _) in enumerate(roles[:failed]):
                if not np.isfinite(getattr(block, name)).all():
                    failed = r
                    break
            for i, step in enumerate(steps):
                if results[i] is _LIVE:
                    results[i] = _advance(step, block)
            # after the builders, whose role blocks are then still in cache
            # (pushed before them, a check at n = 1e6 ran 2 % slower).  The
            # source reads a's and lambda's blocks again, as views of this
            # window, since a generated sequence keeps its last block.  Once
            # every lane is dead no push is needed
            if len(self._source.dead) < len(lanes):
                self._trace.push(block.n, block.phi,
                                 *self._source.push(lo, hi))
        results = [_advance(step, None) if result is _LIVE else result
                   for step, result in zip(steps, results)]
        if failed < len(roles):
            raise roles[failed][1]._failure()
        try:
            conclusion = self.mean_trace(len(lanes) - 1, "conclusion")
        except Exception as e:  # raised where the conclusion is read
            conclusion = e
        return results, conclusion

    def mean_trace(self, lane: int, name: str) -> FunctionalTrace:
        """The power trace sum_(n<=m) n^(-k) (|phi_n| mean_n)^k of the
        means of ``lane`` once every block is pushed: a dead lane (its
        error in the source's ``dead``) raises its error, a trace refused
        (its sums overflowed) raises under ``name``."""
        if lane in self._source.dead:
            raise self._source.dead[lane]
        return _named(name, self._trace.trace, lane)

    def growth_record(self, condition: str, trace: CheckpointTrace,
                      notes: str = "") -> ConditionRecord:
        diag = growth_diagnostic(trace, self.tol)
        extra = (f"slope={_fmt(diag.slope)} "
                 f"last_mid_ratio={_fmt(diag.last_mid_ratio)}")
        return ConditionRecord(
            condition=condition, verdict=diag.verdict.value,
            passed=diag.verdict is GrowthVerdict.BOUNDED_CONSISTENT,
            slope=diag.slope, notes=(notes + " " + extra).strip())

    def traced_record(self, condition: str, trace: CheckpointTrace,
                      notes: str) -> ConditionRecord:
        """Growth record of ``trace``, which becomes the condition's trace."""
        self.traces[condition] = trace
        return self.growth_record(condition, trace, notes=notes)


def _x_almost_increasing(ctx: _Context, name: str) -> _Step:
    # X positive, with inf_ratio, the least X_n / max_(v<=n) X_v, above the
    # floor (near zero at scale: not almost increasing); the running max is
    # carried from block to block
    peak, low = -np.inf, np.inf
    while (block := (yield)) is not None:
        if np.any(block.X <= 0.0):
            return _pass_fail(name, False, "X must be positive",
                              int(block.n[np.argmax(block.X <= 0.0)]))
        c = np.maximum.accumulate(block.X)
        np.maximum(c, peak, out=c)
        peak = c[-1]
        low = min(low, float(np.min(block.X / c)))
    floor = ctx.tol.inf_ratio_floor
    return _pass_fail(name, low > floor,
                      f"inf_ratio={_fmt(low)} floor={_fmt(floor)}")


def _x_non_decreasing(ctx: _Context, name: str) -> _Step:
    notes = "X positive and non-decreasing"
    while (block := (yield)) is not None:
        w = block.window
        bad = w.X <= 0.0
        bad[1:] |= w.X[1:] < w.X[:-1]
        if np.any(bad):
            return _pass_fail(name, False, notes, int(w.n[np.argmax(bad)]))
    return _pass_fail(name, True, notes)


def _cond7(ctx: _Context, name: str) -> _Step:
    # (i) |lambda_n| X_n = O(1), sampled at the checkpoints
    idx = np.asarray(ctx.checkpoints, dtype=np.int64) - 1
    lam, X = np.empty(idx.size), np.empty(idx.size)
    while (block := (yield)) is not None:
        _sample(idx, block, block.lam, lam)
        _sample(idx, block, block.X, X)
    vals = np.abs(lam) * X
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name}: sampled values must be finite")
    return ctx.growth_record(name, CheckpointTrace(ctx.checkpoints, vals))


def _majorant(ctx: _Context, name: str) -> _Step:
    # |D lambda| <= |Q| on every index where the difference exists
    notes = f"checked indices 1..{ctx.bundle.n - 1}"
    while (block := (yield)) is not None:
        w = block.window
        dlam = np.abs(w.lam[:-1] - w.lam[1:])
        qhead = np.abs(w.Q[:-1])
        bad = ~(np.isfinite(dlam) & np.isfinite(qhead))
        mask = (dlam > qhead) | bad
        if np.any(mask):
            j = int(np.argmax(mask))
            if bad[j]:
                notes += " non-finite value at first_violation"
            return _pass_fail(name, False, notes, int(w.n[j]))
    return _pass_fail(name, True, notes)


def _quasi_monotone(ctx: _Context, name: str) -> _Step:
    # delta-quasi-monotone Q: Q_n > 0 from positivity_from on and
    # (D Q)_n >= -delta_n wherever the difference exists (delta's last value
    # is never read); a non-positive delta raises in the first window that
    # holds Q's difference at its index.  trend_ratio, the mean of |Q| over
    # the last quarter over that of the first, is a decay diagnostic only,
    # never a proof of Q_n -> 0.  A quarter's sum adds, left to right, the
    # np.add.reduce of its part of each block: np.mean's bits when the
    # quarter lies in one block (every n <= 2**14).  Its terms are
    # non-negative, and each goes through at most 32 roundings in a block's
    # np.add.reduce (numpy's pairwise sum) and one per block after it, so
    # the sum is within about (blocks + 32) * 2**-53 relative of the exact
    # one
    length = ctx.bundle.n
    quarter = length // 4
    head = tail = 0.0
    first, last_not_positive = None, 0
    while (block := (yield)) is not None:
        w = block.window
        if np.any(w.delta[:-1] <= 0.0):
            bad = int(w.n[np.argmax(w.delta[:-1] <= 0.0)])
            raise ValueError(f"{name}: delta must be positive everywhere; "
                             f"first non-positive entry at index {bad}")
        bad_mask = w.Q[:-1] - w.Q[1:] < -w.delta[:-1]
        if first is None and np.any(bad_mask):
            first = int(w.n[np.argmax(bad_mask)])
        not_pos = np.nonzero(~(block.Q > 0.0))[0]
        if not_pos.size:
            last_not_positive = int(block.n[not_pos[-1]])
        mags = np.abs(block.Q)
        head += np.add.reduce(mags[:max(quarter - block.lo, 0)])
        tail += np.add.reduce(mags[max(length - quarter - block.lo, 0):])
    # the first index of the longest all-positive suffix, if any
    positive_from = (last_not_positive + 1 if last_not_positive < length
                     else None)
    trend_ratio = None
    if quarter >= 1:
        head_mean = float(head / quarter)
        tail_mean = float(tail / quarter)
        trend_ratio = tail_mean / head_mean if head_mean > 0.0 else None
    return _pass_fail(
        name, first is None and positive_from is not None,
        f"positivity_from={positive_from} trend_ratio={_fmt(trend_ratio)}",
        first)


def _series_nqx(ctx: _Context, name: str) -> _Step:
    # partial sums of n * Q_n * X_n, judged on their tail.  For signed
    # majorants abs_variant_total, the sum of |n Q_n X_n| over every index,
    # is reported alongside: the np.add.reduce of each block's terms added
    # left to right, np.sum's bits for n <= 2**14 and within the bound of
    # quasi_monotone's quarter sums
    sums = _SampledSums(ctx.checkpoints)
    total = 0.0
    while (block := (yield)) is not None:
        terms = block.n * block.Q * block.X
        sums.push(terms)
        total += np.add.reduce(np.abs(terms))
    return ctx.traced_record(
        name, _named(name, CheckpointTrace, ctx.checkpoints, sums.sums),
        notes=f"abs_variant_total={float(total):.9g}")


def _cond8(ctx: _Context, name: str) -> _Step:
    # (ii) sum of v * X_v * |D^2 lambda_v| over v = 1..N-2, own dyadic grid;
    # each window's second differences are those that end in its block
    size = ctx.bundle.n - 2
    cps = dyadic_checkpoints(size)
    sums = _SampledSums(cps)
    while (block := (yield)) is not None:
        w = block.window
        d2 = w.lam[:-2] - 2.0 * w.lam[1:-1] + w.lam[2:]
        sums.push(w.n[:-2] * w.X[:-2] * np.abs(d2))
    return ctx.traced_record(name, _named(name, CheckpointTrace, cps,
                                          sums.sums),
                             notes=f"second differences over 1..{size}")


def _weight_monotone(ctx: _Context, name: str) -> _Step:
    # (iii) n^(epsilon-k) |phi_n|^k non-increasing: a term that rises by
    # more than weight_rel_tol relative (rounding noise of a constant term)
    # into the next, judged in the first window that holds both, or that is
    # not finite, is a violation
    params = ctx.bundle.params
    eps, k, rel_tol = params.epsilon, params.k, ctx.tol.weight_rel_tol
    notes = f"epsilon={eps:.6g}"
    while (block := (yield)) is not None:
        n, phi = block.window.n, block.window.phi
        # float arrays of the window's length, reused in place
        seq = np.power(n, eps - k)
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
            if not np.isfinite(seq[j]):
                notes += " non-finite value at first_violation"
            return _pass_fail(name, False, notes, int(n[j]))
    return _pass_fail(name, True, notes)


def _param_gate(ctx: _Context, name: str) -> _Step:
    yield from ()  # reads no block
    params = ctx.bundle.params
    gate = params.k * params.alpha + params.epsilon
    return _pass_fail(name, gate > 1.0, f"k*alpha+epsilon={gate:.6g}")


def _cond11(ctx: _Context, name: str) -> _Step:
    # sum_(n<=m) n^(-k) (w_n |phi_n|)^k = O(X_m), w summed by the pass
    idx = np.asarray(ctx.checkpoints, dtype=np.int64) - 1
    X = np.empty(idx.size)
    while (block := (yield)) is not None:
        _sample(idx, block, block.X, X)
    trace = _named(name, dataclasses.replace, ctx.mean_trace(0, name),
                   reference=X)
    return ctx.traced_record(name, trace, notes="trace relative to X")


_MAIN_TABLE = (
    ("X_class", _x_almost_increasing),
    ("cond7", _cond7),
    ("majorant", _majorant),
    ("quasi_monotone", _quasi_monotone),
    ("series_nQX", _series_nqx),
    ("weight_monotone", _weight_monotone),
    ("param_gate", _param_gate),
    ("cond11", _cond11),
)
_THEOREM_A_TABLE = (
    ("X_class", _x_non_decreasing),
    ("cond7", _cond7),
    ("cond8", _cond8),
    ("weight_monotone", _weight_monotone),
    ("cond11", _cond11),
)
MAIN_CONDITIONS = tuple(name for name, _ in _MAIN_TABLE)
THEOREM_A_CONDITIONS = tuple(name for name, _ in _THEOREM_A_TABLE)


def _run_table(theorem: str, table: tuple, bundle: FamilyBundle,
               checkpoints: Sequence[int] | None,
               tolerances: Tolerances | None) -> HypothesisReport:
    ctx = _Context.of(bundle, checkpoints, tolerances)
    results, conclusion = ctx.run(table)
    # the conclusion's trace (or its error), for conclusion_diagnostic
    object.__setattr__(bundle, "_conclusion", (ctx.checkpoints, conclusion))
    records = tuple(_settled(result) for result in results)
    return HypothesisReport(theorem=theorem, label=bundle.label, n=bundle.n,
                            records=records, tolerances=ctx.tol,
                            checkpoints=ctx.checkpoints, traces=ctx.traces)


def check_main_theorem(bundle: FamilyBundle,
                       checkpoints: Sequence[int] | None = None,
                       tolerances: Tolerances | None = None) -> HypothesisReport:
    """All eight hypothesis records of the maximal-mean factor theorem.

    Requires a complete bundle (Q and delta present) and 0 < alpha <= 1.
    Records always appear, in the fixed MAIN_CONDITIONS order, whether or
    not they pass.
    """
    if bundle.Q is None or bundle.delta is None:
        _verify(bundle._roles().values())  # a role's error comes first
        raise ValueError("main-theorem bundle requires Q and delta")
    if not (0.0 < bundle.params.alpha <= 1.0):
        _verify(bundle._roles().values())
        raise ValueError("main theorem requires 0 < alpha <= 1")
    return _run_table("main", _MAIN_TABLE, bundle, checkpoints, tolerances)


def check_theorem_a(bundle: FamilyBundle,
                    checkpoints: Sequence[int] | None = None,
                    tolerances: Tolerances | None = None) -> HypothesisReport:
    """The five hypothesis records of the order-1 factor theorem.

    The bundle must not carry Q or delta (the theorem has no majorant) and
    must run at alpha = 1.
    """
    if bundle.Q is not None or bundle.delta is not None:
        _verify(bundle._roles().values())  # a role's error comes first
        raise ValueError("theorem-A bundle must not carry Q or delta")
    if bundle.params.alpha != 1.0:
        _verify(bundle._roles().values())
        raise ValueError("theorem A operates at alpha = 1")
    return _run_table("theorem_a", _THEOREM_A_TABLE, bundle, checkpoints,
                      tolerances)


def conclusion_diagnostic(bundle: FamilyBundle,
                          checkpoints: Sequence[int] | None = None,
                          tolerances: Tolerances | None = None
                          ) -> tuple[FunctionalTrace, GrowthDiagnostic]:
    """Functional trace of the factored series a_n * lambda_n.

    This is what the theorems conclude is summable: the weighted functional
    of the t-transform of (a_n lambda_n).  Bounded partial sums at scale
    are the finite evidence for that conclusion.  A check of the bundle on
    the same checkpoints has already taken the trace in its pass; otherwise
    a pass of its own takes it.
    """
    ctx = _Context.of(bundle, checkpoints, tolerances)
    done = getattr(bundle, "_conclusion", None)
    if done is not None and done[0] == ctx.checkpoints:
        result = done[1]
    else:
        _, result = ctx.run(())
    trace = _settled(result)
    return trace, growth_diagnostic(trace, ctx.tol)
