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
once, from the role's own block source, and sent to every builder, a
generator that carries what the next block needs (the last value or two, a
running maximum, compensated sums sampled at the checkpoints, the first
violation) and returns its record when the blocks end.  The conclusion's
trace rides in the same pass and is kept on the bundle for
``conclusion_diagnostic``.  At alpha = 1 the pass holds no n-long array;
fractional orders gather a and a_n * lambda_n whole for the kernel.

Errors keep the order of a bundle whose roles were made whole before the
check: a role's non-finite value (a, lambda, X, Q, delta, an explicit phi,
in that order) is raised first, after the pass has read every block; then
the first record error in table order.

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
from functools import cached_property
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np

from . import accumulation
from .accumulation import _PairwiseSum, _SampledSums
from .cesaro import _RunningMeans, _t_blocks, _w_blocks
from .functionals import (CheckpointTrace, FunctionalTrace, WeightSpec,
                          _PowerTrace, validate_checkpoints)
from .monotonicity import (_inf_ratio_steps, _quasi_monotone_steps,
                           _weight_steps)
from .sequences import CesaroParams, RealSequence, _verify

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
            v = float(getattr(self, f.name))
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
        return cls(**{k: float(v) for k, v in obj.items()})


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
    value is zero but the last is not.
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
    eight-hypothesis theorem.  The checks read every sequence, phi included,
    a block at a time, so a bundle of generated sequences is never made
    whole by them; ``values`` and ``phi`` make it whole on first read.
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

    @property
    def n(self) -> int:
        return len(self.a)

    @cached_property
    def phi(self) -> np.ndarray:
        """|phi_n| for n = 1..N, made at first use."""
        return self.weight.phi_values(self.n, self.params.k,
                                      beta_default=self.params.beta)

    def _roles(self) -> list[RealSequence | None]:
        """The sequences whose non-finite values are errors, in the order
        they are reported: a, lambda, X, Q, delta and an explicit phi."""
        return [self.a, self.lam, self.X, self.Q, self.delta, self.weight.phi]


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


class _Block(NamedTuple):
    """One block of a pass: indices lo + 1..hi of every role (Q and delta
    None when the bundle has none), phi as |phi_n|."""

    lo: int
    hi: int
    a: np.ndarray
    lam: np.ndarray
    X: np.ndarray
    Q: np.ndarray | None
    delta: np.ndarray | None
    phi: np.ndarray


# a record builder: sent the pass's blocks, then None; returns the record
_Step = Generator[None, "_Block | None", object]
_LIVE = object()
_EMPTY = np.empty(0)


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


def _settled(result: object):
    if isinstance(result, Exception):
        raise result
    return result


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

    @classmethod
    def of(cls, bundle: FamilyBundle, checkpoints: Sequence[int] | None,
           tolerances: Tolerances | None) -> "_Context":
        """Defaults filled in: the dyadic grid over 1..n, default knobs."""
        cps = checkpoints or dyadic_checkpoints(bundle.n)
        return cls(bundle=bundle,
                   checkpoints=validate_checkpoints(cps, bundle.n, at_least=4),
                   tol=tolerances or Tolerances())

    def run(self, table) -> list:
        """One pass over the bundle: each builder's record, or the exception
        it raised.  Each role block is made once, checked and sent to every
        builder still running; a role's non-finite value is raised once
        every block has been read."""
        b = self.bundle
        roles = b._roles()
        steps = [build(self, name) for name, build in table]
        # started last to first: at fractional orders cond11 and the
        # conclusion run the kernel as they start, before the other
        # builders hold their block buffers
        results = [_advance(step, None) for step in steps[::-1]][::-1]
        failed = len(roles)  # the first role, in order, found non-finite
        k, beta = b.params.k, b.params.beta
        size = accumulation._BLOCK
        for lo in range(0, b.n, size):
            hi = min(lo + size, b.n)
            block = _Block(lo, hi,
                           *(None if seq is None else seq._block(lo, hi)
                             for seq in roles[:-1]),
                           b.weight._phi_block(lo, hi, k, beta))
            for r, seq in enumerate(roles[:failed]):
                if seq is not None and not np.isfinite(block[2 + r]).all():
                    failed = r
                    break
            for i, step in enumerate(steps):
                if results[i] is _LIVE:
                    results[i] = _advance(step, block)
        results = [_advance(step, None) if result is _LIVE else result
                   for step, result in zip(steps, results)]
        if failed < len(roles):
            raise roles[failed]._failure()
        return results

    def growth_record(self, condition: str, trace: CheckpointTrace,
                      notes: str = "") -> ConditionRecord:
        diag = growth_diagnostic(trace, self.tol)
        extra = (f"slope={_fmt(diag.slope)} "
                 f"last_mid_ratio={_fmt(diag.last_mid_ratio)}")
        return ConditionRecord(
            condition=condition, verdict=diag.verdict.value,
            passed=diag.verdict is GrowthVerdict.BOUNDED_CONSISTENT,
            slope=diag.slope, notes=(notes + " " + extra).strip())

    def partial_sum_record(self, condition: str, sums: np.ndarray,
                           checkpoints: tuple[int, ...],
                           notes: str) -> ConditionRecord:
        """Growth record of partial sums sampled on a checkpoint grid; the
        sums become the condition's trace."""
        trace = CheckpointTrace(checkpoints, sums)
        self.traces[condition] = trace
        return self.growth_record(condition, trace, notes=notes)


def _relay(steps: Generator, *roles: str):
    """Send a monotonicity block step the named roles of each block (one
    array, or a tuple of them); return its verdict."""
    next(steps)
    while (block := (yield)) is not None:
        parts = tuple(getattr(block, role) for role in roles)
        steps.send(parts if len(parts) > 1 else parts[0])
    try:
        steps.send(None)
    except StopIteration as done:
        return done.value


def _x_almost_increasing(ctx: _Context, name: str) -> _Step:
    bad, inf_ratio = yield from _relay(_inf_ratio_steps(), "X")
    if bad is not None:
        return _pass_fail(name, False, "X must be positive", bad + 1)
    floor = ctx.tol.inf_ratio_floor
    return _pass_fail(name, inf_ratio > floor,
                      f"inf_ratio={inf_ratio:.6g} floor={floor:.6g}")


def _x_non_decreasing(ctx: _Context, name: str) -> _Step:
    first, prev = None, _EMPTY
    while (block := (yield)) is not None:
        if first is None:
            X = np.concatenate((prev, block.X))
            bad = block.X <= 0.0
            bad[bad.size - (X.size - 1):] |= X[1:] < X[:-1]
            if np.any(bad):
                first = block.lo + 1 + int(np.argmax(bad))
            prev = X[-1:]
    return _pass_fail(name, first is None, "X positive and non-decreasing",
                      first)


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
    first, non_finite, lam, Q = None, False, _EMPTY, _EMPTY
    while (block := (yield)) is not None:
        if first is not None:
            continue
        base = block.lo - lam.size  # offset of the first value below
        lam = np.concatenate((lam, block.lam))
        Q = np.concatenate((Q, block.Q))
        with np.errstate(over="ignore"):
            dlam = np.abs(lam[:-1] - lam[1:])
        qhead = np.abs(Q[:-1])
        bad = ~(np.isfinite(dlam) & np.isfinite(qhead))
        mask = (dlam > qhead) | bad
        if np.any(mask):
            j = int(np.argmax(mask))
            first, non_finite = base + j + 1, bool(bad[j])
        lam, Q = lam[-1:], Q[-1:]
    notes = f"checked indices 1..{ctx.bundle.n - 1}"
    if non_finite:
        notes += " non-finite value at first_violation"
    return _pass_fail(name, first is None, notes, first)


def _quasi_monotone(ctx: _Context, name: str) -> _Step:
    qm = yield from _relay(_quasi_monotone_steps(ctx.bundle.n, 1),
                           "Q", "delta")
    return _pass_fail(
        name, qm.holds_on_range and qm.positivity_from is not None,
        f"positivity_from={qm.positivity_from} "
        f"trend_ratio={_fmt(qm.trend_ratio)}", qm.first_violation)


def _series_nqx(ctx: _Context, name: str) -> _Step:
    # partial sums of n * Q_n * X_n, judged on their tail; the
    # absolute-value variant (np.sum's bits) is reported alongside for
    # signed majorants
    sums = _SampledSums(ctx.checkpoints)
    total = _PairwiseSum(0, ctx.bundle.n)
    while (block := (yield)) is not None:
        terms = np.arange(block.lo + 1.0, block.hi + 1.0) * block.Q * block.X
        sums.push(terms)
        total.push(block.lo, np.abs(terms))
    return ctx.partial_sum_record(
        name, sums.sums, ctx.checkpoints,
        notes=f"abs_variant_total={float(total.total):.9g}")


def _cond8(ctx: _Context, name: str) -> _Step:
    # (ii) sum of v * X_v * |D^2 lambda_v| over v = 1..N-2, own dyadic grid
    size = ctx.bundle.n - 2
    cps = dyadic_checkpoints(size)
    sums, lam, X = _SampledSums(cps), _EMPTY, _EMPTY
    while (block := (yield)) is not None:
        base = block.lo - lam.size  # offset of the first value below
        lam = np.concatenate((lam, block.lam))
        X = np.concatenate((X, block.X))
        d2 = lam[:-2] - 2.0 * lam[1:-1] + lam[2:]
        sums.push(np.arange(base + 1.0, base + 1.0 + d2.size)
                  * X[:d2.size] * np.abs(d2))
        lam, X = lam[-2:], X[-2:]
    return ctx.partial_sum_record(
        name, sums.sums, cps, notes=f"second differences over 1..{size}")


def _weight_monotone(ctx: _Context, name: str) -> _Step:
    # (iii) n^(epsilon-k) |phi_n|^k non-increasing
    params = ctx.bundle.params
    eps, k = params.epsilon, params.k
    first, phi = yield from _relay(
        _weight_steps(eps, k, ctx.tol.weight_rel_tol), "phi")
    notes = f"epsilon={eps:.6g}"
    if first is not None:
        with np.errstate(all="ignore"):
            term = np.power(float(first), eps - k) * np.power(phi, k)
        if not np.isfinite(term):
            notes += " non-finite value at first_violation"
    return _pass_fail(name, first is None, notes, first)


def _param_gate(ctx: _Context, name: str) -> _Step:
    yield from ()  # reads no block
    params = ctx.bundle.params
    gate = params.k * params.alpha + params.epsilon
    return _pass_fail(name, gate > 1.0, f"k*alpha+epsilon={gate:.6g}")


def _means(bundle: FamilyBundle, maximal: bool
           ) -> Callable[[_Block], np.ndarray]:
    """The block of t of a_n * lambda_n for each pass block, or of w of a_n
    when ``maximal`` (w is |t| at alpha = 1, and the trace takes the abs).
    At alpha = 1 the means are pushed block by block; other orders gather
    a (and lambda) whole for the kernel now, and hand out its blocks."""
    alpha, n = bundle.params.alpha, bundle.n
    if alpha == 1.0:
        means = _RunningMeans(n)
        if maximal:
            return lambda block: means.push(block.a)
        return lambda block: means.push(block.a, block.lam)
    a = bundle.a._block(0, n)
    blocks = (_w_blocks(a, alpha) if maximal
              else _t_blocks(a, alpha, bundle.lam._block(0, n)))
    return lambda block: next(blocks)


def _cond11(ctx: _Context, name: str) -> _Step:
    # sum_(n<=m) n^(-k) (w_n |phi_n|)^k = O(X_m), w made block by block
    w = _means(ctx.bundle, maximal=True)
    trace = _PowerTrace(ctx.bundle.params.k, ctx.checkpoints)
    idx = np.asarray(ctx.checkpoints, dtype=np.int64) - 1
    X = np.empty(idx.size)
    while (block := (yield)) is not None:
        trace.push(block.phi, w(block))
        _sample(idx, block, block.X, X)
    trace = dataclasses.replace(trace.trace(), reference=X)
    ctx.traces[name] = trace
    return ctx.growth_record(name, trace, notes="trace relative to X")


def _conclusion(ctx: _Context, name: str) -> _Step:
    # the weighted functional of t for a_n * lambda_n
    t = _means(ctx.bundle, maximal=False)
    trace = _PowerTrace(ctx.bundle.params.k, ctx.checkpoints)
    while (block := (yield)) is not None:
        trace.push(block.phi, t(block))
    return trace.trace()


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
    *results, conclusion = ctx.run((*table, ("conclusion", _conclusion)))
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
        _verify(bundle._roles())  # a role's error comes first
        raise ValueError("main-theorem bundle requires Q and delta")
    if not (0.0 < bundle.params.alpha <= 1.0):
        _verify(bundle._roles())
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
        _verify(bundle._roles())  # a role's error comes first
        raise ValueError("theorem-A bundle must not carry Q or delta")
    if bundle.params.alpha != 1.0:
        _verify(bundle._roles())
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
        [result] = ctx.run((("conclusion", _conclusion),))
    trace = _settled(result)
    return trace, growth_diagnostic(trace, ctx.tol)
