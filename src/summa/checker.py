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
MAIN_CONDITIONS and THEOREM_A_CONDITIONS are their first columns.  The
builders share one context (bundle, checkpoints, tolerances, the traces
kept so far); phi is made once per bundle and shared with the conclusion;
any other large array lives only as long as the builder that made it.  The
two t-traces, cond11's of w and the conclusion's of t for a_n * lambda_n,
take the Cesaro means block by block as they are made (at alpha = 1 no
n-long array of them, or of a_n * lambda_n, is ever held).

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
from typing import Sequence

import numpy as np

from .accumulation import compensated_sums_at
from .cesaro import _t_blocks, _w_blocks
from .functionals import (CheckpointTrace, FunctionalTrace, WeightSpec,
                          validate_checkpoints, weighted_power_trace)
from .monotonicity import (almost_increasing_diagnostic,
                           power_weight_monotonicity_check,
                           quasi_monotone_check)
from .sequences import CesaroParams, RealSequence

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
    eight-hypothesis theorem.
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
        """|phi_n| for n = 1..N, made at first use and shared by the check
        records and the conclusion."""
        return self.weight.phi_values(self.n, self.params.k,
                                      beta_default=self.params.beta)


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


def _first_true(mask: np.ndarray) -> int | None:
    """1-based index of the first True entry, None when there is none."""
    return 1 + int(np.argmax(mask)) if np.any(mask) else None


def _at(values: np.ndarray, checkpoints: Sequence[int]) -> np.ndarray:
    """values[n - 1] for every checkpoint n."""
    return values[np.asarray(checkpoints, dtype=np.int64) - 1]


def _pass_fail(condition: str, passed: bool, notes: str,
               first_violation: int | None = None) -> ConditionRecord:
    return ConditionRecord(condition=condition,
                           verdict="pass" if passed else "fail", passed=passed,
                           first_violation=first_violation, notes=notes)


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

    def growth_record(self, condition: str, trace: CheckpointTrace,
                      notes: str = "") -> ConditionRecord:
        diag = growth_diagnostic(trace, self.tol)
        extra = (f"slope={_fmt(diag.slope)} "
                 f"last_mid_ratio={_fmt(diag.last_mid_ratio)}")
        return ConditionRecord(
            condition=condition, verdict=diag.verdict.value,
            passed=diag.verdict is GrowthVerdict.BOUNDED_CONSISTENT,
            slope=diag.slope, notes=(notes + " " + extra).strip())

    def partial_sum_record(self, condition: str, terms: np.ndarray,
                           checkpoints: tuple[int, ...],
                           notes: str) -> ConditionRecord:
        """Growth record of the partial sums of ``terms`` on a checkpoint
        grid; the sampled sums become the condition's trace."""
        trace = CheckpointTrace(checkpoints,
                                compensated_sums_at(terms, checkpoints))
        self.traces[condition] = trace
        return self.growth_record(condition, trace, notes=notes)


def _x_almost_increasing(ctx: _Context, name: str) -> ConditionRecord:
    X = ctx.bundle.X
    first = _first_true(X.values <= 0.0)
    if first is not None:
        return _pass_fail(name, False, "X must be positive", first)
    witness = almost_increasing_diagnostic(X, floor=ctx.tol.inf_ratio_floor)
    return _pass_fail(
        name, witness.almost_increasing_at_scale,
        f"inf_ratio={witness.inf_ratio:.6g} floor={witness.floor:.6g}")


def _x_non_decreasing(ctx: _Context, name: str) -> ConditionRecord:
    X = ctx.bundle.X.values
    drop = np.concatenate(([False], X[1:] < X[:-1]))
    first = _first_true((X <= 0.0) | drop)
    return _pass_fail(name, first is None, "X positive and non-decreasing",
                      first)


def _cond7(ctx: _Context, name: str) -> ConditionRecord:
    # (i) |lambda_n| X_n = O(1), sampled at the checkpoints
    cps = ctx.checkpoints
    vals = np.abs(_at(ctx.bundle.lam.values, cps)) * _at(ctx.bundle.X.values, cps)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name}: sampled values must be finite")
    return ctx.growth_record(name, CheckpointTrace(cps, vals))


def _majorant(ctx: _Context, name: str) -> ConditionRecord:
    # |D lambda| <= |Q| on every index where the difference exists
    lam, Q = ctx.bundle.lam.values, ctx.bundle.Q.values
    with np.errstate(over="ignore"):
        dlam = np.abs(lam[:-1] - lam[1:])
    qhead = np.abs(Q[:-1])
    non_finite = ~(np.isfinite(dlam) & np.isfinite(qhead))
    first = _first_true((dlam > qhead) | non_finite)
    notes = f"checked indices 1..{ctx.bundle.n - 1}"
    if first is not None and non_finite[first - 1]:
        notes += " non-finite value at first_violation"
    return _pass_fail(name, first is None, notes, first)


def _quasi_monotone(ctx: _Context, name: str) -> ConditionRecord:
    qm = quasi_monotone_check(ctx.bundle.Q, ctx.bundle.delta)
    return _pass_fail(
        name, qm.holds_on_range and qm.positivity_from is not None,
        f"positivity_from={qm.positivity_from} "
        f"trend_ratio={_fmt(qm.trend_ratio)}", qm.first_violation)


def _series_nqx(ctx: _Context, name: str) -> ConditionRecord:
    # partial sums of n * Q_n * X_n, judged on their tail; the
    # absolute-value variant is reported alongside for signed majorants
    b = ctx.bundle
    terms = np.arange(1.0, b.n + 1.0) * b.Q.values * b.X.values
    return ctx.partial_sum_record(
        name, terms, ctx.checkpoints,
        notes=f"abs_variant_total={float(np.abs(terms).sum()):.9g}")


def _cond8(ctx: _Context, name: str) -> ConditionRecord:
    # (ii) sum of v * X_v * |D^2 lambda_v| over v = 1..N-2, own dyadic grid
    lam = ctx.bundle.lam.values
    d2 = lam[:-2] - 2.0 * lam[1:-1] + lam[2:]
    terms = (np.arange(1.0, d2.size + 1.0) * ctx.bundle.X.values[:d2.size]
             * np.abs(d2))
    return ctx.partial_sum_record(
        name, terms, dyadic_checkpoints(d2.size),
        notes=f"second differences over 1..{d2.size}")


def _weight_monotone(ctx: _Context, name: str) -> ConditionRecord:
    # (iii) n^(epsilon-k) |phi_n|^k non-increasing
    params = ctx.bundle.params
    eps, k = params.epsilon, params.k
    phi = ctx.bundle.phi
    first = power_weight_monotonicity_check(phi, eps, k,
                                            rel_tol=ctx.tol.weight_rel_tol)
    notes = f"epsilon={eps:.6g}"
    if first is not None:
        with np.errstate(all="ignore"):
            term = (np.power(float(first), eps - k)
                    * np.power(phi[first - 1], k))
        if not np.isfinite(term):
            notes += " non-finite value at first_violation"
    return _pass_fail(name, first is None, notes, first)


def _param_gate(ctx: _Context, name: str) -> ConditionRecord:
    params = ctx.bundle.params
    gate = params.k * params.alpha + params.epsilon
    return _pass_fail(name, gate > 1.0, f"k*alpha+epsilon={gate:.6g}")


def _cond11(ctx: _Context, name: str) -> ConditionRecord:
    # sum_(n<=m) n^(-k) (w_n |phi_n|)^k = O(X_m), w streamed block by block
    params = ctx.bundle.params
    trace = weighted_power_trace(_w_blocks(ctx.bundle.a.values, params.alpha),
                                 params.k, ctx.bundle.phi, ctx.checkpoints)
    trace = dataclasses.replace(
        trace, reference=_at(ctx.bundle.X.values, ctx.checkpoints))
    ctx.traces[name] = trace
    return ctx.growth_record(name, trace, notes="trace relative to X")


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
    records = tuple(build(ctx, name) for name, build in table)
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
        raise ValueError("main-theorem bundle requires Q and delta")
    if not (0.0 < bundle.params.alpha <= 1.0):
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
        raise ValueError("theorem-A bundle must not carry Q or delta")
    if bundle.params.alpha != 1.0:
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
    are the finite evidence for that conclusion.
    """
    ctx = _Context.of(bundle, checkpoints, tolerances)
    t = _t_blocks(bundle.a.values, bundle.params.alpha, bundle.lam.values)
    trace = weighted_power_trace(t, bundle.params.k, bundle.phi,
                                 ctx.checkpoints)
    return trace, growth_diagnostic(trace, ctx.tol)
