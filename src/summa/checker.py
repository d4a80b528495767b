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

Every O(.) statement is judged at scale by a log-log slope fit over the
tail of a geometric checkpoint grid; every pointwise statement is checked
element-wise with the first violating index reported.  Verdicts say what
holds on the computed range, nothing more.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .accumulation import compensated_cumsum
from .cesaro import cesaro_t, w_sequence
from .functionals import FunctionalTrace, WeightSpec, weighted_power_trace
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

MAIN_CONDITIONS = ("X_class", "cond7", "majorant", "quasi_monotone",
                   "series_nQX", "weight_monotone", "param_gate", "cond11")
THEOREM_A_CONDITIONS = ("X_class", "cond7", "cond8", "weight_monotone", "cond11")


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
        for name in ("slope", "ratio", "inf_ratio_floor", "weight_rel_tol"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} tolerance must be positive and finite")
            object.__setattr__(self, name, v)

    def to_json(self) -> dict:
        return {"slope": self.slope, "ratio": self.ratio,
                "inf_ratio_floor": self.inf_ratio_floor,
                "weight_rel_tol": self.weight_rel_tol}

    @classmethod
    def from_json(cls, obj: dict) -> "Tolerances":
        extra = set(obj) - {"slope", "ratio", "inf_ratio_floor", "weight_rel_tol"}
        if extra:
            raise ValueError(f"unknown tolerance fields: {sorted(extra)}")
        return cls(**{k: float(v) for k, v in obj.items()})


def dyadic_checkpoints(n: int, span: int = 64) -> tuple[int, ...]:
    """Halving grid from n down to about n/span: n, n/2, n/4, ...

    The default span of 64 yields seven checkpoints, enough for a stable
    tail fit while keeping trace files small.
    """
    if n < 1:
        raise ValueError("n must be positive")
    floor = max(1, n // span)
    cps = []
    m = n
    while m >= floor:
        cps.append(m)
        m //= 2
    return tuple(reversed(cps))


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Log-log tail slope of checkpointed values, with its verdict.

    ``values`` are the diagnosed quantities (after division by the
    reference, when one was supplied).  ``slope`` is fitted on the upper
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


def growth_diagnostic(values, checkpoints: Sequence[int] | None = None,
                      reference=None, *, slope_tolerance: float = 0.1,
                      ratio_tolerance: float = 1.5) -> GrowthDiagnostic:
    """Judge boundedness-at-scale of checkpointed values.

    ``values`` may be a FunctionalTrace (checkpoints implied) or a plain
    array paired with ``checkpoints``.  ``reference`` divides the values
    first: pass X to test values = O(X); it may be a RealSequence covering
    the checkpoints or an array aligned with them.

    bounded_consistent requires both a tail slope below ``slope_tolerance``
    and a last/mid ratio below ``ratio_tolerance``; a slope at or above the
    tolerance is growth_detected; anything else is inconclusive.
    """
    if isinstance(values, FunctionalTrace):
        cps = values.checkpoints
        vals = np.asarray(values.partial_sums, dtype=np.float64)
    else:
        if checkpoints is None:
            raise ValueError("raw values need an explicit checkpoint list")
        cps = tuple(int(c) for c in checkpoints)
        vals = np.asarray(values, dtype=np.float64)
    if len(cps) < 4:
        raise ValueError("at least 4 checkpoints required")
    if any(b <= a for a, b in zip(cps, cps[1:])) or cps[0] < 1:
        raise ValueError("checkpoints must be strictly increasing and >= 1")
    if vals.shape != (len(cps),):
        raise ValueError("one value per checkpoint required")

    if reference is not None:
        if isinstance(reference, RealSequence):
            ref = np.array([reference.value_at(c) for c in cps])
        else:
            ref = np.asarray(reference, dtype=np.float64)
            if ref.shape != (len(cps),):
                raise ValueError("reference must align with the checkpoints")
        if np.any(ref == 0.0):
            raise ValueError("reference entries must be non-zero")
        vals = vals / ref

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

    if slope is not None and slope >= slope_tolerance:
        verdict = GrowthVerdict.GROWTH_DETECTED
    elif (slope is not None and slope < slope_tolerance
          and ratio is not None and ratio < ratio_tolerance):
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
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "passed": self.passed,
            "first_violation": self.first_violation,
            "slope": self.slope,
            "notes": self.notes,
        }


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


def _growth_record(condition: str, diag: GrowthDiagnostic,
                   notes: str = "") -> ConditionRecord:
    passed = diag.verdict is GrowthVerdict.BOUNDED_CONSISTENT
    extra = (f"slope={_fmt(diag.slope)} "
             f"last_mid_ratio={_fmt(diag.last_mid_ratio)}")
    return ConditionRecord(condition=condition, verdict=diag.verdict.value,
                           passed=passed, slope=diag.slope,
                           notes=(notes + " " + extra).strip())


def _fmt(x: float | None) -> str:
    return "none" if x is None else f"{x:.6g}"


def _first_violation_record(condition: str, first_violation: int | None,
                            notes: str = "") -> ConditionRecord:
    ok = first_violation is None
    return ConditionRecord(condition=condition,
                           verdict="pass" if ok else "fail", passed=ok,
                           first_violation=first_violation, notes=notes)


def _x_class_almost_increasing(X: RealSequence, tol: Tolerances) -> ConditionRecord:
    nonpos = X.values <= 0.0
    if np.any(nonpos):
        idx = X.start_index + int(np.argmax(nonpos))
        return ConditionRecord(condition="X_class", verdict="fail",
                               passed=False, first_violation=idx,
                               notes="X must be positive")
    witness = almost_increasing_diagnostic(X, floor=tol.inf_ratio_floor)
    return ConditionRecord(
        condition="X_class",
        verdict="pass" if witness.almost_increasing_at_scale else "fail",
        passed=witness.almost_increasing_at_scale,
        notes=f"inf_ratio={witness.inf_ratio:.6g} floor={witness.floor:.6g}")


def _cond7_record(bundle: FamilyBundle, cps: tuple[int, ...],
                  tol: Tolerances) -> ConditionRecord:
    vals = np.array([abs(bundle.lam.value_at(m)) * bundle.X.value_at(m)
                     for m in cps])
    diag = growth_diagnostic(vals, cps, slope_tolerance=tol.slope,
                             ratio_tolerance=tol.ratio)
    return _growth_record("cond7", diag)


def _weight_record(phi: np.ndarray, params: CesaroParams,
                   tol: Tolerances) -> ConditionRecord:
    first = power_weight_monotonicity_check(phi, params.epsilon, params.k,
                                            rel_tol=tol.weight_rel_tol)
    return _first_violation_record("weight_monotone", first,
                                   notes=f"epsilon={params.epsilon:.6g}")


def _cond11_record(bundle: FamilyBundle, phi: np.ndarray, seq: RealSequence,
                   cps: tuple[int, ...], tol: Tolerances,
                   traces: dict) -> ConditionRecord:
    trace = weighted_power_trace(seq.values, bundle.params.k, phi, cps)
    traces["cond11"] = trace
    diag = growth_diagnostic(trace, reference=bundle.X,
                             slope_tolerance=tol.slope,
                             ratio_tolerance=tol.ratio)
    return _growth_record("cond11", diag, notes="trace relative to X")


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
    alpha = bundle.params.alpha
    if not (0.0 < alpha <= 1.0):
        raise ValueError("main theorem requires 0 < alpha <= 1")
    tol = tolerances or Tolerances()
    cps = tuple(int(c) for c in (checkpoints or dyadic_checkpoints(bundle.n)))
    n = bundle.n
    k, eps = bundle.params.k, bundle.params.epsilon
    traces: dict = {}
    records: list[ConditionRecord] = []

    records.append(_x_class_almost_increasing(bundle.X, tol))
    records.append(_cond7_record(bundle, cps, tol))

    # (iii) |D lambda| <= |Q| on every index where the difference exists
    dlam = bundle.lam.values[:-1] - bundle.lam.values[1:]
    qhead = np.abs(bundle.Q.values[:-1])
    bad = np.abs(dlam) > qhead
    first = 1 + int(np.argmax(bad)) if np.any(bad) else None
    records.append(_first_violation_record(
        "majorant", first, notes=f"checked indices 1..{n - 1}"))

    qm = quasi_monotone_check(bundle.Q, bundle.delta)
    qm_pass = qm.holds_on_range and qm.positivity_from is not None
    records.append(ConditionRecord(
        condition="quasi_monotone",
        verdict="pass" if qm_pass else "fail", passed=qm_pass,
        first_violation=qm.first_violation,
        notes=(f"positivity_from={qm.positivity_from} "
               f"trend_ratio={_fmt(qm.trend_ratio)}")))

    # (v) partial sums of n * Q_n * X_n, judged on their tail; the
    # absolute-value variant is reported alongside for signed majorants
    idx = np.arange(1.0, n + 1.0)
    terms = idx * bundle.Q.values * bundle.X.values
    partials = compensated_cumsum(terms)
    sel = np.asarray(cps, dtype=np.int64) - 1
    diag = growth_diagnostic(partials[sel], cps, slope_tolerance=tol.slope,
                             ratio_tolerance=tol.ratio)
    abs_final = float(np.abs(terms).sum())
    records.append(_growth_record("series_nQX", diag,
                                  notes=f"abs_variant_total={abs_final:.9g}"))
    traces["series_nQX"] = partials[sel]

    phi = bundle.weight.phi_values(n, k, beta_default=bundle.params.beta)
    records.append(_weight_record(phi, bundle.params, tol))

    gate = k * alpha + eps
    records.append(ConditionRecord(
        condition="param_gate", verdict="pass" if gate > 1.0 else "fail",
        passed=gate > 1.0, notes=f"k*alpha+epsilon={gate:.6g}"))

    t = cesaro_t(bundle.a, alpha)
    w = w_sequence(t, alpha)
    records.append(_cond11_record(bundle, phi, w, cps, tol, traces))

    return HypothesisReport(theorem="main", label=bundle.label, n=n,
                            records=tuple(records), tolerances=tol,
                            checkpoints=cps, traces=traces)


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
    tol = tolerances or Tolerances()
    cps = tuple(int(c) for c in (checkpoints or dyadic_checkpoints(bundle.n)))
    n = bundle.n
    k = bundle.params.k
    traces: dict = {}
    records: list[ConditionRecord] = []

    X = bundle.X.values
    nonpos = X <= 0.0
    drop = np.concatenate(([False], X[1:] < X[:-1]))
    bad = nonpos | drop
    first = bundle.X.start_index + int(np.argmax(bad)) if np.any(bad) else None
    records.append(_first_violation_record(
        "X_class", first, notes="X positive and non-decreasing"))

    records.append(_cond7_record(bundle, cps, tol))

    # (ii) sum of v * X_v * |D^2 lambda_v| over v = 1..N-2, own dyadic grid
    lam = bundle.lam.values
    d2 = lam[:-2] - 2.0 * lam[1:-1] + lam[2:]
    v = np.arange(1.0, d2.size + 1.0)
    terms = v * X[: d2.size] * np.abs(d2)
    partials = compensated_cumsum(terms)
    cps8 = dyadic_checkpoints(d2.size)
    sel = np.asarray(cps8, dtype=np.int64) - 1
    diag8 = growth_diagnostic(partials[sel], cps8, slope_tolerance=tol.slope,
                              ratio_tolerance=tol.ratio)
    records.append(_growth_record("cond8", diag8,
                                  notes=f"second differences over 1..{d2.size}"))
    traces["cond8"] = partials[sel]
    traces["cond8_checkpoints"] = cps8

    phi = bundle.weight.phi_values(n, k, beta_default=bundle.params.beta)
    records.append(_weight_record(phi, bundle.params, tol))

    t = cesaro_t(bundle.a, 1.0)
    w = w_sequence(t, 1.0)
    records.append(_cond11_record(bundle, phi, w, cps, tol, traces))

    return HypothesisReport(theorem="theorem_a", label=bundle.label, n=n,
                            records=tuple(records), tolerances=tol,
                            checkpoints=cps, traces=traces)


def conclusion_diagnostic(bundle: FamilyBundle,
                          checkpoints: Sequence[int] | None = None,
                          tolerances: Tolerances | None = None
                          ) -> tuple[FunctionalTrace, GrowthDiagnostic]:
    """Functional trace of the factored series a_n * lambda_n.

    This is what the theorems conclude is summable: the weighted functional
    of the t-transform of (a_n lambda_n).  Bounded partial sums at scale
    are the finite evidence for that conclusion.
    """
    tol = tolerances or Tolerances()
    cps = tuple(int(c) for c in (checkpoints or dyadic_checkpoints(bundle.n)))
    factored = RealSequence(start_index=1,
                            values=bundle.a.values * bundle.lam.values)
    t = cesaro_t(factored, bundle.params.alpha)
    phi = bundle.weight.phi_values(bundle.n, bundle.params.k,
                                   beta_default=bundle.params.beta)
    trace = weighted_power_trace(t.values, bundle.params.k, phi, cps)
    diag = growth_diagnostic(trace, slope_tolerance=tol.slope,
                             ratio_tolerance=tol.ratio)
    return trace, diag
