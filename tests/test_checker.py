from pathlib import Path

import numpy as np
import pytest

from summa import accumulation, cesaro
from summa.accumulation import _BLOCK, compensated_cumsum, compensated_sums_at
from summa.cesaro import cesaro_t, w_sequence
from summa.checker import (MAIN_CONDITIONS, THEOREM_A_CONDITIONS,
                           FamilyBundle, GrowthVerdict, Tolerances,
                           check_main_theorem, check_theorem_a,
                           conclusion_diagnostic, dyadic_checkpoints,
                           growth_diagnostic)
from summa.experiment import builtin_family, load_config, run
from summa.functionals import (CheckpointTrace, FunctionalTrace, WeightKind,
                               WeightSpec)
from summa.sequences import (CesaroParams, RealSequence, SequenceSpec,
                             materialize)


class TestDyadicCheckpoints:
    def test_canonical_grid(self):
        assert dyadic_checkpoints(10000) == (156, 312, 625, 1250, 2500,
                                             5000, 10000)

    def test_small_grid(self):
        assert dyadic_checkpoints(64) == (1, 2, 4, 8, 16, 32, 64)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            dyadic_checkpoints(0)


class TestGrowthDiagnostic:
    def test_constant_is_bounded(self):
        cps = (10, 20, 40, 80)
        d = growth_diagnostic(CheckpointTrace(cps, np.full(4, 3.0)))
        assert d.slope == pytest.approx(0.0, abs=1e-12)
        assert d.verdict is GrowthVerdict.BOUNDED_CONSISTENT

    def test_log_against_log_reference_cancels(self):
        cps = dyadic_checkpoints(4096)
        vals = np.log(np.asarray(cps, dtype=float))
        d = growth_diagnostic(CheckpointTrace(cps, vals,
                                              reference=vals.copy()))
        assert d.slope == pytest.approx(0.0, abs=1e-12)
        assert d.verdict is GrowthVerdict.BOUNDED_CONSISTENT

    def test_sqrt_growth_detected(self):
        cps = dyadic_checkpoints(4096)
        vals = np.sqrt(np.asarray(cps, dtype=float))
        d = growth_diagnostic(CheckpointTrace(cps, vals))
        assert d.slope == pytest.approx(0.5, abs=1e-9)
        assert d.verdict is GrowthVerdict.GROWTH_DETECTED

    def test_all_zero_is_bounded(self):
        cps = (1, 2, 4, 8)
        d = growth_diagnostic(CheckpointTrace(cps, np.zeros(4)))
        assert d.slope == 0.0
        assert d.last_mid_ratio == 1.0
        assert d.verdict is GrowthVerdict.BOUNDED_CONSISTENT

    def test_requires_four_checkpoints(self):
        with pytest.raises(ValueError):
            growth_diagnostic(CheckpointTrace((1, 2, 4), np.ones(3)))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            CheckpointTrace((1, 2, 4, 8), np.ones(4),
                            reference=np.array([1.0, 0.0, 1.0, 1.0]))

    def test_uses_trace_reference(self):
        cps = (1, 2, 4, 8)
        trace = CheckpointTrace(cps, np.array([2.0, 4.0, 8.0, 16.0]),
                                reference=np.array([1.0, 2.0, 4.0, 8.0]))
        d = growth_diagnostic(trace)
        assert np.array_equal(d.values, np.full(4, 2.0))
        assert d.verdict is GrowthVerdict.BOUNDED_CONSISTENT

    def test_accepts_functional_trace(self):
        trace = FunctionalTrace(checkpoints=(1, 2, 4, 8),
                                partial_sums=np.array([1.0, 1.0, 1.0, 1.0]))
        d = growth_diagnostic(trace)
        assert d.verdict is GrowthVerdict.BOUNDED_CONSISTENT

    def test_tolerance_knobs(self):
        cps = dyadic_checkpoints(4096)
        trace = CheckpointTrace(cps, np.power(np.asarray(cps, dtype=float),
                                              0.3))
        assert (growth_diagnostic(trace).verdict
                is GrowthVerdict.GROWTH_DETECTED)
        relaxed = growth_diagnostic(trace, Tolerances(slope=0.5, ratio=10.0))
        assert relaxed.verdict is GrowthVerdict.BOUNDED_CONSISTENT


class TestTolerances:
    def test_round_trip(self):
        t = Tolerances(slope=0.2, ratio=2.0, inf_ratio_floor=1e-5,
                       weight_rel_tol=1e-10)
        assert Tolerances.from_json(t.to_json()) == t

    def test_positive_required(self):
        with pytest.raises(ValueError):
            Tolerances(slope=0.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            Tolerances.from_json({"slope": 0.1, "grit": 1.0})


class TestCheckMainTheorem:
    def test_f1_all_records_pass(self):
        report = check_main_theorem(builtin_family("F1", 10000))
        assert tuple(r.condition for r in report.records) == MAIN_CONDITIONS
        assert report.all_passed
        assert report.theorem == "main"

    def test_f3_fails_exactly_cond7(self):
        report = check_main_theorem(builtin_family("F3", 10000))
        failing = {r.condition for r in report.records if not r.passed}
        assert failing == {"cond7"}
        rec = next(r for r in report.records if r.condition == "cond7")
        assert rec.verdict == GrowthVerdict.GROWTH_DETECTED.value

    def test_element_wise_records_pass_at_smaller_scales(self):
        # prefix-monotone conditions must keep passing as N shrinks
        for N in (64, 128, 256, 1024):
            report = check_main_theorem(builtin_family("F1", N))
            by_id = {r.condition: r for r in report.records}
            for cond in ("majorant", "quasi_monotone", "weight_monotone",
                         "param_gate"):
                assert by_id[cond].passed, (cond, N)

    def test_param_gate_failure(self):
        bundle = builtin_family("F1", 64,
                                overrides={"alpha": 0.5, "k": 1.0,
                                           "epsilon": 0.4})
        report = check_main_theorem(bundle)
        rec = next(r for r in report.records if r.condition == "param_gate")
        assert not rec.passed

    def test_majorant_violation_reported(self):
        base = builtin_family("F1", 64)
        # shrink Q far below |D lambda| at every index
        import dataclasses
        weak_q = RealSequence(1, np.full(64, 1e-12))
        bundle = dataclasses.replace(base, Q=weak_q)
        report = check_main_theorem(bundle)
        rec = next(r for r in report.records if r.condition == "majorant")
        assert not rec.passed
        assert rec.first_violation == 1

    def test_majorant_overflow_reported(self):
        # lambda_1 - lambda_2 overflows to inf: a violation, without warnings
        import dataclasses
        base = builtin_family("F1", 256)
        lam = base.lam.values.copy()
        lam[:2] = (1.7e308, -1.7e308)
        bundle = dataclasses.replace(base, lam=RealSequence(1, lam))
        report = check_main_theorem(bundle)
        rec = next(r for r in report.records if r.condition == "majorant")
        assert not rec.passed
        assert rec.first_violation == 1
        assert "non-finite" in rec.notes

    def test_traces_per_growth_record(self):
        report = check_main_theorem(builtin_family("F1", 256))
        assert set(report.traces) == {"series_nQX", "cond11"}
        cond11 = report.traces["cond11"]
        assert cond11.checkpoints == dyadic_checkpoints(256)
        assert np.array_equal(cond11.reference,
                              np.log(np.asarray(cond11.checkpoints) + 2.0))
        assert report.traces["series_nQX"].reference is None

    def test_requires_majorant_data(self):
        bundle = builtin_family("F2", 64)
        with pytest.raises(ValueError, match="requires Q and delta"):
            check_main_theorem(bundle)

    def test_requires_alpha_in_unit_interval(self):
        bundle = builtin_family("F1", 64, overrides={"alpha": 2.0})
        with pytest.raises(ValueError, match="0 < alpha <= 1"):
            check_main_theorem(bundle)

    def test_report_serialization(self):
        report = check_main_theorem(builtin_family("F1", 256))
        obj = report.to_json()
        assert obj["theorem"] == "main"
        assert len(obj["records"]) == 8
        assert obj["checkpoints"] == list(dyadic_checkpoints(256))
        assert obj["tolerances"]["slope"] == 0.1


class TestCheckTheoremA:
    def test_f2_all_records_pass(self):
        report = check_theorem_a(builtin_family("F2", 10000))
        assert tuple(r.condition for r in report.records) == THEOREM_A_CONDITIONS
        assert report.all_passed
        assert report.theorem == "theorem_a"

    def test_rejects_majorant_data(self):
        with pytest.raises(ValueError, match="must not carry"):
            check_theorem_a(builtin_family("F1", 64))

    def test_rejects_fractional_alpha(self):
        import dataclasses
        bundle = builtin_family("F2", 64)
        bundle = dataclasses.replace(
            bundle, params=CesaroParams(alpha=0.5, k=1.5, epsilon=1.0))
        with pytest.raises(ValueError, match="alpha = 1"):
            check_theorem_a(bundle)

    def test_decreasing_x_flagged_with_index(self):
        N = 64
        a = materialize(SequenceSpec("alternating_unit", n=N, start=1))
        lam = materialize(SequenceSpec("power_decay", n=N, start=1,
                                       params={"p": 1.0, "c0": 2.0}))
        X = materialize(SequenceSpec("power_decay", n=N, start=1,
                                     params={"p": 1.0}))
        bundle = FamilyBundle(label="bad-X", a=a, lam=lam, X=X,
                              weight=WeightSpec(kind=WeightKind.CLASSIC),
                              params=CesaroParams(alpha=1.0, k=1.5))
        report = check_theorem_a(bundle)
        rec = next(r for r in report.records if r.condition == "X_class")
        assert not rec.passed
        assert rec.first_violation == 2

    def test_cond8_trace_on_its_own_grid(self):
        report = check_theorem_a(builtin_family("F2", 100))
        assert set(report.traces) == {"cond8", "cond11"}
        assert report.traces["cond8"].checkpoints == dyadic_checkpoints(98)

    def test_constant_lambda_zero_conditions(self):
        # lambda = 0 everywhere: cond7 and cond8 see identically zero input
        N = 256
        a = materialize(SequenceSpec("alternating_unit", n=N, start=1))
        lam = RealSequence(1, np.zeros(N))
        X = materialize(SequenceSpec("log_shift", n=N, start=1))
        bundle = FamilyBundle(label="zero-lam", a=a, lam=lam, X=X,
                              weight=WeightSpec(kind=WeightKind.CLASSIC),
                              params=CesaroParams(alpha=1.0, k=1.5))
        report = check_theorem_a(bundle)
        by_id = {r.condition: r for r in report.records}
        assert by_id["cond7"].passed
        assert by_id["cond8"].passed


class TestPartialSumRecords:
    """The series_nQX and cond8 traces are sampled block by block; they
    must equal the full-array compensated sums at their checkpoints."""

    N = 2 * _BLOCK + 1001

    @staticmethod
    def assert_sampled(trace, terms):
        idx = np.asarray(trace.checkpoints) - 1
        assert trace.partial_sums.tobytes() == compensated_cumsum(
            terms)[idx].tobytes()

    def test_series_nqx(self):
        b = builtin_family("F1", self.N)
        cps = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, self.N)
        report = check_main_theorem(b, checkpoints=cps)
        trace = report.traces["series_nQX"]
        assert trace.checkpoints == cps
        self.assert_sampled(trace, np.arange(1.0, self.N + 1.0)
                            * b.Q.values * b.X.values)

    def test_cond8(self):
        b = builtin_family("F2", self.N)
        lam = b.lam.values
        d2 = lam[:-2] - 2.0 * lam[1:-1] + lam[2:]
        trace = check_theorem_a(b).traces["cond8"]
        assert trace.checkpoints[0] < _BLOCK < 2 * _BLOCK < self.N - 2
        self.assert_sampled(trace, np.arange(1.0, d2.size + 1.0)
                            * b.X.values[:d2.size] * np.abs(d2))


class TestConclusionDiagnostic:
    def test_f1_conclusion_bounded(self):
        trace, diag = conclusion_diagnostic(builtin_family("F1", 2048))
        assert diag.verdict is GrowthVerdict.BOUNDED_CONSISTENT
        assert np.all(np.diff(trace.partial_sums) >= 0)

    def test_uses_factored_series(self):
        # zero lambda kills the factored series outright
        import dataclasses
        bundle = builtin_family("F1", 256)
        bundle = dataclasses.replace(bundle,
                                     lam=RealSequence(1, np.zeros(256)))
        trace, diag = conclusion_diagnostic(bundle)
        assert np.array_equal(trace.partial_sums,
                              np.zeros(len(trace.checkpoints)))
        assert diag.verdict is GrowthVerdict.BOUNDED_CONSISTENT


class TestPhiOncePerRun:
    """The check records and the conclusion share one pass over the bundle,
    which makes each block of phi once."""

    @pytest.fixture
    def phi_blocks(self, monkeypatch):
        blocks = []
        original = WeightSpec._phi_block

        def counted(self, lo, hi, *args, **kwargs):
            blocks.append((lo, hi))
            return original(self, lo, hi, *args, **kwargs)

        monkeypatch.setattr(WeightSpec, "_phi_block", counted)
        return blocks

    @staticmethod
    def once_each(n):
        return [(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]

    def test_check_and_conclusion(self, phi_blocks):
        n = 2 * _BLOCK + 5
        bundle = builtin_family("F1", n)
        check_main_theorem(bundle)
        conclusion_diagnostic(bundle)
        assert phi_blocks == self.once_each(n)

    def test_experiment_run(self, phi_blocks, tmp_path):
        config = load_config(Path(__file__).resolve().parents[1]
                             / "configs" / "f1_main.json")
        run(config, out_dir=tmp_path, quiet=True)
        assert phi_blocks == self.once_each(config.n)


class TestFamilyBundle:
    def test_alignment_enforced(self):
        a = RealSequence(1, np.ones(8))
        lam = RealSequence(1, np.ones(9))
        X = RealSequence(1, np.ones(8))
        with pytest.raises(ValueError, match="length"):
            FamilyBundle(label="x", a=a, lam=lam, X=X,
                         weight=WeightSpec(kind=WeightKind.CLASSIC),
                         params=CesaroParams())

    def test_start_index_enforced(self):
        a = RealSequence(0, np.ones(8))
        lam = RealSequence(1, np.ones(8))
        X = RealSequence(1, np.ones(8))
        with pytest.raises(ValueError, match="start at index 1"):
            FamilyBundle(label="x", a=a, lam=lam, X=X,
                         weight=WeightSpec(kind=WeightKind.CLASSIC),
                         params=CesaroParams())


def full_array_t(a, alpha):
    """t_1^alpha .. t_N^alpha of the terms a_1..a_N by the full-array
    formula that ``cesaro_t`` used before the means were streamed: x =
    v * a_v whole, then the order-alpha mean of all of x."""
    return cesaro._mean(a * np.arange(1.0, a.size + 1.0), alpha, 1)


def full_array_trace(values, k, phi, checkpoints):
    """The weighted power trace with every n-long array held whole."""
    n = np.arange(1.0, phi.size + 1.0)
    terms = np.power(np.abs(phi * values) / n, k)
    return compensated_sums_at(terms, checkpoints, running_max=True)


class TestStreamedTraces:
    """cond11 and the conclusion take t block by block; their traces match
    the full-array formula (t, then w = |t| or its running max, then the
    trace) bit for bit at every block size."""

    @staticmethod
    def assert_traces_match(n, alpha):
        bundle = builtin_family("F1", n, {"alpha": alpha})
        phi, k = bundle.phi, bundle.params.k
        for cps in (None, (1, 2, 3, n // 2 + 1)):
            grid = cps or dyadic_checkpoints(n)
            t = full_array_t(bundle.a.values, alpha)
            assert cesaro_t(bundle.a, alpha).values.tobytes() == t.tobytes()
            w = w_sequence(RealSequence(1, t), alpha).values
            got = check_main_theorem(bundle, cps).traces["cond11"]
            assert (got.partial_sums.tobytes()
                    == full_array_trace(w, k, phi, grid).tobytes())
            t = full_array_t(bundle.a.values * bundle.lam.values, alpha)
            got, _ = conclusion_diagnostic(bundle, cps)
            assert (got.partial_sums.tobytes()
                    == full_array_trace(t, k, phi, grid).tobytes())

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("block", range(1, 9))
    def test_small_blocks(self, monkeypatch, alpha, block):
        monkeypatch.setattr(accumulation, "_BLOCK", block)
        k = 8 // block + 2  # n >= 8 for the builtin family
        for n in (k * block - 1, k * block, k * block + 1):
            self.assert_traces_match(n, alpha)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_real_block(self, alpha, offset):
        self.assert_traces_match(_BLOCK + offset, alpha)
