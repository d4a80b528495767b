import collections
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from summa import accumulation, cesaro, checker, functionals
from summa.accumulation import _BLOCK, compensated_cumsum
from summa.cesaro import cesaro_coefficients, cesaro_t, w_sequence
from summa.checker import (MAIN_CONDITIONS, THEOREM_A_CONDITIONS,
                           FamilyBundle, GrowthVerdict, Tolerances, _Context,
                           _weight_monotone, check_main_theorem,
                           check_theorem_a, conclusion_diagnostic,
                           dyadic_checkpoints, growth_diagnostic)
from summa.experiment import builtin_family, load_config, run
from summa.functionals import (CheckpointTrace, FunctionalTrace, WeightKind,
                               WeightSpec)
from summa.sequences import (CesaroParams, RealSequence, SequenceSpec,
                             materialize)

from helpers import drive, monotone_partials, phi_of


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

    @pytest.mark.parametrize("value", [
        True, np.True_, "0.5", None, pytest.param(10 ** 400, id="10**400")])
    def test_refuses_what_is_not_a_real_number(self, value):
        # from_json passes the value through, so the one check sees it
        for name in ("slope", "ratio", "inf_ratio_floor", "weight_rel_tol"):
            for make in (lambda: Tolerances(**{name: value}),
                         lambda: Tolerances.from_json({name: value})):
                with pytest.raises(ValueError, match=f"^{name} tolerance "
                                   "must be positive and finite$"):
                    make()


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

    def test_x_class_carries_its_running_max_across_a_block_edge(self):
        # X = log(n + 2) up to index 2**14, the last of the first block,
        # then 1e-8: X_n / max_(v<=n) X_v drops to 1e-8 / log(2**14 + 2)
        # only where the first block's max reaches the second block
        n = _BLOCK + 64
        f1 = builtin_family("F1", n)
        idx = np.arange(1.0, n + 1.0)
        X = np.where(idx <= _BLOCK, np.log(idx + 2.0), 1e-8)
        bundle = dataclasses.replace(
            f1, X=RealSequence(1, X),
            **{name: RealSequence(1, getattr(f1, name).values)
               for name in ("a", "lam", "Q", "delta")})
        report = check_main_theorem(bundle)
        rec = next(r for r in report.records if r.condition == "X_class")
        assert not rec.passed
        assert rec.notes == "inf_ratio=1.03048e-09 floor=1e-06"

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
    which makes phi once for each block, over the block's window: the
    block with the two indices before it."""

    @pytest.fixture
    def phi_blocks(self, monkeypatch):
        blocks = []
        original = WeightSpec._phi_block

        def counted(self, lo, n, *args, **kwargs):
            blocks.append((lo, lo + n.size))
            return original(self, lo, n, *args, **kwargs)

        monkeypatch.setattr(WeightSpec, "_phi_block", counted)
        return blocks

    @staticmethod
    def once_each(n):
        return [(max(lo - 2, 0), min(lo + _BLOCK, n))
                for lo in range(0, n, _BLOCK)]

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

    @pytest.mark.parametrize("n, length, start", [
        (100, 50, 1), (100, 99, 1), (100, 60, 0),
        # ends inside the pass's last block
        (_BLOCK + 5, _BLOCK + 2, 1)])
    def test_explicit_phi_must_cover_the_bundle(self, n, length, start):
        bundle = builtin_family("F1", n)
        weight = WeightSpec(kind=WeightKind.EXPLICIT_PHI,
                            phi=RealSequence(start, np.ones(length)))
        end = start + length - 1
        with pytest.raises(ValueError, match=rf"^explicit phi covers only "
                           rf"indices up to {end}, need {n}$"):
            dataclasses.replace(bundle, weight=weight)
        # the message phi_of gives, as the pass reads the weight
        with pytest.raises(ValueError, match=rf"up to {end}, need {n}$"):
            phi_of(weight, n, bundle.params.k)

    @pytest.mark.parametrize("length, start", [(100, 1), (101, 0), (150, 1)])
    def test_explicit_phi_covering_the_bundle(self, length, start):
        bundle = dataclasses.replace(
            builtin_family("F1", 100),
            weight=WeightSpec(kind=WeightKind.EXPLICIT_PHI,
                              phi=RealSequence(start, np.ones(length))))
        assert [r.condition for r in check_main_theorem(bundle).records] \
            == list(MAIN_CONDITIONS)


class TestCheckpointArgument:
    """The default grid stands in only for checkpoints=None: an empty grid
    is refused, an array is read as the tuple of its values, and an entry
    that is not an integer is refused."""

    @staticmethod
    def bundles(n):
        main = builtin_family("F1", n)
        return [(check_main_theorem, main),
                (check_theorem_a,
                 dataclasses.replace(main, Q=None, delta=None)),
                (conclusion_diagnostic, main)]

    @pytest.mark.parametrize("empty", [[], (), np.array([], dtype=int)])
    def test_empty_grid_is_refused(self, empty):
        for check, bundle in self.bundles(64):
            with pytest.raises(ValueError,
                               match="^at least 4 checkpoints required$"):
                check(bundle, empty)

    @pytest.mark.parametrize("head", [[0], [2, 2], [3, 1]])
    def test_unordered_grid_is_refused(self, head):
        # each check's one validator refuses it, not the sums it feeds
        for check, bundle in self.bundles(64):
            with pytest.raises(ValueError, match="^checkpoints must be "
                               "strictly increasing and >= 1$"):
                check(bundle, (*head, 16, 32, 64))

    @pytest.mark.parametrize("cps", [
        (1.5, 8.2, 16.9, 32.1, 64.0), (8.0, 16.0, 32.0, 64.0),
        np.array([8.0, 16.0, 32.0, 64.0]), (True, 2, 3, 4),
        (np.True_, 2, 3, 4)])
    def test_non_integer_grid_is_refused(self, cps):
        # int() would truncate 1.5 to 1 and read True as 1
        for check, bundle in self.bundles(64):
            with pytest.raises(ValueError,
                               match="^checkpoints must be integers$"):
                check(bundle, cps)

    def test_checkpoint_past_n_is_refused(self):
        # the pass reads no term past n, so no checkpoint may lie there
        for check, bundle in self.bundles(64):
            with pytest.raises(ValueError, match="^checkpoint 65 exceeds "
                               "available prefix length 64$"):
                check(bundle, (1, 2, 3, 65))

    @staticmethod
    def result(check, bundle, cps):
        out = check(bundle, cps)
        if check is conclusion_diagnostic:
            trace, diag = out
            return trace.partial_sums.tobytes(), diag.to_json()
        return out.to_json(), {name: t.partial_sums.tobytes()
                               for name, t in out.traces.items()}

    @pytest.mark.parametrize("cps", [(8, 16, 32, 64), (1, 5, 9, 40, 63)])
    def test_array_grid_is_the_tuple(self, cps):
        for (check, bundle), (_, fresh) in zip(self.bundles(64),
                                                self.bundles(64)):
            assert (self.result(check, bundle, np.array(cps))
                    == self.result(check, fresh, cps))


def reference_weight_record(phi, eps, k, rel_tol=1e-12):
    """weight_monotone's first_violation and notes as they were made from
    the whole-array check's index, with the term there recomputed in scalar
    arithmetic to see whether it is finite."""
    n = np.arange(1.0, phi.size + 1.0)
    with np.errstate(all="ignore"):
        seq = np.power(n, eps - k) * np.power(phi, k)
        rise = seq[1:] - seq[:-1]
        slack = rel_tol * np.maximum(np.abs(seq[1:]), np.abs(seq[:-1]))
    bad = ~np.isfinite(seq)
    bad[:-1] |= rise > slack
    notes = f"epsilon={eps:.6g}"
    if not np.any(bad):
        return None, notes
    first = int(np.argmax(bad)) + 1
    with np.errstate(all="ignore"):
        term = np.power(float(first), eps - k) * np.power(phi[first - 1], k)
    if not np.isfinite(term):
        notes += " non-finite value at first_violation"
    return first, notes


def weight_cases(n):
    """(phi, epsilon, k): finite weights whose powers overflow, rise or
    turn 0 * inf into NaN, at indices on both sides of block edges."""
    classic = np.power(np.arange(1.0, n + 1.0), 1.0 - 1.0 / 1.5)
    cases = [(classic, 1.0, 1.5), (classic * 1e250, 1.0, 1.5),
             (np.arange(1.0, n + 1.0), 1.0, 1e308)]
    # offset j is the last of a block of 7 or of _BLOCK, or the first after
    for j in (6, 7, 13, _BLOCK - 1, _BLOCK, n - 2, n - 1):
        if j >= n:
            continue
        # the term at index j (offset j - 1) rises past its slack into the
        # next one: a finite term at first_violation
        rises = classic.copy()
        rises[j:] *= 1.1
        # every term from offset j on overflows, so the rise into the first
        # of them is within its infinite slack: first_violation is offset
        # j, non-finite, and its successor overflows too
        overflows = classic.copy()
        overflows[j:] = 1e250
        cases += [(rises, 1.0, 1.5), (overflows, 1.0, 1.5)]
    return cases


class TestWeightMonotoneNote:
    """The record flags a non-finite term at first_violation from the term
    its block loop already computed, as the scalar recompute did."""

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_matches_the_scalar_recompute(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(accumulation, "_BLOCK", block)
        n = _BLOCK + 3 if block is None else 22
        flagged = 0
        for phi, eps, k in weight_cases(n):
            bundle = dataclasses.replace(
                builtin_family("F1", n),
                weight=WeightSpec(kind=WeightKind.EXPLICIT_PHI,
                                  phi=RealSequence(1, phi)),
                params=CesaroParams(k=k, epsilon=eps))
            ctx = _Context.of(bundle, None, None)
            [record], _ = ctx.run((("weight_monotone", _weight_monotone),))
            want = reference_weight_record(phi, eps, k)
            assert (record.first_violation, record.notes) == want
            flagged += "non-finite" in want[1]
        assert flagged >= 3

    @pytest.mark.parametrize("block", [1, 7, 1 << 14])
    def test_record_on_non_finite_weights(self, block):
        phis = [np.array([1.0, np.inf, 1.0, 1.0]),
                np.array([np.nan, 1.0, 1.0]),
                np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, np.inf]),
                np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.1, np.nan]),
                np.arange(1.0, 30.0)]
        for phi in phis:
            for eps, k in ((1.0, 1.0), (1.0, 1.5), (1.0, 1e308)):
                record = drive(_weight_monotone, phi=phi, block=block,
                               params=CesaroParams(epsilon=eps, k=k))
                assert ((record.first_violation, record.notes)
                        == reference_weight_record(phi, eps, k))


def full_array_t(a, alpha):
    """t_1^alpha .. t_N^alpha of the terms a_1..a_N with every n-long array
    held whole: x = v * a_v, then at alpha = 1 its compensated prefix sums
    over A_n^1 = n + 1, else its exact rows through the kernel A^(alpha-1)
    over A_n^alpha.  Both sums are pinned against references of their own
    (``tests/test_accumulation.py``, ``tests/test_cesaro.py``)."""
    x = a * np.arange(1.0, a.size + 1.0)
    if alpha == 1.0:
        return compensated_cumsum(x) / np.arange(2.0, a.size + 2.0)
    kernel = cesaro_coefficients(alpha - 1.0, a.size - 1)
    [rows] = cesaro._kernel_dot_prefixes(kernel, [x])
    return rows / cesaro_coefficients(alpha, a.size)[1:]


def full_array_trace(values, k, phi, checkpoints):
    """The weighted power trace with every n-long array held whole.  Its
    compensated prefix sums never decrease, so the running max over the
    checkpoints moves no sum, as it moved none over every index."""
    n = np.arange(1.0, phi.size + 1.0)
    terms = np.power(np.abs(phi * values) / n, k)
    assert np.all(np.diff(compensated_cumsum(terms)) >= 0.0)
    return monotone_partials(terms, checkpoints)


class TestStreamedTraces:
    """cond11 and the conclusion take t block by block; their traces match
    the full-array formula (t, then w = |t| or its running max, then the
    trace) bit for bit at every block size."""

    @staticmethod
    def assert_traces_match(n, alpha, a=None):
        """F1's traces at n and alpha, with its a_1..a_n replaced by ``a``
        when given, against the full-array formula."""
        bundle = builtin_family("F1", n, {"alpha": alpha})
        if a is not None:
            bundle = dataclasses.replace(bundle, a=RealSequence(1, a))
        k = bundle.params.k
        phi = phi_of(bundle.weight, n, k, beta_default=bundle.params.beta)
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

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    @pytest.mark.parametrize("block", [7, _BLOCK])
    def test_decaying_means(self, monkeypatch, alpha, block):
        # F1's own |t^alpha| never decreases, so its w^alpha is |t^alpha|.
        # For a_n = (-1)^n / n, |t^alpha| decays like n^(-alpha), so w^alpha
        # is the running max of |t^alpha|, here carried across block edges
        n = 4096
        v = np.arange(1.0, n + 1.0)
        a = np.where(v % 2 == 0, 1.0, -1.0) / v
        t = np.abs(full_array_t(a, alpha))
        assert np.any(np.maximum.accumulate(t) > t)
        monkeypatch.setattr(accumulation, "_BLOCK", block)
        self.assert_traces_match(n, alpha, a)


def one_lane_non_finite(n, p, lane):
    """F1 with a_p and lambda_p set so that only t of a (lane "w": p * a_p
    overflows, p * (a_p * lambda_p) does not) or only t of a_n * lambda_n
    (lane "t": a_p * lambda_p overflows, p * a_p does not) goes non-finite
    from index p on."""
    bundle = builtin_family("F1", n)
    a, lam = bundle.a.values.copy(), bundle.lam.values.copy()
    a[p - 1], lam[p - 1] = (1e307, 1e-200) if lane == "w" else (1e200, 1e200)
    return dataclasses.replace(bundle, a=RealSequence(1, a),
                               lam=RealSequence(1, lam))


def outcome(call):
    """What a check returns, as bytes and JSON, or the error it raises."""
    try:
        out = call()
    except (ValueError, OverflowError) as e:
        return type(e), str(e)
    if isinstance(out, tuple):  # conclusion_diagnostic
        return out[0].partial_sums.tobytes(), out[1].to_json()
    return out.to_json(), {name: t.partial_sums.tobytes()
                           for name, t in out.traces.items()}


class TestOneLaneNonFinite:
    """cond11 and the conclusion take their traces in one pass; where only
    one of their means goes non-finite, that one raises and the other's
    trace is still the full-array formula's, as in a pass of its own."""

    N = 2 * _BLOCK + 5

    @pytest.mark.parametrize("lane", ["w", "t"])
    # mid-block, the last index of the first block, the first of the second
    @pytest.mark.parametrize("p", [_BLOCK // 2 + 3, _BLOCK, _BLOCK + 1])
    def test_the_other_lane_runs_on(self, lane, p):
        bundle = one_lane_non_finite(self.N, p, lane)
        k = bundle.params.k
        phi = phi_of(bundle.weight, self.N, k,
                     beta_default=bundle.params.beta)
        grid = dyadic_checkpoints(self.N)
        a, lam = bundle.a.values, bundle.lam.values
        # the reference formula overflows where the lane goes non-finite
        with np.errstate(all="ignore"):
            w, t = full_array_t(a, 1.0), full_array_t(a * lam, 1.0)
        assert np.isfinite((w if lane == "t" else t)[p - 1:]).all()
        assert not np.isfinite((w if lane == "w" else t)[p - 1:]).any()
        assert np.isfinite(w[:p - 1]).all()
        assert np.isfinite(t[:p - 1]).all()
        check = outcome(lambda: check_main_theorem(bundle))
        conclusion = outcome(lambda: conclusion_diagnostic(bundle))
        fresh = one_lane_non_finite(self.N, p, lane)
        alone = outcome(lambda: conclusion_diagnostic(fresh))
        if lane == "t":
            cond11 = full_array_trace(np.abs(w), k, phi, grid)
            with_x = dataclasses.replace(
                FunctionalTrace(grid, cond11),
                reference=bundle.X.values[np.array(grid) - 1])
            assert check[1]["cond11"] == cond11.tobytes()
            record = {r["condition"]: r for r in check[0]["records"]}
            assert record["cond11"]["verdict"] == growth_diagnostic(
                with_x).verdict.value
            assert conclusion == alone == (
                ValueError, "sequence values must be finite")
        else:
            assert check == (ValueError, "sequence values must be finite")
            want = full_array_trace(t, k, phi, grid).tobytes()
            assert conclusion[0] == alone[0] == want
            assert conclusion == alone


def fractional_lane_error(n, p, lane, kind):
    """F1 at alpha = 1/2 with a and lambda set at p (and at p + 1 for
    "overflow") so that only the operand of w (lane "w": v * a_v) or of t
    (lane "t": v * a_v * lambda_v) is refused.  At "inf" that operand or
    its terms are non-finite (``one_lane_non_finite``); at
    "overflow" it is 1.5e308 at p and p + 1, finite, but its row p + 1 sums
    to 2.25e308, beyond the float range."""
    if kind == "inf":
        bundle = one_lane_non_finite(n, p, lane)
    else:
        bundle = builtin_family("F1", n)
        a, lam = bundle.a.values.copy(), bundle.lam.values.copy()
        for v in (p, p + 1):
            lam[v - 1] = 1e-200 if lane == "w" else 1e300
            a[v - 1] = (1.5e308 if lane == "w" else 1.5e8) / v
        bundle = dataclasses.replace(bundle, a=RealSequence(1, a),
                                     lam=RealSequence(1, lam))
    return dataclasses.replace(bundle, params=dataclasses.replace(
        bundle.params, alpha=0.5))


@pytest.mark.parametrize("lane", ["w", "t"])
@pytest.mark.parametrize("kind, error", [
    # a non-finite operand is refused as a non-finite sequence is
    ("inf", dict.fromkeys("wt", (ValueError,
                                 "sequence values must be finite"))),
    ("overflow", dict.fromkeys("wt", (
        OverflowError, "a Cesaro sum overflows the float range"))),
])
@pytest.mark.parametrize("p", [_BLOCK // 2 + 3, _BLOCK, _BLOCK + 1])
def test_fractional_lane_errors_stay_in_their_lane(lane, kind, error, p):
    # at alpha = 1/2 one lane's means are refused: that lane's builder
    # raises the error, and the other lane's trace is the one its own mean
    # gives, in a check and in a conclusion of its own
    n = 2 * _BLOCK + 5
    bundle = fractional_lane_error(n, p, lane, kind)
    k = bundle.params.k
    phi = phi_of(bundle.weight, n, k, beta_default=bundle.params.beta)
    grid = dyadic_checkpoints(n)
    a, lam = bundle.a.values, bundle.lam.values
    check = outcome(lambda: check_main_theorem(bundle))
    conclusion = outcome(lambda: conclusion_diagnostic(bundle))
    fresh = fractional_lane_error(n, p, lane, kind)
    alone = outcome(lambda: conclusion_diagnostic(fresh))
    if lane == "t":
        w = np.maximum.accumulate(np.abs(full_array_t(a, 0.5)))
        assert check[1]["cond11"] == full_array_trace(
            w, k, phi, grid).tobytes()
        assert conclusion == alone == error["t"]
    else:
        assert check == error["w"]
        t = full_array_t(a * lam, 0.5)
        assert conclusion[0] == full_array_trace(t, k, phi, grid).tobytes()
        assert conclusion == alone


def test_one_kernel_per_check(monkeypatch):
    # at alpha = 1/2 cond11 and the conclusion share one kernel call: one
    # A^alpha for the denominators, one A^(alpha - 1) kernel, sliced once
    bundle = builtin_family("F1", 4096, {"alpha": 0.5})
    orders, kernels, sliced = [], [], []
    weights, slices = cesaro._binomial_weights, cesaro._slices

    def spy_weights(order, n_max):
        out = weights(order, n_max)
        orders.append(order)
        kernels.append(out)
        return out

    monkeypatch.setattr(cesaro, "_binomial_weights", spy_weights)
    monkeypatch.setattr(cesaro, "_slices", lambda v, b: sliced.append(
        any(v is k for k in kernels)) or slices(v, b))
    check_main_theorem(bundle)
    conclusion_diagnostic(bundle)
    assert sorted(orders) == [-0.5, 0.5]
    assert sliced.count(True) == 1


def test_a_dead_lane_is_not_redone(monkeypatch):
    # the conclusion's t goes non-finite at index 100 (a_100 * lambda_100
    # overflows); its lane then carries zeros, so later blocks are not redone
    # with Neumaier's branch, while cond11's lane runs on with its own bits
    n = 1 << 17
    bundle = builtin_family("F1", n)
    a, lam = bundle.a.values.copy(), bundle.lam.values.copy()
    a[99] = lam[99] = 1e200
    bundle = dataclasses.replace(bundle, a=RealSequence(1, a),
                                 lam=RealSequence(1, lam))
    calls = []
    redo = accumulation._neumaier_corrections
    monkeypatch.setattr(accumulation, "_neumaier_corrections",
                        lambda *args: calls.append(1) or redo(*args))
    report = check_main_theorem(bundle)
    with pytest.raises(ValueError, match="^sequence values must be finite$"):
        conclusion_diagnostic(bundle)
    w = np.abs(full_array_t(a, 1.0))
    # once in the running means' block, once in the trace's
    assert len(calls) <= 2
    assert [r.condition for r in report.records if not r.passed] \
        == ["majorant"]
    k, grid = bundle.params.k, dyadic_checkpoints(n)
    phi = phi_of(bundle.weight, n, k, beta_default=bundle.params.beta)
    assert (report.traces["cond11"].partial_sums.tobytes()
            == full_array_trace(w, k, phi, grid).tobytes())


def test_dead_lanes_end_the_means(monkeypatch):
    # 100 * a_100 (cond11's w) and a_100 * lambda_100 (the conclusion's t)
    # both overflow in the first block: once both lanes are dead the pass
    # sums no later block of the means, so the error costs one block
    n = 1 << 17
    bundle = builtin_family("F1", n)
    a, lam = bundle.a.values.copy(), bundle.lam.values.copy()
    a[99], lam[99] = 1e307, 1e10
    bundle = dataclasses.replace(bundle, a=RealSequence(1, a),
                                 lam=RealSequence(1, lam))
    pushes, redos = [], []
    push = functionals._PowerTrace.push
    monkeypatch.setattr(functionals._PowerTrace, "push",
                        lambda *args: pushes.append(1) or push(*args))
    redo = accumulation._neumaier_corrections
    monkeypatch.setattr(accumulation, "_neumaier_corrections",
                        lambda *args: redos.append(1) or redo(*args))
    with pytest.raises(ValueError, match="^sequence values must be finite$"):
        check_main_theorem(bundle)
    assert len(pushes) == 1
    # once in the running means' block, once in the trace's
    assert len(redos) <= 2


def blocks_per_builder(monkeypatch, check, bundle):
    """The check's report, and how many blocks the pass sent each record
    builder, by the builder's function name."""
    counts, advance = collections.Counter(), checker._advance

    def counted(step, block):
        if block is not None:
            counts[step.gi_code.co_name] += 1
        return advance(step, block)

    monkeypatch.setattr(checker, "_advance", counted)
    return check(bundle), dict(counts)


class TestRecordsReturnAtTheirVerdict:
    """A pointwise record returns at its first violation, so the pass sends
    it no later block; the scale records and the quasi-monotone record,
    whose trend reads every block, get them all."""

    N = 3 * _BLOCK

    def test_majorant_and_weight_fail_in_the_first_block(self, monkeypatch):
        bundle = builtin_family("F1", self.N)
        phi = np.ones(self.N)
        phi[2] = 10.0  # n^(1 - k) |phi_n|^k rises into index 3
        bundle = dataclasses.replace(
            bundle, Q=RealSequence(1, np.full(self.N, 1e-30)),
            weight=WeightSpec(kind=WeightKind.EXPLICIT_PHI,
                              phi=RealSequence(1, phi)))
        report, counts = blocks_per_builder(monkeypatch, check_main_theorem,
                                            bundle)
        assert counts == {"_x_almost_increasing": 3, "_cond7": 3,
                          "_majorant": 1, "_quasi_monotone": 3,
                          "_series_nqx": 3, "_weight_monotone": 1,
                          "_cond11": 3}
        record = {r.condition: r for r in report.records}
        assert (record["majorant"].passed,
                record["majorant"].first_violation) == (False, 1)
        assert (record["weight_monotone"].passed,
                record["weight_monotone"].first_violation) == (False, 2)
        assert record["quasi_monotone"].passed

    def test_x_class_and_weight_fail_in_the_first_block(self, monkeypatch):
        bundle = builtin_family("F2", self.N)
        X, phi = bundle.X.values.copy(), np.ones(self.N)
        X[5], phi[2] = X[4] / 2.0, 10.0
        bundle = dataclasses.replace(
            bundle, X=RealSequence(1, X),
            weight=WeightSpec(kind=WeightKind.EXPLICIT_PHI,
                              phi=RealSequence(1, phi)))
        report, counts = blocks_per_builder(monkeypatch, check_theorem_a,
                                            bundle)
        assert counts == {"_x_non_decreasing": 1, "_cond7": 3, "_cond8": 3,
                          "_weight_monotone": 1, "_cond11": 3}
        record = {r.condition: r for r in report.records}
        assert record["X_class"].first_violation == 6
        assert record["weight_monotone"].first_violation == 2

    def test_x_class_stops_at_a_non_positive_x(self, monkeypatch):
        bundle = builtin_family("F1", self.N)
        X = bundle.X.values.copy()
        X[_BLOCK + 7] = -1.0
        bundle = dataclasses.replace(bundle, X=RealSequence(1, X))
        report, counts = blocks_per_builder(monkeypatch, check_main_theorem,
                                            bundle)
        assert counts["_x_almost_increasing"] == 2
        assert counts["_cond7"] == 3
        assert report.records[0].first_violation == _BLOCK + 8


class TestConclusionBesideTheTable:
    def test_run_returns_the_conclusion_beside_the_records(self):
        bundle = builtin_family("F1", 4096)
        ctx = _Context.of(bundle, None, None)
        records, conclusion = ctx.run(checker._MAIN_TABLE)
        assert [r.condition for r in records] == list(MAIN_CONDITIONS)
        alone, _ = conclusion_diagnostic(builtin_family("F1", 4096))
        assert conclusion.partial_sums.tobytes() == \
            alone.partial_sums.tobytes()
        records, again = _Context.of(bundle, None, None).run(())
        assert records == []
        assert (again.partial_sums.tobytes()
                == conclusion.partial_sums.tobytes())

    def test_the_conclusion_error_is_returned(self):
        # a_n * lambda_n overflows and n * a_n does not: the records are
        # made and the conclusion is the error its lane raised
        n = 64
        bundle = dataclasses.replace(
            builtin_family("F1", n), a=RealSequence(1, np.full(n, 1e300)),
            lam=RealSequence(1, np.full(n, 1e10)),
            params=CesaroParams(k=1.0))
        records, conclusion = _Context.of(bundle, None, None).run(
            checker._MAIN_TABLE)
        assert all(isinstance(r, checker.ConditionRecord) for r in records)
        assert isinstance(conclusion, ValueError)
        assert str(conclusion) == "sequence values must be finite"

    def test_conclusion_after_a_check_makes_no_second_pass(self,
                                                           monkeypatch):
        bundle = builtin_family("F1", 4096)
        tables, run_table = [], _Context.run
        monkeypatch.setattr(_Context, "run", lambda ctx, table: tables.append(
            len(table)) or run_table(ctx, table))
        check_main_theorem(bundle)
        trace, _ = conclusion_diagnostic(bundle)
        assert tables == [len(MAIN_CONDITIONS)]
        conclusion_diagnostic(bundle, checkpoints=(512, 1024, 2048, 4096))
        assert tables == [len(MAIN_CONDITIONS), 0]


_SIGNS = np.where(np.arange(64) % 2, -1.0, 1.0)


@pytest.mark.parametrize("check, family, roles, message", [
    # n * Q_n * X_n overflows
    (check_main_theorem, "F1", {"Q": np.full(64, 1e306)},
     "series_nQX: partial sums must be finite"),
    # lambda's second differences overflow
    (check_theorem_a, "F2", {"lam": 1e306 * _SIGNS},
     "cond8: partial sums must be finite"),
    # |lambda_n| X_n overflows at the checkpoints
    (check_main_theorem, "F1", {"lam": np.full(64, 1e200),
                                "X": np.full(64, 1e200)},
     "cond7: sampled values must be finite"),
    # Q's differences overflow in quasi_monotone, its series after them
    (check_main_theorem, "F1", {"Q": 1e308 * _SIGNS},
     "series_nQX: partial sums must be finite"),
], ids=["series_nQX", "cond8", "cond7", "quasi_monotone"])
def test_overflow_raises_and_never_warns(check, family, roles, message):
    # a library caller gets the record's error, no RuntimeWarning (which
    # this suite turns into an error in its place)
    bundle = dataclasses.replace(
        builtin_family(family, 64),
        **{name: RealSequence(1, v) for name, v in roles.items()})
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(bundle)


def test_growth_diagnostic_never_warns():
    # last / mid overflows: a verdict, with no RuntimeWarning
    trace = CheckpointTrace((1, 2, 4, 8, 16, 32),
                            np.array([1.0, 1.0, 1.0, 1e-300, 1.0, 1e300]))
    assert growth_diagnostic(trace).verdict is GrowthVerdict.GROWTH_DETECTED


def test_overflowed_ratio_is_reported_as_none():
    # last / mid overflows to inf, which JSON cannot hold; the verdict is
    # the one an infinite ratio gave, since the slope alone decides it
    trace = CheckpointTrace((1, 2, 4, 8, 16, 32),
                            np.array([1.0, 1.0, 1.0, 1e-300, 1.0, 1e300]))
    diag = growth_diagnostic(trace)
    assert diag.last_mid_ratio is None
    assert diag.verdict is GrowthVerdict.GROWTH_DETECTED
    json.dumps(diag.to_json(), allow_nan=False)
