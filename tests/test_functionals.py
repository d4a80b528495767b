import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summa import accumulation
from summa.accumulation import _BLOCK
from summa.cesaro import cesaro_t
from summa.functionals import (FunctionalTrace, WeightKind, WeightSpec,
                               validate_checkpoints, weighted_power_trace)
from summa.sequences import RealSequence

from helpers import (max_rel_deviation, monotone_partials, phi_of,
                     reduced_terms)


class TestWeightSpec:
    def test_explicit_requires_phi(self):
        with pytest.raises(ValueError):
            WeightSpec(kind=WeightKind.EXPLICIT_PHI)

    def test_beta_only_for_indexed(self):
        with pytest.raises(ValueError):
            WeightSpec(kind=WeightKind.CLASSIC, beta=0.5)

    def test_beta_non_negative(self):
        with pytest.raises(ValueError):
            WeightSpec(kind=WeightKind.INDEXED, beta=-0.5)

    # float() reads True as 1.0 and overflows on 10**400
    @pytest.mark.parametrize("beta", [
        True, np.True_, "0.5", [1], pytest.param(10 ** 400, id="10**400")])
    def test_beta_that_is_not_a_real_number(self, beta):
        with pytest.raises(ValueError, match="^beta must be finite and "
                           "non-negative$"):
            WeightSpec(kind=WeightKind.INDEXED, beta=beta)

    def test_classic_values(self):
        spec = WeightSpec(kind=WeightKind.CLASSIC)
        phi = phi_of(spec, 4, k=2.0)
        assert np.allclose(phi, np.sqrt([1, 2, 3, 4]), rtol=1e-15)

    def test_indexed_values_and_fallback(self):
        spec = WeightSpec(kind=WeightKind.INDEXED, beta=0.5)
        phi = phi_of(spec, 3, k=2.0)
        assert np.allclose(phi, np.power([1, 2, 3], 1.0), rtol=1e-15)
        fallback = WeightSpec(kind=WeightKind.INDEXED)
        phi = phi_of(fallback, 3, k=2.0, beta_default=0.5)
        assert np.allclose(phi, np.power([1, 2, 3], 1.0), rtol=1e-15)

    def test_explicit_coverage_and_abs(self):
        phi = RealSequence(1, np.array([-1.0, 2.0, -3.0]))
        spec = WeightSpec(kind=WeightKind.EXPLICIT_PHI, phi=phi)
        assert np.array_equal(phi_of(spec, 3, k=1.5), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            phi_of(spec, 4, k=1.5)

    def test_explicit_must_cover_from_one(self):
        phi = RealSequence(2, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            WeightSpec(kind=WeightKind.EXPLICIT_PHI, phi=phi)


def test_numpy_integer_checkpoints_are_ints():
    cps = validate_checkpoints((np.int32(1), np.uint8(2), np.int64(3), 4),
                               at_least=4)
    assert cps == (1, 2, 3, 4)
    assert all(type(c) is int for c in cps)


class TestFunctionalTrace:
    def test_rejects_decreasing_partials(self):
        with pytest.raises(ValueError):
            FunctionalTrace(checkpoints=(1, 2), partial_sums=np.array([2.0, 1.0]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FunctionalTrace(checkpoints=(1,), partial_sums=np.array([-1.0]))

    def test_rejects_unsorted_checkpoints(self):
        with pytest.raises(ValueError):
            FunctionalTrace(checkpoints=(2, 1), partial_sums=np.array([1.0, 1.0]))


class TestWeightedPowerTrace:
    def test_hand_value(self):
        # t of the alternating series at order 1, classic weight, k = 2:
        # F(2) = (1/1)(1/2)^2 + (1/2)(1/3)^2 = 11/36
        t = np.array([-0.5, 1 / 3])
        phi = np.array([1.0, np.sqrt(2.0)])
        trace = weighted_power_trace(t, 2.0, phi, (1, 2))
        assert trace.partial_sums[0] == pytest.approx(0.25, rel=1e-15)
        assert trace.partial_sums[1] == pytest.approx(11 / 36, rel=1e-14)

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError):
            weighted_power_trace(np.ones(3), 1.5, np.ones(3), (1, 5))
        with pytest.raises(ValueError):
            weighted_power_trace(np.ones(3), 1.5, np.ones(3), ())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_power_trace(np.ones(3), 1.5, np.ones(4), (1,))

    def test_k_domain(self):
        with pytest.raises(ValueError):
            weighted_power_trace(np.ones(3), 0.5, np.ones(3), (1,))

    def test_zero_values_zero_trace(self):
        trace = weighted_power_trace(np.zeros(8), 1.5, np.ones(8), (1, 4, 8))
        assert np.array_equal(trace.partial_sums, np.zeros(3))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=50),
           st.floats(0.1, 10), st.floats(1.0, 3.0))
    def test_power_scaling(self, xs, c, k):
        vals = np.array(xs)
        phi = np.abs(vals) + 1.0
        cps = (1, len(xs))
        base = weighted_power_trace(vals, k, phi, cps).partial_sums
        scaled = weighted_power_trace(c * vals, k, phi, cps).partial_sums
        assert np.allclose(scaled, (c ** k) * base, rtol=1e-9, atol=1e-12)


class TestSampledTrace:
    # more than two blocks, with checkpoints on and beside the block edges
    N = 2 * _BLOCK + 1001
    CPS = (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1,
           N)

    def inputs(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal(self.N) * 3.0
        phi = np.power(np.arange(1.0, self.N + 1.0), 1.0 - 1.0 / 1.5)
        return values, phi

    # the trace's blocks of 1 and 7 values cut the checkpoints' stretches
    # anywhere; the default block keeps the ids of the k alone
    @pytest.mark.parametrize("k, block", [
        pytest.param(k, block, id=str(k) if block == _BLOCK
                     else f"{k}-block{block}")
        for block in (_BLOCK, 1, 7) for k in (1.0, 1.5, 3.7)])
    def test_matches_full_array_trace(self, monkeypatch, k, block):
        values, phi = self.inputs()
        n = np.arange(1.0, self.N + 1.0)
        ref = monotone_partials(np.power(np.abs(phi * values) / n, k),
                                self.CPS)
        monkeypatch.setattr(accumulation, "_BLOCK", block)
        got = weighted_power_trace(values, k, phi, self.CPS).partial_sums
        assert got.tobytes() == ref.tobytes()

    def test_overflow_mid_block_is_refused(self):
        # one term overflows inside the second block: the full-array sums
        # turn non-finite there, and the sampled trace refuses them too
        values, phi = self.inputs()
        values[_BLOCK + 300] = 1e306
        n = np.arange(1.0, self.N + 1.0)
        with np.errstate(over="ignore"):
            ref = monotone_partials(np.power(np.abs(phi * values) / n, 1.5),
                                    (_BLOCK + 300, self.N))
            assert np.isfinite(ref[0]) and not np.isfinite(ref[1])
            with pytest.raises(ValueError, match="must be finite"):
                weighted_power_trace(values, 1.5, phi, self.CPS)

    def test_reduction_traces_match_full_array(self):
        # the classic weight's trace at every index, of t from cesaro_t
        rng = np.random.default_rng(3)
        a = RealSequence(1, rng.standard_normal(self.N))
        k = 1.5
        t = cesaro_t(a, 1.0).values
        n = np.arange(1.0, self.N + 1.0)
        phi = phi_of(WeightSpec(kind=WeightKind.CLASSIC), self.N, k)
        grid = range(1, self.N + 1)
        ref = monotone_partials(np.power(np.abs(phi * t) / n, k), grid)
        got = weighted_power_trace(t, k, phi, grid)
        assert got.partial_sums.tobytes() == ref.tobytes()


class TestReductionIdentity:
    def test_beta_zero_collapses_indexed_to_classic(self):
        m, k = 100, 1.5
        indexed = phi_of(WeightSpec(kind=WeightKind.INDEXED, beta=0.0), m, k)
        classic = phi_of(WeightSpec(kind=WeightKind.CLASSIC), m, k)
        assert indexed.tobytes() == classic.tobytes()

    def test_all_zero_input(self):
        t = cesaro_t(RealSequence(1, np.zeros(50)), 1.0).values
        cps = range(1, 51)
        for spec in (WeightSpec(kind=WeightKind.CLASSIC),
                     WeightSpec(kind=WeightKind.INDEXED, beta=0.5)):
            trace = weighted_power_trace(t, 2.0, phi_of(spec, 50, 2.0), cps)
            assert np.array_equal(trace.partial_sums, np.zeros(50))
        for phi_form, reduced in reduced_terms(t, 2.0, 0.5):
            assert max_rel_deviation(phi_form, reduced) == 0.0

    def test_deviation_small_on_random_input(self):
        rng = np.random.default_rng(9)
        a = RealSequence(1, rng.standard_normal(500))
        t = cesaro_t(a, 0.5).values
        for phi_form, reduced in reduced_terms(t, 1.5, 0.2):
            assert max_rel_deviation(phi_form, reduced) < 1e-12


def test_overflowing_terms_raise_and_never_warn():
    # n^(-3) (1e200)^3 overflows: refused, with no RuntimeWarning
    with pytest.raises(ValueError, match="^partial sums must be finite$"):
        weighted_power_trace(np.full(8, 1e200), 3.0, np.ones(8), (4, 8))
