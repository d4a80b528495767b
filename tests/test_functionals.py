import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summa.accumulation import _BLOCK, compensated_cumsum
from summa.cesaro import cesaro_t
from summa.functionals import (FunctionalTrace, WeightKind, WeightSpec,
                               reduction_identity_check, weighted_power_trace)
from summa.sequences import CesaroParams, RealSequence


def monotone_partials(terms):
    """The full-array running max of compensated prefix sums: what a
    sampled trace must reproduce bit for bit."""
    return np.maximum.accumulate(compensated_cumsum(terms))


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

    def test_classic_values(self):
        spec = WeightSpec(kind=WeightKind.CLASSIC)
        phi = spec.phi_values(4, k=2.0)
        assert np.allclose(phi, np.sqrt([1, 2, 3, 4]), rtol=1e-15)

    def test_indexed_values_and_fallback(self):
        spec = WeightSpec(kind=WeightKind.INDEXED, beta=0.5)
        phi = spec.phi_values(3, k=2.0)
        assert np.allclose(phi, np.power([1, 2, 3], 1.0), rtol=1e-15)
        fallback = WeightSpec(kind=WeightKind.INDEXED)
        phi = fallback.phi_values(3, k=2.0, beta_default=0.5)
        assert np.allclose(phi, np.power([1, 2, 3], 1.0), rtol=1e-15)

    def test_explicit_coverage_and_abs(self):
        phi = RealSequence(1, np.array([-1.0, 2.0, -3.0]))
        spec = WeightSpec(kind=WeightKind.EXPLICIT_PHI, phi=phi)
        assert np.array_equal(spec.phi_values(3, k=1.5), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            spec.phi_values(4, k=1.5)

    def test_explicit_must_cover_from_one(self):
        phi = RealSequence(2, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            WeightSpec(kind=WeightKind.EXPLICIT_PHI, phi=phi)


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

    @pytest.mark.parametrize("blocks", [
        # blocks that stop short of phi, within or past the checkpoints,
        # or run on beyond it
        [np.ones(2), np.ones(1)], [np.ones(1)], [np.ones(4), np.ones(1)]])
    def test_blocks_misaligned(self, blocks):
        with pytest.raises(ValueError, match="align"):
            weighted_power_trace(iter(blocks), 1.5, np.ones(4), (1, 2))

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

    @pytest.mark.parametrize("k", [1.0, 1.5, 3.7])
    def test_matches_full_array_trace(self, k):
        values, phi = self.inputs()
        n = np.arange(1.0, self.N + 1.0)
        ref = monotone_partials(np.power(np.abs(phi * values) / n, k))
        got = weighted_power_trace(values, k, phi, self.CPS).partial_sums
        idx = np.asarray(self.CPS) - 1
        assert got.tobytes() == ref[idx].tobytes()

    def test_overflow_mid_block_is_refused(self):
        # one term overflows inside the second block: the full-array sums
        # turn non-finite there, and the sampled trace refuses them too
        values, phi = self.inputs()
        values[_BLOCK + 300] = 1e306
        n = np.arange(1.0, self.N + 1.0)
        with np.errstate(over="ignore"):
            ref = monotone_partials(np.power(np.abs(phi * values) / n, 1.5))
            assert not np.isfinite(ref[-1])
            assert np.isfinite(ref[_BLOCK + 299])
            with pytest.raises(ValueError, match="must be finite"):
                weighted_power_trace(values, 1.5, phi, self.CPS)

    def test_reduction_traces_match_full_array(self):
        rng = np.random.default_rng(3)
        a = RealSequence(1, rng.standard_normal(self.N))
        k = 1.5
        rep = reduction_identity_check(a, CesaroParams(alpha=1.0, k=k),
                                       self.N)
        tm = np.abs(cesaro_t(a, 1.0).values)
        n = np.arange(1.0, self.N + 1.0)
        ref = monotone_partials(np.power(tm, k) / n)
        assert (rep.classic_direct_trace.partial_sums.tobytes()
                == ref.tobytes())


    def test_blocks_of_any_length(self):
        # an iterator's blocks need not match the trace's own blocks
        values, phi = self.inputs()
        cuts = [0, 3, 4, 999, _BLOCK + 2, _BLOCK + 3, 2 * _BLOCK + 3, self.N]
        blocks = iter([values[lo:hi] for lo, hi in zip(cuts, cuts[1:])])
        got = weighted_power_trace(blocks, 1.5, phi, self.CPS).partial_sums
        assert got.tobytes() == weighted_power_trace(
            values, 1.5, phi, self.CPS).partial_sums.tobytes()


class TestReductionIdentity:
    def test_beta_zero_collapses_indexed_to_classic(self):
        rng = np.random.default_rng(4)
        a = RealSequence(1, rng.standard_normal(100))
        rep = reduction_identity_check(a, CesaroParams(alpha=1.0, k=1.5), 100)
        assert np.array_equal(rep.indexed_trace.partial_sums,
                              rep.classic_trace.partial_sums)

    def test_all_zero_input(self):
        a = RealSequence(1, np.zeros(50))
        rep = reduction_identity_check(a, CesaroParams(alpha=1.0, k=2.0), 50)
        for trace in (rep.classic_trace, rep.classic_direct_trace,
                      rep.indexed_trace, rep.indexed_direct_trace):
            assert np.array_equal(trace.partial_sums, np.zeros(50))
        assert rep.max_rel_dev_classic == 0.0
        assert rep.max_rel_dev_indexed == 0.0

    def test_deviation_small_on_random_input(self):
        rng = np.random.default_rng(9)
        a = RealSequence(1, rng.standard_normal(500))
        rep = reduction_identity_check(
            a, CesaroParams(alpha=0.5, k=1.5, beta=0.2), 500)
        assert rep.max_rel_dev_classic < 1e-12
        assert rep.max_rel_dev_indexed < 1e-12

    def test_m_bounds(self):
        a = RealSequence(1, np.ones(10))
        with pytest.raises(ValueError):
            reduction_identity_check(a, CesaroParams(), 11)
        with pytest.raises(ValueError):
            reduction_identity_check(a, CesaroParams(), 0)
