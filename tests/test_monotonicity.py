import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summa.monotonicity import (almost_increasing_diagnostic,
                                power_weight_monotonicity_check,
                                quasi_monotone_check)
from summa.sequences import RealSequence, SequenceSpec, materialize


def _seq(values, start=1):
    return RealSequence(start, np.asarray(values, dtype=np.float64))


class TestQuasiMonotone:
    def test_decreasing_positive_holds(self):
        b = _seq([1.0, 0.5, 0.25, 0.125])
        delta = _seq([0.01, 0.01, 0.01])
        v = quasi_monotone_check(b, delta)
        assert v.holds_on_range
        assert v.first_violation is None
        assert v.positivity_from == 1

    def test_violation_index(self):
        # index 2 rises by 2, far beyond delta
        b = _seq([1.0, 1.0, 3.0, 2.0])
        delta = _seq([0.1, 0.1, 0.1])
        v = quasi_monotone_check(b, delta)
        assert not v.holds_on_range
        assert v.first_violation == 2

    def test_small_rises_within_delta_pass(self):
        b = _seq([1.0, 1.05, 1.0])
        delta = _seq([0.1, 0.1])
        assert quasi_monotone_check(b, delta).holds_on_range

    def test_positivity_from_suffix(self):
        b = _seq([1.0, -1.0, 2.0, 1.0])
        delta = _seq([10.0, 10.0, 10.0])
        assert quasi_monotone_check(b, delta).positivity_from == 3

    def test_positivity_none_when_tail_not_positive(self):
        b = _seq([1.0, 2.0, -1.0])
        delta = _seq([10.0, 10.0])
        assert quasi_monotone_check(b, delta).positivity_from is None

    def test_delta_must_cover_and_be_positive(self):
        b = _seq([1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="cover"):
            quasi_monotone_check(b, _seq([0.1]))
        with pytest.raises(ValueError, match="positive"):
            quasi_monotone_check(b, _seq([0.1, 0.0]))

    def test_trend_ratio_decay(self):
        b = _seq(1.0 / np.arange(1.0, 101.0))
        delta = _seq(np.full(99, 1e-9))
        v = quasi_monotone_check(b, delta)
        assert v.trend_ratio is not None and v.trend_ratio < 0.1


class TestAlmostIncreasing:
    def test_non_decreasing_gives_exact_one(self):
        b = materialize(SequenceSpec("log_shift", n=1000, start=1))
        w = almost_increasing_diagnostic(b)
        assert w.inf_ratio == 1.0
        assert w.A == 1.0 and w.B == 1.0
        assert w.almost_increasing_at_scale

    def test_oscillating_fixture_near_e_minus_two(self):
        b = materialize(SequenceSpec("almost_inc_example", n=1000, start=1))
        w = almost_increasing_diagnostic(b)
        assert abs(w.inf_ratio - math.exp(-2)) <= 1e-3
        assert w.almost_increasing_at_scale

    def test_geometric_decay_fails_floor(self):
        b = _seq(np.exp(-np.arange(1.0, 101.0)))
        w = almost_increasing_diagnostic(b)
        assert not w.almost_increasing_at_scale
        assert w.inf_ratio < 1e-6

    def test_witness_sandwich(self):
        rng = np.random.default_rng(13)
        b = _seq(np.exp(rng.standard_normal(500) * 0.3) + 0.1)
        w = almost_increasing_diagnostic(b)
        assert np.all(b.values <= w.c.values)
        assert np.all(np.diff(w.c.values) >= 0)

    def test_requires_positive(self):
        with pytest.raises(ValueError, match="positive"):
            almost_increasing_diagnostic(_seq([1.0, 0.0, 2.0]))

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            almost_increasing_diagnostic(_seq([1.0, 2.0]), floor=0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.001, 1000), min_size=2, max_size=100),
           st.floats(0.01, 100))
    def test_scale_invariance(self, xs, c):
        b = _seq(xs)
        scaled = _seq(c * np.asarray(xs))
        r1 = almost_increasing_diagnostic(b).inf_ratio
        r2 = almost_increasing_diagnostic(scaled).inf_ratio
        assert abs(r1 - r2) <= 1e-12


class TestPowerWeightMonotonicity:
    def test_classic_weight_constant_passes(self):
        for k in (1.0, 1.5, 2.0):
            n = np.arange(1.0, 10001.0)
            phi = np.power(n, 1.0 - 1.0 / k)
            assert power_weight_monotonicity_check(phi, 1.0, k) is None

    def test_growing_sequence_flagged_at_first_index(self):
        n = np.arange(1.0, 101.0)
        phi = np.power(n, 1.0 - 1.0 / 1.5)
        # epsilon = 3 makes n^(eps-k) |phi|^k = n^2, rising from the start
        assert power_weight_monotonicity_check(phi, 3.0, 1.5) == 1

    def test_late_violation_located(self):
        k, eps = 1.5, 1.0
        n = np.arange(1.0, 51.0)
        phi = np.power(n, 1.0 - 1.0 / k)
        phi[30:] *= 1.1  # bump |phi| from index 31 on
        assert power_weight_monotonicity_check(phi, eps, k) == 30

    def test_non_finite_entry_is_a_violation(self):
        phi = np.ones(6)
        phi[3] = np.nan
        assert power_weight_monotonicity_check(phi, 1.0, 1.0) == 4
        # n^(1-k) underflows to 0 and n^k overflows from n = 2 on: 0 * inf
        n = np.arange(1.0, 7.0)
        assert power_weight_monotonicity_check(n, 1.0, 1e308) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            power_weight_monotonicity_check(np.ones(1), 1.0, 1.5)
        with pytest.raises(ValueError):
            power_weight_monotonicity_check(np.ones(5), 0.0, 1.5)
        with pytest.raises(ValueError):
            power_weight_monotonicity_check(np.ones(5), 1.0, 0.5)
