import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
        c = np.maximum.accumulate(b.values)
        # inf_ratio * c <= b <= c, the first up to one rounding of the
        # product
        assert np.all(b.values <= c)
        assert np.all(w.inf_ratio * c
                      <= b.values * (1.0 + 4.0 * np.finfo(float).eps))
        assert w.inf_ratio == np.min(b.values / c)

    def test_requires_positive(self):
        with pytest.raises(ValueError, match="positive"):
            almost_increasing_diagnostic(_seq([1.0, 0.0, 2.0]))

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            almost_increasing_diagnostic(_seq([1.0, 2.0]), floor=0.0)

    @pytest.mark.parametrize("floor", [True, False, np.True_, np.False_])
    def test_boolean_floor_refused(self, floor):
        # True is not the floor 1.0
        with pytest.raises(ValueError, match="floor must be a positive"):
            almost_increasing_diagnostic(_seq([1.0, 2.0]), floor=floor)

    @pytest.mark.parametrize("floor, verdict", [
        (np.float32(1e-6), True), (np.float32(0.75), False),
        (np.int64(1), False)])
    def test_numpy_floor_accepted(self, floor, verdict):
        # inf_ratio of 1, 2, 1.5 is 0.75
        w = almost_increasing_diagnostic(_seq([1.0, 2.0, 1.5]), floor=floor)
        assert w.floor == float(floor) and type(w.floor) is float
        assert w.almost_increasing_at_scale is verdict

    @pytest.mark.parametrize("floor", [np.float32(0.0), np.float32(-1.0),
                                       np.float32(np.inf), np.float32(np.nan),
                                       np.int64(0), np.int64(-3)])
    def test_numpy_floor_refused(self, floor):
        with pytest.raises(ValueError, match="floor must be a positive"):
            almost_increasing_diagnostic(_seq([1.0, 2.0]), floor=floor)

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

    @pytest.mark.parametrize("epsilon, k, rel_tol", [
        (math.nan, 1.5, 1e-12), (math.inf, 1.5, 1e-12),
        (1.0, math.nan, 1e-12), (1.0, math.inf, 1e-12),
        (1.0, 1.5, math.nan), (1.0, 1.5, math.inf)])
    def test_non_finite_parameters_refused(self, epsilon, k, rel_tol):
        # not the "violation" at index 2 that NaN arithmetic reports
        phi = np.power(np.arange(1.0, 6.0), 1.0 - 1.0 / 1.5)
        with pytest.raises(ValueError, match="must be finite"):
            power_weight_monotonicity_check(phi, epsilon, k, rel_tol)

    def test_negative_rel_tol_refused(self):
        # a negative slack would fail the exactly constant term at index 1
        with pytest.raises(ValueError, match="^rel_tol must not be negative$"):
            power_weight_monotonicity_check(np.ones(5), 1.0, 1.0, -1.0)
        assert power_weight_monotonicity_check(np.ones(5), 1.0, 1.0, 0.0) \
            is None


def reference_power_weight_monotonicity_check(phi, epsilon, k, rel_tol=1e-12):
    """The check as first written, one fresh array per step: the reference
    its in-place form must match on every input."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 1 or phi.size < 2:
        raise ValueError("need at least two weight values")
    if not all(math.isfinite(v) for v in (epsilon, k, rel_tol)):
        raise ValueError("epsilon, k and rel_tol must be finite")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if k < 1.0:
        raise ValueError("k must be at least 1")
    if rel_tol < 0.0:
        raise ValueError("rel_tol must not be negative")
    n = np.arange(1.0, phi.size + 1.0)
    with np.errstate(all="ignore"):
        seq = np.power(n, epsilon - k) * np.power(np.abs(phi), k)
        rise = seq[1:] - seq[:-1]
        slack = rel_tol * np.maximum(np.abs(seq[1:]), np.abs(seq[:-1]))
    bad = ~np.isfinite(seq)
    bad[:-1] |= rise > slack
    if np.any(bad):
        return int(np.argmax(bad)) + 1
    return None


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return ValueError, str(e)


# weights near the constant classic ones, where the slack decides, and any
# float, non-finite ones included
WEIGHTS = st.one_of(
    st.builds(lambda n, k, d: np.power(np.arange(1.0, n + 1.0), 1.0 - 1.0 / k)
              * (1.0 + d), st.integers(2, 40), st.floats(1.0, 4.0),
              hnp.arrays(np.float64, 1, elements=st.floats(-1e-12, 1e-12))),
    hnp.arrays(np.float64, st.integers(1, 40),
               elements=st.floats(allow_nan=True, allow_infinity=True)),
)


@settings(max_examples=300, deadline=None)
@given(WEIGHTS,
       st.one_of(st.floats(0.01, 5.0), st.floats(allow_nan=True,
                                                 allow_infinity=True)),
       st.one_of(st.floats(1.0, 4.0), st.floats(1.0, 1e308),
                 st.floats(allow_nan=True, allow_infinity=True)),
       st.one_of(st.just(1e-12), st.floats(0.0, 1.0), st.floats(-1.0, 0.0)))
@example(np.arange(1.0, 7.0), 1.0, 1e308, 1e-12)  # 0 * inf from n = 2
@example(np.array([1.0, np.nan, 1.0]), 1.0, 1.0, 1e-12)
@example(np.array([1e300, 1e300, 1e-300]), 1.0, 2.0, 1e-12)
def test_power_weight_check_matches_reference(phi, epsilon, k, rel_tol):
    assert outcome(power_weight_monotonicity_check, phi, epsilon, k,
                   rel_tol) == outcome(reference_power_weight_monotonicity_check,
                                       phi, epsilon, k, rel_tol)
