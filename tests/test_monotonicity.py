import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from summa.checker import Tolerances, check_main_theorem
from summa.experiment import builtin_family
from summa.monotonicity import (_inf_ratio_steps, _quasi_monotone_steps,
                                _weight_steps)
from summa.sequences import (CesaroParams, RealSequence, SequenceSpec,
                             materialize)

from helpers import drive


def quasi_monotone(b, delta):
    """(first_violation, positivity_from, trend_ratio) of b from index 1,
    delta given where b's difference exists (the pass's delta has one more
    value, never read)."""
    b = np.asarray(b, dtype=np.float64)
    delta = np.append(np.asarray(delta, dtype=np.float64), 1.0)
    return drive(_quasi_monotone_steps(b.size), Q=b, delta=delta)


def witness(b):
    """(first non-positive index or None, inf_ratio) of b from index 1."""
    return drive(_inf_ratio_steps(), X=np.asarray(b, dtype=np.float64))


def x_class(X, tolerances=None):
    """The X_class record of F1 with X replaced: the almost-increasing
    verdict at the pass's floor."""
    bundle = builtin_family("F1", len(X))
    bundle = dataclasses.replace(bundle, X=RealSequence(1, np.asarray(X)))
    return check_main_theorem(bundle, tolerances=tolerances).records[0]


def first_rise(phi, epsilon, k, rel_tol=1e-12):
    """First violation of the weight monotonicity step over |phi| from 1."""
    phi = np.asarray(phi, dtype=np.float64)
    return drive(_weight_steps(epsilon, k, rel_tol), phi=phi)[0]


class TestQuasiMonotone:
    def test_decreasing_positive_holds(self):
        first, positive_from, _ = quasi_monotone([1.0, 0.5, 0.25, 0.125],
                                                 [0.01, 0.01, 0.01])
        assert first is None
        assert positive_from == 1

    def test_violation_index(self):
        # index 2 rises by 2, far beyond delta
        first, _, _ = quasi_monotone([1.0, 1.0, 3.0, 2.0], [0.1, 0.1, 0.1])
        assert first == 2

    def test_small_rises_within_delta_pass(self):
        assert quasi_monotone([1.0, 1.05, 1.0], [0.1, 0.1])[0] is None

    def test_positivity_from_suffix(self):
        _, positive_from, _ = quasi_monotone([1.0, -1.0, 2.0, 1.0],
                                             [10.0, 10.0, 10.0])
        assert positive_from == 3

    def test_positivity_none_when_tail_not_positive(self):
        _, positive_from, _ = quasi_monotone([1.0, 2.0, -1.0], [10.0, 10.0])
        assert positive_from is None

    def test_delta_must_cover_and_be_positive(self):
        # the pass's delta is a bundle role, which must cover 1..n
        bundle = builtin_family("F1", 16)
        with pytest.raises(ValueError, match="'delta' has length 15"):
            dataclasses.replace(bundle, delta=RealSequence(1, np.full(15, 0.1)))
        with pytest.raises(ValueError, match="positive"):
            quasi_monotone([1.0, 0.5, 0.25], [0.1, 0.0])

    def test_trend_ratio_decay(self):
        _, _, trend_ratio = quasi_monotone(1.0 / np.arange(1.0, 101.0),
                                           np.full(99, 1e-9))
        assert trend_ratio is not None and trend_ratio < 0.1


class TestAlmostIncreasing:
    def test_non_decreasing_gives_exact_one(self):
        b = materialize(SequenceSpec("log_shift", n=1000, start=1))
        assert witness(b.values) == (None, 1.0)
        assert x_class(b.values).passed

    def test_oscillating_fixture_near_e_minus_two(self):
        b = materialize(SequenceSpec("almost_inc_example", n=1000, start=1))
        _, inf_ratio = witness(b.values)
        assert abs(inf_ratio - math.exp(-2)) <= 1e-3
        assert x_class(b.values).passed

    def test_geometric_decay_fails_floor(self):
        b = np.exp(-np.arange(1.0, 101.0))
        _, inf_ratio = witness(b)
        assert inf_ratio < 1e-6
        assert not x_class(b).passed

    def test_witness_sandwich(self):
        rng = np.random.default_rng(13)
        b = np.exp(rng.standard_normal(500) * 0.3) + 0.1
        _, inf_ratio = witness(b)
        c = np.maximum.accumulate(b)
        # inf_ratio * c <= b <= c, the first up to one rounding of the
        # product
        assert np.all(b <= c)
        assert np.all(inf_ratio * c <= b * (1.0 + 4.0 * np.finfo(float).eps))
        assert inf_ratio == np.min(b / c)

    def test_requires_positive(self):
        # the first non-positive value is reported, and no inf_ratio
        assert witness([1.0, 0.0, 2.0]) == (2, np.inf)
        # index 3 is off the checkpoints, where cond11 divides by X
        record = x_class([1.0, 2.0, 0.0, *range(3, 16)])
        assert (record.passed, record.first_violation, record.notes) \
            == (False, 3, "X must be positive")

    # the pass takes its floor from Tolerances, which refuses what the
    # verdict could not compare against
    def test_floor_validation(self):
        with pytest.raises(ValueError):
            Tolerances(inf_ratio_floor=0.0)

    @pytest.mark.parametrize("floor", [True, False, np.True_, np.False_])
    def test_boolean_floor_refused(self, floor):
        # True is not the floor 1.0
        with pytest.raises(ValueError, match="^inf_ratio_floor tolerance "
                           "must be positive"):
            Tolerances(inf_ratio_floor=floor)

    @pytest.mark.parametrize("floor, verdict", [
        (np.float32(1e-6), True), (np.float32(0.75), False),
        (np.int64(1), False)])
    def test_numpy_floor_accepted(self, floor, verdict):
        # inf_ratio of 1, 2, 1.5, 2, ... is 0.75
        tol = Tolerances(inf_ratio_floor=floor)
        assert tol.inf_ratio_floor == float(floor)
        assert type(tol.inf_ratio_floor) is float
        assert x_class([1.0, 2.0, 1.5, *[2.0] * 13], tol).passed is verdict

    @pytest.mark.parametrize("floor", [np.float32(0.0), np.float32(-1.0),
                                       np.float32(np.inf), np.float32(np.nan),
                                       np.int64(0), np.int64(-3)])
    def test_numpy_floor_refused(self, floor):
        with pytest.raises(ValueError, match="^inf_ratio_floor tolerance "
                           "must be positive"):
            Tolerances(inf_ratio_floor=floor)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.001, 1000), min_size=2, max_size=100),
           st.floats(0.01, 100))
    def test_scale_invariance(self, xs, c):
        r1 = witness(xs)[1]
        r2 = witness(c * np.asarray(xs))[1]
        assert abs(r1 - r2) <= 1e-12


class TestPowerWeightMonotonicity:
    def test_classic_weight_constant_passes(self):
        for k in (1.0, 1.5, 2.0):
            n = np.arange(1.0, 10001.0)
            phi = np.power(n, 1.0 - 1.0 / k)
            assert first_rise(phi, 1.0, k) is None

    def test_growing_sequence_flagged_at_first_index(self):
        n = np.arange(1.0, 101.0)
        phi = np.power(n, 1.0 - 1.0 / 1.5)
        # epsilon = 3 makes n^(eps-k) |phi|^k = n^2, rising from the start
        assert first_rise(phi, 3.0, 1.5) == 1

    def test_late_violation_located(self):
        k, eps = 1.5, 1.0
        n = np.arange(1.0, 51.0)
        phi = np.power(n, 1.0 - 1.0 / k)
        phi[30:] *= 1.1  # bump |phi| from index 31 on
        assert first_rise(phi, eps, k) == 30

    def test_non_finite_entry_is_a_violation(self):
        phi = np.ones(6)
        phi[3] = np.nan
        assert first_rise(phi, 1.0, 1.0) == 4
        # n^(1-k) underflows to 0 and n^k overflows from n = 2 on: 0 * inf
        n = np.arange(1.0, 7.0)
        assert first_rise(n, 1.0, 1e308) == 2

    # the pass takes epsilon and k from CesaroParams and the slack from
    # Tolerances, which refuse what the step could not judge
    def test_validation(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            CesaroParams(epsilon=0.0, k=1.5)
        with pytest.raises(ValueError, match="k must be at least 1"):
            CesaroParams(k=0.5)

    @pytest.mark.parametrize("epsilon, k, rel_tol", [
        (math.nan, 1.5, 1e-12), (math.inf, 1.5, 1e-12),
        (1.0, math.nan, 1e-12), (1.0, math.inf, 1e-12),
        (1.0, 1.5, math.nan), (1.0, 1.5, math.inf)])
    def test_non_finite_parameters_refused(self, epsilon, k, rel_tol):
        # not the "violation" at index 2 that NaN arithmetic reports: the
        # one of the two that holds the non-finite value refuses it
        with pytest.raises(ValueError, match="finite"):
            CesaroParams(epsilon=epsilon, k=k)
            Tolerances(weight_rel_tol=rel_tol)

    def test_negative_rel_tol_refused(self):
        # a negative slack would fail the exactly constant term at index 1
        with pytest.raises(ValueError, match="^weight_rel_tol tolerance "
                           "must be positive"):
            Tolerances(weight_rel_tol=-1.0)
        assert first_rise(np.ones(5), 1.0, 1.0, 0.0) is None


def reference_weight_step(phi, epsilon, k, rel_tol=1e-12):
    """The weight check as first written, one fresh array per step: the
    reference its in-place block step must match on every input, the
    parameters that CesaroParams and Tolerances refuse included."""
    phi = np.asarray(phi, dtype=np.float64)
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
    assert first_rise(phi, epsilon, k, rel_tol) \
        == reference_weight_step(phi, epsilon, k, rel_tol)
