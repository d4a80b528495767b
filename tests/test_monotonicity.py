import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from summa.checker import (Tolerances, _quasi_monotone, _weight_monotone,
                           check_main_theorem, dyadic_checkpoints)
from summa.experiment import builtin_family
from summa.sequences import (CesaroParams, RealSequence, SequenceSpec,
                             materialize)

from helpers import drive, full_notes, notes, witness


def quasi_monotone(b, delta):
    """(first_violation, positivity_from, trend_ratio) of b from index 1,
    delta given where b's difference exists (the pass's delta has one more
    value, never read), trend_ratio in full."""
    b = np.asarray(b, dtype=np.float64)
    delta = np.append(np.asarray(delta, dtype=np.float64), 1.0)
    with full_notes():
        record = drive(_quasi_monotone, Q=b, delta=delta)
    words = notes(record)
    positive_from = (None if words["positivity_from"] == "None"
                     else int(words["positivity_from"]))
    trend_ratio = (None if words["trend_ratio"] == "None"
                   else float(words["trend_ratio"]))
    assert record.passed == (record.first_violation is None
                             and positive_from is not None)
    return record.first_violation, positive_from, trend_ratio


def x_class(X):
    """The X_class record of F1 with X replaced: the almost-increasing
    verdict, judged by growth_diagnostic."""
    bundle = builtin_family("F1", len(X))
    bundle = dataclasses.replace(bundle, X=RealSequence(1, np.asarray(X)))
    return check_main_theorem(bundle).records[0]


def first_rise(phi, epsilon, k, rel_tol=1e-12):
    """First violation of the weight monotonicity record over |phi| from 1,
    epsilon, k and rel_tol as given, unvalidated."""
    phi = np.asarray(phi, dtype=np.float64)
    return drive(_weight_monotone, phi=phi,
                 params=SimpleNamespace(epsilon=epsilon, k=k),
                 tolerances=SimpleNamespace(weight_rel_tol=rel_tol)
                 ).first_violation


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
        _, r = witness(b.values)
        assert np.array_equal(r, np.ones(r.size))
        record = x_class(b.values)
        assert record.passed and record.notes.startswith("gamma=-inf ")

    def test_oscillating_fixture_near_e_squared(self):
        # n e^((-1)^n): r is e^2 (v - 1) / v at odd v > 1 and 1 at the
        # others, so its running max at m is that of the last odd v <= m,
        # which rises to e^2 ever more slowly
        b = materialize(SequenceSpec("almost_inc_example", n=1000, start=1))
        _, r = witness(b.values)
        cps = np.asarray(dyadic_checkpoints(1000))
        odd = cps - (cps % 2 == 0)
        late = cps > 2
        assert np.allclose(r[late], math.exp(2) * (odd[late] - 1) / odd[late],
                           rtol=1e-12)
        assert np.all(r[~late] == 1.0)
        assert abs(r[-1] - math.exp(2)) <= 1e-2
        record = x_class(b.values)
        assert record.passed and record.gamma < -1.25

    def test_geometric_decay_grows(self):
        b = np.exp(-np.arange(1.0, 101.0))
        _, r = witness(b)
        assert r[-1] > 1e40
        record = x_class(b)
        assert (record.passed, record.verdict) == (False, "growth_detected")
        # on into the subnormals, r = e^(m - 1) passes the largest float at
        # m = 711, where the record fails, with no trace to refuse
        b = np.exp(-np.arange(1.0, 741.0))
        assert b[-1] > 0.0
        assert witness(b) == witness(b, 100) == (711, None)
        # the check fails X_class there too (the index is off the grid,
        # where cond11 divides by X), and raises nothing
        X = np.log(np.arange(1.0, 4097.0) + 2.0)
        X[1000] = 5e-324
        record = x_class(X)
        assert (record.passed, record.verdict, record.first_violation,
                record.notes) == (False, "fail", 1001,
                                  "max_(v<=m) X_v / X_m overflows")

    # in blocks of 7 values both running maxima must cross block edges
    @pytest.mark.parametrize("block", [None, 7])
    def test_witness_sandwich(self, block):
        rng = np.random.default_rng(13)
        b = np.exp(rng.standard_normal(500) * 0.3) + 0.1
        _, r = witness(b, block)
        c = np.maximum.accumulate(b)
        idx = np.asarray(dyadic_checkpoints(b.size)) - 1
        # every ratio up to a checkpoint is read, not the checkpoint's alone
        assert np.all(r >= c[idx] / b[idx])
        assert np.array_equal(r, np.maximum.accumulate(c / b)[idx])

    @pytest.mark.parametrize("n", [1 << 14, 1 << 18])
    def test_dips_between_checkpoints_count(self, n):
        # log(m + 2) but 1/m at m = 3 * 2^j, half way between two
        # checkpoints: r is 1 at every checkpoint and grows like m log m
        # between them
        m = np.arange(1.0, n + 1.0)
        X = np.log(m + 2.0)
        dips = 3 << np.arange(n.bit_length() - 2)
        X[dips - 1] = 1.0 / dips
        cps = np.asarray(dyadic_checkpoints(n))
        assert not np.isin(dips, cps).any()
        c = np.maximum.accumulate(X)
        assert np.all(c[cps - 1] == X[cps - 1])
        record = x_class(X)
        assert (record.passed, record.verdict) == (False, "growth_detected")
        # one dip to 1e-9 in the last octave is one rise at the last
        # increment: never bounded
        X = np.log(m + 2.0)
        X[3 * n // 4] = 1e-9
        record = x_class(X)
        assert (record.passed, record.verdict) == (False, "inconclusive")

    def test_requires_positive(self):
        # the first non-positive value is reported, and no trace
        assert witness([1.0, 0.0, 2.0]) == (2, None)
        # index 3 is off the checkpoints, where cond11 divides by X
        record = x_class([1.0, 2.0, 0.0, *range(3, 16)])
        assert (record.passed, record.first_violation, record.notes) \
            == (False, 3, "X must be positive")

    @settings(max_examples=40, deadline=None)
    # eight values give the four checkpoints that a trace needs
    @given(st.lists(st.floats(0.001, 1000), min_size=8, max_size=100),
           st.floats(0.01, 100))
    def test_scale_invariance(self, xs, c):
        r1 = witness(xs)[1]
        r2 = witness(c * np.asarray(xs))[1]
        assert np.allclose(r1, r2, rtol=1e-12, atol=0.0)


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
    # Tolerances, which refuse what the record could not judge
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
    reference its in-place record must match on every input, the
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
