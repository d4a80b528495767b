import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summa.sequences import (CesaroParams, RealSequence, SequenceSpec,
                             forward_difference, materialize)


class TestRealSequence:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RealSequence(0, np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RealSequence(0, np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            RealSequence(0, np.array([np.inf]))

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            RealSequence(-1, np.array([1.0]))

    def test_values_read_only(self):
        seq = RealSequence(0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            seq.values[0] = 5.0

    def test_constructor_copies(self):
        # the public constructor never takes over the caller's array
        values = np.array([1.0, 2.0])
        seq = RealSequence(0, values)
        values[0] = 5.0
        assert list(seq.values) == [1.0, 2.0]
        assert values.flags.writeable

    def test_adopted_values_checked_and_read_only(self):
        # generated and differenced values are taken over without a copy,
        # with the constructor's checks
        seq = materialize(SequenceSpec("power_decay", n=4, params={"p": 1.0},
                                       start=1))
        for s in (seq, forward_difference(seq)):
            assert not s.values.flags.writeable
        big = RealSequence(0, np.array([1e308, -1e308]))
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                       match="finite"):
            forward_difference(big)

    def test_indexing(self):
        seq = RealSequence(3, np.array([10.0, 20.0, 30.0]))
        assert seq.end_index == 5
        assert seq.value_at(4) == 20.0
        assert list(seq.indices()) == [3, 4, 5]
        assert list(seq.range_view(4, 5)) == [20.0, 30.0]
        with pytest.raises(IndexError):
            seq.value_at(2)
        with pytest.raises(IndexError):
            seq.range_view(3, 6)


class TestFamilies:
    def test_alternating_unit(self):
        seq = materialize(SequenceSpec("alternating_unit", n=4, start=0))
        assert list(seq.values) == [1.0, -1.0, 1.0, -1.0]

    @pytest.mark.parametrize("start", [0, 1, 2 ** 40])
    def test_signs_match_where_form(self, start):
        # the parity form of (-1)^n gives the same bits as np.where
        n = np.arange(start, start + 1001, dtype=np.int64)
        sign = np.where(n % 2 == 0, 1.0, -1.0)
        for family, want in (("alternating_unit", sign),
                             ("almost_inc_example", n * np.exp(sign))):
            got = materialize(SequenceSpec(family, n=1001, start=start))
            assert got.values.tobytes() == want.tobytes()

    def test_unit_tail_zero_at_origin(self):
        seq = materialize(SequenceSpec("unit_tail", n=4, start=0))
        assert list(seq.values) == [0.0, 1.0, 1.0, 1.0]

    def test_almost_inc_example(self):
        seq = materialize(SequenceSpec("almost_inc_example", n=3, start=1))
        expected = [math.exp(-1), 2 * math.e, 3 * math.exp(-1)]
        assert np.allclose(seq.values, expected, rtol=1e-15)

    def test_log_shift(self):
        seq = materialize(SequenceSpec("log_shift", n=2, start=1))
        assert np.allclose(seq.values, [math.log(3), math.log(4)], rtol=1e-15)

    def test_power_decay(self):
        seq = materialize(SequenceSpec("power_decay", n=3, start=1,
                                       params={"p": 2.0, "c": 3.0}))
        assert np.allclose(seq.values, [3 / 4, 3 / 9, 3 / 16], rtol=1e-15)

    def test_power_decay_domain(self):
        with pytest.raises(ValueError):
            materialize(SequenceSpec("power_decay", n=3, start=0,
                                     params={"p": 1.0, "c0": 0.0}))

    def test_power_weight_domain(self):
        with pytest.raises(ValueError):
            materialize(SequenceSpec("power_weight", n=3, start=0,
                                     params={"q": -0.5}))

    def test_reciprocal_log(self):
        seq = materialize(SequenceSpec("reciprocal_log", n=1, start=0))
        assert seq.values[0] == pytest.approx(1 / math.log(2), rel=1e-15)

    def test_materialize_deterministic(self):
        spec = SequenceSpec("power_decay", n=50, start=1, params={"p": 1.5})
        a = materialize(spec)
        b = materialize(spec)
        assert np.array_equal(a.values, b.values)


class TestSequenceSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            SequenceSpec("no_such", n=3)

    def test_missing_required_param(self):
        with pytest.raises(ValueError, match="requires parameter"):
            SequenceSpec("power_decay", n=3)

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="no parameter"):
            SequenceSpec("log_shift", n=3, params={"p": 1.0})

    def test_json_round_trip(self):
        spec = SequenceSpec("power_decay", n=7, start=1,
                            params={"p": 2.0, "c": 0.5})
        again = SequenceSpec.from_json(spec.to_json())
        assert again == spec

    def test_from_json_rejects_extra_fields(self):
        with pytest.raises(ValueError, match="unknown sequence spec"):
            SequenceSpec.from_json({"family": "log_shift", "n": 3,
                                    "start": 0, "params": {}, "mode": "x"})

    def test_resolved_params_fills_defaults(self):
        spec = SequenceSpec("power_decay", n=3, params={"p": 1.0})
        assert spec.resolved_params() == {"c": 1.0, "c0": 1.0, "p": 1.0}


class TestForwardDifference:
    def test_convention(self):
        # (D u)_n = u_n - u_(n+1)
        u = RealSequence(1, np.array([5.0, 3.0, 2.0]))
        d = forward_difference(u)
        assert d.start_index == 1
        assert list(d.values) == [2.0, 1.0]

    def test_second_order(self):
        u = RealSequence(0, np.array([1.0, 4.0, 9.0, 16.0]))
        d2 = forward_difference(u, order=2)
        assert d2.start_index == 0
        assert list(d2.values) == [2.0, 2.0]

    def test_too_short(self):
        with pytest.raises(ValueError):
            forward_difference(RealSequence(0, np.array([1.0])))

    def test_bad_order(self):
        u = RealSequence(0, np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError):
            forward_difference(u, order=3)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=30),
           st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=30))
    def test_additive(self, xs, ys):
        m = min(len(xs), len(ys))
        u = RealSequence(0, np.array(xs[:m]))
        v = RealSequence(0, np.array(ys[:m]))
        both = forward_difference(RealSequence(0, u.values + v.values))
        separate = forward_difference(u).values + forward_difference(v).values
        assert np.allclose(both.values, separate, rtol=1e-9, atol=1e-9)


class TestCesaroParams:
    def test_defaults(self):
        p = CesaroParams()
        assert (p.alpha, p.k, p.beta, p.epsilon) == (1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -1.0}, {"alpha": -2.0}, {"k": 0.5},
        {"beta": -0.1}, {"epsilon": 0.0}, {"epsilon": -1.0},
        {"alpha": float("nan")},
    ])
    def test_rejects_out_of_domain(self, kwargs):
        with pytest.raises(ValueError):
            CesaroParams(**kwargs)

    def test_json_round_trip(self):
        p = CesaroParams(alpha=0.5, k=1.5, beta=0.2, epsilon=1.0)
        assert CesaroParams.from_json(p.to_json()) == p

    def test_from_json_rejects_extra(self):
        with pytest.raises(ValueError):
            CesaroParams.from_json({"alpha": 1.0, "gamma": 2.0})
