import math
from fractions import Fraction

import numpy as np
import pytest

from summa.cesaro import cesaro_t
from summa.sequences import (CesaroParams, RealSequence, SequenceSpec,
                             materialize)


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
        # generated values and transform results are taken over without a
        # copy, with the constructor's checks
        seq = materialize(SequenceSpec("power_decay", n=4, params={"p": 1.0},
                                       start=1))
        for s in (seq, cesaro_t(seq, 1.0)):
            assert not s.values.flags.writeable
        big = RealSequence(1, np.array([1e308, 1e308]))
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                       match="finite"):
            cesaro_t(big, 1.0)

    def test_indexing(self):
        seq = RealSequence(3, np.array([10.0, 20.0, 30.0]))
        assert seq.end_index == 5
        assert list(seq.range_view(4, 5)) == [20.0, 30.0]
        with pytest.raises(IndexError):
            seq.range_view(2, 4)
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

    # float() reads True as 1.0 and "2" as 2.0, and overflows on 10**400
    @pytest.mark.parametrize("value", [
        True, np.True_, "2", None, [1],
        pytest.param(10 ** 400, id="10**400")])
    def test_refuses_params_that_are_not_real_numbers(self, value):
        with pytest.raises(ValueError, match="^family 'power_decay' "
                           "parameter 'p' must be a real number$"):
            SequenceSpec("power_decay", n=3, params={"p": value})

    @pytest.mark.parametrize("value", [
        np.int64(2), Fraction(2), math.inf, math.nan])
    def test_params_of_any_real_type(self, value):
        # inf and NaN are floats: what the family makes of them is
        # checked as its values are
        spec = SequenceSpec("power_decay", n=3, params={"p": value})
        assert type(spec.resolved_params()["p"]) is float

    def test_resolved_params_fills_defaults(self):
        spec = SequenceSpec("power_decay", n=3, params={"p": 1.0})
        assert spec.resolved_params() == {"c": 1.0, "c0": 1.0, "p": 1.0}


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

    # True is not the order 1.0, nor "0.5" the order 0.5; 10**400 is too
    # large for a float
    @pytest.mark.parametrize("value", [
        True, False, np.True_, np.False_, "0.5", "2", None,
        pytest.param(10 ** 400, id="10**400")])
    def test_refuses_what_is_not_a_real_number(self, value):
        for name in ("alpha", "k", "beta", "epsilon"):
            for make in (lambda: CesaroParams(**{name: value}),
                         lambda: CesaroParams.from_json({name: value})):
                with pytest.raises(ValueError, match=f"^{name} must be a "
                                   "finite real number$"):
                    make()

    @pytest.mark.parametrize("value", [np.float32(2.0), np.int64(2),
                                       Fraction(2)])
    def test_takes_real_numbers_of_any_type(self, value):
        for params in (CesaroParams(k=value),
                       CesaroParams.from_json({"k": value})):
            assert params.k == 2.0 and type(params.k) is float

    def test_json_round_trip(self):
        p = CesaroParams(alpha=0.5, k=1.5, beta=0.2, epsilon=1.0)
        assert CesaroParams.from_json(p.to_json()) == p

    def test_from_json_rejects_extra(self):
        with pytest.raises(ValueError):
            CesaroParams.from_json({"alpha": 1.0, "gamma": 2.0})
