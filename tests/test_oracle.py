from fractions import Fraction

import numpy as np
import pytest

from summa import (RationalSequence, RealSequence, abel_identity_check,
                   cesaro_t, decomposition_bound_check, lemma1_check,
                   power_inequality_check, rational_cesaro_coefficients,
                   rational_cesaro_t, run_abel_suite, run_all_suites,
                   run_decomposition_suite, run_lemma1_suite,
                   run_power_inequality_suite)

F = Fraction


def _rat(values, start=1):
    return RationalSequence(start, tuple(F(v) for v in values))


class TestRationalCoefficients:
    def test_order_one_is_arithmetic_exactly(self):
        coeffs = rational_cesaro_coefficients(F(1), 100)
        assert coeffs == tuple(F(n + 1) for n in range(101))

    def test_order_half_values(self):
        coeffs = rational_cesaro_coefficients(F(1, 2), 3)
        assert coeffs == (F(1), F(3, 2), F(15, 8), F(35, 16))

    def test_negative_half_kernel(self):
        coeffs = rational_cesaro_coefficients(F(-1, 2), 3)
        assert coeffs == (F(1), F(1, 2), F(3, 8), F(5, 16))

    def test_domain(self):
        with pytest.raises(ValueError):
            rational_cesaro_coefficients(F(-1), 3)


class TestRationalT:
    def test_matches_float_engine(self):
        import random
        rng = random.Random(77)
        cases = []
        for _ in range(30):
            n = rng.randint(1, 15)
            vals = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            cases.append((vals, rng.choice([F(1, 2), F(1)])))
        # long enough to span several blocks of the fractional kernel
        for alpha, n in ((F(1, 4), 301), (F(1, 2), 296), (F(1), 300)):
            cases.append(([F(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(n)], alpha))
        for vals, alpha in cases:
            exact = rational_cesaro_t(_rat(vals), alpha, len(vals))
            floats = cesaro_t(RealSequence(1, np.array([float(v) for v in vals])),
                              float(alpha))
            for e, f in zip(exact, floats.values):
                if e == 0:
                    assert abs(f) < 1e-12
                else:
                    assert abs(f - float(e)) / abs(float(e)) < 1e-10

    def test_coverage_validation(self):
        with pytest.raises(ValueError):
            rational_cesaro_t(_rat([1, 2]), F(1), 3)


class TestAbelIdentity:
    def test_constant_lambda_reduces(self):
        a = _rat([3, -2, 5])
        lam = _rat([7, 7, 7])
        res = abel_identity_check(a, lam, F(1, 2), 3)
        assert res.equal
        assert res.lhs == res.rhs

    def test_n_equal_one(self):
        res = abel_identity_check(_rat([F(5, 3)]), _rat([F(-2, 7)]), F(1, 4), 1)
        assert res.equal
        assert res.lhs == F(5, 3) * F(-2, 7)

    def test_suite_is_clean_and_deterministic(self):
        r1 = run_abel_suite(123, trials=100)
        r2 = run_abel_suite(123, trials=100)
        assert r1 == r2
        assert r1.violations == 0
        assert r1.first_violation_input is None


class TestLemma1:
    def test_worked_example(self):
        # a = (1, -1), n = 3, v = 1, alpha = 1/2: both sides exact
        res = lemma1_check(_rat([1, -1], start=0), F(1, 2), 3, 1)
        assert res.holds
        assert res.lhs == F(1, 16)
        assert res.rhs == F(1, 2)

    def test_order_one_reduces_to_partial_sum_max(self):
        a = _rat([0, 4, -9, 2, 5], start=0)
        res = lemma1_check(a, F(1), 7, 4)
        partial = [sum(a.values[: m + 1], F(0)) for m in range(5)]
        assert res.lhs == abs(partial[4])
        assert res.rhs == max(abs(p) for p in partial[1:])

    def test_free_leading_term_can_violate(self):
        # the bound is specific to sequences that vanish at index 0; with a
        # free a_0 this input breaks it, and the check reports that honestly
        res = lemma1_check(_rat([F(-8, 3), 1], start=0), F(1, 2), 2, 1)
        assert not res.holds
        assert res.lhs == F(1, 2)
        assert res.rhs == F(1, 3)

    def test_parameter_validation(self):
        a = _rat([0, 1], start=0)
        with pytest.raises(ValueError):
            lemma1_check(a, F(3, 2), 2, 1)
        with pytest.raises(ValueError):
            lemma1_check(a, F(1, 2), 1, 2)

    def test_suite_is_clean(self):
        rep = run_lemma1_suite(99, trials=500)
        assert rep.violations == 0


class TestDecomposition:
    def test_constant_lambda_makes_t1_vanish(self):
        a = _rat([2, -3, 1, 4])
        lam = _rat([5, 5, 5, 5])
        res = decomposition_bound_check(a, lam, F(1, 2), 4)
        assert res.T1 == 0
        assert res.holds
        assert abs(res.T) <= res.T2

    def test_all_zero_input(self):
        res = decomposition_bound_check(_rat([0, 0, 0]), _rat([1, 2, 3]),
                                        F(1), 3)
        assert res.T == 0 and res.T1 == 0 and res.T2 == 0
        assert res.holds and res.holder_holds

    def test_nonnegative_bound_terms(self):
        res = decomposition_bound_check(_rat([1, -2, 3]), _rat([-1, 2, -3]),
                                        F(2, 3), 3)
        assert res.T1 >= 0 and res.T2 >= 0
        assert res.holds

    def test_k_one_degenerate_holder(self):
        res = decomposition_bound_check(_rat([1, 2]), _rat([3, 1]), F(1), 2,
                                        k=1.0)
        assert res.holder_holds

    def test_suite_is_clean(self):
        rep = run_decomposition_suite(7, trials=200)
        assert rep.violations == 0

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            decomposition_bound_check(_rat([1]), _rat([1]), F(3, 2), 1)


class TestPowerInequality:
    def test_hand_cases(self):
        assert power_inequality_check(1.0, 1.0, 1.0)
        assert power_inequality_check(1.0, -1.0, 2.5)
        assert power_inequality_check(0.0, 0.0, 3.0)

    def test_k_domain(self):
        with pytest.raises(ValueError):
            power_inequality_check(1.0, 1.0, 0.5)

    def test_suite_is_clean(self):
        rep = run_power_inequality_suite(11, trials=2000)
        assert rep.violations == 0


class TestSuitePlumbing:
    def test_all_suites_deterministic(self):
        a = [r.to_json() for r in run_all_suites(2024, trials=60)]
        b = [r.to_json() for r in run_all_suites(2024, trials=60)]
        assert a == b

    def test_suite_order_and_names(self):
        names = [r.check for r in run_all_suites(1, trials=5)]
        assert names == ["abel_identity", "lemma1_bound",
                         "decomposition_bound", "power_inequality"]

    def test_derived_seeds_stay_in_u64(self):
        seeds = [r.seed for r in run_all_suites(2 ** 64 - 1, trials=1)]
        assert seeds == [2 ** 64 - 1, 1000002, 2000005, 3000008]
        assert all(0 <= s < 2 ** 64 for s in seeds)

    def test_derived_seeds_below_wrap_unchanged(self):
        seeds = [r.seed for r in run_all_suites(42, trials=1)]
        assert seeds == [42, 1000045, 2000048, 3000051]

    def test_report_json_fields(self):
        rep = run_abel_suite(5, trials=3).to_json()
        assert set(rep) == {"check", "trials", "violations",
                            "first_violation_input", "seed"}
