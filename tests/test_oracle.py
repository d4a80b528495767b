import dataclasses
import json
import math
import random
import re
import sys
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summa import oracle
from summa.cesaro import cesaro_t
from summa.experiment import ExperimentConfig, run
from summa.oracle import (_ALPHA_POOL, AbelIdentityResult,
                          DecompositionResult, LemmaBoundResult,
                          OracleSuiteReport, RationalSequence,
                          _kernel_integers, _weights_cached,
                          abel_identity_check, decomposition_bound_check,
                          lemma1_check, power_inequality_check,
                          rational_cesaro_coefficients, rational_cesaro_t,
                          run_abel_suite, run_all_suites,
                          run_decomposition_suite, run_lemma1_suite,
                          run_power_inequality_suite)
from summa.sequences import RealSequence

F = Fraction
MAX = sys.float_info.max


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

    @pytest.mark.parametrize("x, y, k", [
        (1e300, 1e300, 4.0), (1e200, -1e200, 2.0), (1.0, 1.0, 2000.0),
        (0.5, 0.25, 1100.0), (MAX, MAX, 1.0), (MAX, -MAX, 1e308),
        (-MAX, 5e-324, 3.5), (5e-324, 5e-324, 1.0), (0.0, -0.0, 1e300)])
    def test_large_inputs_and_orders_give_a_verdict(self, x, y, k):
        # the powers of x, y and 2 overflowed here for large |x|, |y| or k
        assert power_inequality_check(x, y, k) is True

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False),
           y=st.floats(allow_nan=False, allow_infinity=False),
           k=st.integers(1, 6))
    def test_verdict_matches_exact_rationals(self, x, y, k):
        fx, fy = F(x), F(y)
        exact = abs(fx + fy) ** k <= 2 ** k * (abs(fx) ** k + abs(fy) ** k)
        assert power_inequality_check(x, y, float(k)) is exact

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

    # the function each suite calls: the lemma1 and decomposition suites
    # call the integer cores, the others the public checks
    @pytest.mark.parametrize("check, failing, suite, kw, first", [
        ("abel_identity_check",
         lambda *args: AbelIdentityResult(False, F(0), F(1)),
         run_abel_suite, {"max_n": 4},
         {"a": ["9", "8"], "lambda": ["-5", "2"], "alpha": "1", "n": 2}),
        ("_lemma1", lambda *args: (False, 1, 0),
         run_lemma1_suite, {"max_n": 3},
         {"a": ["0", "1/4"], "alpha": "1", "n": 1, "v": 1}),
        ("_decomposition",
         lambda *args: ((1, 1), (0, 1), (0, 1), False, 0.0, 0.0, True),
         run_decomposition_suite, {"max_n": 3},
         {"a": ["1"], "lambda": ["-5/6"], "alpha": "3/4", "n": 1}),
        ("power_inequality_check", lambda *args: False,
         run_power_inequality_suite, {},
         {"x": -5.240707458162173, "y": 0.8845845059190367,
          "k": 2.1098654996442376}),
    ], ids=["abel", "lemma1", "decomposition", "power_inequality"])
    def test_violations_counted_and_first_input_kept(self, monkeypatch, check,
                                                     failing, suite, kw,
                                                     first):
        # a check that fails on every input: every trial is a violation and
        # the report keeps the first trial's input, Fractions as str and
        # floats as drawn
        monkeypatch.setattr(oracle, check, failing)
        rep = suite(3, trials=4, **kw)
        assert rep.violations == rep.trials == 4
        assert rep.first_violation_input == first
        assert json.loads(json.dumps(rep.to_json())) == {
            "check": rep.check, "trials": 4, "violations": 4,
            "first_violation_input": first, "seed": 3}


# Step-by-step Fraction loops: the references the integer kernels of
# summa.oracle must reproduce, field for field and error for error.

def _w_exact(t, alpha):
    if not (0 < alpha <= 1):
        raise ValueError("w is defined for 0 < alpha <= 1 only")
    if alpha == 1:
        return tuple(abs(x) for x in t)
    out = []
    best = Fraction(0)
    for x in t:
        best = max(best, abs(x))
        out.append(best)
    return tuple(out)


def ref_rational_cesaro_t(a, alpha, n):
    alpha = Fraction(alpha)
    if alpha <= -1:
        raise ValueError("alpha must exceed -1")
    if n < 1:
        raise ValueError("n must be at least 1")
    if a.start_index > 1 or a.end_index < n:
        raise ValueError(f"a must cover indices 1..{n}")
    kernel = _weights_cached(alpha - 1, n - 1)
    av = dict(enumerate(a.values, a.start_index))  # av[v] is a_v
    denom = rational_cesaro_coefficients(alpha, n)
    out = []
    for m in range(1, n + 1):
        acc = Fraction(0)
        for v in range(1, m + 1):
            acc += kernel[m - v] * v * av[v]
        out.append(acc / denom[m])
    return tuple(out)


def ref_abel_identity_check(a, lam, alpha, n):
    alpha = Fraction(alpha)
    if alpha <= -1:
        raise ValueError("alpha must exceed -1")
    if n < 1:
        raise ValueError("n must be at least 1")
    if a.start_index > 1 or a.end_index < n:
        raise ValueError(f"a must cover indices 1..{n}")
    if lam.start_index > 1 or lam.end_index < n:
        raise ValueError(f"lambda must cover indices 1..{n}")
    kernel = _weights_cached(alpha - 1, n - 1)
    av = dict(enumerate(a.values, a.start_index))  # av[v] is a_v
    lv = dict(enumerate(lam.values, lam.start_index))

    lhs = Fraction(0)
    for v in range(1, n + 1):
        lhs += kernel[n - v] * v * av[v] * lv[v]

    prefix = Fraction(0)
    rhs = Fraction(0)
    u_last = Fraction(0)
    for v in range(1, n + 1):
        prefix += kernel[n - v] * v * av[v]
        if v < n:
            rhs += (lv[v] - lv[v + 1]) * prefix
        else:
            u_last = prefix
    rhs += lv[n] * u_last

    return AbelIdentityResult(equal=(lhs == rhs), lhs=lhs, rhs=rhs)


def ref_lemma1_check(a, alpha, n, v):
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("the bound requires 0 < alpha <= 1")
    if not (1 <= v <= n):
        raise ValueError("need 1 <= v <= n")
    if a.start_index > 0 or a.end_index < v:
        raise ValueError(f"a must cover indices 0..{v}")
    kernel = _weights_cached(alpha - 1, n)
    av = dict(enumerate(a.values, a.start_index))  # av[v] is a_v

    lhs = abs(sum((kernel[n - p] * av[p] for p in range(v + 1)),
                  Fraction(0)))
    rhs = Fraction(0)
    for m in range(1, v + 1):
        inner = sum((kernel[m - p] * av[p] for p in range(m + 1)),
                    Fraction(0))
        rhs = max(rhs, abs(inner))
    return LemmaBoundResult(holds=(lhs <= rhs), lhs=lhs, rhs=rhs)


def ref_decomposition_bound_check(a, lam, alpha, n, k=2.0):
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("the decomposition requires 0 < alpha <= 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    if a.start_index > 1 or a.end_index < n:
        raise ValueError(f"a must cover indices 1..{n}")
    if lam.start_index > 1 or lam.end_index < n:
        raise ValueError(f"lambda must cover indices 1..{n}")
    if k < 1.0:
        raise ValueError("k must be at least 1")

    coeffs = rational_cesaro_coefficients(alpha, n)
    kernel = _weights_cached(alpha - 1, n - 1)
    av = dict(enumerate(a.values, a.start_index))  # av[v] is a_v
    lv = dict(enumerate(lam.values, lam.start_index))
    t = ref_rational_cesaro_t(a, alpha, n)
    w = _w_exact(t, alpha)

    T = Fraction(0)
    for v in range(1, n + 1):
        T += kernel[n - v] * v * av[v] * lv[v]
    T /= coeffs[n]

    dlam = [lv[v] - lv[v + 1] for v in range(1, n)]
    T1 = sum((coeffs[v] * w[v - 1] * abs(dlam[v - 1]) for v in range(1, n)),
             Fraction(0)) / coeffs[n]
    T2 = abs(lv[n]) * w[n - 1]
    holds = abs(T) <= T1 + T2

    if k > 1.0 and n > 1:
        kp = k / (k - 1.0)
        u = [float(coeffs[v] * w[v - 1]) * float(abs(dlam[v - 1])) ** (1.0 / k)
             for v in range(1, n)]
        g = [float(abs(dlam[v - 1])) ** (1.0 / kp) for v in range(1, n)]
        holder_lhs = math.fsum(ui * gi for ui, gi in zip(u, g))
        holder_rhs = (math.fsum(ui ** k for ui in u) ** (1.0 / k)
                      * math.fsum(gi ** kp for gi in g) ** (1.0 / kp))
    else:
        holder_lhs = float(T1 * coeffs[n])
        holder_rhs = holder_lhs
    holder_holds = holder_lhs <= holder_rhs * (1.0 + 1e-12)

    return DecompositionResult(T=T, T1=T1, T2=T2, holds=holds,
                               holder_lhs=holder_lhs, holder_rhs=holder_rhs,
                               holder_holds=holder_holds)


REFERENCES = {
    "rational_cesaro_t": ref_rational_cesaro_t,
    "abel_identity_check": ref_abel_identity_check,
    "lemma1_check": ref_lemma1_check,
    "decomposition_bound_check": ref_decomposition_bound_check,
}


def fields(result):
    """Every field with its type; floats by their exact hex form."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    return [(type(x), x.hex() if isinstance(x, float) else x) for x in result]


def outcome(fn, *args):
    try:
        return fields(fn(*args))
    except ValueError as e:
        return ValueError, str(e)


LARGE_PRIMES = (1_000_003, 2_147_483_647, 2 ** 61 - 1)
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 30)),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
              st.sampled_from(LARGE_PRIMES)),
)
# rational_cesaro_t is defined for every alpha > -1, not only (0, 1]
T_ALPHAS = _ALPHA_POOL + (Fraction(-1, 2), Fraction(3, 2), Fraction(7, 5),
                          Fraction(0), Fraction(-9, 10), Fraction(2))


@st.composite
def rational_seq(draw, start, length):
    if draw(st.integers(0, 5)) == 0:  # an all-zero row
        return RationalSequence(start, (Fraction(0),) * length)
    return RationalSequence(start, tuple(draw(st.lists(
        RATIONALS, min_size=length, max_size=length))))


@st.composite
def covering_seq(draw, n):
    """A sequence starting at index 0 or 1 that covers indices 1..n."""
    start = draw(st.sampled_from([0, 1]))
    return draw(rational_seq(start, n + 1 - start + draw(st.integers(0, 2))))


@st.composite
def oracle_cases(draw):
    n = draw(st.integers(1, 40))
    v = draw(st.integers(1, n))
    return {
        "rational_cesaro_t": (draw(covering_seq(n)),
                              draw(st.sampled_from(T_ALPHAS)), n),
        "abel_identity_check": (draw(covering_seq(n)), draw(covering_seq(n)),
                                draw(st.sampled_from(T_ALPHAS)), n),
        "lemma1_check": (draw(rational_seq(0, v + 1 + draw(st.integers(0, 2)))),
                         draw(st.sampled_from(_ALPHA_POOL)), n, v),
        "decomposition_bound_check": (
            draw(covering_seq(n)), draw(covering_seq(n)),
            draw(st.sampled_from(_ALPHA_POOL)), n,
            draw(st.sampled_from([1.0, 1.5, 2.0, 3.7]))),
    }


class TestIntegerKernelsMatchFractionLoops:
    @settings(max_examples=100, deadline=None)
    @given(oracle_cases())
    def test_every_field_equal(self, cases):
        for name, args in cases.items():
            assert outcome(getattr(oracle, name), *args) == \
                outcome(REFERENCES[name], *args), name

    @pytest.mark.parametrize("name, args", [
        ("rational_cesaro_t", (_rat([1, 2]), F(-1), 2)),
        ("rational_cesaro_t", (_rat([1, 2]), F(1, 2), 0)),
        ("rational_cesaro_t", (_rat([1, 2]), F(1, 2), 3)),
        ("rational_cesaro_t", (_rat([1, 2], start=2), F(1, 2), 2)),
        ("abel_identity_check", (_rat([1]), _rat([1]), F(-3, 2), 1)),
        ("abel_identity_check", (_rat([1]), _rat([1]), F(1, 2), 0)),
        ("abel_identity_check", (_rat([1]), _rat([1, 2]), F(1, 2), 2)),
        ("abel_identity_check", (_rat([1, 2]), _rat([1]), F(1, 2), 2)),
        ("lemma1_check", (_rat([0, 1], start=0), F(0), 2, 1)),
        ("lemma1_check", (_rat([0, 1], start=0), F(1, 2), 2, 0)),
        ("lemma1_check", (_rat([0, 1], start=0), F(1, 2), 2, 2)),
        ("lemma1_check", (_rat([0, 1]), F(1, 2), 2, 1)),
        ("decomposition_bound_check", (_rat([1]), _rat([1]), F(5, 4), 1)),
        ("decomposition_bound_check", (_rat([1]), _rat([1]), F(1, 2), 0)),
        ("decomposition_bound_check", (_rat([1]), _rat([1]), F(1, 2), 2)),
        ("decomposition_bound_check", (_rat([1, 2]), _rat([1]), F(1, 2), 2)),
        ("decomposition_bound_check",
         (_rat([1, 2]), _rat([1, 2]), F(1, 2), 2, 0.5)),
    ])
    def test_same_errors(self, name, args):
        with pytest.raises(ValueError) as ref:
            REFERENCES[name](*args)
        with pytest.raises(ValueError) as got:
            getattr(oracle, name)(*args)
        assert str(got.value) == str(ref.value)

    def test_sequence_keeps_fraction_values(self):
        values = (F(1, 3), F(-2, 5))
        seq = RationalSequence(1, values)
        assert all(x is y for x, y in zip(seq.values, values))
        assert RationalSequence(1, (2, 0.5)).values == (F(2), F(1, 2))


class TestIntegerFirstPaths:
    def test_draw_table(self):
        for p in range(-9, 10):
            assert oracle._DRAWS[9 * p + 81] == F(p)
            for q in range(1, 10):
                got = oracle._DRAWS[9 * p + q + 80]
                assert type(got) is F and got == F(p, q)

    def test_numerators_over_the_fixed_scale(self):
        # lcm(1..9) = 2520 clears every denominator of the table
        assert oracle._SCALE == 2520 == math.lcm(*range(1, 10))
        assert len(oracle._NUM) == len(oracle._DRAWS) == 171
        for num, x in zip(oracle._NUM, oracle._DRAWS):
            assert type(num) is int and num == x * 2520

    def test_draws_follow_the_fraction_stream(self):
        # the table draw makes the generator calls that building the
        # Fraction makes, so every seed keeps its inputs
        for seed in range(1000):
            table, built = random.Random(seed), random.Random(seed)
            for _ in range(5):
                got = oracle._random_numerator(table.getrandbits)
                assert type(got) is int and got == 2520 * F(
                    built.randint(-9, 9), built.randint(1, 9))
            assert table.getstate() == built.getstate()

    # inputs whose |t_m| falls at alpha < 1, so that w_m > |t_m| somewhere
    FALLING_T = [
        (_rat([4, -3, 0, 1]), _rat([1, -2, 3, F(1, 2)]), F(1, 2), 4),
        (_rat([F(9, 7), F(-8, 3), F(1, 9), 0, F(-5, 2)]),
         _rat([F(2, 3), 0, F(-7, 4), 1, 1]), F(1, 4), 5),
        (_rat([1, -1, 1, -1, 1, -1]), _rat([6, 5, 4, 3, 2, 1]), F(3, 4), 6),
    ]
    ZERO_ROWS = [
        (_rat([0, 0, 0]), _rat([1, -2, 3]), F(1, 2), 3),
        (_rat([1, -2, 3]), _rat([0, 0, 0]), F(1, 2), 3),
        (_rat([0, 0, 0, 0]), _rat([0, 0, 0, 0]), F(1, 3), 4),
        (_rat([F(2, 5), 7]), _rat([0, 0]), F(1), 2),
        (_rat([0]), _rat([0]), F(2, 3), 1),
    ]

    @pytest.mark.parametrize("k", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("args", FALLING_T + ZERO_ROWS)
    def test_decomposition_cases(self, args, k):
        a, lam, alpha, n = args
        if args in self.FALLING_T:
            t = ref_rational_cesaro_t(a, alpha, n)
            assert _w_exact(t, alpha) != tuple(abs(x) for x in t)
        assert outcome(decomposition_bound_check, *args, k) == \
            outcome(ref_decomposition_bound_check, *args, k)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 15), v=st.integers(1, 15),
           idx=st.lists(st.integers(0, 170), min_size=31, max_size=31),
           alpha=st.sampled_from(_ALPHA_POOL),
           k=st.sampled_from([1.0, 1.5, 2.0, 3.7]))
    def test_cores_judge_alike_at_the_fixed_and_the_lcm_scale(self, n, v, idx,
                                                              alpha, k):
        # every positive scale gives the same integer comparisons, so the
        # suites' fixed scale 2520 judges table draws as the lcm scale of
        # the public checks does, to the rationals and the Hoelder bits
        kernel, scale = _kernel_integers(*alpha.as_integer_ratio(), n)
        draws = [oracle._DRAWS[i] for i in idx]
        fixed = [oracle._NUM[i] for i in idx]
        v = min(v, n)
        xs, d = oracle._scaled_integers(draws[:v + 1])
        at_fixed = oracle._lemma1(kernel, n, fixed[:v + 1])
        at_lcm = oracle._lemma1(kernel, n, xs)
        assert at_fixed[0] is at_lcm[0]
        assert [F(x, scale * 2520) for x in at_fixed[1:]] == \
            [F(x, scale * d) for x in at_lcm[1:]]

        def rebuilt(result):
            return [F(*pair) for pair in result[:3]] + fields(result[3:])

        xs, dx = oracle._scaled_integers(draws[:n])
        ys, dy = oracle._scaled_integers(draws[15:15 + n])
        assert rebuilt(oracle._decomposition(
            kernel, scale, fixed[:n], 2520, fixed[15:15 + n], 2520, k)) == \
            rebuilt(oracle._decomposition(kernel, scale, xs, dx, ys, dy, k))

    @pytest.mark.parametrize("alpha", [1, 0.5, "1/3", F(3, 4)])
    def test_alpha_of_any_rational_type(self, alpha):
        a, lam = _rat([F(1, 3), -2, F(5, 7)]), _rat([2, F(-1, 6), 1])
        cases = {"rational_cesaro_t": (a, alpha, 3),
                 "abel_identity_check": (a, lam, alpha, 3),
                 "lemma1_check": (_rat([0, F(1, 3), -2], start=0), alpha,
                                  3, 2),
                 "decomposition_bound_check": (a, lam, alpha, 3)}
        for name, args in cases.items():
            assert outcome(getattr(oracle, name), *args) == \
                outcome(REFERENCES[name], *args), name


# The suites' trial draws as randint, choice and uniform make them: the
# reference the suites' own draws must reproduce, input for input and
# generator state for generator state.

def ref_abel_inputs(rng, max_n=20):
    n = rng.randint(1, max_n)
    a = RationalSequence(1, tuple(F(rng.randint(-9, 9)) for _ in range(n)))
    lam = RationalSequence(1, tuple(F(rng.randint(-9, 9))
                                    for _ in range(n)))
    return a, lam, rng.choice((F(1, 4), F(1, 2), F(1))), n


def ref_lemma1_inputs(rng, max_n=12):
    n = rng.randint(1, max_n)
    v = rng.randint(1, n)
    a = RationalSequence(0, (F(0),) + tuple(
        F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(v)))
    return a, rng.choice(_ALPHA_POOL), n, v


def ref_decomposition_inputs(rng, max_n=15):
    n = rng.randint(1, max_n)
    a = RationalSequence(1, tuple(F(rng.randint(-9, 9), rng.randint(1, 9))
                                  for _ in range(n)))
    lam = RationalSequence(1, tuple(F(rng.randint(-9, 9), rng.randint(1, 9))
                                    for _ in range(n)))
    return a, lam, rng.choice(_ALPHA_POOL), n


def ref_power_inputs(rng):
    return (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0),
            rng.uniform(1.0, 4.0))


def ref_suite(check, default_trials, draw, judge, report):
    """A suite as the randint, choice and uniform draws of ``draw`` and the
    verdicts of ``judge`` make it, the first violation's input as
    ``report`` writes it."""
    def suite(seed, trials=default_trials):
        rng = random.Random(seed)
        failed = [args for args in (draw(rng) for _ in range(trials))
                  if not judge(*args)]
        return OracleSuiteReport(check, trials, len(failed),
                                 report(*failed[0]) if failed else None, seed)
    return suite


def ref_decomposition_holds(*args):
    result = ref_decomposition_bound_check(*args)
    return result.holds and result.holder_holds


def sequences_report(a, lam, alpha, n):
    return {"a": [str(x) for x in a.values],
            "lambda": [str(x) for x in lam.values], "alpha": str(alpha),
            "n": n}


# each suite of summa.oracle, from the reference draws and the Fraction loops
REFERENCE_SUITES = {
    "run_abel_suite": ref_suite(
        "abel_identity", 200, ref_abel_inputs,
        lambda *args: ref_abel_identity_check(*args).equal, sequences_report),
    "run_lemma1_suite": ref_suite(
        "lemma1_bound", 10_000, ref_lemma1_inputs,
        lambda *args: ref_lemma1_check(*args).holds,
        lambda a, alpha, n, v: {"a": [str(x) for x in a.values],
                                "alpha": str(alpha), "n": n, "v": v}),
    "run_decomposition_suite": ref_suite(
        "decomposition_bound", 1000, ref_decomposition_inputs,
        ref_decomposition_holds, sequences_report),
    "run_power_inequality_suite": ref_suite(
        "power_inequality", 10_000, ref_power_inputs, power_inequality_check,
        lambda x, y, k: {"x": x, "y": y, "k": k}),
}


def test_oracle_reports_byte_identical_with_fraction_loops(tmp_path,
                                                           monkeypatch):
    runs = {"s0": (0, 50), "s42": (42, None), "s20260815": (20260815, 50),
            "smax": (2 ** 64 - 1, 50)}
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    exits = {}
    for side in ("shipped", "reference"):
        if side == "reference":
            for name, fn in REFERENCE_SUITES.items():
                monkeypatch.setattr(oracle, name, counted(name, fn))
        for label, (seed, trials) in runs.items():
            obj = {"mode": "oracle", "seed": seed}
            if trials is not None:
                obj["trials"] = trials
            exits[side, label] = run(ExperimentConfig.from_json(obj),
                                     out_dir=tmp_path / side / label,
                                     quiet=True).exit_status
    # every reference suite ran in every run
    assert sorted(calls) == sorted(list(REFERENCE_SUITES) * len(runs))
    for label in runs:
        assert exits["shipped", label] == exits["reference", label]
        shipped = sorted((tmp_path / "shipped" / label).iterdir())
        assert [p.name for p in shipped] == sorted(
            p.name for p in (tmp_path / "reference" / label).iterdir())
        for path in shipped:
            assert path.read_bytes() == (
                tmp_path / "reference" / label / path.name).read_bytes()


def numerators(seq):
    """2520 x for each value x of seq, as ints: 2520 = lcm(1..9) clears
    every denominator a suite draws."""
    scaled = [x * 2520 for x in seq.values]
    assert all(x.denominator == 1 for x in scaled)
    return [x.numerator for x in scaled]


def lemma1_core_args(a, alpha, n, v):
    """What the lemma1 suite hands its core for lemma1_check's arguments."""
    return _kernel_integers(*alpha.as_integer_ratio(), n)[0], n, numerators(a)


def decomposition_core_args(a, lam, alpha, n):
    """What the decomposition suite hands its core for
    decomposition_bound_check's arguments, at its k = 2."""
    kernel, scale = _kernel_integers(*alpha.as_integer_ratio(), n)
    return kernel, scale, numerators(a), 2520, numerators(lam), 2520, 2.0


# suite, the function it calls, a passing result, the reference draws, and
# the function's arguments from the reference inputs
DRAWN_SUITES = {
    "abel": (run_abel_suite, "abel_identity_check",
             AbelIdentityResult(True, F(0), F(0)), ref_abel_inputs,
             lambda *args: args),
    "lemma1": (run_lemma1_suite, "_lemma1", (True, 0, 0), ref_lemma1_inputs,
               lemma1_core_args),
    "decomposition": (run_decomposition_suite, "_decomposition",
                      ((0, 1), (0, 1), (0, 1), True, 0.0, 0.0, True),
                      ref_decomposition_inputs, decomposition_core_args),
    "power_inequality": (run_power_inequality_suite, "power_inequality_check",
                         True, ref_power_inputs, lambda *args: args),
}


def exact(x):
    """x with its type and, in a sequence, list or tuple, each item's;
    floats by their exact hex form."""
    if isinstance(x, RationalSequence):
        return x.start_index, exact(x.values)
    if isinstance(x, (list, tuple)):
        return type(x), [exact(v) for v in x]
    return type(x), x.hex() if isinstance(x, float) else x


def assert_suite_draws_like_reference(monkeypatch, name, seed, **kw):
    """Run a suite with its check replaced by a recorder that, at every
    trial, draws the reference inputs from a generator of its own and
    compares them, and the two generators' states, with what the suite
    drew; then compare the states after the suite."""
    suite, check, passing, reference, arguments = DRAWN_SUITES[name]
    made = []

    class Tracked(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    ref_rng = random.Random(seed)
    ref_kw = {"max_n": kw["max_n"]} if "max_n" in kw else {}
    checked = []

    def recorder(*args):
        trial = len(checked)
        want = arguments(*reference(ref_rng, **ref_kw))
        assert exact(args) == exact(want), trial
        assert made[-1].getstate() == ref_rng.getstate(), trial
        checked.append(trial)
        return passing

    monkeypatch.setattr(oracle, "random", SimpleNamespace(Random=Tracked))
    monkeypatch.setattr(oracle, check, recorder)
    rep = suite(seed, **kw)
    assert len(checked) == rep.trials and len(made) == 1
    assert made[0].getstate() == ref_rng.getstate()


class TestSuiteDraws:
    @pytest.mark.parametrize("seed", [0, 42, 2 ** 64 - 1])
    @pytest.mark.parametrize("name", list(DRAWN_SUITES))
    def test_default_trials_draw_the_reference_inputs(self, monkeypatch,
                                                      name, seed):
        assert_suite_draws_like_reference(monkeypatch, name, seed)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), trials=st.integers(1, 30),
           max_n=st.integers(1, 40), name=st.sampled_from(list(DRAWN_SUITES)))
    def test_any_seed_draws_the_reference_inputs(self, seed, trials, max_n,
                                                 name):
        kw = {"trials": trials}
        if name != "power_inequality":
            kw["max_n"] = max_n
        with pytest.MonkeyPatch.context() as mp:
            assert_suite_draws_like_reference(mp, name, seed, **kw)


class TestSuiteArguments:
    @pytest.mark.parametrize("trials", [0, -5, True, False, 2.7, 3.0, "4",
                                        None])
    @pytest.mark.parametrize("suite", [run_abel_suite, run_lemma1_suite,
                                       run_decomposition_suite,
                                       run_power_inequality_suite])
    def test_trials_must_be_a_positive_int(self, suite, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            suite(1, trials=trials)

    @pytest.mark.parametrize("trials", [0, -5, True, 2.7])
    def test_all_suites_pass_trials_through(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            run_all_suites(1, trials=trials)

    @pytest.mark.parametrize("max_n", [0, -1, True, 2.5, 3.0])
    @pytest.mark.parametrize("suite", [run_abel_suite, run_lemma1_suite,
                                       run_decomposition_suite])
    def test_max_n_must_be_a_positive_int(self, suite, max_n):
        with pytest.raises(ValueError, match="max_n must be an integer"):
            suite(1, trials=1, max_n=max_n)

    def test_one_trial_and_max_n_one(self):
        reps = [run_abel_suite(3, trials=1, max_n=1),
                run_lemma1_suite(3, trials=1, max_n=1),
                run_decomposition_suite(3, trials=1, max_n=1)]
        assert [(r.trials, r.violations) for r in reps] == [(1, 0)] * 3


class TestNonFiniteArguments:
    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_decomposition_refuses_non_finite_k(self, k):
        with pytest.raises(ValueError, match="k must be finite"):
            decomposition_bound_check(_rat([1, 2, -1]), _rat([3, 1, 2]),
                                      F(1, 2), 3, k=k)

    @pytest.mark.parametrize("x, y, k", [
        (1.0, 2.0, math.nan), (1.0, 2.0, math.inf), (1.0, 2.0, -math.inf),
        (math.nan, 2.0, 2.0), (1.0, math.inf, 2.0), (-math.inf, 1.0, 1.0)])
    def test_power_check_refuses_non_finite_inputs(self, x, y, k):
        with pytest.raises(ValueError, match="must be finite"):
            power_inequality_check(x, y, k)

    def test_finite_k_below_one_keeps_its_message(self):
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            decomposition_bound_check(_rat([1]), _rat([1]), F(1, 2), 1,
                                      k=0.5)
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            power_inequality_check(1.0, 2.0, 0.5)


A3, LAM3 = _rat([1, -2, 3]), _rat([2, F(1, 2), -1])
A03 = _rat([0, 1, -2, 3], start=0)
COUNTS = {
    "rational_cesaro_coefficients": (
        "n_max", lambda x: rational_cesaro_coefficients(F(1, 2), x)),
    "rational_cesaro_t": ("n", lambda x: rational_cesaro_t(A3, F(1, 2), x)),
    "abel_identity_check": (
        "n", lambda x: abel_identity_check(A3, LAM3, F(1, 2), x)),
    "lemma1_check_n": ("n", lambda x: lemma1_check(A03, F(1, 2), x, 1)),
    "lemma1_check_v": ("v", lambda x: lemma1_check(A03, F(1, 2), 3, x)),
    "decomposition_bound_check": (
        "n", lambda x: decomposition_bound_check(A3, LAM3, F(1, 2), x)),
}


class TestIntegerArguments:
    # a count that is not an int is refused with its name: 3.0 ended in a
    # TypeError, and True ran as 1
    @pytest.mark.parametrize("value", [3.0, True])
    @pytest.mark.parametrize("case", list(COUNTS))
    def test_a_count_must_be_an_int(self, case, value):
        name, call = COUNTS[case]
        call(3)
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an integer, got {value!r}")):
            call(value)

    def test_k_must_not_be_a_bool(self):
        # it ran as k = 1.0
        with pytest.raises(ValueError, match="^k must be a number, got True$"):
            decomposition_bound_check(A3, LAM3, F(1, 2), 3, k=True)


# Mutants: each check with one plausible bug in the step of the proof it
# replays, patched in through the module global that its suite calls (for
# lemma1 and the decomposition, the integer core, through an adapter that
# rebuilds the check's arguments).  A suite earns its zero only if it
# reports violations for each of them at its default trials.

def lemma1_mutant(order, last_m):
    """lemma1_check, step by step in Fractions, with the kernel of order
    ``order(alpha)`` and the rhs max over 1 <= m <= ``last_m(v)``."""
    def check(a, alpha, n, v):
        kernel = rational_cesaro_coefficients(order(F(alpha)), n)
        lhs = abs(sum((kernel[n - p] * a.values[p] for p in range(v + 1)),
                      F(0)))
        rhs = max((abs(sum((kernel[m - p] * a.values[p]
                            for p in range(m + 1)), F(0)))
                   for m in range(1, last_m(v) + 1)), default=F(0))
        return LemmaBoundResult(holds=lhs <= rhs, lhs=lhs, rhs=rhs)
    return check


def abel_u_to_v_minus_one(a, lam, alpha, n):
    """abel_identity_check with U_v summed over p = 1..v-1."""
    kernel = rational_cesaro_coefficients(F(alpha) - 1, n - 1)
    terms = [kernel[n - v] * v * a.values[v - 1] for v in range(1, n + 1)]
    lv = lam.values
    lhs = sum(map(mul, terms, lv), F(0))
    u = [sum(terms[:v - 1], F(0)) for v in range(1, n + 1)]
    rhs = sum(((lv[v - 1] - lv[v]) * u[v - 1] for v in range(1, n)), F(0))
    rhs += lv[n - 1] * u[n - 1]
    return AbelIdentityResult(equal=lhs == rhs, lhs=lhs, rhs=rhs)


def decomposition_mutant(bound):
    """The Fraction-loop decomposition check whose verdict compares |T|
    with ``bound(result, a, lam, alpha, n)`` in place of T1 + T2."""
    def check(a, lam, alpha, n, k=2.0):
        result = ref_decomposition_bound_check(a, lam, alpha, n, k)
        return dataclasses.replace(
            result, holds=abs(result.T) <= bound(result, a, lam, alpha, n))
    return check


def bound_with_w_as_abs_t(result, a, lam, alpha, n):
    """T1 + T2 with w_v = |t_v|, the running maximum left out."""
    t = ref_rational_cesaro_t(a, alpha, n)
    big_a = rational_cesaro_coefficients(alpha, n)
    lv = lam.values
    t1 = sum((big_a[v] * abs(t[v - 1]) * abs(lv[v - 1] - lv[v])
              for v in range(1, n)), F(0)) / big_a[n]
    return t1 + abs(lv[n - 1]) * abs(t[n - 1])


def alpha_of(kernel):
    """alpha from a kernel of ``_kernel_integers``: K_1 / K_0 is
    A_1^(alpha-1) = alpha."""
    return F(kernel[-2], kernel[-1])


def lemma1_at_core(check):
    """``check``, a lemma1_check, called as the suite calls ``_lemma1``;
    the sides it returns are Fractions, which the suite does not read."""
    def core(kernel, n, xs):
        a = RationalSequence(0, [F(x, 2520) for x in xs])
        result = check(a, alpha_of(kernel), n, len(xs) - 1)
        return result.holds, result.lhs, result.rhs
    return core


def decomposition_at_core(check):
    """``check``, a decomposition_bound_check, called as the suite calls
    ``_decomposition``; T, T1 and T2 come back as Fractions, which the
    suite does not read."""
    def core(kernel, k_scale, xs, x_scale, ys, y_scale, k):
        a = RationalSequence(1, [F(x, x_scale) for x in xs])
        lam = RationalSequence(1, [F(y, y_scale) for y in ys])
        return dataclasses.astuple(check(a, lam, alpha_of(kernel), len(xs),
                                         k))
    return core


# mutant -> (the function its suite calls, the mutant)
MUTANTS = {
    "lemma1_max_without_m_eq_v": (
        "_lemma1", lemma1_mutant(lambda alpha: alpha - 1, lambda v: v - 1)),
    "lemma1_kernel_of_order_alpha": (
        "_lemma1", lemma1_mutant(lambda alpha: alpha, lambda v: v)),
    "abel_u_to_v_minus_one": ("abel_identity_check", abel_u_to_v_minus_one),
    "decomposition_without_t2": (
        "_decomposition", decomposition_mutant(lambda r, *args: r.T1)),
    "decomposition_bound_times_nine_tenths": (
        "_decomposition",
        decomposition_mutant(lambda r, *args: F(9, 10) * (r.T1 + r.T2))),
    "decomposition_w_without_running_max": (
        "_decomposition", decomposition_mutant(bound_with_w_as_abs_t)),
}
# the function a suite calls -> (the suite, the shipped check, whether a
# result holds as the suite counts it, the check's arguments from a report's
# input, the mutant as the suite calls it)
MUTATED_SUITES = {
    "abel_identity_check": (
        run_abel_suite, abel_identity_check, lambda r: r.equal,
        lambda d: (_rat(d["a"]), _rat(d["lambda"]), F(d["alpha"]), d["n"]),
        lambda check: check),
    "_lemma1": (
        run_lemma1_suite, lemma1_check, lambda r: r.holds,
        lambda d: (_rat(d["a"], start=0), F(d["alpha"]), d["n"], d["v"]),
        lemma1_at_core),
    "_decomposition": (
        run_decomposition_suite, decomposition_bound_check,
        lambda r: r.holds and r.holder_holds,
        lambda d: (_rat(d["a"]), _rat(d["lambda"]), F(d["alpha"]), d["n"]),
        decomposition_at_core),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_suites_catch_each_mutant(name):
    # at seed 42 and default trials; the first violating input, fed back,
    # fails the mutant again and passes the shipped check
    called, mutant = MUTANTS[name]
    suite, shipped, holds, arguments, as_called = MUTATED_SUITES[called]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, called, as_called(mutant))
        rep = suite(42)
    assert rep.violations >= 1
    args = arguments(rep.first_violation_input)
    assert not holds(mutant(*args))
    assert holds(shipped(*args))
