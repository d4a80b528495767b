import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summa import oracle
from summa.cesaro import cesaro_t
from summa.experiment import ExperimentConfig, run
from summa.oracle import (_ALPHA_POOL, AbelIdentityResult,
                          DecompositionResult, LemmaBoundResult,
                          RationalSequence, _w_exact, _weights_cached,
                          abel_identity_check, decomposition_bound_check,
                          lemma1_check, power_inequality_check,
                          rational_cesaro_coefficients, rational_cesaro_t,
                          run_abel_suite, run_all_suites,
                          run_decomposition_suite, run_lemma1_suite,
                          run_power_inequality_suite)
from summa.sequences import RealSequence

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

    @pytest.mark.parametrize("check, failing, suite, kw, first", [
        ("abel_identity_check",
         lambda *args: AbelIdentityResult(False, F(0), F(1)),
         run_abel_suite, {"max_n": 4},
         {"a": ["9", "8"], "lambda": ["-5", "2"], "alpha": "1", "n": 2}),
        ("lemma1_check",
         lambda *args: LemmaBoundResult(False, F(1), F(0)),
         run_lemma1_suite, {"max_n": 3},
         {"a": ["0", "1/4"], "alpha": "1", "n": 1, "v": 1}),
        ("decomposition_bound_check",
         lambda *args: DecompositionResult(F(1), F(0), F(0), False,
                                           0.0, 0.0, True),
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

def ref_rational_cesaro_t(a, alpha, n):
    alpha = Fraction(alpha)
    if alpha <= -1:
        raise ValueError("alpha must exceed -1")
    if n < 1:
        raise ValueError("n must be at least 1")
    if a.start_index > 1 or a.end_index < n:
        raise ValueError(f"a must cover indices 1..{n}")
    kernel = _weights_cached(alpha - 1, n - 1)
    denom = rational_cesaro_coefficients(alpha, n)
    out = []
    for m in range(1, n + 1):
        acc = Fraction(0)
        for v in range(1, m + 1):
            acc += kernel[m - v] * v * a.value_at(v)
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

    lhs = Fraction(0)
    for v in range(1, n + 1):
        lhs += kernel[n - v] * v * a.value_at(v) * lam.value_at(v)

    prefix = Fraction(0)
    rhs = Fraction(0)
    u_last = Fraction(0)
    for v in range(1, n + 1):
        prefix += kernel[n - v] * v * a.value_at(v)
        if v < n:
            rhs += (lam.value_at(v) - lam.value_at(v + 1)) * prefix
        else:
            u_last = prefix
    rhs += lam.value_at(n) * u_last

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

    lhs = abs(sum((kernel[n - p] * a.value_at(p) for p in range(v + 1)),
                  Fraction(0)))
    rhs = Fraction(0)
    for m in range(1, v + 1):
        inner = sum((kernel[m - p] * a.value_at(p) for p in range(m + 1)),
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
    t = ref_rational_cesaro_t(a, alpha, n)
    w = _w_exact(t, alpha)

    T = Fraction(0)
    for v in range(1, n + 1):
        T += kernel[n - v] * v * a.value_at(v) * lam.value_at(v)
    T /= coeffs[n]

    dlam = [lam.value_at(v) - lam.value_at(v + 1) for v in range(1, n)]
    T1 = sum((coeffs[v] * w[v - 1] * abs(dlam[v - 1]) for v in range(1, n)),
             Fraction(0)) / coeffs[n]
    T2 = abs(lam.value_at(n)) * w[n - 1]
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
            for name, fn in REFERENCES.items():
                monkeypatch.setattr(oracle, name, counted(name, fn))
        for label, (seed, trials) in runs.items():
            obj = {"mode": "oracle", "seed": seed}
            if trials is not None:
                obj["trials"] = trials
            exits[side, label] = run(ExperimentConfig.from_json(obj),
                                     out_dir=tmp_path / side / label,
                                     quiet=True).exit_status
    # the suites call all but rational_cesaro_t, which the reference
    # decomposition check calls itself
    assert set(calls) == set(REFERENCES) - {"rational_cesaro_t"}
    for label in runs:
        assert exits["shipped", label] == exits["reference", label]
        shipped = sorted((tmp_path / "shipped" / label).iterdir())
        assert [p.name for p in shipped] == sorted(
            p.name for p in (tmp_path / "reference" / label).iterdir())
        for path in shipped:
            assert path.read_bytes() == (
                tmp_path / "reference" / label / path.name).read_bytes()
