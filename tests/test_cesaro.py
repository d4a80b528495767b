import math
import sys
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summa import cesaro
from summa.cesaro import (_binomial_weights, _kernel_dot_prefixes,
                          cesaro_coefficients, cesaro_sigma, cesaro_t,
                          compute_transforms, w_sequence)
from summa.experiment import ExperimentConfig, builtin_family, run
from summa.oracle import rational_cesaro_coefficients
from summa.sequences import RealSequence


def product_form_coefficients(alpha: float, n_max: int) -> np.ndarray:
    # independent product form: A_n = prod_(j=1..n) (j + alpha) / j, taken as
    # exp of a Neumaier-compensated running sum of log1p(alpha / j); the log
    # sum stays below 20 for the orders used here, so the compensated error
    # is a few ulp of the final value
    out = np.empty(n_max + 1)
    out[0] = 1.0
    s = 0.0
    c = 0.0
    for j in range(1, n_max + 1):
        term = math.log1p(alpha / j)
        t = s + term
        if abs(s) >= abs(term):
            c += (s - t) + term
        else:
            c += (term - t) + s
        s = t
        out[j] = math.exp(s + c)
    return out


class TestCoefficients:
    def test_order_one_is_arithmetic(self):
        # float recurrence is ulp-accurate, not bit-exact; exact integers
        # are the rational engine's contract
        rec = cesaro_coefficients(1.0, 50)
        expect = np.arange(1.0, 52.0)
        assert np.max(np.abs(rec - expect) / expect) < 1e-14

    def test_order_zero_is_ones(self):
        assert np.array_equal(cesaro_coefficients(0.0, 20), np.ones(21))

    @pytest.mark.parametrize("alpha", [-0.5, 0.25, 0.5, 2.0])
    def test_against_product_form(self, alpha):
        rec = cesaro_coefficients(alpha, 2000)
        ref = product_form_coefficients(alpha, 2000)
        assert np.max(np.abs(rec - ref) / ref) < 1e-13

    @pytest.mark.parametrize("alpha, n_max", [
        (-0.75, 4096), (-0.5, 4096), (-0.25, 4096), (0.25, 4096),
        (0.5, 4096), (1.0, 4096), (1.5, 4096), (1 / 3, 1000)])
    def test_within_one_ulp_of_exact(self, alpha, n_max):
        # the compensated product against the exact rational one, entry by
        # entry (np.cumprod alone is up to 69 ulp off at alpha = 1/2)
        exact = rational_cesaro_coefficients(Fraction(alpha), n_max)
        got = cesaro_coefficients(alpha, n_max)
        for v, e in zip(got.tolist(), exact):
            assert abs(Fraction(v) - e) < Fraction(math.ulp(float(e)))

    def test_kernel_sums_to_coefficient(self):
        # sum_(v=0..n) A_(n-v)^(alpha-1) = A_n^alpha
        for alpha in (0.25, 0.5, 1.0, 2.0):
            kernel = cesaro_coefficients(alpha - 1.0, 300)
            total = np.cumsum(kernel)
            ref = cesaro_coefficients(alpha, 300)
            assert np.max(np.abs(total - ref) / ref) < 1e-12

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            cesaro_coefficients(-1.0, 5)


class TestSigma:
    def test_alternating_hand_values(self):
        a = RealSequence(0, np.array([1.0, -1.0, 1.0, -1.0, 1.0]))
        sigma = cesaro_sigma(a, 1.0)
        assert sigma.start_index == 0
        assert np.allclose(sigma.values, [1, 0.5, 2 / 3, 0.5, 0.6], rtol=1e-15)

    def test_requires_index_zero(self):
        with pytest.raises(ValueError):
            cesaro_sigma(RealSequence(1, np.array([1.0, 2.0])), 1.0)

    def test_order_zero_recovers_partial_sums(self):
        a = RealSequence(0, np.array([2.0, -1.0, 4.0]))
        sigma = cesaro_sigma(a, 0.0)
        assert np.allclose(sigma.values, [2.0, 1.0, 5.0], rtol=1e-15)

    def test_fast_path_matches_kernel_path(self):
        rng = np.random.default_rng(11)
        a = RealSequence(0, rng.standard_normal(200))
        fast = cesaro_sigma(a, 1.0)
        s = np.cumsum(a.values)
        kernel = cesaro_coefficients(0.0, 199)
        denom = cesaro_coefficients(1.0, 199)
        direct = np.array([np.dot(kernel[: n + 1][::-1], s[: n + 1])
                           for n in range(200)]) / denom
        assert np.allclose(fast.values, direct, rtol=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    def test_mean_bounded_by_partial_sums(self, alpha):
        rng = np.random.default_rng(5)
        a = RealSequence(0, rng.standard_normal(150))
        sigma = cesaro_sigma(a, alpha)
        bound = np.max(np.abs(np.cumsum(a.values))) * (1 + 1e-12)
        assert np.all(np.abs(sigma.values) <= bound)


class TestT:
    def test_alternating_hand_values(self):
        a = RealSequence(1, np.array([-1.0, 1.0, -1.0, 1.0]))
        t = cesaro_t(a, 1.0)
        assert t.start_index == 1
        assert np.allclose(t.values, [-0.5, 1 / 3, -0.5, 0.4], rtol=1e-15)

    def test_ignores_leading_zero_index(self):
        a0 = RealSequence(0, np.array([7.0, -1.0, 1.0, -1.0]))
        a1 = RealSequence(1, np.array([-1.0, 1.0, -1.0]))
        assert np.allclose(cesaro_t(a0, 0.5).values,
                           cesaro_t(a1, 0.5).values, rtol=1e-15)

    def test_start_validation(self):
        with pytest.raises(ValueError):
            cesaro_t(RealSequence(2, np.array([1.0, 2.0])), 1.0)

    def test_direct_small_oracle(self):
        rng = np.random.default_rng(23)
        vals = rng.standard_normal(40)
        a = RealSequence(1, vals)
        for alpha in (0.5, 1.0):
            kernel = cesaro_coefficients(alpha - 1.0, 39)
            denom = cesaro_coefficients(alpha, 40)
            direct = np.array([
                sum(kernel[m - v] * v * vals[v - 1] for v in range(1, m + 1))
                / denom[m]
                for m in range(1, 41)
            ])
            assert np.allclose(cesaro_t(a, alpha).values, direct, rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=40),
           st.floats(-50, 50), st.floats(-50, 50))
    def test_linearity(self, xs, c1, c2):
        u = np.array(xs)
        a = cesaro_t(RealSequence(1, u), 0.5).values
        b = cesaro_t(RealSequence(1, 2.0 * u), 0.5).values
        combo = cesaro_t(RealSequence(1, c1 * u + c2 * (2.0 * u)), 0.5).values
        assert np.allclose(combo, c1 * a + c2 * b, rtol=1e-9, atol=1e-9)


class TestTermIdentity:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_sigma_steps_match_t(self, alpha):
        rng = np.random.default_rng(7)
        a = RealSequence(0, rng.standard_normal(250))
        sigma = cesaro_sigma(a, alpha)
        t = cesaro_t(a, alpha)
        n = np.arange(1.0, 250.0)
        lhs = np.abs(np.diff(sigma.values))
        rhs = np.abs(t.values[:249]) / n
        scale = np.maximum(lhs, rhs)
        mask = scale > 0
        assert np.max(np.abs(lhs - rhs)[mask] / scale[mask]) < 1e-10


class TestW:
    def test_alpha_one_is_absolute_t(self):
        t = RealSequence(1, np.array([-0.5, 0.25, -1.0]))
        w = w_sequence(t, 1.0)
        assert np.array_equal(w.values, [0.5, 0.25, 1.0])

    def test_fractional_is_running_max(self):
        t = RealSequence(1, np.array([-0.5, 0.25, -1.0, 0.75]))
        w = w_sequence(t, 0.5)
        assert np.array_equal(w.values, [0.5, 0.5, 1.0, 1.0])

    def test_dominates_t_and_monotone(self):
        rng = np.random.default_rng(2)
        t = RealSequence(1, rng.standard_normal(100))
        w = w_sequence(t, 0.5)
        assert np.all(w.values >= np.abs(t.values))
        assert np.all(np.diff(w.values) >= 0)

    def test_alpha_domain(self):
        t = RealSequence(1, np.array([1.0]))
        with pytest.raises(ValueError):
            w_sequence(t, 1.5)
        with pytest.raises(ValueError):
            w_sequence(t, 0.0)

    def test_requires_start_one(self):
        with pytest.raises(ValueError):
            w_sequence(RealSequence(0, np.array([1.0])), 1.0)


class TestComputeTransforms:
    def test_bundles_all_pieces(self):
        a = RealSequence(0, np.array([1.0, -1.0, 1.0, -1.0]))
        tr = compute_transforms(a, 0.5)
        assert tr.alpha == 0.5
        assert tr.sigma.start_index == 0
        assert tr.t.start_index == 1
        assert tr.w is not None
        assert len(tr.coefficients) == len(a)

    def test_w_absent_outside_unit_interval(self):
        a = RealSequence(0, np.array([1.0, -1.0, 1.0]))
        assert compute_transforms(a, 2.0).w is None


def _scaled(v):
    """Integers V and a shift d with v = V / 2**d exactly, for finite v."""
    ratios = [f.as_integer_ratio() for f in v.tolist()]
    d = max(den for _, den in ratios).bit_length() - 1
    return [num << (d + 1 - den.bit_length()) for num, den in ratios], d


def exact_rows(kernel, x, rows=None):
    """Each row's exact sum of kernel[n-i] * x[i] over the float operands, in
    scaled Python ints, rounded once by int division (ties to even): the
    reference the kernel must reproduce bit for bit, and its documented
    exceptions (ValueError for a non-finite operand, OverflowError for an
    exact sum beyond the float range)."""
    if not (np.isfinite(kernel).all() and np.isfinite(x).all()):
        raise ValueError("non-finite operand")
    (ks, dk), (xs, dx) = _scaled(kernel), _scaled(x)
    rows = range(x.size) if rows is None else rows
    return np.array([sum(map(mul, ks[n::-1], xs[: n + 1])) / (1 << (dk + dx))
                     for n in rows])


def outcome(fn, kernel, x):
    """Output bits, or the type of what ``fn`` raised."""
    with np.errstate(all="ignore"):
        try:
            return fn(kernel, x).view(np.int64).tolist()
        except (OverflowError, ValueError) as e:
            return type(e)


def dot_prefix_input(size, kind, seed):
    rng = np.random.default_rng(seed)
    signs = np.where(np.arange(size) % 2 == 0, 1.0, -1.0)
    scale = math.ldexp(1.0, int(rng.integers(-200, 201)))
    if kind == "spread":  # +-200 binades: many slices per element
        return (rng.standard_normal(size)
                * np.ldexp(1.0, rng.integers(-200, 201, size)))
    if kind == "alternating":  # near-equal terms that cancel pairwise
        return signs * (1.0 + rng.random(size) * 2.0 ** -20) * scale
    if kind == "ties":
        # with the all-ones kernel (alpha = 1) row n sums to
        # scale * (1 + k * 2**-53), |k| <= n: an exact midpoint for odd k > 0
        x = rng.choice([-1.0, 1.0], size) * scale * 2.0 ** -53
        x[0] = scale
        return x
    if kind == "absorbed":
        # +-2**52 * scale swallow the low bits of the normal terms between
        # them, then cancel: with the all-ones kernel the later rows sum to
        # far less than their largest product
        x = rng.standard_normal(size) * scale
        first, last = np.sort(rng.integers(0, size, 2))
        x[first], x[last] = 2.0 ** 52 * scale, -(2.0 ** 52) * scale
        return x
    if kind == "zeros":  # rows summing to exactly zero
        return rng.choice([0.0, -0.0, 1.0, -1.0], size)
    return signs * np.arange(1.0, size + 1.0)  # n * a_n of alternating_unit


MAX = sys.float_info.max
DELTA = math.ldexp(1.0, 969)
SPECIALS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e308, -1e308,
            5e-324, math.ldexp(1.0, 1000)]


@st.composite
def dot_prefix_cases(draw):
    # sizes up to 600 take transform lengths of both kinds, 2**a and 3 * 2**a
    size = draw(st.integers(1, 600))
    kind = draw(st.sampled_from(
        ["spread", "alternating", "ties", "absorbed", "zeros", "unit"]))
    alpha = 1.0 if kind in ("ties", "absorbed") else draw(st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
        st.floats(-1.0, 2.0, exclude_min=True)))
    x = dot_prefix_input(size, kind, draw(st.integers(0, 2 ** 32)))
    for pos, value in draw(st.lists(
            st.tuples(st.integers(0, 599), st.sampled_from(SPECIALS)),
            max_size=3)):
        x[pos % size] = value
    return _binomial_weights(alpha - 1.0, size - 1), x


# The "fsum" in some test names is the kernel's earlier reference, fsum of
# the rounded products; every test here compares with exact_rows.
class TestKernelDotPrefixes:
    @settings(max_examples=150, deadline=None)
    @given(dot_prefix_cases())
    def test_bit_identical_to_fsum_rows(self, case):
        kernel, x = case
        assert outcome(_kernel_dot_prefixes, kernel, x) == \
            outcome(exact_rows, kernel, x)

    @pytest.mark.parametrize("x, error", [
        ([1e308, 1e308, -1e308, 1.0], OverflowError),
        ([1.0, math.inf, -math.inf], ValueError),
    ])
    def test_raises_like_fsum(self, x, error):
        # the exact sum of row 1 of the first case overflows
        kernel, x = np.ones(len(x)), np.array(x)
        with pytest.raises(error):
            exact_rows(kernel, x)
        with pytest.raises(error):
            _kernel_dot_prefixes(kernel, x)

    # Row 3 of each case is (kernel[3], kernel[2], kernel[1], kernel[0]) with
    # x all ones, so the shorter rows before it leave out its leading terms.
    # M is the largest float, DELTA a quarter of its ulp: M + DELTA rounds
    # back to M, M + 2 DELTA is a tie that rounds to inf.  Every exact row
    # sum is finite; fsum over the rounded products overflows on the first
    # two (``fsum_overflows``), and the kernel must not.
    @pytest.mark.parametrize("kernel, fsum_overflows", [
        # the exact sum 2**1000 + 2 DELTA
        ([-(MAX - 2.0 ** 1000), DELTA, DELTA, MAX], True),
        # the exact sum M itself
        ([-2 * DELTA, DELTA, DELTA, MAX], True),
        # finite results within a few ulps of M
        ([-4 * DELTA, MAX / 2, MAX / 2], False),
        ([-8 * DELTA, MAX / 4, MAX / 2, MAX / 4], False),
    ])
    def test_rows_near_overflow_match_fsum(self, kernel, fsum_overflows):
        kernel = np.array(kernel)
        x = np.ones(kernel.size)
        try:
            math.fsum(kernel[::-1].tolist())
        except OverflowError:
            assert fsum_overflows
        else:
            assert not fsum_overflows
        ref = outcome(exact_rows, kernel, x)
        assert isinstance(ref, list)
        assert outcome(_kernel_dot_prefixes, kernel, x) == ref

    # Rows 0..n-1 of each case have the all-ones kernel, so row n is
    # x[0] + .. + x[n].
    @pytest.mark.parametrize("x", [
        # 1 + 2**-53 is a tie; the 2**-200 breaks it upwards (downwards)
        [1.0, 2.0 ** -53, 2.0 ** -200],
        [-1.0, -(2.0 ** -53), -(2.0 ** -200)],
        # five terms in [1, 2) summing past 8, then a term 2**-30 below them
        [float.fromhex(h) for h in (
            "0x1.34de2dd319029p+0", "0x1.e2d1ae225715ep+0",
            "0x1.926eeace23894p+0", "0x1.b26a722e7f062p+0",
            "0x1.e5c421a31a4f9p+0", "0x1.c3d5ba1f5c4d4p-30")],
        # row 4 sums to about 2**-70 after cancelling terms near 1 and 2**-48
        [float.fromhex(h) for h in (
            "0x1.0000000000000p+0", "-0x1.fffffffffffffp-1",
            "0x1.59f4c43343f80p-48", "-0x1.61f4c74732dc6p-48",
            "0x1.82f1082e6221cp-106")],
        # the pairs 1, -1 and 2**-60, -2**-60 cancel, and 2**-200 decides
        # the rounding of 2**-111 + 2**-164 at row 6
        [1.0, -1.0, 2.0 ** -60, -(2.0 ** -60), 2.0 ** -111, 2.0 ** -164,
         2.0 ** -200],
        # tiny and subnormal terms; sums with a subnormal part
        [5e-324, 5e-324, -1e-323, 5e-324],
        [1.5 * 2.0 ** -1022, 5e-324, 1.5e-323, -1e-323],
        [2.0 ** -1000, 2.0 ** -1060, -(2.0 ** -1070), 3 * 2.0 ** -1074],
        # all terms +-0.0: an exactly zero row is +0.0
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, -0.0, -0.0],
        # sums near the overflow edge, finite and overflowing
        [MAX / 2.0 ** 4] * 4,
        [2.0 ** 1020, 2.0 ** 1020, 2.0 ** 1020, -(2.0 ** 1020)],
        # width-1 rows, the largest float and non-finite operands included
        [1.5 * 2.0 ** 1020], [2.0 ** 1021], [MAX],
        [3.0], [-0.0], [5e-324], [math.inf], [math.nan],
    ])
    def test_edge_rows_match_fsum(self, x):
        kernel, x = np.ones(len(x)), np.array(x)
        assert outcome(_kernel_dot_prefixes, kernel, x) == \
            outcome(exact_rows, kernel, x)

    def test_benchmark_ties_match_fsum(self):
        # t of a_n * lambda_n for F1 at alpha = 1/2 (the conclusion
        # diagnostic of the fractional benchmark runs): its first rows,
        # where fsum of the rounded products met exact midpoints
        bundle = builtin_family("F1", 4096, {"alpha": 0.5})
        factored = bundle.a.values * bundle.lam.values
        x = factored * np.arange(1.0, factored.size + 1.0)
        kernel = _binomial_weights(-0.5, x.size - 1)
        assert outcome(_kernel_dot_prefixes, kernel[:8], x[:8]) == \
            outcome(exact_rows, kernel[:8], x[:8])

    @pytest.mark.parametrize("row_chunk", [cesaro._ROW_CHUNK, 1000])
    def test_wide_alternating_rows_exact(self, monkeypatch, row_chunk):
        # t of alternating_unit at alpha = 1/2 (the input of the benchmark's
        # dump) at a width that takes two slices of x, with rows rounded in
        # one batch and in many
        monkeypatch.setattr(cesaro, "_ROW_CHUNK", row_chunk)
        x = dot_prefix_input(65536, "unit", 0)
        kernel = _binomial_weights(-0.5, x.size - 1)
        rows = [0, 1, 2, 999, 1000, 4095, 32768, 65533, 65534, 65535]
        assert _kernel_dot_prefixes(kernel, x)[rows].tolist() == \
            exact_rows(kernel, x, rows).tolist()

    @pytest.mark.parametrize("noisy_calls", [1, None])
    def test_fft_error_never_returned(self, monkeypatch, noisy_calls):
        # an inverse transform 0.3 off an integer fails the check: the
        # kernel retries with narrower slices, and raises if every width fails
        irfft, calls = np.fft.irfft, []

        def noisy(*args, **kwargs):
            calls.append(1)
            out = irfft(*args, **kwargs)
            if noisy_calls is None or len(calls) <= noisy_calls:
                out[0] += 0.3
            return out

        monkeypatch.setattr(np.fft, "irfft", noisy)
        x = dot_prefix_input(300, "unit", 0)
        kernel = _binomial_weights(-0.5, x.size - 1)
        if noisy_calls is None:
            with pytest.raises(FloatingPointError):
                _kernel_dot_prefixes(kernel, x)
        else:
            assert _kernel_dot_prefixes(kernel, x).tolist() == \
                exact_rows(kernel, x).tolist()

    def test_numpy_facts_the_kernel_relies_on(self):
        # frexp: |v| < 2**e, for subnormals and exact powers of two too
        values = [5e-324, 3 * 5e-324, 2.0 ** -1022, 0.5, 1.0, 3.0, 2.0 ** 1023,
                  MAX]
        exps = np.frexp(np.array(values))[1]
        assert exps.tolist() == [-1073, -1072, -1021, 0, 1, 2, 1024, 1024]
        for v, e in zip(values, exps.tolist()):
            assert Fraction(2) ** (e - 1) <= v < Fraction(2) ** e
        # int division of object arrays rounds once, ties to even, into the
        # subnormal range, keeps the sign of a negative sum that rounds to
        # zero, and raises OverflowError past the float range
        num = np.array([(1 << 53) + 1, (1 << 53) + 3, 3, 1, -1, 3, 0],
                       dtype=object)
        den = np.array([1, 1, 1 << 1076, 1 << 1075, 1 << 1075, 1 << 1075, 7],
                       dtype=object)
        assert np.true_divide(num, den).astype(np.float64).tolist() == [
            2.0 ** 53, 2.0 ** 53 + 4, 5e-324, 0.0, -0.0, 1e-323, 0.0]
        assert math.copysign(1.0, (-1) / (1 << 1075)) == -1.0
        with pytest.raises(OverflowError):
            np.true_divide(np.array([1 << 1024], dtype=object), 1)


def test_outputs_byte_identical_with_fsum_reference(tmp_path, monkeypatch):
    configs = {
        "f1_half": {"mode": "check_main", "family": "F1", "n": 512,
                    "overrides": {"alpha": 0.5}},
        "f1_quarter": {"mode": "check_main", "family": "F1", "n": 512,
                       "overrides": {"alpha": 0.25}},
        "dump": {"mode": "transform_dump",
                 "sequence": {"family": "alternating_unit", "n": 513,
                              "start": 0},
                 "params": {"alpha": 0.5, "k": 1.5}},
    }
    calls = []

    def reference(kernel, x):
        calls.append(x.size)
        return exact_rows(kernel, x)

    for side in ("shipped", "reference"):
        if side == "reference":
            monkeypatch.setattr(cesaro, "_kernel_dot_prefixes", reference)
        for name, obj in configs.items():
            run(ExperimentConfig.from_json(obj), out_dir=tmp_path / side / name,
                quiet=True)
    assert calls  # the reference really ran
    for name in configs:
        shipped = sorted((tmp_path / "shipped" / name).iterdir())
        assert [p.name for p in shipped] == sorted(
            p.name for p in (tmp_path / "reference" / name).iterdir())
        for path in shipped:
            assert path.read_bytes() == (
                tmp_path / "reference" / name / path.name).read_bytes()
