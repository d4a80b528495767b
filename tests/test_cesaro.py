import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summa import (ExperimentConfig, RealSequence, cesaro_coefficients,
                   cesaro_sigma, cesaro_t, compute_transforms, run,
                   w_sequence)
from summa import cesaro
from summa.cesaro import (_binomial_weights, _extract, _kernel_dot_prefixes,
                          _round, _row_sums)
from summa.experiment import builtin_family


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


def fsum_rows(kernel, x):
    """One ``math.fsum`` per output index: the reference the blocked kernel
    must reproduce bit for bit, and exception for exception."""
    out = np.empty(x.size, dtype=np.float64)
    for n in range(x.size):
        out[n] = math.fsum((kernel[n::-1] * x[: n + 1]).tolist())
    return out


def outcome(fn, kernel, x):
    """Output bits, or the type and message of what ``fn`` raised."""
    with np.errstate(all="ignore"):
        try:
            return fn(kernel, x).view(np.int64).tolist()
        except (OverflowError, ValueError) as e:
            return type(e), str(e)


def dot_prefix_input(size, kind, seed):
    rng = np.random.default_rng(seed)
    signs = np.where(np.arange(size) % 2 == 0, 1.0, -1.0)
    scale = math.ldexp(1.0, int(rng.integers(-200, 201)))
    if kind == "spread":  # +-200 binades
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
        # far less than their largest product, which sets sigma, so their
        # value lies in the rounded sum of the residuals
        x = rng.standard_normal(size) * scale
        first, last = np.sort(rng.integers(0, size, 2))
        x[first], x[last] = 2.0 ** 52 * scale, -(2.0 ** 52) * scale
        return x
    if kind == "zeros":  # rows summing to +0.0 and -0.0
        return rng.choice([0.0, -0.0, 1.0, -1.0], size)
    return signs * np.arange(1.0, size + 1.0)  # n * a_n of alternating_unit


MAX = sys.float_info.max
DELTA = math.ldexp(1.0, 969)
SPECIALS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e308, -1e308,
            5e-324, math.ldexp(1.0, 1000)]


@st.composite
def dot_prefix_cases(draw):
    # sizes past 256 rows span more than one block
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


class TestKernelDotPrefixes:
    @settings(max_examples=150, deadline=None)
    @given(dot_prefix_cases())
    def test_bit_identical_to_fsum_rows(self, case):
        kernel, x = case
        assert outcome(_kernel_dot_prefixes, kernel, x) == \
            outcome(fsum_rows, kernel, x)

    @pytest.mark.parametrize("x, error", [
        ([1e308, 1e308, -1e308, 1.0], OverflowError),
        ([1.0, math.inf, -math.inf], ValueError),
    ])
    def test_raises_like_fsum(self, x, error):
        # row 1 of the first case is finite but its sum overflows
        kernel, x = np.ones(len(x)), np.array(x)
        with pytest.raises(error) as ref:
            fsum_rows(kernel, x)
        with pytest.raises(error) as got:
            _kernel_dot_prefixes(kernel, x)
        assert str(got.value) == str(ref.value)

    # Row 3 of each case is (kernel[3], kernel[2], kernel[1], kernel[0]) with
    # x all ones, so the shorter rows before it leave out its leading terms.
    # M is the largest float, DELTA a quarter of its ulp: M + DELTA rounds
    # back to M, M + 2 DELTA is a tie that rounds to inf.
    @pytest.mark.parametrize("kernel, overflows", [
        # the exact sum 2**1000 + 2 DELTA is finite, but fsum's partials
        # overflow at M + 2 DELTA; with a product of M, sigma overflows and
        # the row goes to fsum, which raises
        ([-(MAX - 2.0 ** 1000), DELTA, DELTA, MAX], True),
        # the exact sum rounds to M itself, and fsum overflows on the way, as
        # above
        ([-2 * DELTA, DELTA, DELTA, MAX], True),
        # finite results within a few ulps of M
        ([-4 * DELTA, MAX / 2, MAX / 2], False),
        ([-8 * DELTA, MAX / 4, MAX / 2, MAX / 4], False),
    ])
    def test_rows_near_overflow_match_fsum(self, kernel, overflows):
        kernel = np.array(kernel)
        x = np.ones(kernel.size)
        ref = outcome(fsum_rows, kernel, x)
        assert (ref == (OverflowError, "intermediate overflow in fsum")) \
            == overflows
        assert outcome(_kernel_dot_prefixes, kernel, x) == ref

    # Rows 0..n-1 of each case have the all-ones kernel, so row n is
    # x[0] + .. + x[n].
    @pytest.mark.parametrize("x", [
        # 1 + 2**-53 is a tie; the 2**-200 that breaks it upwards (downwards)
        # is lost in the float sum of the residuals, so the rounded sum of
        # the two parts is 1 (-1) and only the test against the upper (lower)
        # half-gap sends the row to fsum
        [1.0, 2.0 ** -53, 2.0 ** -200],
        [-1.0, -(2.0 ** -53), -(2.0 ** -200)],
        # five products in [1, 2) summing past 8 (row 5 has sigma = 16): a
        # sigma below the sum of the high parts no longer keeps it exact
        [float.fromhex(h) for h in (
            "0x1.34de2dd319029p+0", "0x1.e2d1ae225715ep+0",
            "0x1.926eeace23894p+0", "0x1.b26a722e7f062p+0",
            "0x1.e5c421a31a4f9p+0", "0x1.c3d5ba1f5c4d4p-30")],
        # row 4 sums to about 2**-70, its residuals after the first
        # extraction to about 2**-49: the rounding error of the residuals'
        # sum after the second extraction is many ulps of the row's sum, and
        # only the second certificate's |e| term sends the row to fsum
        [float.fromhex(h) for h in (
            "0x1.0000000000000p+0", "-0x1.fffffffffffffp-1",
            "0x1.59f4c43343f80p-48", "-0x1.61f4c74732dc6p-48",
            "0x1.82f1082e6221cp-106")],
        # both extractions leave 2**-111, 2**-164 and 2**-200 as residuals
        # (the pairs 1, -1 and 2**-60, -2**-60 set sigma for each); their
        # float sum loses the 2**-200 that breaks the tie, so only the
        # second certificate's bound sends row 6 to fsum
        [1.0, -1.0, 2.0 ** -60, -(2.0 ** -60), 2.0 ** -111, 2.0 ** -164,
         2.0 ** -200],
        # tiny and subnormal largest products; sums with a subnormal part
        [5e-324, 5e-324, -1e-323, 5e-324],
        [1.5 * 2.0 ** -1022, 5e-324, 1.5e-323, -1e-323],
        [2.0 ** -1000, 2.0 ** -1060, -(2.0 ** -1070), 3 * 2.0 ** -1074],
        # all products +-0.0: fsum decides the sign of zero
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, -0.0, -0.0],
        # sigma at the overflow edge: 2**1023 for row 3 of the first case
        # (largest product just below 2**1020, width 4), overflowing for
        # the rows of the second
        [MAX / 2.0 ** 4] * 4,
        [2.0 ** 1020, 2.0 ** 1020, 2.0 ** 1020, -(2.0 ** 1020)],
        # width-1 rows: sigma = 2**1023, then overflowing sigma
        [1.5 * 2.0 ** 1020], [2.0 ** 1021], [MAX],
        [3.0], [-0.0], [5e-324], [math.inf], [math.nan],
    ])
    def test_edge_rows_match_fsum(self, x):
        kernel, x = np.ones(len(x)), np.array(x)
        assert outcome(_kernel_dot_prefixes, kernel, x) == \
            outcome(fsum_rows, kernel, x)

    def test_benchmark_ties_match_fsum(self):
        # t of a_n * lambda_n for F1 at alpha = 1/2 (the conclusion
        # diagnostic of the fractional benchmark runs): rows 2, 6 and 7
        # sum exactly to midpoints between two floats
        bundle = builtin_family("F1", 4096, {"alpha": 0.5})
        factored = bundle.a.values * bundle.lam.values
        x = factored * np.arange(1.0, factored.size + 1.0)
        kernel = _binomial_weights(-0.5, x.size - 1)
        for n in (2, 6, 7):
            terms = (kernel[n::-1] * x[: n + 1]).tolist()
            r = math.fsum(terms)
            assert 2 * sum(map(Fraction, terms)) in (
                Fraction(r) + Fraction(math.nextafter(r, d))
                for d in (math.inf, -math.inf))
        assert outcome(_kernel_dot_prefixes, kernel[:8], x[:8]) == \
            outcome(fsum_rows, kernel[:8], x[:8])

    @pytest.mark.parametrize("width", [2 ** 16 + 1, 2 ** 17])
    def test_wide_rows_certified(self, width):
        # the last rows of t for alternating_unit at alpha = 1/2 (the input
        # of the benchmark's dump), padded to the block width as the kernel
        # pads them: their sums are about 0.7 times their largest product,
        # so one extraction's a-priori bound is too wide to certify all of
        # them, and the second extraction must certify every row, with none
        # left to fsum
        x = dot_prefix_input(width, "unit", 0)
        kernel = _binomial_weights(-0.5, width - 1)
        block = np.zeros((4, width))
        for row, n in enumerate(range(width - 4, width)):
            block[row, : n + 1] = kernel[n::-1] * x[: n + 1]
        expect = [math.fsum(row) for row in block.tolist()]
        with np.errstate(all="ignore"):
            tau, lo, bound = _extract(block.copy(), np.empty_like(block))
            assert not (bound < _round(tau, lo)[1]).all()
            r, ok = _row_sums(block, np.empty_like(block))
        assert ok.all()
        assert r.tolist() == expect

    def test_numpy_facts_the_kernel_relies_on(self):
        # frexp: |v| < 2**e, for subnormals and exact powers of two too
        values = [5e-324, 3 * 5e-324, 2.0 ** -1022, 0.5, 1.0, 3.0, 2.0 ** 1023,
                  MAX]
        exps = np.frexp(np.array(values))[1]
        assert exps.tolist() == [-1073, -1072, -1021, 0, 1, 2, 1024, 1024]
        for v, e in zip(values, exps.tolist()):
            assert Fraction(2) ** (e - 1) <= v < Fraction(2) ** e
        assert np.frexp(np.array([0.0, -0.0]))[1].tolist() == [0, 0]
        with np.errstate(all="ignore"):
            # sigma overflows to inf, and then every high part is NaN
            sigma = np.ldexp(1.0, np.array([1023, 1024]))
            assert sigma.tolist() == [2.0 ** 1023, math.inf]
            assert np.isnan((np.float64(MAX) + sigma[1]) - sigma[1])
            # bounds below the normal range round, then vanish
            assert np.ldexp(9.0, np.array([-1076, -1078, -1200])).tolist() \
                == [2 * 5e-324, 5e-324, 0.0]
            # half the gap above any value below 2**-1021 rounds to 0
            r = np.array([0.0, -0.0, 5e-324, 2.0 ** -1022])
            assert ((np.nextafter(r, np.inf) - r) * 0.5 == 0.0).all()


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
        return fsum_rows(kernel, x)

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
