import dataclasses
import math
import sys
import tracemalloc
import weakref
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from summa import cesaro, checker
from summa.accumulation import compensated_cumsum
from summa.cesaro import (_binomial_weights, _kernel_dot_prefixes,
                          _round_rows, _settled, cesaro_coefficients,
                          cesaro_sigma, cesaro_t, w_sequence)
from summa.experiment import ExperimentConfig, builtin_family, run
from summa.functionals import weighted_power_trace
from summa.oracle import rational_cesaro_coefficients
from summa.sequences import RealSequence

from helpers import phi_of


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

    @pytest.mark.parametrize("n_max", [(1 << 14) - 1, 1 << 14, (1 << 14) + 1,
                                       3 * (1 << 14) + 5])
    @pytest.mark.parametrize("order", [-1.0, -0.75, -0.5, 0.25, 0.5, 1.0,
                                       110.0])
    def test_blocked_weights_equal_one_pass(self, order, n_max):
        # the weights are computed in blocks of 2**14 factors; the bits are
        # those of one pass over every factor.  At order 110 the product
        # overflows in the second block
        got = _binomial_weights(order, n_max)
        want = one_pass_binomial_weights(order, n_max)
        assert got.tobytes() == want.tobytes()
        if order == 110.0 and n_max > 2 << 14:
            first_inf = int(np.argmax(np.isinf(got)))
            assert (1 << 14) < first_inf < 2 << 14

    def test_weights_memory_is_block_sized(self):
        tracemalloc.start()
        try:
            out = _binomial_weights(-0.5, 1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes, (peak, out.nbytes)


def one_pass_binomial_weights(order: float, n_max: int) -> np.ndarray:
    # the compensated product in one pass over all n_max factors, with
    # n_max-long temporaries: the reference the blocked weights reproduce
    out = np.empty(n_max + 1, dtype=np.float64)
    out[0] = 1.0
    if n_max >= 1:
        j = np.arange(1.0, n_max + 1.0)
        with np.errstate(all="ignore"):
            s = order + j
            z = s - order
            es = (order - (s - z)) + (j - z)
            f = s / j
            hi, lo = cesaro._two_product(f, j)
            d = ((s - hi) - lo + es) / (f * j)
            p = np.cumprod(f)
            e = cesaro._two_product(np.concatenate(([1.0], p[:-1])), f)[1]
            rel = e / p + d
            rel[~np.isfinite(rel)] = 0.0
            out[1:] = np.where(np.isfinite(p), p + p * np.cumsum(rel), p)
    return out


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


@pytest.mark.parametrize("transform, seq, alpha", [
    # n * a_n overflows from n = 18 on
    (cesaro_t, RealSequence(1, np.full(64, 1e307)), 1.0),
    # a row over A_n^(-1/2) < 1 overflows
    (cesaro_sigma, RealSequence(0, np.full(16, 1e307)), -0.5),
], ids=["t", "sigma"])
def test_overflowing_terms_raise_and_never_warn(transform, seq, alpha):
    # refused, with no RuntimeWarning
    with pytest.raises(ValueError, match="^sequence values must be finite$"):
        transform(seq, alpha)


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("transform", [cesaro_sigma, cesaro_t])
def test_overflowing_operand_has_one_message_at_every_order(transform,
                                                            alpha):
    # finite values whose partial sums and n * a_n overflow
    seq = RealSequence(0, np.full(16, 1e308))
    with pytest.raises(ValueError, match="^sequence values must be finite$"):
        transform(seq, alpha)


@pytest.mark.parametrize("transform", [cesaro_sigma, cesaro_t])
def test_overflowing_coefficients_are_refused_with_alpha(transform):
    # A_n^150 overflows from n = 6333 while the kernel A^149 stays finite to
    # n = 6496: the means are refused, not divided by inf into zeros
    seq = RealSequence(0, np.full(6340, 1e-300))
    with pytest.raises(ValueError, match=r"^alpha=150: the Cesaro "
                       r"coefficients A_n\^alpha overflow from n = 6333$"):
        transform(seq, 150.0)


def test_an_operand_error_comes_before_the_coefficients():
    # as from the kernel: a non-finite operand's own message first, the
    # coefficients' only for a finite operand (A_2^1e300 overflows)
    lanes = [(lambda lo, hi: np.full(hi - lo, math.nan),),
             (lambda lo, hi: np.ones(hi - lo),)]
    source = cesaro._MeanSource(1e300, 8, lanes, (False, False))
    assert [str(source.dead[lane]) for lane in (0, 1)] == [
        "sequence values must be finite",
        "alpha=1e+300: the Cesaro coefficients A_n^alpha overflow from n = 2"]


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("p", [0, 1])
def test_t_and_w_follow_their_closed_forms(p, alpha):
    # a_v = (-1)^v v^(-p).  The numerator of t_n is the n-th coefficient of
    # (1 - x)^(-alpha) g(x), g(x) = sum v a_v x^v = -x / (1 + x)^(2 - p),
    # and A_n^alpha ~ n^alpha / Gamma(1 + alpha).  g's pole at x = -1
    # gives the leading term (-1)^n 2^(-alpha) Gamma(1 + alpha)
    # n^(1 - alpha - p), and the branch point of (1 - x)^(-alpha) at x = 1
    # gives alpha g(1) / n, with g(1) = -1/4 (p = 0) or -1/2 (p = 1)
    # (singularity analysis: Flajolet and Sedgewick, Analytic
    # Combinatorics, ch. VI).  The next term is the leading one times
    # -alpha^2 / (2n) (p = 0) or -alpha (alpha + 1) / (2n) (p = 1), below
    # 1/n in size for alpha <= 3/4, and the terms after it are O(n^-2)
    # relative; the tolerance, 2/n of the leading term, is twice that
    # bound.  Leaving out alpha g(1) / n misses by up to 4.3e-2 of the
    # leading term (p = 1, alpha = 3/4)
    n = 1 << 16
    v = np.arange(1.0, n + 1.0)
    a = RealSequence(1, np.where(v % 2 == 0, 1.0, -1.0) / v ** p)
    t = cesaro_t(a, alpha)
    g1 = -0.25 if p == 0 else -0.5
    for m in (n - 1, n):
        lead = ((-1) ** m * 2.0 ** -alpha * math.gamma(1.0 + alpha)
                * m ** (1.0 - alpha - p))
        assert abs(t.values[m - 1] - (lead + alpha * g1 / m)) <= 2 / m * abs(
            lead), m
    if p == 1:
        # |t| decays from |t_1| = 1 / (1 + alpha), so that is w at every n
        assert w_sequence(t, alpha).values[-1] == 1 / (1 + alpha)


@pytest.mark.parametrize("n", [4096, (1 << 14) + 5])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_cond11_reads_the_closed_form_w(alpha, n):
    # F1 with a_v = (-1)^v / v: |t_v| falls from |t_1| = 1 / (1 + alpha)
    # (p = 1 in the closed form above), so w is that constant and cond11's
    # trace is the power trace of a constant.  A w without its running max
    # moves it by 67-89 %; a block window that starts at lo, not lo - 1,
    # loses the max carried across the block edge at 2**14 + 5
    v = np.arange(1.0, n + 1.0)
    bundle = dataclasses.replace(
        builtin_family("F1", n, {"alpha": alpha}),
        a=RealSequence(1, np.where(v % 2 == 0, 1.0, -1.0) / v))
    k = bundle.params.k
    phi = phi_of(bundle.weight, n, k, beta_default=bundle.params.beta)
    got = checker.check_main_theorem(bundle).traces["cond11"]
    want = weighted_power_trace(np.full(n, 1 / (1 + alpha)), k, phi,
                                checker.dyadic_checkpoints(n))
    assert got.checkpoints == want.checkpoints
    assert got.partial_sums.tobytes() == want.partial_sums.tobytes()


@pytest.mark.parametrize("transform", ["sigma", "t"])
def test_alpha_one_means_divide_in_place(transform):
    # the compensated sums are divided a block of indices at a time, into
    # the result: the terms and the result are the only n-long arrays, and
    # the bits are those of one whole-array division
    a = RealSequence(0, 1.0 - 2.0 * (np.arange((1 << 20) + 1) & 1))
    fn = cesaro_sigma if transform == "sigma" else cesaro_t
    tracemalloc.start()
    try:
        out = fn(a, 1.0).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * out.nbytes, (peak, out.nbytes)
    if transform == "sigma":
        sums = compensated_cumsum(compensated_cumsum(a.values))
        want = sums / np.arange(1.0, a.values.size + 1.0)
    else:
        terms = a.values[1:] * np.arange(1.0, a.values.size)
        want = compensated_cumsum(terms) / np.arange(2.0, a.values.size + 1.0)
    assert out.tobytes() == want.tobytes()


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


def outcome(fn, *args):
    """Output bits, or the type of what ``fn`` raised."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args).view(np.int64).tolist()
        except (OverflowError, ValueError) as e:
            return type(e)


def attempt(fn, *args):
    """What ``fn`` returns, or the ``OverflowError`` or ``ValueError`` it
    raised: the kernel's entry for one operand."""
    try:
        return fn(*args)
    except (OverflowError, ValueError) as e:
        return e


def entry(result):
    """A kernel entry as ``outcome`` gives it: output bits, or the type of
    the error."""
    if isinstance(result, Exception):
        return type(result)
    return result.view(np.int64).tolist()


def dot_prefixes(kernel, x):
    """The kernel's rows of one operand, its error raised."""
    [rows] = _kernel_dot_prefixes(kernel, [x])
    return _settled(rows)


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


# a mantissa of all ones: each of its slices at any width is full
FULL = 2.0 - 2.0 ** -52


def operand(size, kind, seed):
    """An operand of the multi-operand kernel: the kinds of
    ``dot_prefix_input``, all zeros, or "full": +-FULL alternating, which
    cancels pairwise and, against the kernel of FULL entries, needs a
    narrower slice width than most other kinds."""
    if kind == "all_zero":
        return np.zeros(size)
    if kind == "full":
        return np.where(np.arange(size) % 2 == 0, FULL, -FULL)
    return dot_prefix_input(size, kind, seed)


def kernel_widths(monkeypatch):
    """The slice width of each operand's rounding, in the order they are
    rounded."""
    widths, round_rows = [], cesaro._round_rows
    monkeypatch.setattr(cesaro, "_round_rows", lambda values, b, s:
                        widths.append(b) or round_rows(values, b, s))
    return widths


@st.composite
def operand_sets(draw):
    """A kernel, A^(alpha - 1) or all FULL, and two or three operands of its
    size, each of any kind and scaled by its own power of two (from the
    subnormal range to near overflow, so exponents lie far apart)."""
    size = draw(st.integers(1, 600))
    kernel = (np.full(size, FULL) if draw(st.booleans()) else
              _binomial_weights(draw(st.sampled_from([-0.75, -0.5, 0.0])),
                                size - 1))
    xs = []
    for _ in range(draw(st.integers(2, 3))):
        x = operand(size, draw(st.sampled_from(
            ["spread", "alternating", "ties", "absorbed", "zeros", "unit",
             "all_zero", "full"])), draw(st.integers(0, 2 ** 32)))
        with np.errstate(all="ignore"):
            xs.append(np.ldexp(x, draw(st.sampled_from(
                [-1060, -900, -300, 0, 300, 700, 800]))))
    return kernel, xs


def round_rows_reference(values, b, s):
    """Each row's sum_g values[g] * 2**(s + b * (G - 1 - g)) as one Python
    int, rounded once by int division (to nearest, ties to even): the
    kernel's earlier row rounding, the reference for the int64 one."""
    total = 0
    for v in values:
        total = (total << b) + v.astype(object)
    try:
        return np.true_divide(total << max(s, 0),
                              1 << max(-s, 0)).astype(np.float64)
    except OverflowError:
        raise OverflowError("a Cesaro sum overflows the float range"
                            ) from None


def split_rows(rows, b, groups, seed=None):
    """int64 groups, most significant first, whose rows sum with weights
    2**(b * (groups - 1 - g)) to the given ints, each |row| <= 2**(50 + b *
    (groups - 1)).  The rows' base-2**b digits are the groups; with a seed,
    random carries up to 2**(50 - b) move between neighbouring groups, so
    that groups are signed and up to about 2**50, below the kernel's 2**51."""
    rng = None if seed is None else np.random.default_rng(seed)
    mask = (1 << b) - 1
    table = []
    for t in rows:
        digits = []
        for _ in range(groups - 1):
            digits.append(t & mask)
            t >>= b
        digits.append(t)
        digits.reverse()
        if rng is not None:
            for g in range(1, groups):
                c = int(rng.integers(-1, 2)) << int(rng.integers(0, 51 - b))
                digits[g] += c << b
                digits[g - 1] -= c
        table.append(digits)
    return [np.array(col, dtype=np.int64) for col in zip(*table)]


@st.composite
def row_stacks(draw):
    """(values, b, s) for ``_round_rows``: rows of the kinds its rounding
    must get right (53-bit ties and their neighbours, 2**k - 1 where the
    float conversion overstates the bit length, odd multiples of powers of
    two, zeros, any) at scales from underflow to overflow."""
    b, groups = draw(st.integers(1, 26)), draw(st.integers(1, 13))
    top = 50 + b * (groups - 1)  # the largest row bit length
    bits = st.integers(0, top)
    kinds = [bits.map(lambda k: (1 << k) - 1),
             bits.flatmap(lambda k: st.integers(0, 1 << k)),
             st.builds(lambda m, k: (2 * m + 1) << k, st.integers(0, 7),
                       st.integers(0, top - 4)),
             st.just(0)]
    if top >= 54:
        kinds.append(st.builds(lambda q, j, d: ((2 * q + 1) << j) + d,
                               st.integers(1 << 52, (1 << 53) - 1),
                               st.integers(0, top - 54),
                               st.sampled_from([-1, 0, 0, 1])))
    row = st.tuples(st.one_of(kinds), st.booleans()).map(
        lambda t: -t[0] if t[1] else t[0])
    rows = draw(st.lists(row, min_size=1, max_size=12))
    s = draw(st.one_of(st.integers(-1075 - top, -1020),
                       st.integers(970 - top, 1030), st.integers(-80, 80)))
    return split_rows(rows, b, groups, draw(st.integers(0, 2 ** 32))), b, s


# The "fsum" in some test names is the kernel's earlier reference, fsum of
# the rounded products; every test here compares with exact_rows.
class TestKernelDotPrefixes:
    @settings(max_examples=150, deadline=None)
    @given(dot_prefix_cases())
    def test_bit_identical_to_fsum_rows(self, case):
        kernel, x = case
        assert outcome(dot_prefixes, kernel, x) == \
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
            dot_prefixes(kernel, x)

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
        assert outcome(dot_prefixes, kernel, x) == ref

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
        assert outcome(dot_prefixes, kernel, x) == \
            outcome(exact_rows, kernel, x)

    def test_benchmark_ties_match_fsum(self):
        # t of a_n * lambda_n for F1 at alpha = 1/2 (the conclusion
        # diagnostic of the fractional benchmark runs): its first rows,
        # where fsum of the rounded products met exact midpoints
        bundle = builtin_family("F1", 4096, {"alpha": 0.5})
        factored = bundle.a.values * bundle.lam.values
        x = factored * np.arange(1.0, factored.size + 1.0)
        kernel = _binomial_weights(-0.5, x.size - 1)
        assert outcome(dot_prefixes, kernel[:8], x[:8]) == \
            outcome(exact_rows, kernel[:8], x[:8])

    @pytest.mark.parametrize("row_chunk", [cesaro._ROW_CHUNK, 65536, 1000])
    def test_wide_alternating_rows_exact(self, monkeypatch, row_chunk):
        # t of alternating_unit at alpha = 1/2 (the input of the benchmark's
        # dump) at a width that takes two slices of x, with rows rounded in
        # the default batches, in one batch and in many
        monkeypatch.setattr(cesaro, "_ROW_CHUNK", row_chunk)
        x = dot_prefix_input(65536, "unit", 0)
        kernel = _binomial_weights(-0.5, x.size - 1)
        rows = [0, 1, 2, 999, 1000, 4095, 32768, 65533, 65534, 65535]
        assert dot_prefixes(kernel, x)[rows].tolist() == \
            exact_rows(kernel, x, rows).tolist()

    # One example per edge: 53-bit ties either way and just above, 2**62 - 1
    # and a full-width row; rows of 2**-1075 and 3 * 2**-1075 (ties on the
    # subnormal grid), rows rounding to -0.0, and zero rows of cancelling
    # groups; 2**-1075 + 2**-1135, which rounding to 53 bits first would
    # turn into a tie; the largest float and its negative; a tie above it
    # that rounds to inf; a width-1 row stack.
    @pytest.mark.parametrize("row_chunk", [cesaro._ROW_CHUNK, 2])
    @settings(max_examples=200, deadline=None)
    @given(row_stacks())
    @example((split_rows([2 ** 53 + 1, 2 ** 53 + 3, -(2 ** 53 + 1),
                          ((2 ** 53 + 1) << 40) + 1, 2 ** 62 - 1,
                          -(2 ** 115 - 1), 0], 13, 6, seed=1), 13, 6))
    @example((split_rows([1, -1, 3, -3, 2, -5, 2 ** 60 + 1, 0, 0], 7, 3,
                         seed=2), 7, -1075))
    @example((split_rows([2 ** 60 + 1, -(2 ** 60 + 1), 2 ** 60], 7, 10,
                         seed=4), 7, -1135))
    @example((split_rows([2 ** 54 - 2, -(2 ** 54 - 2), 2 ** 53 + 1], 20, 2,
                         seed=3), 20, 970))
    @example((split_rows([1, 2 ** 54 - 1], 20, 2), 20, 970))
    @example((split_rows([-1, 1, 0, 2 ** 50], 1, 1), 1, -1074))
    def test_round_rows_match_python_ints(self, row_chunk, stack):
        # the int64 rounding against the Python-int one it replaced: the
        # same bits, or the same exception, at any batch size
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cesaro, "_ROW_CHUNK", row_chunk)
            assert outcome(_round_rows, *stack) == \
                outcome(round_rows_reference, *stack)

    @settings(max_examples=80, deadline=None)
    @given(operand_sets())
    def test_operands_match_one_operand_calls(self, case):
        # one call over several operands: each entry has the bits of a call
        # of its own and of the exact rows, or the same error
        kernel, xs = case
        with np.errstate(all="ignore"):
            rows = _kernel_dot_prefixes(kernel, [*xs])
        assert len(rows) == len(xs)
        for got, x in zip(rows, xs):
            assert entry(got) == outcome(dot_prefixes, kernel, x) == \
                outcome(exact_rows, kernel, x)

    @pytest.mark.parametrize("size", [(1 << 14) - 1, (1 << 14) + 1])
    @pytest.mark.parametrize("full_kernel", [False, True])
    def test_operands_at_block_edges(self, monkeypatch, size, full_kernel):
        # operands of far-apart exponents, an all-zero one and a cancelling
        # one; with the FULL kernel the cancelling one needs a narrower
        # width than the others, which round at the first width tried
        kernel = (np.full(size, FULL) if full_kernel
                  else _binomial_weights(-0.5, size - 1))
        xs = [operand(size, "unit", 0),
              np.ldexp(operand(size, "alternating", 1), -900),
              operand(size, "all_zero", 2),
              np.ldexp(operand(size, "full", 3), 700)]
        alone = [dot_prefixes(kernel, x) for x in xs]
        widths = kernel_widths(monkeypatch)
        rows = _kernel_dot_prefixes(kernel, [*xs])
        if full_kernel:
            assert widths[-1] < widths[0] == widths[1]
        else:
            assert len(set(widths)) == 1
        sample = [0, 1, 2, size // 2, size - 2, size - 1]
        for got, want, x in zip(rows, alone, xs):
            assert got.tobytes() == want.tobytes()
            assert got[sample].tolist() == exact_rows(kernel, x, sample).tolist()
        assert not rows[2].any()

    def test_a_narrower_operand_retries_alone(self, monkeypatch):
        # the cancelling operand fails the certificate at the first width;
        # the other is rounded there, and only the kernel is sliced again
        size = 300
        kernel = np.full(size, FULL)
        xs = [operand(size, "full", 0), operand(size, "unit", 0)]
        sliced, slices = [], cesaro._slices
        monkeypatch.setattr(cesaro, "_slices", lambda v, b:
                            sliced.append((v is kernel, b)) or slices(v, b))
        widths = kernel_widths(monkeypatch)
        rows = _kernel_dot_prefixes(kernel, [*xs])
        b = widths[0]
        assert widths == [b, b - 1]
        assert sliced == [(True, b), (False, b), (False, b),
                          (True, b - 1), (False, b - 1)]
        for got, x in zip(rows, xs):
            assert got.tolist() == exact_rows(kernel, x).tolist()

    @pytest.mark.parametrize("bad, error", [
        ([1e308, 1e308, -1e308, 1.0], OverflowError),
        ([1.0, math.inf, -math.inf, 2.0], ValueError),
        ([math.nan, 0.0, 0.0, 0.0], ValueError),
    ])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_an_error_stays_with_its_operand(self, bad, error, where):
        kernel = np.ones(4)
        xs = [np.array([1.0, 2.0 ** -53, 2.0 ** -200, 3.0]),
              np.array([MAX / 4, MAX / 4, -MAX / 4, 5e-324])]
        xs.insert(where, np.array(bad))
        rows = _kernel_dot_prefixes(kernel, [*xs])
        for i, (got, x) in enumerate(zip(rows, xs)):
            if i == where:
                assert isinstance(got, error)
            else:
                assert got.tobytes() == dot_prefixes(kernel, x).tobytes()
                assert got.tolist() == exact_rows(kernel, x).tolist()

    def test_a_non_finite_kernel_refuses_every_operand(self):
        rows = _kernel_dot_prefixes(np.array([1.0, math.nan]),
                                    [np.ones(2), np.zeros(2)])
        assert [type(r) for r in rows] == [ValueError, ValueError]

    def test_a_non_finite_operand_is_refused_before_the_kernel(self):
        # the one finiteness gate: an operand's own message comes first,
        # the kernel's only for a finite operand
        rows = _kernel_dot_prefixes(np.array([1.0, math.inf]),
                                    [np.array([math.nan, 1.0]), np.ones(2)])
        assert [str(r) for r in rows] == ["sequence values must be finite",
                                          "Cesaro sums need finite terms"]

    def test_each_operand_is_freed_once_settled(self, monkeypatch):
        # against the FULL kernel the "full" operand retries at a narrower
        # width and keeps its entry until then; every other entry is freed
        # as soon as its rows (or, for the zero one, its zeros) are settled,
        # so no operand is alive when a later one's rows start
        size = 300
        kernel = np.full(size, FULL)
        xs = [operand(size, "unit", 0), operand(size, "all_zero", 0),
              operand(size, "full", 0), operand(size, "unit", 1)]
        want = [exact_rows(kernel, x).tolist() for x in xs]
        refs = [weakref.ref(x) for x in xs]
        calls, rows_at_width = [], cesaro._rows_at_width

        def spy(sliced, x, growth, last):
            calls.append(([r() is x for r in refs].index(True),
                          [r() is None for r in refs]))
            return rows_at_width(sliced, x, growth, last)

        monkeypatch.setattr(cesaro, "_rows_at_width", spy)
        rows = _kernel_dot_prefixes(kernel, xs)
        assert calls == [(0, [False, True, False, False]),
                         (2, [True, True, False, False]),
                         (3, [True, True, False, False]),
                         (2, [True, True, False, True])]
        assert xs == [None] * 4
        assert [r() for r in refs] == [None] * 4
        assert [r.tolist() for r in rows] == want

    def test_t_frees_its_lanes_before_the_kernel_call(self, monkeypatch):
        # a check's lanes, its blocks of a and lambda (all n indices at
        # fractional orders), are gone once the means' terms v * a_v and
        # v * a_v * lambda_v are made, and operand 0 is gone before operand
        # 1's rows start
        n, alpha = 300, 0.5
        bundle = builtin_family("F1", n, {"alpha": alpha})
        a = bundle.a.values
        want = [w_sequence(cesaro_t(bundle.a, alpha), alpha).values,
                cesaro_t(RealSequence(1, a * bundle.lam.values), alpha).values]
        refs, calls, rows_at_width = [], [], cesaro._rows_at_width
        for cls in {type(bundle.a), type(bundle.lam)}:
            def spied(seq, lo, hi, block=cls._block):
                out = block(seq, lo, hi)
                refs.append(weakref.ref(out))
                return out
            monkeypatch.setattr(cls, "_block", spied)

        def spy(sliced, x, growth, last):
            calls.append([r() is None for r in refs])
            refs.append(weakref.ref(x))
            return rows_at_width(sliced, x, growth, last)

        monkeypatch.setattr(cesaro, "_rows_at_width", spy)
        pushed, push = [], cesaro._MeanSource.push

        def spied_push(*args):
            out = push(*args)
            pushed.append([t.tobytes() for t in out])
            return out

        monkeypatch.setattr(cesaro._MeanSource, "push", spied_push)
        checker.check_main_theorem(bundle, (1, 2, 3, n))
        assert calls == [[True, True], [True, True, True]]
        assert pushed == [[t.tobytes() for t in want]]

    @pytest.mark.parametrize("noisy", ["first", "second", "every"])
    def test_fft_error_never_returned(self, monkeypatch, noisy):
        # an inverse transform 0.3 off an integer fails the check: the
        # kernel retries that operand alone with narrower slices, and gives
        # it a FloatingPointError if every width fails.  The noise falls in
        # the first group of the first operand, of the second one (after
        # the first operand's groups at the first width), or everywhere;
        # the other operand's rows are those of a call of its own
        xs = [dot_prefix_input(300, "unit", 0),
              dot_prefix_input(300, "alternating", 1)]
        kernel = _binomial_weights(-0.5, xs[0].size - 1)
        irfft, calls = np.fft.irfft, []

        def counted(*args, **kwargs):
            calls.append(1)
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counted)
        alone = [dot_prefixes(kernel, xs[0])]
        first = 1 if noisy == "first" else len(calls) + 1
        alone.append(dot_prefixes(kernel, xs[1]))
        del calls[:]

        def noisy_irfft(*args, **kwargs):
            out = counted(*args, **kwargs)
            if noisy == "every" or len(calls) == first:
                out[0] += 0.3
            return out

        monkeypatch.setattr(np.fft, "irfft", noisy_irfft)
        widths, sliced, slices = kernel_widths(monkeypatch), [], cesaro._slices
        monkeypatch.setattr(cesaro, "_slices", lambda v, b: sliced.append(
            [x is v for x in xs].index(True) if v is not kernel else None)
            or slices(v, b))
        if noisy == "every":
            with pytest.raises(FloatingPointError):
                dot_prefixes(kernel, xs[0])
            rows = _kernel_dot_prefixes(kernel, [*xs])
            assert [type(r) for r in rows] == [FloatingPointError] * 2
            return
        rows = _kernel_dot_prefixes(kernel, [*xs])
        assert widths[1] == widths[0] - 1
        # the kernel and then only the noisy operand are sliced again
        assert sliced[3:] == [None, 0 if noisy == "first" else 1]
        for got, want, x in zip(rows, alone, xs):
            assert got.tolist() == want.tolist() == \
                exact_rows(kernel, x).tolist()
        del calls[:]
        assert dot_prefixes(kernel, xs[0]).tolist() == alone[0].tolist()

    def test_numpy_facts_the_kernel_relies_on(self):
        # frexp: |v| < 2**e, for subnormals and exact powers of two too
        values = [5e-324, 3 * 5e-324, 2.0 ** -1022, 0.5, 1.0, 3.0, 2.0 ** 1023,
                  MAX]
        exps = np.frexp(np.array(values))[1]
        assert exps.tolist() == [-1073, -1072, -1021, 0, 1, 2, 1024, 1024]
        for v, e in zip(values, exps.tolist()):
            assert Fraction(2) ** (e - 1) <= v < Fraction(2) ** e
        # >> on a negative int64 floors, and & leaves the remainder in
        # [0, 2**b): the carries of _carry are exact
        x = np.array([-1, -5, -(2 ** 51) + 3, 2 ** 51 - 1, 0])
        assert (x >> 3).tolist() == [v >> 3 for v in x.tolist()]
        assert ((x >> 3) * 8 + (x & 7)).tolist() == x.tolist()
        # astype(float64) of an int64 rounds to nearest, ties to even: below
        # 2**53 it is exact, and frexp overstates the bit length by one
        # where it rounds up to a power of two (2**k - 1 from k = 54 on)
        w = np.array([2 ** 53 - 1, 2 ** 53 + 1, 2 ** 53 + 3, 2 ** 54 - 1,
                      2 ** 62 - 1, 2 ** 62 - 2 ** 9, 2 ** 62 - 2 ** 8])
        assert w.astype(np.float64).tolist() == [
            2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 4, 2.0 ** 54, 2.0 ** 62,
            2.0 ** 62 - 2 ** 9, 2.0 ** 62]
        assert np.frexp(w.astype(np.float64))[1].tolist() == [
            53, 54, 54, 55, 63, 62, 63]
        # shifts by an array of counts up to 63 stay defined
        assert (w >> np.full(7, 63)).tolist() == [0] * 7
        assert (np.zeros(2, dtype=np.int64) << np.array([62, 63])).tolist() \
            == [0, 0]
        # ldexp of an integer up to 2**53 is exact down to 2**-1074, and
        # gives inf past the float range
        q = np.array([1.0, 3.0, 2.0 ** 53 - 1, 2.0 ** 53] * 2)
        e = np.array([-1074] * 4 + [971] * 4)
        with np.errstate(over="ignore"):
            got = np.ldexp(q, e).tolist()
        assert got == [5e-324, 1.5e-323, (2 ** 53 - 1) * 5e-324, 2.0 ** -1021,
                       2.0 ** 971, 3 * 2.0 ** 971, MAX, math.inf]


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

    def reference(kernel, xs):
        calls.append(len(xs))
        return [attempt(exact_rows, kernel, x) for x in xs]

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
