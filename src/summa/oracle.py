"""Exact rational verification of the proof-step identities and bounds.

Where the float engine shows approximate agreement, this module reruns the
algebra of the factor-theorem proof exactly: each statement holds bit for
bit or is refuted by a counterexample:

  * summation by parts on the factored mean
    T_n = (1/A_n) sum_(v=1..n) A_(n-v)^(alpha-1) v a_v lambda_v,
  * the kernel bound |sum_(p=0..v) A_(n-p)^(alpha-1) a_p|
        <= max_(1<=m<=v) |sum_(p=0..m) A_(m-p)^(alpha-1) a_p|
    for 0 < alpha <= 1,
  * the two-term decomposition |T_n| <= T_n1 + T_n2 built from the maximal
    sequence w and |D lambda|,
  * the power bound |x + y|^k <= 2^k (|x|^k + |y|^k).

Seeded suites hammer each statement and count violations; correct code
reports zero.

Exactness: the API takes and returns ``Fraction`` values; the sums run
over ints.  A kernel table A_j^(alpha-1) is cached, by alpha's numerator,
denominator and length, as integers K_j over the lcm L of its
denominators, and each input is integers over one scale: an inner sum is
an integer dot product, A_m^alpha a prefix sum of the K_j, and t_m and
w_m pairs (numerator, denominator > 0) compared by cross-multiplying.
Each lemma has one integer core (``_lemma1``, ``_decomposition``), which
its public check calls on inputs scaled by the lcm of their denominators.
Every comparison is between integers over one positive denominator, so
any positive scale gives the verdicts and rationals of step-by-step
Fraction arithmetic; the Hoelder floats, int / int divisions, round like
``float()`` of the same rational.

Argument gate: a bad argument is a ``ValueError`` that names it, raised
before any arithmetic.  ``_alpha`` parses alpha (what ``Fraction`` takes,
but no bool) and checks its bound; ``_over_one_to_n`` then checks n and
the spans (``_span``, which refuses a sequence that is not a
``RationalSequence``) of a statement over indices 1..n.  ``_integers``
and ``_reals`` refuse counts and reals of the wrong type, ``_reals`` also
a real too large for a float.

Draw contract: every integer the suites draw comes from ``_below``, which
makes the ``getrandbits`` calls of ``randint`` and ``choice``, and every
float is ``a + (b - a) * rng.random()``, which is ``uniform(a, b)``.  A
random rational indexes the table of Fraction(p, q), p in -9..9 and q in
1..9, as randint(-9, 9) and randint(1, 9) would draw p and q.  So a seed
gives the inputs, and the generator state, of those calls.  The Abel,
lemma1 and decomposition suites draw n in 1..20, 1..12 and 1..15; the
last two take each rational as its numerator over 2520 = lcm(1..9)
(``_NUM``) and call the cores, making no Fraction per trial.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from operator import mul, sub

__all__ = ["RationalSequence", "rational_cesaro_coefficients",
           "rational_cesaro_t", "AbelIdentityResult", "abel_identity_check",
           "LemmaBoundResult", "lemma1_check", "DecompositionResult",
           "decomposition_bound_check", "power_inequality_check",
           "OracleSuiteReport", "run_abel_suite", "run_lemma1_suite",
           "run_decomposition_suite", "run_power_inequality_suite",
           "run_all_suites"]

# the alphas the suites draw; all in (0, 1] as the lemma and decomposition
# require
_ALPHA_POOL = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
               Fraction(2, 3), Fraction(3, 4), Fraction(1))


@dataclass(frozen=True)
class RationalSequence:
    """Exact analogue of RealSequence: a tuple of Fractions with a start index."""

    start_index: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if type(self.start_index) is not int or self.start_index < 0:
            raise ValueError("start_index must be a non-negative integer")
        # a string iterates as its characters, each a numeral
        if isinstance(self.values, (str, bytes)) or not hasattr(
                self.values, "__iter__"):
            raise ValueError("values must be an iterable of rationals, "
                             f"got {type(self.values).__name__}")
        vals = tuple([v if type(v) is Fraction else _rational("values", v)
                      for v in self.values])
        object.__setattr__(self, "values", vals)
        if len(vals) == 0:
            raise ValueError("values must be non-empty")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end_index(self) -> int:
        return self.start_index + len(self.values) - 1


@functools.lru_cache(maxsize=None)
def _weights_cached(order: Fraction, n_max: int) -> tuple[Fraction, ...]:
    out = [Fraction(1)]
    for j in range(1, n_max + 1):
        out.append(out[-1] * (order + j) / j)
    return tuple(out)


# keyed by alpha's two ints, which hash far faster than the Fraction alpha - 1
@functools.lru_cache(maxsize=None)
def _kernel_integers(num: int, den: int,
                     n_max: int) -> tuple[tuple[int, ...], int]:
    """Integers K_j and a scale L with A_j^(alpha-1) = K_j / L, alpha =
    num/den, from j = n_max down to 0, the order the sums walk them."""
    weights = _weights_cached(Fraction(num - den, den), n_max)
    scale = math.lcm(*[w.denominator for w in weights])
    return tuple([w.numerator * (scale // w.denominator)
                  for w in reversed(weights)]), scale


def _scaled_integers(values) -> tuple[list[int], int]:
    """Integers X_i and a scale D with values[i] = X_i / D."""
    # lists, not generators: resized tuples pile up on free lists (peak RSS)
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*[q for _, q in ratios])
    return [p * (scale // q) for p, q in ratios], scale


def _rational(name: str, value) -> Fraction:
    """value as a Fraction; refuses a bool and what Fraction refuses."""
    if type(value) is not bool:
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be a rational number, got {value!r}")


def _alpha(alpha, statement: str | None = None) -> tuple[int, int]:
    """alpha's numerator and denominator; alpha > -1, or 0 < alpha <= 1
    for the ``statement`` that requires it."""
    num, den = _rational("alpha", alpha).as_integer_ratio()
    if statement is None:
        if num <= -den:
            raise ValueError("alpha must exceed -1")
    elif not 0 < num <= den:
        raise ValueError(f"the {statement} requires 0 < alpha <= 1")
    return num, den


def _span(name: str, seq: RationalSequence, lo: int, hi: int) -> tuple:
    """seq's values at indices lo..hi."""
    if not isinstance(seq, RationalSequence):
        raise ValueError(f"{name} must be a RationalSequence, "
                         f"got {type(seq).__name__}")
    if seq.start_index > lo or seq.end_index < hi:
        raise ValueError(f"{name} must cover indices {lo}..{hi}")
    return seq.values[lo - seq.start_index:hi + 1 - seq.start_index]


def _over_one_to_n(alpha, n: int, statement: str | None, *seqs) -> tuple:
    """alpha's numerator and denominator, then the values at 1..n of a (and
    lambda); checks alpha, then n, then the spans."""
    num, den = _alpha(alpha, statement)
    _integers(n=n)
    if n < 1:
        raise ValueError("n must be at least 1")
    return num, den, *[_span(*p, 1, n) for p in zip(("a", "lambda"), seqs)]


def _t_ratios(kernel: tuple[int, ...], terms: list[int]) -> list[tuple[int, int]]:
    """Pairs (r_m, s_m), s_m > 0, with t_m^alpha = r_m / (s_m D), m = 1..n,
    from the kernel of ``_kernel_integers(num, den, n)`` and v X_v, v =
    1..n, for a_v = X_v / D: s_m = sum_(j<=m) K_j is L A_m^alpha, and r_m
    the kernel sum over L D."""
    n = len(terms)
    sums = list(itertools.accumulate(reversed(kernel)))
    # kernel[n + 1 - m:] starts at K_(m-1)
    return [(sum(map(mul, kernel[n + 1 - m:], terms)), sums[m])
            for m in range(1, n + 1)]


def rational_cesaro_coefficients(alpha: Fraction, n_max: int) -> tuple[Fraction, ...]:
    """Exact A_0^alpha .. A_n_max^alpha; alpha must be a rational > -1."""
    num, den = _alpha(alpha)
    _integers(n_max=n_max)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    return _weights_cached(Fraction(num, den), n_max)


def rational_cesaro_t(a: RationalSequence, alpha: Fraction, n: int) -> tuple[Fraction, ...]:
    """Exact t_1^alpha .. t_n^alpha of a; a must cover indices 1..n."""
    num, den, a_n = _over_one_to_n(alpha, n, None, a)
    kernel, _ = _kernel_integers(num, den, n)
    xs, x_scale = _scaled_integers(a_n)
    t = _t_ratios(kernel, [v * x for v, x in enumerate(xs, start=1)])
    return tuple([Fraction(r, s * x_scale) for r, s in t])


@dataclass(frozen=True)
class AbelIdentityResult:
    equal: bool
    lhs: Fraction
    rhs: Fraction


def abel_identity_check(a: RationalSequence, lam: RationalSequence,
                        alpha: Fraction, n: int) -> AbelIdentityResult:
    """Summation by parts on the factored mean, checked exactly.

    lhs = sum_(v=1..n) A_(n-v)^(alpha-1) v a_v lambda_v
    rhs = sum_(v=1..n-1) (lambda_v - lambda_(v+1)) U_v  +  lambda_n U_n
    with U_v = sum_(p=1..v) A_(n-p)^(alpha-1) p a_p.  The two are equal for
    every choice of inputs; any inequality is an implementation bug.
    """
    num, den, a_n, lam_n = _over_one_to_n(alpha, n, None, a, lam)
    kernel, scale = _kernel_integers(num, den, n - 1)
    xs, x_scale = _scaled_integers(a_n)
    ys, y_scale = _scaled_integers(lam_n)
    # everything below is scaled by L * Dx * Dy; U_v by L * Dx only
    weighted = list(map(mul, kernel,
                        [v * x for v, x in enumerate(xs, start=1)]))
    lhs = sum(map(mul, weighted, ys))
    u = list(itertools.accumulate(weighted))
    rhs = sum(map(mul, map(sub, ys, ys[1:]), u)) + ys[-1] * u[-1]
    scale *= x_scale * y_scale
    return AbelIdentityResult(lhs == rhs, Fraction(lhs, scale),
                              Fraction(rhs, scale))


@dataclass(frozen=True)
class LemmaBoundResult:
    holds: bool
    lhs: Fraction
    rhs: Fraction


def lemma1_check(a: RationalSequence, alpha: Fraction, n: int,
                 v: int) -> LemmaBoundResult:
    """Kernel maximal bound for 0 < alpha <= 1, exact.

    lhs = |sum_(p=0..v) A_(n-p)^(alpha-1) a_p|
    rhs = max over 1 <= m <= v of |sum_(p=0..m) A_(m-p)^(alpha-1) a_p|
    """
    num, den = _alpha(alpha, "bound")
    _integers(n=n, v=v)
    if not (1 <= v <= n):
        raise ValueError("need 1 <= v <= n")
    kernel, scale = _kernel_integers(num, den, n)
    xs, x_scale = _scaled_integers(_span("a", a, 0, v))
    holds, lhs, rhs = _lemma1(kernel, n, xs)
    scale *= x_scale
    return LemmaBoundResult(holds, Fraction(lhs, scale), Fraction(rhs, scale))


def _lemma1(kernel: tuple[int, ...], n: int,
            xs: list[int]) -> tuple[bool, int, int]:
    """Lemma 1's verdict and its two sides' numerators over L D, from
    ``_kernel_integers(num, den, n)`` and a_p = X_p / D, p = 0..v."""
    # kernel runs K_n, K_(n-1), ..; kernel[n - m:] starts at K_m
    lhs = abs(sum(map(mul, kernel, xs)))
    rhs = max([abs(sum(map(mul, kernel[n - m:], xs)))
               for m in range(1, len(xs))])
    return lhs <= rhs, lhs, rhs


@dataclass(frozen=True)
class DecompositionResult:
    """Exact two-term bound on the factored mean, plus a Hoelder check.

    T is the factored mean; T1 and T2 bound its two summation-by-parts
    pieces through the maximal sequence.  The Hoelder fields check
    sum u_v g_v <= (sum u_v^k)^(1/k) (sum g_v^k')^(1/k') in floats for the
    split u_v = A_v w_v |D lambda_v|^(1/k), g_v = |D lambda_v|^(1/k') that
    estimates T1.
    """

    T: Fraction
    T1: Fraction
    T2: Fraction
    holds: bool
    holder_lhs: float
    holder_rhs: float
    holder_holds: bool


def decomposition_bound_check(a: RationalSequence, lam: RationalSequence,
                              alpha: Fraction, n: int,
                              k: float = 2.0) -> DecompositionResult:
    """Exact check of |T_n| <= T_n1 + T_n2 for 0 < alpha <= 1.

    T_n1 = (1/A_n^alpha) sum_(v=1..n-1) A_v^alpha w_v^alpha |D lambda_v|,
    T_n2 = |lambda_n| w_n^alpha.
    """
    num, den, a_n, lam_n = _over_one_to_n(alpha, n, "decomposition", a, lam)
    _reals(k=k)
    if not math.isfinite(k):
        raise ValueError("k must be finite")
    if k < 1.0:
        raise ValueError("k must be at least 1")
    kernel, k_scale = _kernel_integers(num, den, n)
    T, T1, T2, *rest = _decomposition(kernel, k_scale, *_scaled_integers(a_n),
                                      *_scaled_integers(lam_n), k)
    return DecompositionResult(Fraction(*T), Fraction(*T1), Fraction(*T2),
                               *rest)


def _decomposition(kernel: tuple[int, ...], k_scale: int, xs: list[int],
                   x_scale: int, ys: list[int], y_scale: int,
                   k: float) -> tuple:
    """``DecompositionResult``'s fields, T, T1 and T2 as (numerator,
    denominator), from ``_kernel_integers(num, den, n)``, a_v = X_v / Dx
    and lambda_v = Y_v / Dy, v = 1..n."""
    n = len(xs)
    terms = [v * x for v, x in enumerate(xs, start=1)]
    t = _t_ratios(kernel, terms)
    # w_m as pairs (r, s) worth r / (s Dx) like t_m: the running max of
    # |t_m|, or |t_m| at alpha = 1, where K_1 / K_0 = A_1^(alpha-1) is 1
    w = []
    best_r, best_s = 0, 1
    alpha_one = kernel[-2] == kernel[-1]
    for r, s in t:
        r = abs(r)
        if alpha_one or r * best_s > best_r * s:
            best_r, best_s = r, s
        w.append((best_r, best_s))
    # A_v^alpha = c_v / L with c_v the s of t_v (see _t_ratios); T, T1 and
    # T2 are over Dx Dy
    c_n = t[-1][1]
    scale = x_scale * y_scale

    # T = sum_v K_(n-v) v X_v Y_v / (c_n Dx Dy)
    s_t = sum(map(mul, kernel[1:], map(mul, terms, ys)))
    # |D lambda_v| Dy, and L A_v w_v = e_v / (f_v Dx) summed over the lcm M
    # of the f_v: T1 = s_num / (M c_n Dx Dy)
    dlam = [abs(d) for d in map(sub, ys, ys[1:])]
    aw = [(c * r, s) for (_, c), (r, s) in zip(t[:-1], w)]
    m_scale = math.lcm(*[f for _, f in aw])
    s_num = sum([e * (m_scale // f) * d for (e, f), d in zip(aw, dlam)])
    # T2 = |lambda_n| w_n
    w_r, w_s = w[-1]
    lam_w = abs(ys[-1]) * w_r
    # |T| <= T1 + T2, both sides times c_n M w_s Dx Dy > 0
    holds = abs(s_t) * m_scale * w_s <= s_num * w_s + lam_w * c_n * m_scale

    if k > 1.0 and n > 1:
        kp = k / (k - 1.0)
        dl = [d / y_scale for d in dlam]
        aw_scale = k_scale * x_scale
        u = [e / (f * aw_scale) * x ** (1.0 / k) for (e, f), x in zip(aw, dl)]
        g = [x ** (1.0 / kp) for x in dl]
        holder_lhs = math.fsum(ui * gi for ui, gi in zip(u, g))
        holder_rhs = (math.fsum(ui ** k for ui in u) ** (1.0 / k)
                      * math.fsum(gi ** kp for gi in g) ** (1.0 / kp))
    else:
        holder_lhs = s_num / (m_scale * k_scale * scale)  # T1 A_n
        holder_rhs = holder_lhs
    return ((s_t, c_n * scale), (s_num, m_scale * c_n * scale),
            (lam_w, w_s * scale), holds, holder_lhs, holder_rhs,
            holder_lhs <= holder_rhs * (1.0 + 1e-12))


def power_inequality_check(x: float, y: float, k: float) -> bool:
    """|x + y|^k <= 2^k (|x|^k + |y|^k) for finite x, y and k >= 1.

    Compared as (|x + y| / 2)^k <= |x|^k + |y|^k on x and y scaled by the
    power of two that puts max(|x|, |y|) in [1/2, 1): every base is below
    1, so no power overflows, and the left base is at most max(|x|, |y|),
    so a power underflowing to zero cannot reverse the verdict.
    """
    _reals(x=x, y=y, k=k)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(k)):
        raise ValueError("x, y and k must be finite")
    if k < 1.0:
        raise ValueError("k must be at least 1")
    e = math.frexp(max(abs(x), abs(y)))[1]
    x, y = math.ldexp(x, -e), math.ldexp(y, -e)
    return (abs(x + y) / 2.0) ** k <= abs(x) ** k + abs(y) ** k


@dataclass(frozen=True)
class OracleSuiteReport:
    check: str
    trials: int
    violations: int
    first_violation_input: dict | None
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


# every rational the suites draw: Fraction(p, q) at index 9 p + q + 80 for
# p in -9..9 and q in 1..9 (Fraction(p) at 9 p + 81), and in _NUM its
# numerator over lcm(1..9)
_DRAWS = tuple([Fraction(p, q) for p in range(-9, 10) for q in range(1, 10)])
_SCALE = 2520
_NUM = tuple([p * (_SCALE // q) for p in range(-9, 10) for q in range(1, 10)])


def _below(bits, width: int) -> int:
    """rng.randrange(width), width >= 1, from ``bits = rng.getrandbits``
    as CPython's ``Random._randbelow`` calls it: getrandbits(k), k =
    width.bit_length(), until a draw is below width.  So randint(a, b) is
    ``a + _below(bits, b - a + 1)`` and choice(seq) is
    ``seq[_below(bits, len(seq))]``, to the generator state."""
    k = width.bit_length()
    r = bits(k)
    while r >= width:
        r = bits(k)
    return r


def _random_numerator(bits) -> int:
    """2520 Fraction(randint(-9, 9), randint(1, 9)), from rng.getrandbits."""
    # 9 (p + 9) + (q - 1) = 9 p + q + 80
    return _NUM[9 * _below(bits, 19) + _below(bits, 9)]


def _strs(numerators: list[int]) -> list[str]:
    return [str(Fraction(x, _SCALE)) for x in numerators]


def _integers(**named) -> None:
    """Refuse an argument that is not an int (a bool is refused too)."""
    for name, value in named.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _reals(**named) -> None:
    """Refuse an argument that is not a real number (a bool is refused too),
    or one too large for a float."""
    for name, value in named.items():
        if type(value) is not float and (
                type(value) is bool or not isinstance(value, numbers.Real)):
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} must be a number that a float "
                             "holds") from None


def _check_seed(seed) -> None:
    """Refuse a seed that is not an int in 0..2**64 - 1."""
    if type(seed) is not int or not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be an integer in 0..2**64 - 1, "
                         f"got {seed!r}")


def _run_suite(check: str, seed: int, trials: int,
               trial) -> OracleSuiteReport:
    """Run ``trial`` ``trials`` times on one generator seeded with ``seed``.

    A trial draws its input and returns None when the statement holds, else
    the input as JSON (Fractions as ``str``, floats as drawn); the report
    keeps the first.
    """
    _check_seed(seed)
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    rng = random.Random(seed)
    violations = 0
    first_input = None
    for _ in range(trials):
        failed = trial(rng)
        if failed is not None:
            violations += 1
            if first_input is None:
                first_input = failed
    return OracleSuiteReport(check, trials, violations, first_input, seed)


def run_abel_suite(seed: int, trials: int = 200) -> OracleSuiteReport:
    """Random integer sequences; the rearrangement must hold exactly."""
    alphas = (Fraction(1, 4), Fraction(1, 2), Fraction(1))

    def trial(rng):
        bits = rng.getrandbits
        n = 1 + _below(bits, 20)
        # Fraction(randint(-9, 9)) sits at 9 (p + 9)
        a = RationalSequence(1, [_DRAWS[9 * _below(bits, 19)]
                                 for _ in range(n)])
        lam = RationalSequence(1, [_DRAWS[9 * _below(bits, 19)]
                                   for _ in range(n)])
        alpha = alphas[_below(bits, len(alphas))]
        if abel_identity_check(a, lam, alpha, n).equal:
            return None
        return {"a": list(map(str, a.values)),
                "lambda": list(map(str, lam.values)),
                "alpha": str(alpha), "n": n}

    return _run_suite("abel_identity", seed, trials, trial)


def run_lemma1_suite(seed: int, trials: int = 10_000) -> OracleSuiteReport:
    """Random rational sequences against the kernel maximal bound.

    The index-0 term is zero: the theorem applies the bound only to (p a_p),
    which vanishes at p = 0, and with a free a_0 it fails (a_0 = -8/3,
    a_1 = 1, alpha = 1/2, n = 2, v = 1 give 1/2 on the left, 1/3 on the
    right).
    """
    def trial(rng):
        bits = rng.getrandbits
        n = 1 + _below(bits, 12)
        v = 1 + _below(bits, n)
        xs = [0] + [_random_numerator(bits) for _ in range(v)]
        alpha = _ALPHA_POOL[_below(bits, len(_ALPHA_POOL))]
        kernel, _ = _kernel_integers(*alpha.as_integer_ratio(), n)
        if _lemma1(kernel, n, xs)[0]:
            return None
        return {"a": _strs(xs), "alpha": str(alpha), "n": n, "v": v}

    return _run_suite("lemma1_bound", seed, trials, trial)


def run_decomposition_suite(seed: int,
                            trials: int = 1000) -> OracleSuiteReport:
    """Random rational inputs against the exact two-term bound."""
    def trial(rng):
        bits = rng.getrandbits
        n = 1 + _below(bits, 15)
        xs = [_random_numerator(bits) for _ in range(n)]
        ys = [_random_numerator(bits) for _ in range(n)]
        alpha = _ALPHA_POOL[_below(bits, len(_ALPHA_POOL))]
        kernel, scale = _kernel_integers(*alpha.as_integer_ratio(), n)
        *_, holds, _, _, holder_holds = _decomposition(
            kernel, scale, xs, _SCALE, ys, _SCALE, 2.0)
        if holds and holder_holds:
            return None
        return {"a": _strs(xs), "lambda": _strs(ys), "alpha": str(alpha),
                "n": n}

    return _run_suite("decomposition_bound", seed, trials, trial)


def run_power_inequality_suite(seed: int,
                               trials: int = 10_000) -> OracleSuiteReport:
    def trial(rng):
        u = rng.random
        x = -10.0 + 20.0 * u()
        y = -10.0 + 20.0 * u()
        k = 1.0 + 3.0 * u()
        if power_inequality_check(x, y, k):
            return None
        return {"x": x, "y": y, "k": k}

    return _run_suite("power_inequality", seed, trials, trial)


def run_all_suites(seed: int, trials: int | None = None) -> list[OracleSuiteReport]:
    """All four suites, suite i at seed + 1000003*i modulo 2**64; ``trials``,
    if given, overrides every suite's trial count."""
    _check_seed(seed)
    kw = {} if trials is None else {"trials": trials}
    suites = (run_abel_suite, run_lemma1_suite, run_decomposition_suite,
              run_power_inequality_suite)
    return [suite((seed + 1000003 * i) % 2 ** 64, **kw)
            for i, suite in enumerate(suites)]
