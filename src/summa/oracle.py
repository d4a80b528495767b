"""Exact rational verification of the proof-step identities and bounds.

The float engine can only ever show approximate agreement; this module
reruns the algebra that the factor-theorem proof leans on in exact
``fractions.Fraction`` arithmetic, where an identity either holds
bit-for-bit or is refuted by a concrete counterexample:

  * the summation-by-parts rearrangement of the factored mean
    T_n = (1/A_n) sum_(v=1..n) A_(n-v)^(alpha-1) v a_v lambda_v,
  * the kernel bound |sum_(p=0..v) A_(n-p)^(alpha-1) a_p|
        <= max_(1<=m<=v) |sum_(p=0..m) A_(m-p)^(alpha-1) a_p|
    for 0 < alpha <= 1,
  * the two-term decomposition |T_n| <= T_n1 + T_n2 built from the maximal
    sequence w and |D lambda|,
  * the elementary power bound |x + y|^k <= 2^k (|x|^k + |y|^k).

Randomized suites hammer each statement over seeded input distributions
and report violation counts; a correct implementation reports zero.

Exactness contract: the API takes and returns ``Fraction`` values, but the
inner sums run over Python integers.  Each kernel table A_j^(alpha-1) is
kept as integer numerators K_j over the lcm L of its denominators, each
input sequence as integer numerators over the lcm of its denominators, so
an inner sum is one integer dot product and every returned rational is
built once, by ``Fraction(numerator, denominator)``.  It is the same
rational that step-by-step ``Fraction`` arithmetic gives, and every
comparison is made between integers over one positive common denominator,
so every verdict is the same as well.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from operator import mul, sub

__all__ = [
    "RationalSequence",
    "rational_cesaro_coefficients",
    "rational_cesaro_t",
    "AbelIdentityResult",
    "abel_identity_check",
    "LemmaBoundResult",
    "lemma1_check",
    "DecompositionResult",
    "decomposition_bound_check",
    "power_inequality_check",
    "OracleSuiteReport",
    "run_abel_suite",
    "run_lemma1_suite",
    "run_decomposition_suite",
    "run_power_inequality_suite",
    "run_all_suites",
]

# alpha values the randomized suites draw from; all in (0, 1] as the lemma
# and decomposition require
_ALPHA_POOL = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
               Fraction(2, 3), Fraction(3, 4), Fraction(1))


@dataclass(frozen=True)
class RationalSequence:
    """Exact analogue of RealSequence: a tuple of Fractions with a start index."""

    start_index: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.start_index, int) or self.start_index < 0:
            raise ValueError("start_index must be a non-negative integer")
        vals = tuple([v if type(v) is Fraction else Fraction(v)
                      for v in self.values])
        if len(vals) == 0:
            raise ValueError("values must be non-empty")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end_index(self) -> int:
        return self.start_index + len(self.values) - 1

    def value_at(self, n: int) -> Fraction:
        if n < self.start_index or n > self.end_index:
            raise IndexError(f"index {n} outside stored range "
                             f"[{self.start_index}, {self.end_index}]")
        return self.values[n - self.start_index]


@functools.lru_cache(maxsize=None)
def _weights_cached(order: Fraction, n_max: int) -> tuple[Fraction, ...]:
    out = [Fraction(1)]
    for j in range(1, n_max + 1):
        out.append(out[-1] * (order + j) / j)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _kernel_integers(order: Fraction, n_max: int) -> tuple[tuple[int, ...], int]:
    """Integers K_j and a scale L with A_j^order = K_j / L for j <= n_max."""
    weights = _weights_cached(order, n_max)
    scale = math.lcm(*[w.denominator for w in weights])
    return tuple(w.numerator * (scale // w.denominator) for w in weights), scale


def _scaled_integers(values) -> tuple[list[int], int]:
    """Integers X_i and a scale D with values[i] = X_i / D."""
    # lists rather than generators here, in the hot tuples below and in the
    # suites' random inputs: CPython allocates a tuple built from a generator
    # at a guessed size and resizes it, so every such tuple freed stays on a
    # free list of its final size, which over an oracle run adds up to half a
    # MiB of peak memory
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _covering(seq: RationalSequence, n: int) -> tuple[Fraction, ...]:
    """Values at indices 1..n of a sequence starting at index 0 or 1."""
    return seq.values[1 - seq.start_index:n + 1 - seq.start_index]


def rational_cesaro_coefficients(alpha: Fraction, n_max: int) -> tuple[Fraction, ...]:
    """Exact A_0^alpha .. A_n_max^alpha; alpha must be a rational > -1."""
    alpha = Fraction(alpha)
    if alpha <= -1:
        raise ValueError("alpha must exceed -1")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    return _weights_cached(alpha, n_max)


def rational_cesaro_t(a: RationalSequence, alpha: Fraction, n: int) -> tuple[Fraction, ...]:
    """Exact t_1^alpha .. t_n^alpha of a; a must cover indices 1..n."""
    alpha = Fraction(alpha)
    if alpha <= -1:
        raise ValueError("alpha must exceed -1")
    if n < 1:
        raise ValueError("n must be at least 1")
    if a.start_index > 1 or a.end_index < n:
        raise ValueError(f"a must cover indices 1..{n}")
    kernel, scale = _kernel_integers(alpha - 1, n - 1)
    xs, x_scale = _scaled_integers(_covering(a, n))
    terms = [v * x for v, x in enumerate(xs, start=1)]
    scale *= x_scale
    # t_m = (acc_m / scale) / (p_m / q_m) with A_m^alpha = p_m / q_m > 0
    coeffs = rational_cesaro_coefficients(alpha, n)
    return tuple([Fraction(sum(map(mul, kernel[m - 1::-1], terms))
                           * coeffs[m].denominator,
                           scale * coeffs[m].numerator)
                  for m in range(1, n + 1)])


def _w_exact(t: tuple[Fraction, ...], alpha: Fraction) -> tuple[Fraction, ...]:
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
    alpha = Fraction(alpha)
    if alpha <= -1:
        raise ValueError("alpha must exceed -1")
    if n < 1:
        raise ValueError("n must be at least 1")
    if a.start_index > 1 or a.end_index < n:
        raise ValueError(f"a must cover indices 1..{n}")
    if lam.start_index > 1 or lam.end_index < n:
        raise ValueError(f"lambda must cover indices 1..{n}")
    kernel, scale = _kernel_integers(alpha - 1, n - 1)
    xs, x_scale = _scaled_integers(_covering(a, n))
    ys, y_scale = _scaled_integers(_covering(lam, n))
    # everything below is scaled by L * Dx * Dy; U_v by L * Dx only
    weighted = list(map(mul, kernel[n - 1::-1],
                        [v * x for v, x in enumerate(xs, start=1)]))
    lhs = sum(map(mul, weighted, ys))
    u = list(itertools.accumulate(weighted))
    rhs = sum(map(mul, map(sub, ys, ys[1:]), u)) + ys[-1] * u[-1]
    scale *= x_scale * y_scale
    return AbelIdentityResult(equal=(lhs == rhs), lhs=Fraction(lhs, scale),
                              rhs=Fraction(rhs, scale))


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
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("the bound requires 0 < alpha <= 1")
    if not (1 <= v <= n):
        raise ValueError("need 1 <= v <= n")
    if a.start_index > 0 or a.end_index < v:
        raise ValueError(f"a must cover indices 0..{v}")
    kernel, scale = _kernel_integers(alpha - 1, n)
    xs, x_scale = _scaled_integers(a.values[:v + 1])
    # both sides over the positive scale L * Dx: compare the numerators
    lhs = abs(sum(map(mul, kernel[n - v:n + 1][::-1], xs)))
    rhs = max(abs(sum(map(mul, kernel[m::-1], xs))) for m in range(1, v + 1))
    scale *= x_scale
    return LemmaBoundResult(holds=(lhs <= rhs), lhs=Fraction(lhs, scale),
                            rhs=Fraction(rhs, scale))


@dataclass(frozen=True)
class DecompositionResult:
    """Exact two-term bound on the factored mean, plus a finite Hoelder check.

    T is the factored mean itself; T1 and T2 are the maximal-sequence
    bounds on its two summation-by-parts pieces.  The Hoelder fields verify
    sum u_v g_v <= (sum u_v^k)^(1/k) (sum g_v^k')^(1/k') in floating point
    for the split u_v = A_v w_v |D lambda_v|^(1/k), g_v = |D lambda_v|^(1/k')
    actually used to estimate T1.
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
    kernel, scale = _kernel_integers(alpha - 1, n - 1)
    t = rational_cesaro_t(a, alpha, n)
    w = _w_exact(t, alpha)
    xs, x_scale = _scaled_integers(_covering(a, n))
    ys, y_scale = _scaled_integers(_covering(lam, n))
    a_n = coeffs[n]

    T = Fraction(sum(map(mul, kernel[n - 1::-1],
                         [v * x * y for v, (x, y)
                          in enumerate(zip(xs, ys), start=1)]))
                 * a_n.denominator,
                 scale * x_scale * y_scale * a_n.numerator)

    # |D lambda_v| * Dy and A_v w_v over one scale M: T1 * A_n = S / (M * Dy)
    dlam = [abs(d) for d in map(sub, ys, ys[1:])]
    aw = [coeffs[v] * w[v - 1] for v in range(1, n)]
    aw_ints, aw_scale = _scaled_integers(aw)
    s_num, s_den = sum(map(mul, aw_ints, dlam)), aw_scale * y_scale
    T1 = Fraction(s_num * a_n.denominator, s_den * a_n.numerator)
    T2 = abs(lam.value_at(n)) * w[n - 1]
    holds = abs(T) <= T1 + T2

    # int / int is correctly rounded, so each float equals float() of the
    # same rational
    if k > 1.0 and n > 1:
        kp = k / (k - 1.0)
        dl = [d / y_scale for d in dlam]
        u = [float(c) * x ** (1.0 / k) for c, x in zip(aw, dl)]
        g = [x ** (1.0 / kp) for x in dl]
        holder_lhs = math.fsum(ui * gi for ui, gi in zip(u, g))
        holder_rhs = (math.fsum(ui ** k for ui in u) ** (1.0 / k)
                      * math.fsum(gi ** kp for gi in g) ** (1.0 / kp))
    else:
        holder_lhs = s_num / s_den
        holder_rhs = holder_lhs
    holder_holds = holder_lhs <= holder_rhs * (1.0 + 1e-12)

    return DecompositionResult(T=T, T1=T1, T2=T2, holds=holds,
                               holder_lhs=holder_lhs, holder_rhs=holder_rhs,
                               holder_holds=holder_holds)


def power_inequality_check(x: float, y: float, k: float) -> bool:
    """|x + y|^k <= 2^k (|x|^k + |y|^k) for k >= 1."""
    if k < 1.0:
        raise ValueError("k must be at least 1")
    return abs(x + y) ** k <= 2.0 ** k * (abs(x) ** k + abs(y) ** k)


@dataclass(frozen=True)
class OracleSuiteReport:
    check: str
    trials: int
    violations: int
    first_violation_input: dict | None
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _run_suite(check: str, seed: int, trials: int,
               trial) -> OracleSuiteReport:
    """Run ``trial`` ``trials`` times on one generator seeded with ``seed``.

    A trial draws its input from the generator and returns None when the
    statement holds, else the input as JSON: Fractions as ``str``, floats as
    drawn.  The report keeps the first such input.
    """
    rng = random.Random(seed)
    violations = 0
    first_input = None
    for _ in range(trials):
        failed = trial(rng)
        if failed is not None:
            violations += 1
            if first_input is None:
                first_input = failed
    return OracleSuiteReport(check=check, trials=trials,
                             violations=violations,
                             first_violation_input=first_input, seed=seed)


def run_abel_suite(seed: int, trials: int = 200,
                   max_n: int = 20) -> OracleSuiteReport:
    """Random integer sequences; the rearrangement must hold exactly."""
    alphas = (Fraction(1, 4), Fraction(1, 2), Fraction(1))

    def trial(rng):
        n = rng.randint(1, max_n)
        a = RationalSequence(1, tuple([Fraction(rng.randint(-9, 9))
                                       for _ in range(n)]))
        lam = RationalSequence(1, tuple([Fraction(rng.randint(-9, 9))
                                         for _ in range(n)]))
        alpha = rng.choice(alphas)
        if abel_identity_check(a, lam, alpha, n).equal:
            return None
        return {"a": list(map(str, a.values)),
                "lambda": list(map(str, lam.values)),
                "alpha": str(alpha), "n": n}

    return _run_suite("abel_identity", seed, trials, trial)


def run_lemma1_suite(seed: int, trials: int = 10_000,
                     max_n: int = 12) -> OracleSuiteReport:
    """Random rational sequences against the kernel maximal bound.

    The index-0 term is held at zero: the factor theorem only ever applies
    the bound to sequences of the form (p a_p), which vanish at p = 0, and
    with a free a_0 the inequality is simply false (a_0 = -8/3, a_1 = 1,
    alpha = 1/2, n = 2, v = 1 gives 1/2 on the left, 1/3 on the right).
    """
    def trial(rng):
        n = rng.randint(1, max_n)
        v = rng.randint(1, n)
        a = RationalSequence(0, tuple([Fraction(0)]
                                      + [_random_rational(rng)
                                         for _ in range(v)]))
        alpha = rng.choice(_ALPHA_POOL)
        if lemma1_check(a, alpha, n, v).holds:
            return None
        return {"a": list(map(str, a.values)), "alpha": str(alpha),
                "n": n, "v": v}

    return _run_suite("lemma1_bound", seed, trials, trial)


def run_decomposition_suite(seed: int, trials: int = 1000,
                            max_n: int = 15) -> OracleSuiteReport:
    """Random rational inputs against the exact two-term bound."""
    def trial(rng):
        n = rng.randint(1, max_n)
        a = RationalSequence(1, tuple([_random_rational(rng)
                                       for _ in range(n)]))
        lam = RationalSequence(1, tuple([_random_rational(rng)
                                         for _ in range(n)]))
        alpha = rng.choice(_ALPHA_POOL)
        result = decomposition_bound_check(a, lam, alpha, n)
        if result.holds and result.holder_holds:
            return None
        return {"a": list(map(str, a.values)),
                "lambda": list(map(str, lam.values)),
                "alpha": str(alpha), "n": n}

    return _run_suite("decomposition_bound", seed, trials, trial)


def run_power_inequality_suite(seed: int,
                               trials: int = 10_000) -> OracleSuiteReport:
    def trial(rng):
        x = rng.uniform(-10.0, 10.0)
        y = rng.uniform(-10.0, 10.0)
        k = rng.uniform(1.0, 4.0)
        if power_inequality_check(x, y, k):
            return None
        return {"x": x, "y": y, "k": k}

    return _run_suite("power_inequality", seed, trials, trial)


def run_all_suites(seed: int, trials: int | None = None) -> list[OracleSuiteReport]:
    """All four suites; suite i runs at seed + 1000003*i modulo 2**64.

    ``trials`` overrides every suite's trial count when given (handy for
    smoke runs); None keeps the per-suite defaults.
    """
    kw = {} if trials is None else {"trials": int(trials)}
    suites = (run_abel_suite, run_lemma1_suite, run_decomposition_suite,
              run_power_inequality_suite)
    return [suite((seed + 1000003 * i) % 2 ** 64, **kw)
            for i, suite in enumerate(suites)]
