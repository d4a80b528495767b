"""Test-side drivers of the private pieces that the checker's pass runs,
for tests that check one piece against a reference: a record builder sent
the pass's blocks of aligned values, ``_SampledSums`` pushed blocks of
terms, a weight's |phi| read as one block; and the two term forms of each
named weight, which the reduction identities compare."""

from types import SimpleNamespace
from unittest import mock

import numpy as np

from summa import accumulation, checker
from summa.accumulation import compensated_cumsum
from summa.checker import Tolerances, _Block
from summa.functionals import WeightKind, WeightSpec
from summa.sequences import CesaroParams


def drive(build, *, block=None, params=None, tolerances=None, **roles):
    """The record that the record builder ``build`` returns when sent
    ``roles``, aligned arrays from index 1 named by their ``_Block`` field
    (X, phi, Q, delta), in blocks of ``block`` values (one block when None),
    each with its window from the two values before it, as the pass sends
    them: until the builder returns, which it may do before the blocks end.
    The builder reads a stand-in context: the bundle's length n, ``params``
    and ``tolerances`` (``CesaroParams()`` and ``Tolerances()`` when None),
    which may be any object with the fields the builder reads, so that a
    test can give it values that those classes refuse."""
    size = len(next(iter(roles.values())))
    ctx = SimpleNamespace(
        bundle=SimpleNamespace(n=size, params=params or CesaroParams()),
        tol=tolerances or Tolerances())
    n = np.arange(1.0, size + 1.0)
    block = block or max(size, 1)
    fields = dict.fromkeys(("phi", "a", "lam", "X"))
    builder = build(ctx, "record")
    next(builder)
    try:
        for lo in range(0, size, block):
            hi, start = min(lo + block, size), max(lo - 2, 0)
            window = _Block(start, hi, n[start:hi],
                            **{**fields, **{name: v[start:hi]
                                            for name, v in roles.items()}})
            builder.send(_Block(lo, hi, *(None if v is None
                                          else v[lo - start:]
                                          for v in window[2:-1]), window))
        builder.send(None)
    except StopIteration as done:
        return done.value
    raise AssertionError("the builder did not return its record")


def notes(record):
    """The name=value words of a record's notes, values as text."""
    return dict(word.split("=", 1) for word in record.notes.split()
                if "=" in word)


def full_notes():
    """While entered, records write the floats of their notes that
    ``checker._fmt`` formats (inf_ratio, trend_ratio) as ``repr``, every
    bit, for a test to read back."""
    return mock.patch.object(checker, "_fmt", repr)


def monotone_partials(terms, checkpoints):
    """The compensated prefix sums of ``terms`` at the checkpoints, through
    a running max over them: what a sampled trace must reproduce bit for
    bit."""
    cps = np.asarray(checkpoints) - 1
    return np.maximum.accumulate(compensated_cumsum(terms)[cps])


def sampled_sums(terms, checkpoints):
    """What ``_SampledSums`` holds once ``terms`` are pushed in blocks of
    ``accumulation._BLOCK``: the compensated sum of the first c terms for
    each checkpoint c."""
    sums = accumulation._SampledSums(checkpoints)
    terms = np.asarray(terms, dtype=np.float64)
    assert sums.stop <= terms.size, "a checkpoint lies past the terms"
    size = accumulation._BLOCK
    for lo in range(0, terms.size, size):
        sums.push(terms[lo:lo + size])
    return sums.sums


def phi_of(spec, n_max, k, beta_default=0.0):
    """|phi_n| for n = 1..n_max as the checker's pass reads it: refused if
    an explicit phi stops short, else one block."""
    spec._require(n_max)
    return spec._phi_block(0, np.arange(1.0, n_max + 1.0), k, beta_default)


def reduced_terms(t, k, beta):
    """The phi-form terms n^(-k) |phi_n t_n|^k of the classic and of the
    indexed weight, each next to its reduced form: n^(-1) |t_n|^k and
    n^(beta k - 1) |t_n|^k."""
    n = np.arange(1.0, t.size + 1.0)
    tm = np.abs(t)
    classic = phi_of(WeightSpec(kind=WeightKind.CLASSIC), t.size, k)
    indexed = phi_of(WeightSpec(kind=WeightKind.INDEXED, beta=beta), t.size,
                     k)
    return ((np.power(classic * tm / n, k), np.power(tm, k) / n),
            (np.power(indexed * tm / n, k),
             np.power(n, beta * k - 1.0) * np.power(tm, k)))


def max_rel_deviation(x, y):
    """The largest relative gap between x and y where either is non-zero."""
    scale = np.maximum(np.abs(x), np.abs(y))
    mask = scale > 0.0
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(x - y)[mask] / scale[mask]))
