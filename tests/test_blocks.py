"""A check reads its bundle a block at a time: the blocks must be the whole
arrays' bits, and the memory a check holds must not grow with n.

Generating a sequence by blocks gives the same bits as generating it whole
because every family generator, ``default_majorant`` and the weights are
elementwise in the index, and numpy's elementwise functions (``np.log``,
``np.power``, ``np.exp``) give the same bits for an element whatever the
length of the array it sits in.  The tests below pin that, as
``test_accumulation.py`` pins ``np.add.accumulate``.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from summa import accumulation
from summa.accumulation import _BLOCK
from summa.checker import (FamilyBundle, _quasi_monotone, check_main_theorem,
                           check_theorem_a, conclusion_diagnostic)
from summa.experiment import builtin_family, default_majorant
from summa.functionals import WeightKind, WeightSpec
from summa.sequences import (FAMILIES, CesaroParams, RealSequence,
                             SequenceSpec, _generated, materialize)

from helpers import drive, full_notes, notes, phi_of

N = 2 * _BLOCK + 3


def partitions(n):
    """Block boundaries: blocks of 1 (over the first 4096 values and around
    _BLOCK), 7, 1000 and _BLOCK values, and cuts on either side of
    _BLOCK."""
    yield [*range(4097), *range(_BLOCK - 64, _BLOCK + 64), n]
    for size in (7, 1000, _BLOCK):
        yield list(range(0, n, size)) + [n]
    yield [0, _BLOCK - 1, _BLOCK + 1, n]


def assert_blocks_match(make, whole):
    for cuts in partitions(whole.size):
        got = np.concatenate([make(lo, hi) for lo, hi in zip(cuts, cuts[1:])])
        assert got.tobytes() == whole.tobytes(), cuts[1]


# every family, with representative parameters (q = 67.5 overflows late)
FAMILY_CASES = [
    ("alternating_unit", {}), ("unit_tail", {}), ("log_shift", {}),
    ("reciprocal_log", {}), ("almost_inc_example", {}),
    ("power_decay", {"p": 2.0, "c0": 2.0}), ("power_decay", {"p": 1.5}),
    ("power_decay", {"p": -1.0, "c": 3.0, "c0": 0.5}),
    ("power_weight", {"q": 0.5}), ("power_weight", {"q": -1.0}),
    ("power_weight", {"q": 67.5}),
]


def test_cases_cover_every_family():
    assert {family for family, _ in FAMILY_CASES} == set(FAMILIES)


@pytest.mark.parametrize("family, params, start", [
    (family, params, start) for family, params in FAMILY_CASES
    for start in (0, 1) if params.get("q", 0.0) >= 0.0 or start])
def test_family_blocks_match_whole(family, params, start):
    spec = SequenceSpec(family=family, n=N, params=params, start=start)
    gen, _ = FAMILIES[family]
    with np.errstate(all="ignore"):
        whole = gen(np.arange(start, start + N, dtype=np.int64),
                    spec.resolved_params())
    seq = _generated(spec)
    assert_blocks_match(seq._block, whole)
    if np.isfinite(whole).all():
        assert seq.values.tobytes() == materialize(spec).values.tobytes()


@pytest.mark.parametrize("family, params", [
    ("power_decay", {"p": 2.0, "c0": 2.0}), ("unit_tail", {}),
    ("reciprocal_log", {})])
def test_default_majorant_blocks_match_whole(family, params):
    lam = materialize(SequenceSpec(family=family, n=N + 1, params=params,
                                   start=1))
    # the whole-array formula: |D lambda_n| + (n + 1)^-3
    dlam = lam.values[:-1] - lam.values[1:]
    whole = np.abs(dlam) + np.power(np.arange(1, N + 1) + 1.0, -3.0)
    assert_blocks_match(default_majorant(lam)._block, whole)
    lazy = _generated(SequenceSpec(family=family, n=N + 1, params=params,
                                   start=1))
    assert_blocks_match(default_majorant(lazy)._block, whole)


@pytest.mark.parametrize("weight, exponent", [
    (WeightSpec(kind=WeightKind.CLASSIC), 1.0 - 1.0 / 1.5),
    (WeightSpec(kind=WeightKind.INDEXED, beta=0.7), 0.7 + 1.0 - 1.0 / 1.5),
    (WeightSpec(kind=WeightKind.INDEXED), 0.25 + 1.0 - 1.0 / 1.5),
])
def test_power_weight_phi_blocks_match_whole(weight, exponent):
    whole = np.power(np.arange(1.0, N + 1.0), exponent)
    assert phi_of(weight, N, 1.5, beta_default=0.25).tobytes() \
        == whole.tobytes()
    assert_blocks_match(lambda lo, hi: weight._phi_block(
        lo, np.arange(lo + 1.0, hi + 1.0), 1.5, 0.25), whole)


@pytest.mark.parametrize("start", [0, 1])
def test_explicit_phi_blocks_match_whole(start):
    spec = SequenceSpec(family="power_decay", n=N + 1 - start,
                        params={"p": 0.5, "c": -2.0}, start=start)
    for phi in (materialize(spec), _generated(spec)):
        weight = WeightSpec(kind=WeightKind.EXPLICIT_PHI, phi=phi)
        whole = np.abs(materialize(spec).values[1 - start:])
        assert phi_of(weight, N, 1.5).tobytes() == whole.tobytes()
        assert_blocks_match(lambda lo, hi: weight._phi_block(
            lo, np.arange(lo + 1.0, hi + 1.0), 1.5), whole)


class TestBlockSequence:
    def test_values_made_at_first_read(self):
        tracemalloc.start()
        try:
            bundle = builtin_family("F1", 1 << 22)
            built = tracemalloc.get_traced_memory()[1]
            values = bundle.a.values
            read = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built < 1 << 20  # no n-long array: 32 MiB each
        assert read >= values.nbytes
        assert not values.flags.writeable
        assert bundle.a.values is values

    def test_non_finite_values_raise_the_sequence_error(self):
        seq = _generated(SequenceSpec(family="power_weight", n=64,
                                      params={"q": 180.0}, start=1),
                         error=lambda message: KeyError(message))
        assert np.isinf(seq._block(60, 64)).all()
        with pytest.raises(KeyError, match="must be finite"):
            seq.values

    def test_domain_error_raised_when_made(self):
        spec = SequenceSpec(family="power_decay", n=64,
                            params={"p": 1.0, "c0": -1.0}, start=1)
        with pytest.raises(ValueError, match="n \\+ c0 > 0"):
            _generated(spec)

    def test_builtin_bundle_matches_whole_arrays(self):
        bundle = builtin_family("F1", 100)
        lam_ext = materialize(SequenceSpec(family="power_decay", n=101,
                                           params={"p": 2.0, "c0": 2.0},
                                           start=1))
        assert bundle.lam.values.tobytes() == lam_ext.values[:100].tobytes()
        dlam = np.abs(lam_ext.values[:-1] - lam_ext.values[1:])
        assert bundle.Q.values.tobytes() == (
            dlam + np.power(np.arange(1, 101) + 1.0, -3.0)).tobytes()
        assert isinstance(bundle.Q, RealSequence)


def traced_peak(family, n):
    """tracemalloc peak of one check of a builtin bundle and its conclusion."""
    bundle = builtin_family(family, n)
    check = check_theorem_a if family == "F2" else check_main_theorem
    tracemalloc.start()
    try:
        check(bundle)
        conclusion_diagnostic(bundle)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", ["F1", "F2", "F3"])
def test_check_memory_does_not_grow_with_n(family):
    # the pass holds O(block) memory: 16 times the indices, not a MiB more
    small, large = traced_peak(family, 1 << 18), traced_peak(family, 1 << 22)
    assert large - small < 1 << 20, (small, large)


REPO = Path(__file__).resolve().parents[1]

_VMHWM = """
import json, sys
from summa.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as f:
    hwm = next(line for line in f if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "kib": int(hwm.split()[1])}))
"""


@pytest.mark.slow
@pytest.mark.parametrize("family, code", [("F1", 0), ("F3", 0)])
def test_cli_at_ten_million_under_100_mib(tmp_path, family, code):
    # F3 exits 0 at this n: the known cond7 slope defect, not a pass
    config = tmp_path / "config.json"
    config.write_text(f'{{"mode": "check_main", "family": "{family}", '
                      f'"n": 10000000}}')
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _VMHWM, "run", str(config), "--out",
         str(tmp_path / "out"), "--quiet"],
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["code"] == code
    assert result["kib"] < 100 * 1024, result


def _bundle_with_violations(n):
    """A main-theorem bundle whose element-wise records fail part way in:
    X dips, |D lambda| beats Q, Q rises past delta, Q turns negative and
    the weight term rises, each at its own index."""
    idx = np.arange(1.0, n + 1.0)
    X = np.log(idx + 2.0)
    X[19] *= 0.5
    lam = np.power(idx + 2.0, -2.0)
    Q = np.abs(lam - np.append(lam[1:], 0.0)) + np.power(idx + 1.0, -3.0)
    Q[36] = 1e-12
    Q[40] = Q[39] + 1.0
    Q[n // 2] = -Q[n // 2]
    phi = np.power(idx, 1.0 - 1.0 / 1.5)
    phi[n - 3] *= 1.5
    seq = lambda values: RealSequence(1, values)  # noqa: E731
    return FamilyBundle(label="violations", a=seq(np.cos(idx)),
                        lam=seq(lam), X=seq(X), Q=seq(Q),
                        delta=seq(np.power(idx + 1.0, -1.5)),
                        weight=WeightSpec(kind=WeightKind.EXPLICIT_PHI,
                                          phi=seq(phi)),
                        params=CesaroParams(alpha=1.0, k=1.5))


def _reports(bundle, check):
    report = check(bundle)
    trace, conclusion = conclusion_diagnostic(bundle)
    traces = {name: (t.partial_sums.tobytes(),
                     None if t.reference is None else t.reference.tobytes())
              for name, t in {**report.traces, "conclusion": trace}.items()}
    return report.to_json(), conclusion.to_json(), traces


@pytest.mark.parametrize("block", [1, 2, 3, 8, 100])
def test_records_do_not_depend_on_the_block_size(monkeypatch, block):
    # the pass's windows and carried state (running maxima, first
    # violations, sampled sums, pairwise leaves) join blocks seamlessly
    n = 3 * 100 + 7
    bundle = _bundle_with_violations(n)
    whole = _reports(bundle, check_main_theorem)
    first = {r["condition"]: r["first_violation"]
             for r in whole[0]["records"]}
    assert first["X_class"] is None  # almost increasing: a ratio, no index
    assert first["majorant"] == 37 and first["quasi_monotone"] == 40
    assert first["weight_monotone"] == n - 3
    theorem_a = dataclasses.replace(bundle, Q=None, delta=None)
    whole_a = _reports(theorem_a, check_theorem_a)
    assert next(r["first_violation"] for r in whole_a[0]["records"]
                if r["condition"] == "X_class") == 20
    monkeypatch.setattr(accumulation, "_BLOCK", block)
    assert _reports(_bundle_with_violations(n), check_main_theorem) == whole
    assert _reports(dataclasses.replace(_bundle_with_violations(n), Q=None,
                                        delta=None), check_theorem_a) \
        == whole_a


def _bundle_with_violations_at(n, p):
    """A main-theorem bundle whose element-wise records first fail at
    index p: X dips, |D lambda| beats Q, Q rises past delta and the weight
    term rises there, and lambda_p is raised so that D^2 lambda is large
    at p - 2..p."""
    idx = np.arange(1.0, n + 1.0)
    X = np.log(idx + 2.0)
    X[p - 1] *= 0.5
    lam = np.power(idx + 2.0, -2.0)
    lam[p - 1] += 1e-4
    Q = np.abs(lam - np.append(lam[1:], 0.0)) + np.power(idx + 1.0, -3.0)
    Q[p - 1] = 1e-12
    Q[p] = Q[p - 1] + 1.0
    phi = np.power(idx, 1.0 - 1.0 / 1.5)
    phi[p] *= 1.5
    seq = lambda values: RealSequence(1, values)  # noqa: E731
    return FamilyBundle(label="seam", a=seq(np.cos(idx)), lam=seq(lam),
                        X=seq(X), Q=seq(Q),
                        delta=seq(np.power(idx + 1.0, -1.5)),
                        weight=WeightSpec(kind=WeightKind.EXPLICIT_PHI,
                                          phi=seq(phi)),
                        params=CesaroParams(alpha=1.0, k=1.5))


@pytest.mark.parametrize("p", [99, 100, 101])
def test_violations_at_a_window_seam(monkeypatch, p):
    # with blocks of 100, the block of indices 101..200 is read with 99 and
    # 100 before it: a violation on either window value or on the block's
    # first index is found once, at its own index
    n = 3 * 100 + 7
    main = _reports(_bundle_with_violations_at(n, p), check_main_theorem)
    first = {r["condition"]: r["first_violation"] for r in main[0]["records"]}
    assert (first["majorant"], first["quasi_monotone"],
            first["weight_monotone"]) == (p, p, p)
    theorem_a = dataclasses.replace(_bundle_with_violations_at(n, p),
                                    Q=None, delta=None)
    whole_a = _reports(theorem_a, check_theorem_a)
    first = {r["condition"]: r["first_violation"]
             for r in whole_a[0]["records"]}
    assert (first["X_class"], first["weight_monotone"]) == (p, p)
    monkeypatch.setattr(accumulation, "_BLOCK", 100)
    assert _reports(_bundle_with_violations_at(n, p),
                    check_main_theorem) == main
    assert _reports(dataclasses.replace(_bundle_with_violations_at(n, p),
                                        Q=None, delta=None),
                    check_theorem_a) == whole_a


@pytest.mark.parametrize("size", [1000, _BLOCK])
def test_quasi_monotone_trend_over_pairwise_leaves(size):
    # quarters longer than a pairwise leaf: np.mean's bits from blocks
    n = 4 * _BLOCK + 4099
    rng = np.random.default_rng(7)
    b = rng.standard_normal(n) * np.power(np.arange(1.0, n + 1.0), -0.5)
    delta = np.full(n, 10.0)
    quarter = n // 4
    expect = (float(np.mean(np.abs(b[-quarter:])))
              / float(np.mean(np.abs(b[:quarter]))))
    # blocks as the pass sends them: the means read each block, never the
    # two values its window repeats
    with full_notes():
        record = drive(_quasi_monotone, Q=b, delta=delta, block=size)
    assert float(notes(record)["trend_ratio"]) == expect
