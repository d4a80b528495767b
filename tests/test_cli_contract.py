"""The command line's error contract, fuzzed over valid and invalid configs.

Whatever the config, ``summa run`` returns 0 (every verdict passed), 1 (a
verdict failed) or 2 (the config cannot be run), and never raises or warns.
Exit 2 prints exactly one ``config error:`` line and writes no report;
exits 0 and 1 print nothing to stderr and write ``report.json``.  The same
holds for the flags: ``--tolerance-slope`` on ``summa run`` and ``--seed``
and ``--trials`` on ``summa oracle``, negative, zero and huge values
included.  Flag values are passed as ``--flag=VALUE``, so that argparse
reads a negative value such as ``-1e-05`` as a value, not as an option.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from summa.cli import main

# scale constants reach 1e306, so products and sums of them overflow
_SCALE = st.one_of(st.floats(-1e306, 1e306),
                   st.sampled_from([1.0, -1.0, 1e306, -1e306]))

_FAMILY_PARAMS = {
    "alternating_unit": st.just({}),
    "unit_tail": st.just({}),
    "log_shift": st.just({}),
    "reciprocal_log": st.just({}),
    "almost_inc_example": st.just({}),
    "power_decay": st.fixed_dictionaries(
        {"p": st.floats(-3.0, 3.0)},
        optional={"c": _SCALE, "c0": st.floats(-2.0, 4.0)}),
    "power_weight": st.fixed_dictionaries(
        {"q": st.one_of(st.floats(-3.0, 3.0), st.floats(100.0, 200.0))}),
}

_ROLE = st.sampled_from(sorted(_FAMILY_PARAMS)).flatmap(
    lambda family: st.fixed_dictionaries(
        {"family": st.just(family), "params": _FAMILY_PARAMS[family]}))

_WEIGHT = st.one_of(
    st.just({"kind": "classic"}),
    st.fixed_dictionaries({"kind": st.just("indexed")},
                          optional={"beta": st.floats(0.0, 3.0)}),
    st.fixed_dictionaries({"kind": st.just("explicit_phi"), "phi": _ROLE}))

_CHECK_MODE = st.sampled_from(["check_main", "check_theorem_a"])

_ALPHA = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(-1.5, 1.5))

_CUSTOM = st.fixed_dictionaries({
    "mode": _CHECK_MODE,
    "n": st.integers(10, 256),
    "bundle": st.fixed_dictionaries(
        {"a": _ROLE, "lambda": _ROLE, "X": _ROLE, "weight": _WEIGHT},
        optional={"Q": _ROLE, "delta": _ROLE}),
    "params": st.fixed_dictionaries(
        {"alpha": _ALPHA, "k": st.floats(1.0, 4.0)},
        optional={"beta": st.floats(0.0, 2.0),
                  "epsilon": st.floats(0.01, 2.0)}),
})

_BUILTIN = st.fixed_dictionaries({
    "mode": _CHECK_MODE,
    "n": st.integers(10, 256),
    "family": st.sampled_from(["F1", "F2", "F3"]),
    "overrides": st.fixed_dictionaries({}, optional={
        "alpha": _ALPHA,
        "k": st.one_of(st.floats(0.5, 4.0), st.sampled_from([400.0, 1e308])),
        "beta": st.floats(-1.0, 2.0),
        "epsilon": st.floats(-0.5, 2.0)}),
})

_DUMP = st.fixed_dictionaries(
    {"mode": st.just("transform_dump"),
     "sequence": st.sampled_from(sorted(_FAMILY_PARAMS)).flatmap(
         lambda family: st.fixed_dictionaries({
             "family": st.just(family),
             "params": _FAMILY_PARAMS[family],
             "n": st.integers(1, 257),
             "start": st.sampled_from([0, 0, 1])}))},
    optional={"params": st.fixed_dictionaries({"alpha": _ALPHA})})

_SLOPE = st.one_of(
    st.none(), st.floats(),
    st.sampled_from([-1.0, 0.0, 5e-324, 1e-300, 0.05, 0.3, 1e308]))

# valid trial counts stay small so that the suites run quickly
_TRIALS = st.one_of(st.integers(-(2 ** 70), 0), st.integers(1, 3),
                    st.integers(1_000_001, 2 ** 70))

_ORACLE = st.fixed_dictionaries({
    "mode": st.just("oracle"),
    "seed": st.integers(0, 2 ** 64 - 1),
    "trials": st.integers(1, 3),
})


def _bundle(**roles):
    base = {"a": {"family": "alternating_unit"},
            "lambda": {"family": "power_decay",
                       "params": {"p": 2.0, "c0": 2.0}},
            "X": {"family": "log_shift"},
            "Q": {"family": "power_decay", "params": {"p": 2.5}},
            "delta": {"family": "power_decay", "params": {"p": 1.5}},
            "weight": {"kind": "classic"}}
    return {**base, **roles}


@settings(derandomize=True, max_examples=120, deadline=None)
@given(config=st.one_of(_CUSTOM, _BUILTIN, _DUMP, _ORACLE), slope=_SLOPE)
# Q_n X_n n overflows, so the series_nQX partial sums are nan
@example(slope=None,
         config={"mode": "check_main", "n": 64, "params": {"k": 1.5},
                 "bundle": _bundle(Q={"family": "power_decay",
                                      "params": {"p": 0, "c": 1e306}})})
# the factored mean a_n lambda_n overflows inside the conclusion's trace
@example(slope=None,
         config={"mode": "check_main", "n": 64, "params": {"k": 1.5},
                 "bundle": _bundle(**{"lambda": {
                     "family": "power_decay",
                     "params": {"p": 0, "c": 1e306}}})})
# v * a_v overflows: the fractional kernel refuses a non-finite term
@example(slope=None,
         config={"mode": "check_main", "n": 16,
                 "params": {"alpha": 0.5, "k": 1.5},
                 "bundle": _bundle(a={"family": "power_decay",
                                      "params": {"p": -1, "c": 1e306}})})
# n^150 overflows while the sequence is generated
@example(slope=None,
         config={"mode": "check_main", "n": 200, "params": {"k": 1.5},
                 "bundle": _bundle(**{"lambda": {
                     "family": "power_weight", "params": {"q": 150}}})})
def test_exit_status_stderr_and_report(config, slope):
    flags = [] if slope is None else [f"--tolerance-slope={slope!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        _assert_contract(["run", str(path), f"--out={out}", *flags], out)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(-(2 ** 70), 2 ** 70), trials=_TRIALS)
# the first refused trial count, which would otherwise run for hours
@example(seed=2 ** 64 - 1, trials=1_000_001)
def test_oracle_flags(seed, trials):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        _assert_contract(["oracle", f"--seed={seed}", f"--trials={trials}",
                          f"--out={out}"], out)


def _assert_contract(argv, out):
    """Run ``summa`` on argv and check the exit status, stderr and the
    report in ``out``."""
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("config error: ")
        assert err.endswith("\n") and err.count("\n") == 1
    else:
        assert err == ""
    assert (out / "report.json").is_file() == (code in (0, 1))
