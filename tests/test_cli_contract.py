"""The command line's error contract, fuzzed over valid and invalid configs.

Whatever the config, ``summa run`` returns 0 (every verdict passed), 1 (a
verdict failed) or 2 (the config cannot be run), and never raises or warns.
Exit 2 prints exactly one ``config error:`` line and leaves no output
directory; exits 0 and 1 print nothing to stderr and write a
``report.json`` that is valid JSON (no ``NaN`` or ``Infinity``).  The same
holds for the flags: ``--tolerance-slope`` on ``summa run`` and ``--seed``
and ``--trials`` on ``summa oracle``, negative, zero and huge values
included, each passed either as ``--flag=VALUE`` or as two argv tokens, so
that a negative value such as ``-1e-05`` must be read as a value, not as an
option.  Malformed flags and values are config errors too.  No config field
takes JSON ``true`` or ``false``, which Python reads as 1 and 0, and no
number field takes a string such as ``"0.5"``, which ``float`` reads as a
number: setting any number field to either is a config error that points
at the field.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
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


def _flag(name, value, joined):
    """``name`` with its value as one argv token or as two."""
    return [f"{name}={value}"] if joined else [name, str(value)]


def _bundle(**roles):
    base = {"a": {"family": "alternating_unit"},
            "lambda": {"family": "power_decay",
                       "params": {"p": 2.0, "c0": 2.0}},
            "X": {"family": "log_shift"},
            "Q": {"family": "power_decay", "params": {"p": 2.5}},
            "delta": {"family": "power_decay", "params": {"p": 1.5}},
            "weight": {"kind": "classic"}}
    return {**base, **roles}


_COND7_OVERFLOW = {
    "mode": "check_theorem_a", "n": 64, "params": {"k": 1.5},
    "bundle": {"a": {"family": "power_decay",
                     "params": {"p": 2, "c": 1e-300}},
               "lambda": {"family": "power_decay",
                          "params": {"p": 0, "c": 1e306}},
               "X": {"family": "power_weight", "params": {"q": 3}},
               "weight": {"kind": "classic"}}}


# n * a_n overflows while a_n does not: the dump's transforms overflow
_DUMP_OVERFLOW = {
    "mode": "transform_dump",
    "sequence": {"family": "power_weight", "params": {"q": 127}, "n": 258,
                 "start": 0}}


# X = n^67.5 first overflows at index 36876, in the pass's third block, while
# cond7 samples X at 40000 only: a role error found late in the pass still
# comes before every record error
_LATE_X = {
    "mode": "check_main", "n": 40000,
    "params": {"alpha": 1, "k": 1.5, "epsilon": 1},
    "bundle": _bundle(**{
        "lambda": {"family": "power_decay", "params": {"p": 2, "c0": 2}},
        "X": {"family": "power_weight", "params": {"q": 67.5}},
        "Q": {"family": "power_decay", "params": {"p": 3}}})}

# a = n^70 overflows in the second block, X in the third: roles are
# reported in bundle order, not in the order the pass finds them
_LATE_A = {**_LATE_X, "bundle": {
    **_LATE_X["bundle"],
    "a": {"family": "power_weight", "params": {"q": 70}}}}


_PHI_WITHOUT_FAMILY = {
    "mode": "check_main", "n": 64, "params": {"k": 1.5},
    "bundle": _bundle(weight={"kind": "explicit_phi", "phi": {}})}


def _number_paths(obj, path=()):
    """Paths to the number fields of a config, in document order."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _number_paths(value, path + (key,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path


@settings(derandomize=True, max_examples=120, deadline=None)
@given(config=st.one_of(_CUSTOM, _BUILTIN, _DUMP, _ORACLE), slope=_SLOPE,
       joined=st.booleans(),
       flip=st.one_of(st.none(), st.tuples(
           st.integers(0, 63),
           st.one_of(st.booleans(), st.sampled_from(["1", "0.5", "-2e3"])))))
# a negative slope in exponent form, as its own token, reaches the validator
@example(flip=None, slope=-1e-05, joined=False,
         config={"mode": "check_main", "family": "F1", "n": 16})
# Q_n X_n n overflows, so the series_nQX partial sums are nan
@example(flip=None, slope=None, joined=True,
         config={"mode": "check_main", "n": 64, "params": {"k": 1.5},
                 "bundle": _bundle(Q={"family": "power_decay",
                                      "params": {"p": 0, "c": 1e306}})})
# the factored mean a_n lambda_n overflows inside the conclusion's trace
@example(flip=None, slope=None, joined=True,
         config={"mode": "check_main", "n": 64, "params": {"k": 1.5},
                 "bundle": _bundle(**{"lambda": {
                     "family": "power_decay",
                     "params": {"p": 0, "c": 1e306}}})})
# v * a_v overflows: the fractional kernel refuses a non-finite term
@example(flip=None, slope=None, joined=True,
         config={"mode": "check_main", "n": 16,
                 "params": {"alpha": 0.5, "k": 1.5},
                 "bundle": _bundle(a={"family": "power_decay",
                                      "params": {"p": -1, "c": 1e306}})})
# |lambda_n| X_n overflows, so cond7 samples inf: a config error that
# names cond7, no NaN
@example(flip=None, slope=None, joined=True, config=_COND7_OVERFLOW)
# phi without a family is refused like a role without one
@example(flip=None, slope=None, joined=True, config=_PHI_WITHOUT_FAMILY)
# a dump whose transforms overflow warns nothing before its config error
@example(flip=None, slope=None, joined=True, config=_DUMP_OVERFLOW)
# roles that overflow late in the range, in one order and the other
@example(flip=None, slope=None, joined=True, config=_LATE_X)
@example(flip=None, slope=None, joined=True, config=_LATE_A)
# n^150 overflows while the sequence is generated
@example(flip=None, slope=None, joined=True,
         config={"mode": "check_main", "n": 200, "params": {"k": 1.5},
                 "bundle": _bundle(**{"lambda": {
                     "family": "power_weight", "params": {"q": 150}}})})
def test_exit_status_stderr_and_report(config, slope, joined, flip):
    flags = [] if slope is None else _flag("--tolerance-slope", repr(slope),
                                           joined)

    def run(config):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            out = Path(tmp) / "out"
            return _assert_contract(["run", str(path), f"--out={out}",
                                     *flags], out)

    err = run(config)
    if config == _COND7_OVERFLOW:
        assert err.startswith("config error: ") and "cond7" in err
    if config == _PHI_WITHOUT_FAMILY:
        assert err == "config error: bundle.weight.phi.family: required\n"
    if config == _DUMP_OVERFLOW:
        assert err == ("config error: sequence: sequence values must be "
                       "finite\n")
    if config in (_LATE_X, _LATE_A):
        role = "X" if config == _LATE_X else "a"
        assert err == (f"config error: bundle.{role}: sequence values must "
                       "be finite\n")
    # one number field set to true, false or a numeric string: the config
    # exits 2 on that field
    paths = list(_number_paths(config))
    if flip is not None and paths:
        index, value = flip
        *parents, key = paths[index % len(paths)]
        flipped = copy.deepcopy(config)
        node = flipped
        for name in parents:
            node = node[name]
        node[key] = value
        pointer = ".".join([*parents, key])
        message = ("must be a number" if isinstance(value, str)
                   else "must not be a boolean")
        assert run(flipped) == f"config error: {pointer}: {message}\n"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(-(2 ** 70), 2 ** 70), trials=_TRIALS,
       joined=st.booleans())
# the first refused trial count, which would otherwise run for hours
@example(seed=2 ** 64 - 1, trials=1_000_001, joined=False)
def test_oracle_flags(seed, trials, joined):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        _assert_contract(["oracle", *_flag("--seed", seed, joined),
                          *_flag("--trials", trials, joined),
                          f"--out={out}"], out)


@pytest.mark.parametrize("args, message", [
    (["run", "{config}", "--tolerance-slope", "-1e-05", "--out={out}"],
     "--tolerance-slope: slope tolerance must be positive"),
    (["run", "{config}", "--tolerance-slope", "-inf", "--out={out}"],
     "--tolerance-slope: slope tolerance must be positive"),
    (["run", "{config}", "--tolerance-slope", "abc", "--out={out}"],
     "summa run: argument --tolerance-slope: invalid float value"),
    (["run", "{config}", "--out={out}", "--tolerance-slope"],
     "summa run: argument --tolerance-slope: expected one argument"),
    (["oracle", "--seed", "abc", "--out={out}"],
     "summa oracle: argument --seed: invalid int value"),
    (["oracle", "--seed", "-1e-05", "--out={out}"],
     "summa oracle: argument --seed: invalid int value"),
    (["oracle", "--seed", "1", "--out={out}", "--bogus"],
     "summa: unrecognized arguments"),
    ([], "summa: the following arguments are required"),
])
def test_malformed_flags(args, message):
    # argparse's own usage errors exit 2 with one config error line too
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(
            {"mode": "check_main", "family": "F1", "n": 16}))
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main([a.format(config=config, out=out) for a in args])
        assert code == 2
        assert stderr.getvalue().startswith(f"config error: {message}")
        assert stderr.getvalue().count("\n") == 1
        assert not out.exists()


def _assert_contract(argv, out):
    """Run ``summa`` on argv, check the exit status, stderr and the report
    in ``out``, and return stderr."""
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
    assert out.exists() == (code in (0, 1))
    assert (out / "report.json").is_file() == (code in (0, 1))
    if code != 2:
        json.loads((out / "report.json").read_text(),
                   parse_constant=_refuse_constant)
    return err


def _refuse_constant(name):
    # json.dumps writes NaN and Infinity, which are not JSON
    raise ValueError(f"report.json holds the non-JSON constant {name}")


# a_v = v^170 is finite up to v = 64, but 64 * a_64 = 2^1026 is not, so t
# overflows at its last index, past the last checkpoint
_T_OVERFLOWS_LATE = {
    "mode": "check_theorem_a", "n": 64, "checkpoints": [4, 8, 16, 32],
    "params": {"k": 1.5},
    "bundle": {"a": {"family": "power_weight", "params": {"q": 170}},
               "lambda": {"family": "power_decay",
                          "params": {"p": 2, "c0": 2}},
               "X": {"family": "log_shift"}, "weight": {"kind": "classic"}}}


@pytest.mark.parametrize("block", [None, 1, 8, 40])
@pytest.mark.parametrize("config", [
    _T_OVERFLOWS_LATE,
    {**_T_OVERFLOWS_LATE, "mode": "check_main",
     "bundle": _bundle(a={"family": "power_weight", "params": {"q": 170}})},
    # the conclusion's t of a_v lambda_v overflows late
    {**_T_OVERFLOWS_LATE, "mode": "check_main",
     "bundle": _bundle(**{"lambda": {"family": "power_weight",
                                     "params": {"q": 170}}})},
])
def test_t_overflow_past_the_last_checkpoint(monkeypatch, config, block):
    # the traces stop at checkpoint 32, and every t up to n is still
    # checked: the message is the one a refused t sequence gives
    from summa import accumulation
    if block is not None:
        monkeypatch.setattr(accumulation, "_BLOCK", block)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        err = _assert_contract(["run", str(path), f"--out={tmp}/out"],
                               Path(tmp) / "out")
    assert err == "config error: bundle: sequence values must be finite\n"
