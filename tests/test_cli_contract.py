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
at the field.  A ``params`` or ``tolerances`` field must be an object: a
list of [name, value] pairs, which ``dict`` would read, or any other value
is a config error that points at the field.  A config file that no JSON
reader takes, and a run too large for memory, are config errors too.
"""

import copy
import io
import json
import math
import os
import subprocess
import sys
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


# the shipped custom bundle with Q = power_decay {p: 0, c0: NaN} and with
# c0 = Infinity: Q_n = 1 either way, so the check would run and echo the
# parameter into report.json as NaN or Infinity, which are not JSON
_SHIPPED = json.loads((Path(__file__).parents[1] / "configs"
                       / "custom_bundle.json").read_text())
_NAN_C0, _INF_C0 = (
    {**_SHIPPED, "bundle": {**_SHIPPED["bundle"], "Q": {
        "family": "power_decay", "params": {"p": 0, "c0": c0}}}}
    for c0 in (math.nan, math.inf))


# the same Q with its parameters as a list of [name, value] pairs, which
# the number check would not look into
_LIST_INF_C0 = {**_SHIPPED, "bundle": {**_SHIPPED["bundle"], "Q": {
    "family": "power_decay", "params": [["p", 0], ["c0", math.inf]]}}}
_DUMP_LIST_INF_C0 = {
    "mode": "transform_dump",
    "sequence": {"family": "power_decay",
                 "params": [["p", 1], ["c0", math.inf]], "n": 8}}
_TOLERANCES_INT, _TOLERANCES_STR = ({**_SHIPPED, "tolerances": value}
                                    for value in (5, "abc"))

# a record's arithmetic overflows, or X underflows to 0 at a checkpoint:
# the config error names the record
_N64 = {"mode": "check_main", "n": 64, "params": {"k": 1.5}}
_Q_OVERFLOW = {**_N64, "bundle": _bundle(Q={
    "family": "power_decay", "params": {"p": 0, "c": 1e306}})}
_LAMBDA_OVERFLOW = {**_N64, "bundle": _bundle(**{"lambda": {
    "family": "power_decay", "params": {"p": 0, "c": 1e306}}})}
_BETA_OVERFLOW = {**_N64, "params": {"k": 1.5, "beta": 1e300},
                  "bundle": _bundle(weight={"kind": "indexed"})}
_X_UNDERFLOW = {**_N64, "bundle": _bundle(X={
    "family": "power_decay", "params": {"p": 1, "c": 5e-324}})}
# a record's own error names the record too
_DELTA_ZERO = {**_N64, "bundle": _bundle(delta={
    "family": "power_decay", "params": {"p": 1, "c": 0}})}

# finite values whose n * a_n overflows: refused as a non-finite sequence
# at every order, in a check (from n = 1798 on) and in a dump (whose partial
# sums overflow first)
_A_TERMS_OVERFLOW = {"mode": "check_main", "n": 4096,
                     "params": {"alpha": 0.5, "k": 1.5},
                     "bundle": _bundle(a={"family": "power_decay",
                                          "params": {"p": 0, "c": 1e305}})}
_DUMP_TERMS_OVERFLOW = {
    "mode": "transform_dump", "params": {"alpha": 0.5},
    "sequence": {"family": "power_decay", "params": {"p": 0, "c": 1e308},
                 "n": 16, "start": 0}}
# finite terms whose Cesaro coefficients A^alpha overflow: alpha, not the
# sequence, is refused, whether the kernel A^(alpha - 1) overflows too
# (alpha = 1e300) or stays finite (alpha = 150, whose means were divided by
# inf into zeros from n = 6333 on)
_DUMP_KERNEL_OVERFLOW = {
    "mode": "transform_dump", "params": {"alpha": 1e300},
    "sequence": {"family": "alternating_unit", "n": 8, "start": 0}}
_DUMP_COEFFICIENT_OVERFLOW = {
    "mode": "transform_dump",
    "sequence": {"family": "power_decay", "params": {"p": 0, "c": 1e-300},
                 "n": 6340, "start": 0},
    "params": {"alpha": 150, "k": 1.5, "beta": 0.0, "epsilon": 1.0}}

# a weight field that the kind has no use for is refused, not ignored: phi
# beside a named power form (even one that would not build, power_decay
# without p), beta beside an explicit phi
_CLASSIC_PHI, _INDEXED_PHI, _EXPLICIT_BETA = (
    {**_SHIPPED, "n": 64, "params": {"alpha": 1, "k": 2},
     "bundle": {**_SHIPPED["bundle"], "weight": weight}}
    for weight in ({"kind": "classic", "phi": {"family": "power_decay"}},
                   {"kind": "indexed", "phi": {"family": "power_decay"}},
                   {"kind": "explicit_phi", "beta": -5.0,
                    "phi": {"family": "power_weight", "params": {"q": 0.5}}}))

# configs and the one line each writes to stderr, exactly
_STDERR = [
    (_PHI_WITHOUT_FAMILY, "bundle.weight.phi.family: required"),
    (_DUMP_OVERFLOW, "sequence: sequence values must be finite"),
    # a non-finite family parameter is refused with its field
    (_NAN_C0, "bundle.Q.params.c0: must be a finite number"),
    (_INF_C0, "bundle.Q.params.c0: must be a finite number"),
    (_LATE_X, "bundle.X: sequence values must be finite"),
    (_LATE_A, "bundle.a: sequence values must be finite"),
    (_LIST_INF_C0, "bundle.Q.params: must be an object"),
    (_DUMP_LIST_INF_C0, "sequence.params: must be an object"),
    (_TOLERANCES_INT, "tolerances: must be an object"),
    (_TOLERANCES_STR, "tolerances: must be an object"),
    (_Q_OVERFLOW, "bundle: series_nQX: partial sums must be finite"),
    (_LAMBDA_OVERFLOW, "bundle: conclusion: partial sums must be finite"),
    (_BETA_OVERFLOW, "bundle: cond11: partial sums must be finite"),
    (_X_UNDERFLOW, "bundle: cond11: reference entries must be non-zero"),
    (_DELTA_ZERO, "bundle: quasi_monotone: delta must be positive "
                  "everywhere; first non-positive entry at index 1"),
    (_A_TERMS_OVERFLOW, "bundle: sequence values must be finite"),
    (_DUMP_TERMS_OVERFLOW, "sequence: sequence values must be finite"),
    (_DUMP_KERNEL_OVERFLOW, "sequence: alpha=1e+300: the Cesaro coefficients "
                            "A_n^alpha overflow from n = 2"),
    (_DUMP_COEFFICIENT_OVERFLOW, "sequence: alpha=150: the Cesaro "
                                 "coefficients A_n^alpha overflow from "
                                 "n = 6333"),
    (_CLASSIC_PHI, "bundle.weight.phi: classic weight takes no explicit phi"),
    (_INDEXED_PHI, "bundle.weight.phi: indexed weight takes no explicit phi"),
    (_EXPLICIT_BETA, "bundle.weight.beta: beta must be finite and "
                     "non-negative"),
]


def _number_paths(obj, path=()):
    """Paths to the number fields of a config, in document order."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _number_paths(value, path + (key,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path


def _object_paths(obj, path=()):
    """Paths to the params and tolerances fields of a config, in document
    order."""
    for key, value in obj.items():
        if key in ("params", "tolerances"):
            yield path + (key,)
        elif isinstance(value, dict):
            yield from _object_paths(value, path + (key,))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(config=st.one_of(_CUSTOM, _BUILTIN, _DUMP, _ORACLE), slope=_SLOPE,
       joined=st.booleans(),
       flip=st.one_of(st.none(), st.tuples(
           st.integers(0, 63),
           st.one_of(st.booleans(), st.sampled_from(["1", "0.5", "-2e3"])))),
       # a params or tolerances field (a top-level tolerances, added when
       # the config has none, among them) as its [name, value] pairs or as
       # a value that is no object
       unshape=st.one_of(st.none(), st.tuples(
           st.integers(0, 63),
           st.sampled_from(["pairs", 5, 1.5, "abc", None, [], [1]]))))
# a negative slope in exponent form, as its own token, reaches the validator
@example(flip=None, slope=-1e-05, joined=False, unshape=None,
         config={"mode": "check_main", "family": "F1", "n": 16})
# Q_n X_n n overflows, so the series_nQX partial sums are nan
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_Q_OVERFLOW)
# the factored mean a_n lambda_n overflows inside the conclusion's trace
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_LAMBDA_OVERFLOW)
# the indexed weight n^(1e300) overflows inside cond11's trace
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_BETA_OVERFLOW)
# X_n underflows to 0, so cond11's trace has a zero reference
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_X_UNDERFLOW)
# a zero delta, refused under its record's name
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_DELTA_ZERO)
# n * a_n overflows at alpha = 1/2, in a check and in a dump
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_A_TERMS_OVERFLOW)
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_DUMP_TERMS_OVERFLOW)
# alpha = 1e300 and alpha = 150 overflow the coefficients of finite terms
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_DUMP_KERNEL_OVERFLOW)
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_DUMP_COEFFICIENT_OVERFLOW)
# v * a_v overflows: the means of a non-finite operand are refused
@example(flip=None, slope=None, joined=True, unshape=None,
         config={"mode": "check_main", "n": 16,
                 "params": {"alpha": 0.5, "k": 1.5},
                 "bundle": _bundle(a={"family": "power_decay",
                                      "params": {"p": -1, "c": 1e306}})})
# |lambda_n| X_n overflows, so cond7 samples inf: a config error that
# names cond7, no NaN
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_COND7_OVERFLOW)
# phi without a family is refused like a role without one
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_PHI_WITHOUT_FAMILY)
# a dump whose transforms overflow warns nothing before its config error
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_DUMP_OVERFLOW)
# roles that overflow late in the range, in one order and the other
@example(flip=None, slope=None, joined=True, unshape=None, config=_LATE_X)
@example(flip=None, slope=None, joined=True, unshape=None, config=_LATE_A)
# a non-finite family parameter is refused with its field
@example(flip=None, slope=None, joined=True, unshape=None, config=_NAN_C0)
@example(flip=None, slope=None, joined=True, unshape=None, config=_INF_C0)
# and so is a parameter list, or tolerances that are no object
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_LIST_INF_C0)
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_DUMP_LIST_INF_C0)
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_TOLERANCES_INT)
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_TOLERANCES_STR)
# the top-level params, and phi's (the fifth of params, lambda's, Q's,
# delta's and phi's), as [name, value] pairs
@example(flip=None, slope=None, joined=True, unshape=(0, "pairs"),
         config=_BETA_OVERFLOW)
@example(flip=None, slope=None, joined=True, unshape=(4, "pairs"),
         config={**_N64, "bundle": _bundle(weight={
             "kind": "explicit_phi",
             "phi": {"family": "power_weight", "params": {"q": 0.5}}})})
# weight fields that the kind has no use for
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_CLASSIC_PHI)
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_INDEXED_PHI)
@example(flip=None, slope=None, joined=True, unshape=None,
         config=_EXPLICIT_BETA)
# n^150 overflows while the sequence is generated
@example(flip=None, slope=None, joined=True, unshape=None,
         config={"mode": "check_main", "n": 200, "params": {"k": 1.5},
                 "bundle": _bundle(**{"lambda": {
                     "family": "power_weight", "params": {"q": 150}}})})
def test_exit_status_stderr_and_report(config, slope, joined, flip, unshape):
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
    for pinned, message in _STDERR:
        if config is pinned:
            assert err == f"config error: {message}\n"
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
    # one params or tolerances field that is no object: the config exits 2
    # on that field
    if unshape is not None:
        index, value = unshape
        paths = list(_object_paths(config))
        if ("tolerances",) not in paths:
            paths.append(("tolerances",))
        *parents, key = paths[index % len(paths)]
        unshaped = copy.deepcopy(config)
        node = unshaped
        for name in parents:
            node = node[name]
        if value == "pairs":
            value = [[name, v] for name, v in node.get(key, {}).items()]
        node[key] = value
        pointer = ".".join([*parents, key])
        assert run(unshaped) == f"config error: {pointer}: must be an object\n"


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


# values that the config walk lets through to a parameter, tolerance or
# family parameter field but that are not real numbers a float holds: each
# is refused by the field's own check, never converted first
@pytest.mark.parametrize("value", [
    None, [1], {}, pytest.param(10 ** 400, id="10**400")])
@pytest.mark.parametrize("config, message", [
    ({"mode": "check_main", "n": 64, "bundle": _bundle(),
      "params": {"k": 1.5, "epsilon": "{value}"}},
     "params: epsilon must be a finite real number"),
    ({"mode": "check_main", "n": 64, "family": "F1",
      "tolerances": {"slope": "{value}"}},
     "tolerances: slope tolerance must be positive and finite"),
    ({"mode": "check_main", "n": 64, "family": "F1",
      "overrides": {"k": "{value}"}},
     "overrides: k must be a finite real number"),
    ({"mode": "check_main", "n": 64, "params": {"k": 1.5},
      "bundle": _bundle(**{"lambda": {"family": "power_decay",
                                      "params": {"p": "{value}"}}})},
     "bundle.lambda: family 'power_decay' parameter 'p' must be a real "
     "number"),
    ({"mode": "transform_dump",
      "sequence": {"family": "power_weight", "params": {"q": "{value}"},
                   "n": 8}},
     "sequence: family 'power_weight' parameter 'q' must be a real number"),
])
def test_parameters_that_are_not_reals(config, message, value):
    config = json.loads(json.dumps(config).replace('"{value}"',
                                                   json.dumps(value)))
    assert _run_config(config) == f"config error: {message}\n"


@pytest.mark.parametrize("config, message", [
    # beta is not in the test above, where None would be no beta at all
    ({"mode": "check_main", "n": 64, "params": {"k": 1.5},
      "bundle": _bundle(weight={"kind": "indexed", "beta": 10 ** 400})},
     "bundle.weight.beta: beta must be finite and non-negative"),
    # a pass's indices are float64, exact up to 2**53
    ({"mode": "check_main", "family": "F1", "n": 10 ** 22},
     "n: must be at most 2**53: past it, float64 indices are not exact"),
])
def test_integers_too_large_for_a_float(config, message):
    assert _run_config(config) == f"config error: {message}\n"


def _run_config(config):
    """``summa run`` on ``config`` under the contract: its stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        return _assert_contract(["run", str(path), f"--out={out}"], out)


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


@pytest.mark.parametrize("argv, blocked, message", [
    # the output directory is an existing file
    (["run", "{config}", "--out={tmp}/file"], "file",
     "cannot write {tmp}/file: File exists"),
    # a parent of the output directory is a file
    (["oracle", "--seed", "1", "--trials", "1", "--out={tmp}/file/sub"],
     "file", "cannot write {tmp}/file/sub: Not a directory"),
    # report.json is a directory: written last, after the trace CSVs
    (["run", "{config}", "--out={tmp}/out"], "out/report.json",
     "cannot write {tmp}/out/report.json: Is a directory"),
    # a trace CSV is a directory, with another trace CSV before it
    (["run", "{config}", "--out={tmp}/out"], "out/trace_cond11.csv",
     "cannot write {tmp}/out/trace_cond11.csv: Is a directory"),
], ids=["out_is_a_file", "parent_is_a_file", "report_is_a_directory",
        "trace_is_a_directory"])
def test_unusable_output_is_a_config_error(argv, blocked, message):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(
            {"mode": "check_main", "family": "F1", "n": 16}))
        if blocked == "file":
            (Path(tmp) / "file").write_text("")
        else:
            (Path(tmp) / blocked).mkdir(parents=True)
        before = sorted(Path(tmp).rglob("*"))
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([a.format(config=config, tmp=tmp) for a in argv])
        # no file of the run is left, not even a temporary one
        assert sorted(Path(tmp).rglob("*")) == before
    assert code == 2
    assert stderr.getvalue() == (
        f"config error: out: {message.format(tmp=tmp)}\n")
    assert stdout.getvalue() == ""


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe{}", "cannot read"),
    # CPython refuses to read an integer of more than 4300 digits
    (b'{"mode": "check_main", "family": "F1", "n": ' + b"9" * 5000 + b"}",
     "invalid JSON"),
    (b"[" * 100_000 + b"]" * 100_000, "invalid JSON"),
], ids=["not_utf8", "int_over_4300_digits", "nested_100000_deep"])
def test_unreadable_config_file(data, message):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(data)
        out = Path(tmp) / "out"
        err = _assert_contract(["run", str(path), f"--out={out}"], out)
    assert err.startswith(f"config error: $: {message}")


# summa run with its address space capped at 1 GiB, so an n-long array at
# n = 2**28 (2 GiB) cannot be made whatever the host's overcommit policy,
# and none is ever allocated
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from summa.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("config, message", [
    ({"mode": "check_main", "family": "F1", "n": 2 ** 28,
      "overrides": {"alpha": 0.5}},
     "config error: bundle: Unable to allocate "),
    ({"mode": "transform_dump",
      "sequence": {"family": "alternating_unit", "n": 2 ** 28}},
     "config error: sequence: Unable to allocate "),
    # the cap leaves room for a shipped config
    (json.loads((Path(__file__).parents[1] / "configs"
                 / "f1_main.json").read_text()), None),
], ids=["check", "dump", "shipped"])
def test_run_too_large_for_memory(tmp_path, config, message):
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _CAPPED, "run", str(path),
                           f"--out={out}", "--quiet"],
                          env=env, capture_output=True, text=True)
    if message is None:
        assert (done.returncode, done.stderr) == (0, "")
        assert (out / "report.json").is_file()
    else:
        assert done.returncode == 2
        assert done.stderr.startswith(message)
        assert done.stderr.count("\n") == 1
        assert not out.exists()
