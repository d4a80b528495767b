"""Config-driven batch runner: bundles, checks, oracles, deterministic reports.

A run is a pure function of its JSON config.  Reports carry no timestamps,
no hostnames, and render numbers through one formatter, so identical
configs produce byte-identical report files; that property is load-bearing
(tests diff report bytes) and worth protecting when editing here.

Artifacts per run directory (one writer, ``_csv``, renders both CSV kinds
from the float columns of the traces and the transforms):
  report.json            full machine-readable result, sorted keys
  trace_*.csv            checkpointed partial-sum traces (4-column format)
  transforms.csv         per-index transform dump (transform_dump mode)

``_csv`` yields a file's bytes a block of ``_CSV_ROWS`` rows at a time,
each block one ``rendering.render_rows`` call, and ``run`` writes each
block as it comes: no CSV file's whole text is ever held.  Each file is
written under a temporary name and renamed into place once every file is
written, so a run that cannot write one of them leaves none.

Bundles, builtin or from a config, are made of generated sequences: each
role (and ``default_majorant``'s Q) makes its values a block at a time,
and a check reads them so, so no n-long array of the bundle is held.  A
config role's errors are ``ConfigError``s that name the role.  Its
parameter and domain errors are raised as the bundle is made, and its
non-finite values by the check's pass, each after any non-finite value of
an earlier role: the order in which making each role whole, in turn,
would have raised them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .cesaro import cesaro_sigma, cesaro_t, w_sequence
from .checker import (FamilyBundle, GrowthVerdict, Tolerances,
                      check_main_theorem, check_theorem_a,
                      conclusion_diagnostic)
from .functionals import WeightKind, WeightSpec, validate_checkpoints
from .oracle import run_all_suites
from .rendering import render_rows
from .sequences import (CesaroParams, RealSequence, SequenceSpec,
                        _BlockSequence, _generated, _verify, materialize)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "BUILTIN_FAMILY_NAMES",
    "builtin_family",
    "default_majorant",
    "family_catalog_lines",
    "load_config",
    "run",
]

MODES = ("check_main", "check_theorem_a", "oracle", "transform_dump")
BUILTIN_FAMILY_NAMES = ("F1", "F2", "F3")
# a check's pass holds indices as float64, exact up to 2**53
_MAX_N = 2 ** 53

_CONFIG_FIELDS = {"mode", "n", "family", "overrides", "bundle", "params",
                  "checkpoints", "tolerances", "seed", "trials", "sequence",
                  "out"}
_OVERRIDE_KEYS = {"alpha", "k", "beta", "epsilon"}


class ConfigError(ValueError):
    """Schema violation with a pointer to the offending field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


# fields that hold numbers: these keys, and every key of these objects
_NUMBER_KEYS = {"n", "start", "seed", "trials", "beta"}
_NUMBER_OBJECTS = {"params", "overrides", "tolerances"}


def _refuse_non_numbers(obj: dict) -> None:
    """Refuse true and false anywhere in a config, and strings, NaN and
    +-inf in number fields: no field takes a boolean, Python reads them as
    the numbers 1 and 0, ``float`` reads "0.5" as 0.5, and ``json`` reads
    NaN and Infinity, which a report that echoes them would write back as
    no JSON.  The objects of number fields must be objects: ``dict`` reads
    a list of [name, value] pairs too, whose values this walk would not
    see.  (A stack, not recursion.)"""
    stack = [(key, key in _NUMBER_KEYS, value) for key, value in obj.items()]
    while stack:
        pointer, number, value = stack.pop()
        numbers = pointer.rsplit(".", 1)[-1] in _NUMBER_OBJECTS
        if numbers and not isinstance(value, dict):
            raise ConfigError(pointer, "must be an object")
        if isinstance(value, bool):
            raise ConfigError(pointer, "must not be a boolean")
        if number and isinstance(value, str):
            raise ConfigError(pointer, "must be a number")
        if number and isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(pointer, "must be a finite number")
        if isinstance(value, dict):
            stack.extend((f"{pointer}.{k}", numbers or k in _NUMBER_KEYS, v)
                         for k, v in value.items())
        elif isinstance(value, list):
            stack.extend((pointer, False, v) for v in value)


def _forbid(obj: dict, mode: str, *keys: str) -> None:
    for key in keys:
        if key in obj:
            raise ConfigError(key, f"not allowed in mode {mode!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed, validated run description; round-trips through JSON."""

    mode: str
    n: int | None = None
    family: str | None = None
    overrides: dict = field(default_factory=dict)
    bundle: dict | None = None
    params: CesaroParams | None = None
    checkpoints: tuple[int, ...] | None = None
    tolerances: Tolerances | None = None
    seed: int | None = None
    trials: int | None = None
    sequence: SequenceSpec | None = None
    out: str | None = None

    def to_json(self) -> dict:
        obj: dict = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None or (f.name == "overrides" and not value):
                continue
            if hasattr(value, "to_json"):
                value = value.to_json()
            elif f.name == "overrides":
                value = {k: float(v) for k, v in sorted(value.items())}
            elif f.name == "checkpoints":
                value = list(value)
            obj[f.name] = value
        return obj

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("$", "config must be a JSON object")
        for key in obj:
            if key not in _CONFIG_FIELDS:
                raise ConfigError(key, "unknown field")
        _refuse_non_numbers(obj)

        mode = obj.get("mode")
        if mode not in MODES:
            raise ConfigError("mode", f"must be one of {', '.join(MODES)}")

        out = obj.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError("out", "must be a string path")

        seed = obj.get("seed")
        if seed is not None:
            if not isinstance(seed, int):
                raise ConfigError("seed", "must be an integer")
            if not (0 <= seed < 2 ** 64):
                raise ConfigError("seed", "must fit in an unsigned 64-bit int")

        kw: dict = {"mode": mode, "seed": seed, "out": out}

        if mode in ("check_main", "check_theorem_a"):
            _forbid(obj, mode, "trials", "sequence")
            # cond8's own grid over the n - 2 second differences needs four
            # checkpoints, hence a larger minimum for theorem A
            n_min = 10 if mode == "check_theorem_a" else 8
            n = obj.get("n")
            if not isinstance(n, int) or n < n_min:
                raise ConfigError("n", f"must be an integer >= {n_min}")
            if n > _MAX_N:
                raise ConfigError("n", "must be at most 2**53: past it, "
                                  "float64 indices are not exact")
            kw["n"] = n

            family = obj.get("family")
            bundle = obj.get("bundle")
            if (family is None) == (bundle is None):
                raise ConfigError("family",
                                  "exactly one of family and bundle required")
            if family is not None:
                if family not in BUILTIN_FAMILY_NAMES:
                    raise ConfigError(
                        "family",
                        f"unknown; choices: {', '.join(BUILTIN_FAMILY_NAMES)}")
                _forbid(obj, mode, "params")
                overrides = obj.get("overrides", {})
                for key in overrides:
                    if key not in _OVERRIDE_KEYS:
                        raise ConfigError(
                            f"overrides.{key}",
                            f"unknown; choices: {', '.join(sorted(_OVERRIDE_KEYS))}")
                kw["family"] = family
                try:
                    checked = CesaroParams(**overrides)
                except ValueError as e:
                    raise ConfigError("overrides", str(e)) from e
                kw["overrides"] = {k: getattr(checked, k) for k in overrides}
            else:
                _forbid(obj, mode, "overrides")
                if not isinstance(bundle, dict):
                    raise ConfigError("bundle", "must be an object")
                _validate_bundle_spec(bundle, mode)
                kw["bundle"] = bundle
                if "params" not in obj:
                    raise ConfigError("params", "required with a custom bundle")
                try:
                    kw["params"] = CesaroParams.from_json(obj["params"])
                except (TypeError, ValueError) as e:
                    raise ConfigError("params", str(e)) from e

            if "checkpoints" in obj:
                cps = obj["checkpoints"]
                if (not isinstance(cps, (list, tuple))
                        or any(not isinstance(c, int) for c in cps)):
                    raise ConfigError("checkpoints", "must be a list of integers")
                try:
                    kw["checkpoints"] = validate_checkpoints(
                        cps, n, at_least=4, dyadic=True)
                except ValueError as e:
                    raise ConfigError("checkpoints", str(e)) from e
            if "tolerances" in obj:
                try:
                    kw["tolerances"] = Tolerances.from_json(obj["tolerances"])
                except (TypeError, ValueError) as e:
                    raise ConfigError("tolerances", str(e)) from e

        elif mode == "oracle":
            _forbid(obj, mode, "n", "family", "overrides", "bundle", "params",
                    "checkpoints", "tolerances", "sequence")
            if seed is None:
                raise ConfigError("seed", "required in oracle mode")
            trials = obj.get("trials")
            # a million trials per suite already take minutes; a larger
            # count is a typo more likely than a plan
            if trials is not None and (not isinstance(trials, int)
                                       or not 1 <= trials <= 1_000_000):
                raise ConfigError("trials", "must be an integer in 1..1000000")
            kw["trials"] = trials

        else:  # transform_dump
            _forbid(obj, mode, "n", "family", "overrides", "bundle",
                    "checkpoints", "tolerances", "trials")
            if "sequence" not in obj:
                raise ConfigError("sequence", "required in transform_dump mode")
            try:
                seq = SequenceSpec.from_json(obj["sequence"])
            except (TypeError, ValueError) as e:
                raise ConfigError("sequence", str(e)) from e
            if seq.start != 0:
                raise ConfigError("sequence.start",
                                  "transform dumps need the index-0 term")
            kw["sequence"] = seq
            if "params" in obj:
                try:
                    kw["params"] = CesaroParams.from_json(obj["params"])
                except (TypeError, ValueError) as e:
                    raise ConfigError("params", str(e)) from e

        return cls(**kw)


_ROLE_FIELDS = {"family", "params"}


def _validate_bundle_spec(bundle: dict, mode: str) -> None:
    """Structural check only; materialization errors surface at build time."""
    allowed = {"label", "a", "lambda", "X", "weight", "Q", "delta"}
    for key in bundle:
        if key not in allowed:
            raise ConfigError(f"bundle.{key}", "unknown field")
    for role in ("a", "lambda", "X"):
        if role not in bundle:
            raise ConfigError(f"bundle.{role}", "required")
    if mode == "check_theorem_a":
        for role in ("Q", "delta"):
            if role in bundle:
                raise ConfigError(f"bundle.{role}",
                                  "not allowed in mode 'check_theorem_a'")
    for role in ("a", "lambda", "X", "Q", "delta"):
        if role in bundle:
            _validate_role(bundle[role], f"bundle.{role}")
    weight = bundle.get("weight")
    if not isinstance(weight, dict):
        raise ConfigError("bundle.weight", "required object")
    kinds = [k.value for k in WeightKind]
    if weight.get("kind") not in kinds:
        raise ConfigError("bundle.weight.kind",
                          f"must be one of {', '.join(kinds)}")
    wallowed = {"kind", "beta", "phi"}
    for key in weight:
        if key not in wallowed:
            raise ConfigError(f"bundle.weight.{key}", "unknown field")
    if "phi" in weight:
        _validate_role(weight["phi"], "bundle.weight.phi")
    elif weight["kind"] == WeightKind.EXPLICIT_PHI.value:
        raise ConfigError("bundle.weight.phi", "required for explicit_phi")


def _validate_role(spec, pointer: str) -> None:
    if not isinstance(spec, dict) or set(spec) - _ROLE_FIELDS:
        raise ConfigError(pointer,
                          "must be an object with fields family, params")
    if "family" not in spec:
        raise ConfigError(f"{pointer}.family", "required")


def _role(spec: dict, n: int, pointer: str) -> RealSequence:
    try:
        return _generated(
            SequenceSpec(family=spec["family"], n=n,
                         params=dict(spec.get("params", {})), start=1),
            error=lambda message: ConfigError(pointer, message))
    except (TypeError, ValueError) as e:
        raise ConfigError(pointer, str(e)) from e


def _weight_from_spec(spec: dict, role) -> WeightSpec:
    kind = WeightKind(spec["kind"])
    if kind is WeightKind.EXPLICIT_PHI:
        return WeightSpec(kind=kind,
                          phi=role(spec["phi"], "bundle.weight.phi"))
    try:
        return WeightSpec(kind=kind, beta=spec.get("beta"))
    except ValueError as e:
        raise ConfigError("bundle.weight.beta", str(e)) from e


def _bundle_from_spec(spec: dict, n: int, params: CesaroParams) -> FamilyBundle:
    made: list[RealSequence] = []

    def role(role_spec: dict, pointer: str) -> RealSequence:
        made.append(_role(role_spec, n, pointer))
        return made[-1]

    try:
        a = role(spec["a"], "bundle.a")
        lam = role(spec["lambda"], "bundle.lambda")
        X = role(spec["X"], "bundle.X")
        Q = role(spec["Q"], "bundle.Q") if "Q" in spec else None
        delta = (role(spec["delta"], "bundle.delta") if "delta" in spec
                 else None)
        weight = _weight_from_spec(spec["weight"], role)
        label = spec.get("label", "custom")
        if not isinstance(label, str):
            raise ConfigError("bundle.label", "must be a string")
    except ConfigError:
        _verify(made)  # an earlier role's non-finite value comes first
        raise
    return FamilyBundle(label=label, a=a, lam=lam, X=X, weight=weight,
                        params=params, Q=Q, delta=delta)


# exponent p of the majorant's padding (n+1)^(-p)
_PAD_POWER = 3.0


def default_majorant(lam_extended: RealSequence) -> RealSequence:
    """Q_n = |D lambda_n| + (n+1)^(-3) over the differenced range.

    The padding keeps Q strictly positive (so quasi-monotonicity is
    checkable) while decaying fast enough that sum n Q_n X_n still
    converges for slowly varying X.  No optimality claimed: this is a
    convenience, not the best majorant for a given lambda.  Q is made a
    block at a time, each from lambda's block and the value after it.
    """
    if len(lam_extended) <= 1:
        raise ValueError("sequence too short for order-1 difference")
    start = lam_extended.start_index

    def make(lo: int, hi: int) -> np.ndarray:
        lam = lam_extended._block(lo, hi + 1)
        pad = np.power(np.arange(start + lo, start + hi) + 1.0, -_PAD_POWER)
        return np.abs(lam[:-1] - lam[1:]) + pad
    return _BlockSequence(start, len(lam_extended) - 1, make)


def _seq(family: str, n: int, params: dict | None = None) -> RealSequence:
    return _generated(SequenceSpec(family=family, n=n, params=params or {},
                                   start=1))


def builtin_family(name: str, N: int, overrides: dict | None = None) -> FamilyBundle:
    """Assemble one of the bundled theorem instances at scale N.

    F1  eight-hypothesis instance built to pass every record: alternating
        a, lambda_n = (n+2)^-2, X_n = log(n+2), classic weight at k = 3/2,
        majorant from default_majorant, delta_n = (n+1)^(-3/2).
    F2  five-hypothesis (order-1) instance: lambda_n = 1/(n+2), otherwise
        like F1 without majorant data.
    F3  negative control: lambda_n = 1 makes |lambda_n| X_n grow like
        log n, so the boundedness record must flag growth.

    ``overrides`` replaces CesaroParams fields (alpha, k, beta, epsilon);
    overridden bundles make no promise of passing.
    """
    if name not in BUILTIN_FAMILY_NAMES:
        raise ValueError(f"unknown builtin family {name!r} "
                         f"(choices: {', '.join(BUILTIN_FAMILY_NAMES)})")
    if N < 8:
        raise ValueError("builtin families need N >= 8")

    a = _seq("alternating_unit", N)
    X = _seq("log_shift", N)
    weight = WeightSpec(kind=WeightKind.CLASSIC)
    params = CesaroParams(alpha=1.0, k=1.5, beta=0.0, epsilon=1.0)
    if overrides:
        try:
            params = dataclasses.replace(params, **overrides)
        except (TypeError, ValueError) as e:
            raise ConfigError("overrides", str(e)) from e

    if name == "F2":
        lam = _seq("power_decay", N, {"p": 1.0, "c0": 2.0})
        return FamilyBundle(label="F2", a=a, lam=lam, X=X,
                            weight=weight, params=params)

    # F1 and F3 carry majorant data; lambda is extended one index past N so
    # Q covers all of 1..N through the forward difference.  lambda's block
    # is read with the value after it, so that Q's block of the same
    # indices is the block lam_ext keeps, not a second one
    if name == "F1":
        lam_ext = _seq("power_decay", N + 1, {"p": 2.0, "c0": 2.0})
    else:
        lam_ext = _seq("unit_tail", N + 1)
    lam = _BlockSequence(1, N, lambda lo, hi: lam_ext._block(lo, hi + 1)[:-1])
    Q = default_majorant(lam_ext)
    delta = _seq("power_decay", N, {"p": 1.5, "c0": 1.0})
    return FamilyBundle(label=name, a=a, lam=lam, X=X, weight=weight,
                        params=params, Q=Q, delta=delta)


def family_catalog_lines() -> list[str]:
    return [
        "F1  check_main instance, passes all 8 records: a alternating, "
        "lambda_n = (n+2)^-2, X_n = log(n+2), classic weight, k = 1.5",
        "F2  check_theorem_a instance, passes all 5 records: "
        "lambda_n = 1/(n+2), X_n = log(n+2), classic weight, k = 1.5",
        "F3  negative control for check_main: lambda_n = 1, so "
        "|lambda_n| X_n = log(n+2) grows and cond7 must fail",
    ]


@dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    environment: dict
    results: dict
    exit_status: int

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "environment": self.environment,
            "results": self.results,
            "exit_status": self.exit_status,
        }


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError("$", f"cannot read {path}: {e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("$", f"invalid JSON: {e}") from e
    return ExperimentConfig.from_json(obj)


# rows rendered per block, which bounds the block's temporaries: about
# 400 KiB at 2**8 rows of a dump's five columns
_CSV_ROWS = 1 << 8


def _csv(header: str, index, columns) -> Iterator[bytes]:
    """CSV bytes a block at a time: the header line, then one row per entry
    of ``index``.

    Each column is a float array that ends at the last row, its leading
    cells left blank, or None for an all-blank column.  Each block of
    ``_CSV_ROWS`` rows is one ``render_rows`` call.
    """
    rows = len(index)
    index = np.asarray(index)
    yield header.encode() + b"\n"
    for lo in range(0, rows, _CSV_ROWS):
        hi = min(lo + _CSV_ROWS, rows)
        block = []
        for col in columns:
            # the column's first value sits in row skip
            skip = rows - (0 if col is None else len(col))
            block.append(None if skip >= hi
                         else col[max(lo - skip, 0):hi - skip])
        yield render_rows(index[lo:hi], block)


# artifact name -> its bytes, a block at a time
_Files = dict[str, Iterable[bytes]]


def _run_check(config: ExperimentConfig) -> tuple[dict, int, _Files]:
    if config.family is not None:
        bundle = builtin_family(config.family, config.n, config.overrides)
    else:
        bundle = _bundle_from_spec(config.bundle, config.n, config.params)
    if config.mode == "check_theorem_a" and (bundle.Q is not None
                                             or bundle.delta is not None):
        bundle = dataclasses.replace(bundle, Q=None, delta=None)

    check = (check_main_theorem if config.mode == "check_main"
             else check_theorem_a)
    # arithmetic that overflows surfaces as a non-finite trace (ValueError)
    # or from math.fsum (OverflowError): the bundle cannot be judged.  A
    # role's non-finite values are a ConfigError that names the role
    try:
        with np.errstate(all="ignore"):
            report = check(bundle, config.checkpoints, config.tolerances)
            trace, conclusion = conclusion_diagnostic(
                bundle, config.checkpoints, config.tolerances)
    except ConfigError:
        raise
    except (ValueError, OverflowError) as e:
        raise ConfigError("bundle", str(e)) from e

    traces = {**report.traces, "conclusion": trace}
    # reference and ratio stay blank for traces without a reference
    files = {f"trace_{name.lower()}.csv": _csv(
        "checkpoint,partial_sum,reference,ratio", t.checkpoints,
        [t.partial_sums, t.reference,
         None if t.reference is None else t.partial_sums / t.reference])
        for name, t in traces.items()}

    passed = (report.all_passed
              and conclusion.verdict is GrowthVerdict.BOUNDED_CONSISTENT)
    results = {
        "report": report.to_json(),
        "conclusion": conclusion.to_json(),
        "artifacts": {Path(name).stem: name for name in files},
    }
    return results, 0 if passed else 1, files


def _run_oracle(config: ExperimentConfig) -> tuple[dict, int, _Files]:
    suites = run_all_suites(config.seed, config.trials)
    clean = all(s.violations == 0 for s in suites)
    return {"suites": [s.to_json() for s in suites]}, 0 if clean else 1, {}


def _run_transform_dump(config: ExperimentConfig
                        ) -> tuple[dict, int, _Files]:
    alpha = (config.params or CesaroParams()).alpha
    # as in a check, arithmetic that overflows surfaces as a non-finite
    # transform (ValueError) or from math.fsum (OverflowError)
    try:
        with np.errstate(all="ignore"):
            seq = materialize(config.sequence)
            sigma = cesaro_sigma(seq, alpha).values
            t = cesaro_t(seq, alpha)
            # w is defined for 0 < alpha <= 1 only
            w = w_sequence(t, alpha).values if 0.0 < alpha <= 1.0 else None
    except (ValueError, OverflowError) as e:
        raise ConfigError("sequence", str(e)) from e
    files = {"transforms.csv": _csv(
        "n,a,sigma,t,w", np.arange(seq.start_index, seq.end_index + 1),
        [seq.values, sigma, t.values, w])}
    results = {"artifacts": {Path(name).stem: name for name in files},
               "rows": len(seq), "alpha": alpha}
    return results, 0, files


_RUNNERS = {"check_main": _run_check, "check_theorem_a": _run_check,
            "oracle": _run_oracle, "transform_dump": _run_transform_dump}


def _summary_lines(report: RunReport) -> list[str]:
    lines = [f"mode={report.config.mode}"]
    results = report.results
    if "report" in results:
        body = results["report"]
        lines[0] += f" label={body['label']} n={body['n']}"
        for rec in body["records"]:
            lines.append(f"  {rec['condition']:<16} {rec['verdict']:<18} "
                         f"{rec['notes']}".rstrip())
        conc = results["conclusion"]
        lines.append(f"  {'conclusion':<16} {conc['verdict']:<18} "
                     f"slope={conc['slope']}")
    elif "suites" in results:
        for suite in results["suites"]:
            lines.append(f"  {suite['check']:<22} trials={suite['trials']} "
                         f"violations={suite['violations']}")
    else:
        lines.append(f"  wrote {results['artifacts']['transforms']} "
                     f"({results['rows']} rows)")
    lines.append(f"exit_status={report.exit_status}")
    return lines


def run(config: ExperimentConfig, out_dir=None, quiet: bool = False) -> RunReport:
    """Execute one config; write artifacts; return the report.

    ``out_dir`` beats the config's own ``out`` field; default is the
    current directory, created only once the run has computed everything
    that can fail, so a run that fails leaves no directory behind.  The
    CSV files render block by block as they are written.  A directory or
    artifact that cannot be written is a ``ConfigError`` on ``out``, and
    leaves none of the run's files behind.
    Summary goes to standard output unless ``quiet``.
    """
    out = Path(out_dir if out_dir is not None else (config.out or "."))

    results, exit_status, files = _RUNNERS[config.mode](config)
    report = RunReport(config=config,
                       environment={"version": __version__,
                                    "seed": config.seed},
                       results=results, exit_status=exit_status)
    files["report.json"] = [json.dumps(report.to_json(), indent=2,
                                       sort_keys=True).encode() + b"\n"]
    # the CSV blocks render as they are written: their columns are finite,
    # so past this point only the output directory can fail.  Each file is
    # renamed into place only once every one is written
    path, written, placed = out, [], 0
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, blocks in files.items():
            path, tmp = out / name, out / f".{name}.tmp"
            with open(tmp, "wb") as f:
                written.append((tmp, path))
                f.writelines(blocks)
        for tmp, path in written:
            tmp.replace(path)
            placed += 1
    except OSError as e:
        for i, (tmp, final) in enumerate(written):
            with contextlib.suppress(OSError):
                (final if i < placed else tmp).unlink()
        raise ConfigError("out", f"cannot write {path}: {e.strerror or e}"
                          ) from e

    if not quiet:
        print("\n".join(_summary_lines(report)))
    return report
