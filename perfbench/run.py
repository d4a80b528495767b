"""summa benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload scale_alpha1 --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --record FILE
    python3 perfbench/run.py --smoke

A run measures one workload (see catalog.json) for ``--seconds``: one
pass over its configs per fresh workload process (workload.py), one process
after another, with the numeric thread pools pinned to one thread.  It then
checks the outputs and prints every metric as ``name value unit``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics of BENCHMARK.json with
``--trace 0`` and its per-layer metrics with ``--trace 1``.  ``failed``
counts operations (config runs) that raised, broke a promised verdict or
wrote a report.json differing from the first pass's; ``correct`` is false
when an output value is wrong: a report that disagrees with its run, a
missing artifact, cesaro_t off its exact reference by more than
T_REL_TOL, or spans that do not add up.  A traced run spends half its time
untraced, to measure the tracing overhead, and half with spans around every
public summa function.  ``--workload all`` runs every workload in both
modes, evaluates the catalog's predictions and writes one results file.
``--smoke`` runs everything at tiny sizes and checks that every metric is
emitted, that spans nest and that self times add up to the traced wall
time.  Scratch and result files go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOAD_PY = HERE / "workload.py"

T_REL_TOL = 1e-10       # t error above this makes the run incorrect
DIGITS_CAP = 17.0       # t_correct_digits when the sampled t are all exact
NEAR = 0.10             # a "~" prediction holds within 10 points of share
PROBE_REF_S = 0.3       # host_probe seconds on the reference host
PASS_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_pass(workload: str, seed: int, trace: int, smoke: bool,
             out: Path) -> dict:
    """One pass in a fresh workload process; its record (see workload.py)."""
    result = out.with_name(out.name + ".json")
    cmd = [sys.executable, str(WORKLOAD_PY), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(out),
           "--result", str(result)] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"workload process killed after {PASS_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"workload process failed ({proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    return json.loads(result.read_text())


def run_passes(workload: str, seed: int, trace: int, smoke: bool,
               budget_s: float, scratch: Path) -> list[dict]:
    """Passes, one process after another, until the next would overrun
    ``budget_s``.  The outputs of the first untraced pass stay in
    ``scratch/u0`` for the checks; all others are deleted."""
    records, durations = [], []
    started = time.perf_counter()
    while True:
        out = scratch / f"{'t' if trace else 'u'}{len(records)}"
        t0 = time.perf_counter()
        records.append(run_pass(workload, seed, trace, smoke, out))
        durations.append(time.perf_counter() - t0)
        if out.name != "u0":
            shutil.rmtree(out)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(durations) > budget_s:
            return records


# --- output checks ---------------------------------------------------------

def check_operations(specs: list[dict], passes: list[dict]) -> tuple[int, list[str]]:
    """Attempted operations and the reason for each failed one."""
    first = passes[0]["report_sha256"]
    attempted, failures = 0, []
    for n, record in enumerate(passes):
        for i, spec in enumerate(specs):
            attempted += 1
            label, promise = spec["label"], spec["promise"]
            if record["error"][i] is not None:
                failures.append(f"pass {n} {label}: raised {record['error'][i]}")
            elif promise is not None and record["exit"][i] != promise:
                failures.append(f"pass {n} {label}: exit {record['exit'][i]} "
                                f"where {promise} is promised")
            elif record["report_sha256"][i] != first[i]:
                failures.append(f"pass {n} {label}: report.json differs "
                                f"from the first pass")
    return attempted, failures


def check_reports(specs: list[dict], first: dict, keep: Path) -> list[str]:
    """Each report the first pass kept parses, agrees with run()'s exit
    status and names artifacts that exist."""
    problems = []
    exits = first["exit"]
    for spec, exit_status in zip(specs, exits):
        out = keep / spec["label"]
        path = out / "report.json"
        if not path.exists():
            problems.append(f"{spec['label']}: no report.json")
            continue
        report = json.loads(path.read_text())
        if report["exit_status"] != exit_status:
            problems.append(f"{spec['label']}: report exit_status "
                            f"{report['exit_status']} but run() returned "
                            f"{exit_status}")
        for name in report["results"].get("artifacts", {}).values():
            if not (out / name).is_file():
                problems.append(f"{spec['label']}: missing artifact {name}")
    return problems


def transform_inputs(spec: dict, keep: Path, catalog: dict):
    """(name, x_1..x_N, alpha, sampled indices, dumped t or None) for every
    cesaro_t input of one config; dumped t are read from the config's own
    output, None means the checks compute t in process as the engine does."""
    from summa.checker import dyadic_checkpoints
    from summa.experiment import builtin_family
    from summa.sequences import SequenceSpec, materialize

    def sampled(n):
        return sorted(set(dyadic_checkpoints(n)) | {n})

    cfg = spec["config"]
    if cfg["mode"] in ("check_main", "check_theorem_a"):
        bundle = builtin_family(cfg["family"], cfg["n"], cfg.get("overrides"))
        alpha, idx = bundle.params.alpha, sampled(cfg["n"])
        return [("a", bundle.a.values, alpha, idx, None),
                ("a*lambda", bundle.a.values * bundle.lam.values, alpha, idx,
                 None)]
    if cfg["mode"] == "transform_dump":
        seq = materialize(SequenceSpec.from_json(cfg["sequence"]))
        alpha = cfg.get("params", {}).get("alpha", 1.0)
        idx = sampled(seq.end_index)
        dumped = {}
        with open(keep / spec["label"] / "transforms.csv", encoding="utf-8") as f:
            next(f)
            for line in f:
                n, _, _, t, _ = line.rstrip("\n").split(",")
                if int(n) in idx:
                    dumped[int(n)] = float(t)
        return [("dump", seq.range_view(1, seq.end_index), alpha, idx, dumped)]
    probe = catalog["t_probe"]
    x = materialize(SequenceSpec.from_json(probe["sequence"])).values
    return [(f"probe alpha={alpha}", x, alpha, sampled(x.size), None)
            for alpha in probe["alphas"]]


def t_errors(specs: list[dict], keep: Path, catalog: dict) -> dict[str, float]:
    """Largest relative error of cesaro_t per input, against exact rationals."""
    from exact import exact_t, max_rel_error
    from summa.cesaro import cesaro_t
    from summa.sequences import RealSequence
    seen: dict = {}
    errors = {}
    for spec in specs:
        for name, x, alpha, idx, dumped in transform_inputs(spec, keep, catalog):
            key = (x.tobytes(), alpha, tuple(idx))
            if key not in seen:
                t = cesaro_t(RealSequence(start_index=1, values=x), alpha).values
                seen[key] = (exact_t(x, alpha, idx),
                             {m: float(t[m - 1]) for m in idx})
            exact, computed = seen[key]
            errors[f"{spec['label']} {name}"] = max_rel_error(
                computed if dumped is None else dumped, exact)
    return errors


# --- metrics ---------------------------------------------------------------

def host_scale(untraced: list[dict]) -> float:
    """Factor that rescales this run's times to the reference host speed:
    PROBE_REF_S over the mean host_probe time of its passes."""
    return PROBE_REF_S / statistics.mean(p["probe_s"] for p in untraced)


def end_to_end_metrics(untraced: list[dict], t_rel_err_max: float) -> dict:
    digits = (DIGITS_CAP if t_rel_err_max == 0.0
              else min(DIGITS_CAP, -math.log10(t_rel_err_max)))
    scale = host_scale(untraced)
    return {
        # passes swing by 10 % on a shared host; over 5- to 10-run probes
        # the mean gave a lower run-to-run spread than the median
        "wall_s": statistics.mean(p["wall_s"] for p in untraced) * scale,
        "setup_s": statistics.median([p["setup_s"] for p in untraced]) * scale,
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in untraced]),
        "t_correct_digits": digits,
    }


def _module_self(layers: dict, modules) -> float:
    return sum(row["self_s"] for name, row in layers.items()
               if name.split(".")[0] in modules)


def _traced_wall(chosen: dict) -> float:
    """Duration of the pass as its root span saw it; self times sum to this."""
    return sum(end - start for _, start, end, parent, _ in chosen["spans"]
               if parent < 0)


def layer_metrics(chosen: dict, untraced_wall: float, names: list[str]) -> dict:
    """Per-layer metrics of one traced pass, by BENCHMARK.json name."""
    layers, wall = chosen["layers"], _traced_wall(chosen)
    modules = {name.split(".")[0] for name in chosen["traced_names"]} | {"bench"}
    lookups = chosen["cache_hits"] + chosen["cache_misses"]
    extras = {
        "cesaro.kernel_terms": sum(layers.get(f"cesaro.{fn}", {}).get("work", 0)
                                   for fn in ("cesaro_t", "cesaro_sigma")),
        "experiment.bytes_written": chosen["bytes_written"],
        "oracle.weights_cache.hit_ratio":
            chosen["cache_hits"] / lookups if lookups else 0.0,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall,
    }
    fields = {"self_s": "self_s", "calls": "calls", "elements": "work"}
    out = {}
    for name in names:
        if name in extras:
            out[name] = extras[name]
            continue
        prefix, field = name.rsplit(".", 1)
        if prefix in modules:
            out[name] = sum(row[fields[field]] for n, row in layers.items()
                            if n.split(".")[0] == prefix)
        else:
            out[name] = layers.get(prefix, {}).get(fields[field], 0)
    return out


def trace_problems(chosen: dict) -> list[str]:
    """Spans that do not nest, or self times that miss the traced wall time."""
    from tracing import nesting_errors
    problems = nesting_errors(chosen["spans"])[:10]
    total_self = sum(row["self_s"] for row in chosen["layers"].values())
    wall = _traced_wall(chosen)
    if abs(total_self - wall) > 1e-9 * max(1.0, wall):
        problems.append(f"self times sum to {total_self!r}, traced wall_s is "
                        f"{wall!r}")
    return problems


def evaluate_predictions(workload: str, chosen: dict, per_layer: dict,
                         catalog: dict) -> list[dict]:
    layers, wall = chosen["layers"], _traced_wall(chosen)
    out = []
    for pred in catalog["predictions"]:
        if pred["workload"] != workload:
            continue
        kind, what = pred["quantity"].split(":", 1)
        if kind == "share":
            value = _module_self(layers, set(what.split("+"))) / wall
        elif kind == "inclusive":
            value = layers.get(what, {}).get("total_s", 0.0) / wall
        else:
            value = per_layer[what]
        target, op = pred["value"], pred["op"]
        held = {">=": value >= target, "<": value < target,
                "==": value == target, "~": abs(value - target) <= NEAR}[op]
        out.append({"text": pred["text"], "measured": value, "held": held})
    return out


# --- one measured run ------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
            bench: dict, catalog: dict) -> dict:
    """Passes for ``seconds`` (half untraced, half traced with ``trace``),
    then the output checks and the metrics."""
    from workload import config_specs
    specs = config_specs(workload, seed, smoke)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK / "tmp"))
    try:
        untraced_budget = seconds / 2 if trace else seconds
        untraced = run_passes(workload, seed, 0, smoke, untraced_budget,
                              scratch)
        traced = (run_passes(workload, seed, 1, smoke, seconds / 2, scratch)
                  if trace else [])
        keep = scratch / "u0"
        attempted, failures = check_operations(specs, untraced + traced)
        problems = check_reports(specs, untraced[0], keep)
        errors = t_errors(specs, keep, catalog)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    t_rel_err_max = max(errors.values())
    if not t_rel_err_max <= T_REL_TOL:
        problems.append(f"t_rel_err_max {t_rel_err_max!r} above {T_REL_TOL}")
    run = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
        "attempted": attempted, "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures, "problems": problems,
        "t_rel_err": errors, "t_rel_err_max": t_rel_err_max,
        "passes": len(untraced),
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "pass_setup_s": [p["setup_s"] for p in untraced],
        "pass_probe_s": [p["probe_s"] for p in untraced],
        "host_scale": host_scale(untraced),
        "pass_config_s": {spec["label"]: [p["config_s"][i] for p in untraced]
                          for i, spec in enumerate(specs)},
        "verdicts": {spec["label"]: untraced[0]["exit"][i]
                     for i, spec in enumerate(specs)},
    }
    if trace == 0:
        run["metrics"] = end_to_end_metrics(untraced, t_rel_err_max)
        run["units"] = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        return run
    # the traced pass with the median wall time stands for the run
    chosen = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
    wall = _traced_wall(chosen)
    names = [m["name"] for m in bench["per_layer"]]
    run["metrics"] = layer_metrics(
        chosen, statistics.mean(p["wall_s"] for p in untraced), names)
    run["units"] = {m["name"]: m["unit"] for m in bench["per_layer"]}
    run["problems"] += trace_problems(chosen)
    run["traced_passes"] = len(traced)
    run["layers"] = {name: dict(row, share=row["self_s"] / wall)
                     for name, row in sorted(chosen["layers"].items())}
    run["module_shares"] = {
        mod: _module_self(chosen["layers"], {mod}) / wall
        for mod in sorted({n.split(".")[0] for n in chosen["layers"]})}
    run["predictions"] = evaluate_predictions(workload, chosen, run["metrics"],
                                              catalog)
    spans_path = WORK / "results" / f"spans-{workload}-seed{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(chosen["spans"]))
    run["spans_file"] = str(spans_path.relative_to(ROOT))
    return run


def print_run(run: dict) -> None:
    print(f"# {run['workload']} seed={run['seed']} trace={run['trace']} "
          f"passes={run['passes']}")
    for name, value in run["metrics"].items():
        print(f"{name} {value!r} {run['units'][name]}")
    print(f"error_rate {run['error_rate']!r} ratio "
          f"({run['failed']}/{run['attempted']})")
    print(f"t_rel_err_max {run['t_rel_err_max']!r} ratio")
    print(f"host_scale {run['host_scale']!r} ratio "
          f"(raw mean pass {statistics.mean(run['pass_wall_s'])!r} s)")
    for line in run["failures"][:5]:
        print(f"failed: {line}")
    for line in run["problems"]:
        print(f"problem: {line}")
    for pred in run.get("predictions", []):
        print(f"prediction {'held' if pred['held'] else 'FAILED'}: "
              f"{pred['text']} (measured {pred['measured']:.4g})")


def environment() -> dict:
    import numpy
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.exists() else ref
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "commit": commit,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def smoke_problems(runs: list[dict], bench: dict) -> list[str]:
    problems = []
    for run in runs:
        tag = f"{run['workload']} trace={run['trace']}"
        wanted = bench["per_layer" if run["trace"] else "end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in run["metrics"]]
        if missing:
            problems.append(f"{tag}: metrics not emitted: {missing}")
        problems += [f"{tag}: {p}" for p in run["problems"]]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", type=Path,
                    help="results file for --workload all")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "summa" / "__init__.py").is_file():
        print(f"error: no summa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((HERE / "catalog.json").read_text())
    workloads = list(catalog["workloads"])
    seconds = args.seconds or bench["run_seconds"]

    if args.smoke:
        runs = [measure(w, args.seed, 1.0, trace, True, bench, catalog)
                for w in workloads for trace in (0, 1)]
        for run in runs:
            print_run(run)
        problems = smoke_problems(runs, bench)
        for line in problems:
            print(f"smoke: {line}")
        print("smoke ok" if not problems else "smoke FAILED")
        return 0 if not problems else 1

    if args.workload == "all":
        record = {"environment": environment(), "seed": args.seed,
                  "seconds": seconds, "workloads": {}}
        for w in workloads:
            runs = [measure(w, args.seed, seconds, trace, False, bench,
                            catalog) for trace in (0, 1)]
            for run in runs:
                print_run(run)
            record["workloads"][w] = {"untraced": runs[0], "traced": runs[1]}
        path = args.record or WORK / "results" / f"all-seed{args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0

    if args.workload not in workloads:
        ap.error(f"--workload must be one of {', '.join(workloads)} or all")
    run = measure(args.workload, args.seed, seconds, args.trace, False,
                  bench, catalog)
    run["environment"] = environment()
    path = (WORK / "results"
            / f"{args.workload}-trace{args.trace}-seed{args.seed}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(run, indent=1, sort_keys=True) + "\n")
    print_run(run)
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": run["units"][name]}
                    for name, value in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(1)
