"""The workload process: one caller running one pass over a workload's configs.

run.py starts this script once per pass, one process at a time, with the
numeric libraries' thread pools pinned to one thread, so every pass pays
exactly what a fresh ``summa`` command pays after start-up and no pass sees
another's caches or heap.  The script imports summa from the checkout's
``src``, builds the configs named in catalog.json (the two together are
timed as set-up), runs them back to back through ``summa.experiment.run``,
times ``host_probe`` (a fixed job that lets run.py rescale for host speed),
and writes what it measured to a JSON file.  With ``--trace 1`` every public
summa function records spans first (see tracing.py).

    python3 perfbench/workload.py --workload oracle --seed 42 --trace 0 \
        --out DIR --result FILE
"""

import argparse
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CATALOG = HERE / "catalog.json"
SRC = HERE.parent / "src"

SMOKE_N = 64
SMOKE_TRIALS = 5


def config_specs(workload: str, seed: int, smoke: bool) -> list[dict]:
    """The workload's catalog entries with the seed filled in and, for smoke
    runs, every size shrunk to SMOKE_N and every trial count to SMOKE_TRIALS."""
    import json
    specs = json.loads(CATALOG.read_text())["workloads"][workload]["configs"]
    for spec in specs:
        cfg = spec["config"]
        if cfg["mode"] == "oracle":
            cfg["seed"] = seed
            if smoke:
                cfg["trials"] = SMOKE_TRIALS
        elif smoke and cfg["mode"] == "transform_dump":
            cfg["sequence"]["n"] = SMOKE_N + 1
        elif smoke:
            cfg["n"] = SMOKE_N
    return specs


def host_probe() -> float:
    """Seconds for a fixed pure-Python job that shares no code with summa:
    Neumaier passes over a million-element float list (larger than the
    cache, like the alpha=1 accumulation), Fraction sums and small fsum
    calls, the kinds of work the workloads spend their time in.  run.py
    rescales time metrics by it: a shared host can run 30 % faster or slower
    for minutes at a time, and across runs the workloads' pass times follow
    this job's time (correlation 0.7 to 0.96 in 5- to 8-run probes)."""
    import random
    from fractions import Fraction
    from math import fsum
    rng = random.Random(0)
    values = [rng.random() - 0.5 for _ in range(1_000_000)]
    t0 = time.perf_counter()
    total = comp = 0.0
    for x in values + values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    acc = Fraction(0)
    for i in range(1, 4000):
        acc += Fraction(i % 9 - 4, i % 11 + 1)
    for k in range(3000):
        fsum([j * 0.1 for j in range(k, k + 50)])
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """High-water resident set of this process's address space, in MiB.

    Not ru_maxrss: Linux carries that over from the parent through fork and
    exec, so a large parent would show up as the workload's peak.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    import sys
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import summa  # noqa: F401  (the import is what setup_s times)
    from summa.experiment import ExperimentConfig
    specs = config_specs(args.workload, args.seed, args.smoke)
    configs = [ExperimentConfig.from_json(spec["config"]) for spec in specs]
    setup_s = time.perf_counter() - t0

    import hashlib
    import json
    from contextlib import nullcontext

    from summa.oracle import _weights_cached
    from tracing import Tracer, summarize

    tracer = Tracer() if args.trace else None
    traced_names = tracer.install() if tracer else []
    from summa.experiment import run  # after install: the traced binding

    outs = [args.out / spec["label"] for spec in specs]
    for out in outs:
        out.mkdir(parents=True)
    seconds, exits, errors = [], [], []
    span = tracer.span("bench.pass") if tracer else nullcontext()
    t0 = time.perf_counter()
    with span:
        for config, out in zip(configs, outs):
            c0 = time.perf_counter()
            try:
                exits.append(run(config, out, quiet=True).exit_status)
                errors.append(None)
            except Exception as e:  # a raising config is a failed operation
                exits.append(None)
                errors.append(f"{type(e).__name__}: {e}")
            seconds.append(time.perf_counter() - c0)
    wall = time.perf_counter() - t0

    cache = _weights_cached.cache_info()
    record = {
        "setup_s": setup_s,
        "wall_s": wall,
        "config_s": seconds,
        "exit": exits,
        "error": errors,
        "report_sha256": [
            hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
            if (out / "report.json").exists() else None for out in outs],
        "bytes_written": sum(f.stat().st_size for out in outs
                             for f in out.rglob("*") if f.is_file()),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "peak_rss_mb": peak_rss_mb(),
    }
    # after the peak is read: the probe's million-element list would raise it
    record["probe_s"] = host_probe()
    if tracer:
        record["spans"] = tracer.spans
        record["layers"] = summarize(record["spans"])
        record["traced_names"] = traced_names
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
