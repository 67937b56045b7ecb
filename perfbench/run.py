"""Benchmark of the tangles engine, run from the root of a checkout.

    python3 perfbench/run.py --workload {query,verify,finite} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

A run makes its inputs from --seed, measures for about --seconds, checks
every answer and prints, as its last stdout line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a fixed amount of work is
run once untraced and once traced, and the metrics are per layer.  The line
before it carries the stamp (git sha, versions, nproc, seed) and the
workload's properties.  A readable table goes to stderr.  ``--workload all``
runs every workload in its own process and prints one table.

The program is imported from ``src/`` of the checkout; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from layertrace import METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = workloads.SRC
# fresh interpreters timed for setup_s before the workload, and as many
# after it, so that the median spans the run; the median is reported
SETUP_RUNS = 3
TRACE_SETUP_RUNS = 3

# (name, unit); every untraced run reports all of them
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("pass_s", "s"),
)
# per-layer metrics measured here rather than by the tracer
EXTRA_LAYER_METRICS = (
    ("setup.deps_import_s", "s"),
    ("setup.tangles_import_s", "s"),
    ("setup.schema_parse_s", "s"),
    ("trace.overhead_pct", "%"),
)


def git_sha() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# The percentile op_tail_ms reports, fixed per workload so that runs stay
# comparable.  A 38-second run holds about 7500 queries (p99 leaves about
# 75 beyond), 36 cold suite passes (p60 leaves about 14, and 9 on a run
# slowed by 60 %) and 6 passes of 15 finite instances (p85 falls inside
# the times of the 13th-slowest instance).
TAIL_PERCENTILE = {"query": 99, "verify": 60, "finite": 85}


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(out, setup_s: float, tail_pct: int) -> dict:
    rss = out.rss_mb if out.rss_mb is not None else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "ops_per_s": len(out.op_s) / out.busy_s,
        "op_p50_ms": statistics.median(out.op_s) * 1e3,
        "op_tail_ms": percentile(out.op_s, tail_pct) * 1e3,
        "pass_s": statistics.median(out.pass_s),
    }


def run_one(args) -> tuple[dict, workloads.Outcome]:
    timed, traced = workloads.WORKLOADS[args.workload]
    if args.trace:
        setups = [workloads.cold("setup") for _ in range(TRACE_SETUP_RUNS)]
        deps = [workloads.cold("deps")["deps_s"] for _ in range(TRACE_SETUP_RUNS)]
        out, overhead, layers = traced(args.seed, Tracer())
        layers = {name: layers[name] for name, _, _ in METRICS}
        layers["setup.deps_import_s"] = statistics.median(deps)
        layers["setup.tangles_import_s"] = statistics.median(s["import_s"] for s in setups)
        layers["setup.schema_parse_s"] = statistics.median(s["parse_s"] for s in setups)
        layers["trace.overhead_pct"] = overhead * 100
        units = {name: unit for name, unit, _ in METRICS} | dict(EXTRA_LAYER_METRICS)
        return {k: {"value": v, "unit": units[k]} for k, v in layers.items()}, out

    setups = [workloads.cold("setup") for _ in range(SETUP_RUNS)]
    out = timed(args.seed, args.seconds)
    setups += [workloads.cold("setup") for _ in range(SETUP_RUNS)]
    setup_s = statistics.median(s["import_s"] + s["parse_s"] for s in setups)
    values = end_to_end(out, setup_s, TAIL_PERCENTILE[args.workload])
    out.properties.update(ops=len(out.op_s), passes=len(out.pass_s),
                          tail_percentile=TAIL_PERCENTILE[args.workload])
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, out


def run_all(args) -> int:
    """Every workload in its own process, then one table on stdout."""
    rows, ok = [], True
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and res["correct"]
        rows.append((w, "failed_frac", res["failed"] / res["attempted"], "1"))
        rows += [(w, k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
    for w, name, value, unit in rows:
        print(f"{w:<8} {name:<32} {value:>14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "tangles" / "__init__.py").is_file():
        print(f"error: no tangles package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    metrics, out = run_one(args)
    wall = time.perf_counter() - t0
    info = {
        "stamp": stamp(args),
        "properties": out.properties,
        "failed_frac": out.failed / max(1, out.attempted),
        "failures": out.failures,
        "wall_s": wall,
    }
    print(json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:<8} {name:<32} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload:<8} {'failed_frac':<32} {info['failed_frac']:>14.6g} 1", file=sys.stderr)
    result = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
