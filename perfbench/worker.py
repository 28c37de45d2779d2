"""Task-running process of the benchmark; run.py starts it in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --mode setup|timed|traced \
        --seconds S --workdir DIR --out FILE

One caller, one task at a time (a closed loop).  ``setup`` stops where the
first task would start.  ``timed`` runs a fixed number of rounds of the
workload for S seconds (``workloads.rounds``), so both sides of a
comparison do the same work, and times the speed probe before every task.
``traced`` runs one untraced round
and then one traced round.  Oracles run after each task, outside its timed
span and with the tracer paused.  The result goes to FILE as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import metrics
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    source = Path(workloads.gaussian.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"worker: imported gaussmarkov from {source}, not from this checkout", file=sys.stderr)
        return 2

    tasks = workloads.generate(args.workload, args.seed)
    first_task = time.monotonic()
    if args.mode == "setup":
        _write(args.out, {"first_task_monotonic": first_task})
        return 0

    runner = workloads.CliRunner(args.workdir, dict(os.environ))
    if args.mode == "timed":
        rounds = workloads.rounds(args.workload, args.seconds)
        records, probes = [], []
        for i in range(rounds):
            records += _round(tasks, i, runner, probes=probes)
        walls = [sum(r["latency_s"] for r in records if r["round"] == i) for i in range(rounds)]
        payload = {"first_task_monotonic": first_task, "records": records, "round_walls": walls,
                   "probe_s": probes}
    else:
        payload = _traced(tasks, runner)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_runs" else resource.RUSAGE_SELF
    payload["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    payload["environment"] = environment()
    _write(args.out, payload)
    return 0


def _round(tasks, round_index, runner, tracer=None, probes=None) -> list[dict]:
    records = []
    for task in tasks:
        if probes is not None:
            probes.append(metrics.speed_probe())
        if tracer is not None:
            tracer.task, tracer.active = task.id, True
        result, latency = workloads.timed(task, tracer or workloads.Plain, runner)
        if tracer is not None:
            tracer.active = False
        problems = workloads.check(task, result)
        if task.kind == "cli":
            shutil.rmtree(result["dir"], ignore_errors=True)
        records.append({
            "round": round_index,
            "task": task.id,
            "kind": task.kind,
            "bucket": task.bucket,
            "latency_s": latency,
            "problems": problems,
        })
    return records


def _traced(tasks, runner) -> dict:
    untraced = _round(tasks, 0, runner)
    tracer = tracing.Tracer()
    tracer.install()
    runner.traced, runner.artifact_bytes = True, 0
    traced = _round(tasks, 1, runner, tracer)
    for path in runner.trace_files:
        data = json.loads(path.read_text())
        offset = len(tracer.spans)
        for span in data["spans"]:
            if span[tracing.PARENT] >= 0:
                span[tracing.PARENT] += offset
            tracer.spans.append(span)
        for name, value in data["counters"].items():
            tracer.count(name, value)
        path.unlink()
    tracer.count("cli.artifact_bytes", runner.artifact_bytes)

    wall = {name: sum(r["latency_s"] for r in rs) for name, rs in (("untraced", untraced), ("traced", traced))}
    bucket_of = {task.id: f"{task.kind}/{task.bucket}" for task in tasks}
    summary = tracing.summarize(tracer.spans)
    by_bucket = tracing.summarize(
        tracer.spans, key=lambda span: f"{bucket_of[span[tracing.TASK]]} {span[tracing.NAME]}"
    )
    return {
        "records": untraced + traced,
        "round_walls": [wall["untraced"]],
        "wall_s": wall,
        "per_layer": metrics.per_layer(summary, tracer.counters, wall["traced"] - wall["untraced"]),
        "counters": dict(tracer.counters),
        "spans_by_bucket": by_bucket,
        "span_count": len(tracer.spans),
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports about itself."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = int(fn())
                break
    return out


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, default=str))


if __name__ == "__main__":
    sys.exit(main())
