"""gaussmarkov benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload markov_algebra|sde_simulation|cli_runs \
        --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the run sets
the workload up three times in fresh interpreters, runs a fixed number of
rounds of it (``workloads.rounds``) with the speed probe before every task,
and reports the end-to-end metrics scaled to the probe's reference time.
With
``--trace 1`` it runs one untraced and one traced round and reports the
per-layer metrics and the tracing overhead.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full record (run
environment, every task, per-size-bucket figures) goes to
``.perfbench/results/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("markov_algebra", "sde_simulation", "cli_runs")

#: Set-ups measured before and after the measured process, which adds one.
SETUP_PROBES = (1, 1)

#: BLAS threads of the task-running processes.
BLAS_THREADS = 1

#: Everything a run does must end within this many seconds.
RUN_BUDGET_S = 170.0


class RunError(Exception):
    pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gaussmarkov" / "__init__.py").is_file():
        print(f"run.py: no gaussmarkov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except RunError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    report(record)
    return 0


def child_env() -> dict:
    """Environment of every child: this checkout's sources, one BLAS thread.

    One thread stays within nproc and keeps BLAS helper threads from
    spinning on the second CPU while the single caller runs Python.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run(args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        def worker(mode: str) -> dict:
            out = workdir / f"{mode}.json"
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
                   "--workdir", str(workdir), "--out", str(out)]
            started = time.monotonic()
            # Its own process group, so a timeout also ends the CLI children.
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                    text=True, start_new_session=True)
            try:
                _, stderr = proc.communicate(timeout=max(1.0, deadline - started))
            except subprocess.TimeoutExpired as err:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise RunError(f"{mode} worker did not finish within the run budget") from err
            if proc.returncode != 0:
                raise RunError(f"{mode} worker exited {proc.returncode}: {stderr[-2000:]}")
            result = json.loads(out.read_text())
            if "first_task_monotonic" in result:
                result["setup_s"] = result["first_task_monotonic"] - started
            return result

        setups, setup_probes = [], []

        def probed(mode: str) -> dict:
            # Set-up does what the probe does and more, so each sample is
            # scaled by the probe taken just before it.
            setup_probes.append(metrics.speed_probe())
            result = worker(mode)
            setups.append(result["setup_s"])
            return result

        if args.trace:
            main_run = worker("traced")
        else:
            before, after = SETUP_PROBES
            for _ in range(before):
                probed("setup")
            main_run = probed("timed")
            for _ in range(after):
                probed("setup")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run": {
            "git_rev": git_rev(),
            "source_sha256": source_digest(),
            "nproc": nproc,
            "cpu_model": cpu_model(),
            **main_run["environment"],
        },
        "setup_samples_s": setups,
        "setup_probe_s": setup_probes,
        **{k: v for k, v in main_run.items() if k not in ("environment", "first_task_monotonic")},
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    records = record["records"]
    failed = [r for r in records if r["problems"]]
    unexpected = [r for r in failed if any(not known for _, known in r["problems"])]
    run_info = record["run"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print("run " + "  ".join(f"{k}={v}" for k, v in run_info.items()))

    latencies = [r["latency_s"] for r in records if not record["trace"] or r["round"] == 0]
    by_bucket: dict[str, list[float]] = {}
    for r in records:
        by_bucket.setdefault(f"{r['kind']}/{r['bucket']}", []).append(r["latency_s"])
    print("median task latency by size bucket:")
    for bucket, values in by_bucket.items():
        print(f"  {bucket:42s} {1e3 * statistics.median(values):12.3f} ms  ({len(values)} tasks)")
    for r in failed:
        for message, known in r["problems"]:
            tag = "known defect" if known else "FAILED"
            print(f"  {tag}: task {r['task']} {r['kind']}/{r['bucket']} round {r['round']}: {message}")

    if record["trace"]:
        values = record["per_layer"]
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        print("per-layer time by size bucket (busy s, self s, calls):")
        for key, row in sorted(record["spans_by_bucket"].items()):
            print(f"  {key:64s} {row['s']:10.4f} {row['self_s']:10.4f} {row['calls']:8d}")
        print(f"tracing overhead: traced {record['wall_s']['traced']:.4f} s "
              f"- untraced {record['wall_s']['untraced']:.4f} s")
    else:
        setups, walls = record["setup_samples_s"], record["round_walls"]
        raw = metrics.end_to_end(setups, walls, latencies, record["peak_rss_mb"])
        factor = metrics.speed_factor(record["probe_s"])
        values = metrics.end_to_end(
            [s * metrics.speed_factor([p]) for s, p in zip(setups, record["setup_probe_s"])],
            [factor * w for w in walls], [factor * x for x in latencies], record["peak_rss_mb"],
        )
        units = dict(metrics.END_TO_END)
        probes = record["probe_s"]
        print(f"speed probe: mean {statistics.fmean(probes):.4f} s, best {min(probes):.4f} s of "
              f"{len(probes)}; times are scaled by {factor:.4f} (set-ups by the probe before each) "
              f"to the reference {metrics.PROBE_REFERENCE_S} s; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items() if k != "peak_rss_mb"))
        _, pct, beyond = metrics.tail(latencies)
        print(f"task_tail_ms is the p{pct:.1f} latency of {len(latencies)} tasks ({beyond} beyond it); "
              f"wall_s is the mean of {len(record['round_walls'])} rounds; "
              f"setup_s is the median of {len(record['setup_samples_s'])} set-ups")
        print(f"failed_frac {len(failed) / len(records):.6g} ({len(failed)} of {len(records)} tasks, "
              f"{len(unexpected)} not known defects)")
    print("metrics:")
    for name, value in values.items():
        print(f"  {name:42s} {value!r:>24} {units[name]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gaussmarkov").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
