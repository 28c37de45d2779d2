"""Metric names, units, the speed probe, and the arithmetic that turns samples into metrics."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: (name, unit) of the metrics an untraced run reports, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Tasks that must lie beyond the tail percentile.
TAIL_BEYOND = 10

#: Span names whose busy time (s), self time (self_s) or call count (calls)
#: a traced run reports, with the counters and ratios after them.
_SPAN_METRICS = {
    "kernels.gram": ("calls", "s", "self_s"),
    "kernels.psd_check": ("s",),
    "gaussian.solve_spd": ("calls", "s"),
    "gaussian.compose": ("s",),
    "gaussian.concatenate": ("s",),
    "gaussian.markov_check": ("s",),
    **{f"transform.{fn}": ("s", "self_s") for fn in (
        "partition_law", "made_markov_law", "joint_law", "mimic_kernel",
        "global_convergence_experiment", "local_convergence_experiment",
    )},
    **{f"simulate.{fn}": ("s",) for fn in (
        "euler_maruyama", "ou_exact", "cholesky_sample", "empirical_covariance", "to_csv",
    )},
    "spectral.weierstrass_indices": ("s",),
    "spectral.cluster_witnesses": ("s",),
    "spectral.f_witness": ("calls",),
    "spectral.fourier_decay_rate": ("calls",),
    "serialize.kernel_from_spec": ("s",),
    **{f"cli.{sub}": ("s",) for sub in (
        "psd-check", "transform", "converge", "counterexample", "simulate",
    )},
}

_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

#: Counters recorded at layer boundaries: (name, unit).
_COUNTERS = (
    ("kernels.eval.calls", "count"),
    ("kernels.rate.calls", "count"),
    ("gaussian.vector.builds", "count"),
    ("simulate.em_path_steps", "count"),
    ("cli.import.s", "s"),
    ("cli.artifact_bytes", "bytes"),
)

#: (name, unit, better) of every metric a traced run reports.
PER_LAYER = (
    *((name, unit, "lower") for name, unit in _COUNTERS),
    *((f"{span}.{field}", _UNITS[field], "lower")
      for span, fields in _SPAN_METRICS.items() for field in fields),
    ("simulate.em_path_steps_per_s", "1/s", "higher"),
    ("spectral.index_search.useful_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def tail(values) -> tuple[float, float, int]:
    """Value at the highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With too few samples the
    smallest one is returned, with every other sample beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    idx = max(0, n - TAIL_BEYOND - 1)
    return xs[idx], 100.0 * (idx + 1) / n, n - idx - 1


#: Time of ``speed_probe`` on the 2-vCPU Xeon VM the benchmark was defined
#: on with little other load (its best there is 0.12-0.14 s).  Time metrics
#: are scaled to it; it sets their scale and nothing else.
PROBE_REFERENCE_S = 0.120


def speed_probe() -> float:
    """Seconds a fresh interpreter takes to import numpy.

    The host is shared, and its load shifts for minutes at a time: the same
    run takes up to 1.5 times as long while other tenants are busy.  The
    probe runs no code of the package (``-I`` also drops PYTHONPATH) and
    runs while nothing of the benchmark does, so only that load moves it.
    Timed before every task, its mean follows the load the tasks met.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def speed_factor(probe_s) -> float:
    """Factor that turns times measured next to these probes into reference-machine times."""
    return PROBE_REFERENCE_S / statistics.fmean(probe_s)


def end_to_end(setups, round_walls, latencies, peak_rss_mb) -> dict[str, float]:
    tail_value, _, _ = tail(latencies)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(round_walls),
        "task_p50_ms": 1e3 * statistics.median(latencies),
        "task_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(summary: dict, counters: dict, overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from a span summary and the counters (absent = 0)."""
    out = {}
    for name, _ in _COUNTERS:
        out[name] = counters.get(name, 0)
    for span, fields in _SPAN_METRICS.items():
        row = summary.get(span, {})
        for field in fields:
            out[f"{span}.{field}"] = row.get(field, 0)
    em_s = summary.get("simulate.euler_maruyama", {}).get("s", 0.0)
    out["simulate.em_path_steps_per_s"] = out["simulate.em_path_steps"] / em_s if em_s else 0.0
    witness_calls = out["spectral.f_witness.calls"]
    found = counters.get("spectral.index_search.found", 0)
    out["spectral.index_search.useful_ratio"] = found / witness_calls if witness_calls else 0.0
    out["trace.overhead_s"] = overhead_s
    return {name: int(out[name]) if unit in ("count", "bytes") else float(out[name])
            for name, unit, _ in PER_LAYER}

