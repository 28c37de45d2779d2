"""Tests of the benchmark itself: generation, span arithmetic, oracles, counts.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil

import numpy as np
import pytest

import metrics
import tracer as tracing
import workloads
from run import ROOT, child_env

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _params_equal(a, b) -> bool:
    if a.keys() != b.keys():
        return False
    return all(np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k] for k in a)


@pytest.mark.parametrize("workload", workloads.GENERATORS)
def test_generator_is_deterministic_for_a_seed(workload):
    first, again, other = (workloads.generate(workload, s) for s in (7, 7, 8))
    assert [(t.kind, t.bucket) for t in first] == [(t.kind, t.bucket) for t in again]
    assert all(_params_equal(a.params, b.params) for a, b in zip(first, again))
    # Another seed changes values, never sizes.
    assert [(t.kind, t.bucket) for t in first] == [(t.kind, t.bucket) for t in other]
    assert not all(_params_equal(a.params, b.params) for a, b in zip(first, other))


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100] has children [10, 30] and [40, 90]; the second has a
    # child [50, 60]; a recursive call of "a" sits inside "b".
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 30, 0, 0],
        ["b", 40, 90, 0, 0],
        ["a", 50, 60, 2, 0],
        ["a", 52, 55, 3, 0],
    ]
    assert tracing.self_times_ns(spans) == [30, 20, 40, 7, 3]
    summary = tracing.summarize(spans)
    assert summary["root"] == {"calls": 1, "s": pytest.approx(100e-9), "self_s": pytest.approx(30e-9)}
    # Busy time counts the nested "a" once, through its outermost span.
    assert summary["a"]["calls"] == 3
    assert summary["a"]["s"] == pytest.approx(30e-9)
    assert summary["a"]["self_s"] == pytest.approx(30e-9)
    assert summary["b"]["self_s"] == pytest.approx(40e-9)


def test_tail_keeps_ten_samples_beyond_it():
    value, pct, beyond = metrics.tail(range(100))
    assert (value, pct, beyond) == (89, 90.0, 10)
    assert metrics.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


def test_speed_factor_scales_to_the_reference_probe_time():
    ref = metrics.PROBE_REFERENCE_S
    assert metrics.speed_factor([0.5 * ref, 1.5 * ref]) == pytest.approx(1.0)
    assert metrics.speed_factor([2 * ref]) == pytest.approx(0.5)
    assert metrics.speed_probe() > 0


def _task(workload, kind):
    return next(t for t in workloads.generate(workload, 3) if t.kind == kind)


def test_correct_results_pass_and_corrupted_ones_fail():
    task = _task("markov_algebra", "partition_law")
    plan = workloads.run_task(task, workloads.Plain)
    assert workloads.check(task, plan) == []
    joint = plan.joint
    cov = joint.cov.copy()
    cov[0, 1] = cov[1, 0] = cov[0, 1] * (1 + 1e-9)
    corrupted = type(plan)(joint=type(joint)(times=joint.times, mean=joint.mean, cov=cov),
                           left_dim=1, right_dim=1)
    problems = workloads.check(task, corrupted)
    assert problems and not any(known for _, known in problems)

    task = _task("markov_algebra", "made_markov_law")
    law = workloads.run_task(task, workloads.Plain)
    assert workloads.check(task, law) == []
    cov = law.cov.copy()
    a = task.params["window"]
    cov[a, a + 1] = cov[a + 1, a] = cov[a, a + 1] + 1e-8
    assert workloads.check(task, type(law)(times=law.times, mean=law.mean, cov=cov))


def test_corrupted_cli_artifact_fails(tmp_path):
    task = _task("cli_runs", "cli")
    runner = workloads.CliRunner(tmp_path, child_env())
    result = workloads.run_task(task, workloads.Plain, runner)
    assert workloads.check(task, result) == []
    artifact = next(result["dir"].iterdir())
    artifact.write_bytes(artifact.read_bytes() + b" ")
    problems = workloads.check(task, result)
    assert problems and not any(known for _, known in problems)
    shutil.rmtree(result["dir"])


def test_dump_paths_defect_is_reported_as_known(tmp_path):
    paths = np.random.default_rng(0).standard_normal((50, 2))
    centered = paths - paths.mean(axis=0)
    cov = centered.T @ centered / 49
    # The SDE dump matches its summary; the Gaussian one does not.
    summary = {"sde": {"cov": cov.tolist()}, "gauss": {"cov": (4 * cov).tolist()}}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    for route in ("sde", "gauss"):
        rows = ["0,1"] + [f"{x:.17g},{y:.17g}" for x, y in paths]
        (tmp_path / f"trajectories_{route}.csv").write_text("\n".join(rows) + "\n")
    problems = workloads._check_dumped_moments(tmp_path)
    assert [known for _, known in problems] == [True]
    assert "trajectories_gauss.csv" in problems[0][0]


def _traced_counts(tasks):
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        for task in tasks:
            tracer.task = task.id
            workloads.run_task(task, tracer)
    finally:
        uninstall()
    summary = tracing.summarize(tracer.spans)
    return {name: row["calls"] for name, row in summary.items()}, dict(tracer.counters)


def test_call_counts_repeat_exactly_across_traced_runs():
    tasks = [t for t in workloads.generate("markov_algebra", 5) if t.bucket in
             ("n=256", "q=25", "n=20", "n=200", "sets=7")]
    spans_a, counters_a = _traced_counts(tasks)
    spans_b, counters_b = _traced_counts(tasks)
    assert spans_a == spans_b and counters_a == counters_b
    assert spans_a["gaussian.solve_spd"] > 0 and counters_a["kernels.eval.calls"] > 0


def test_tracer_uninstall_restores_the_package():
    from gaussmarkov import cli, gaussian, transform

    before = (transform.partition_law, cli.markov_check, gaussian.GaussianVector.__post_init__)
    tracing.Tracer().install()()
    assert (transform.partition_law, cli.markov_check, gaussian.GaussianVector.__post_init__) == before


def test_benchmark_json_names_the_reported_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.GENERATORS)
    per_layer = metrics.per_layer({}, {}, 0.0)
    assert list(per_layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(math.isfinite(v) for v in per_layer.values())
