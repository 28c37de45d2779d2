"""Seeded workloads: task generation, task execution and the oracles.

A workload is a fixed list of tasks (one "round").  The seed only picks
values that do not change a task's size: Hurst indices, time offsets,
random time sets, RNG seeds handed to the library and CLI ``--seed``
values.  The library only ever receives the generated inputs.

Every task returns a result; ``check`` compares it with an oracle outside
the timed span and returns a list of problems ``(message, known_defect)``.
A known defect is a documented failure of the program at hand; it counts
as a failed task but is reported apart from unexpected mismatches.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gaussmarkov import gaussian, kernels, simulate, transform
from gaussmarkov.kernels import RateFunction

HERE = Path(__file__).resolve().parent

#: Relative tolerance of partition_law against the closed-form product.
PARTITION_RTOL = 1e-12

#: Absolute tolerance (times the largest |entry|) of made_markov_law against the block oracle.
MADE_MARKOV_TOL = 1e-10

#: Queries per window handed to the block oracle; it is quadratic in the points it glues.
BLOCK_ORACLE_WINDOW = 25

#: Standard errors allowed between two empirical covariances, on top of the
#: 2*step Euler-Maruyama bias.  A two-sided normal tail beyond 6 has
#: probability 2e-9, so over the ~10^2 entries a run checks a correct
#: program fails by chance about once in 10^6 runs.
SDE_GATE_Z = 6.0

#: CLI ``--seed`` values a generated task may use; digests exist for each.
CLI_SEEDS = (1, 2, 3, 4)

DUMP_PATHS_DEFECT = (
    "simulate --dump-paths writes fresh base paths, not the compared batches "
    "(ROADMAP item 4)"
)


@dataclass
class Task:
    id: int
    kind: str
    bucket: str
    params: dict = field(repr=False)


class Plain:
    """Instrumentation hooks of an untraced run: kernels pass through unchanged."""

    @staticmethod
    def count_kernel(kernel):
        return kernel

    @staticmethod
    def count_rate(rate):
        return rate


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def generate(workload: str, seed: int) -> list[Task]:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(GENERATORS)}")
    rng = np.random.default_rng([int(seed), _name_tag(workload)])
    tasks = GENERATORS[workload](rng)
    for i, task in enumerate(tasks):
        task.id = i
    return tasks


def _name_tag(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")


def _jittered(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n strictly increasing points: a uniform grid moved by up to a quarter gap."""
    gap = (hi - lo) / (n - 1)
    return np.linspace(lo, hi, n) + rng.uniform(-0.25, 0.25, n) * gap * np.r_[0, np.ones(n - 2), 0]


def markov_algebra(rng) -> list[Task]:
    # Why: the paper's finite-dimensional experiments at the ROADMAP sweep
    # sizes.  Almost all time is in gaussian, transform and the Gram use of
    # kernels, none in simulate or spectral, so ROADMAP items 2 (chain
    # primitive) and 3 (array kernels) show here and item 4 (cheap EM steps)
    # must not.
    tasks = []
    for level in range(8, 13):
        hurst = float(rng.uniform(0.25, 0.75))
        tasks.append(Task(0, "partition_law", f"n={2**level}", {"hurst": hurst, "n": 2**level}))
    # Criterion 3's case at H = 0.75 and mesh 2^-12.
    tasks.append(Task(0, "partition_law", "n=4096,H=0.75", {"hurst": 0.75, "n": 2**12}))
    for q in (25, 50, 100):
        tasks.append(Task(0, "made_markov_law", f"q={q}", {
            "hurst": float(rng.uniform(0.3, 0.8)),
            "queries": _jittered(rng, 1.0, 2.0, q),
            "splits": np.sort(rng.uniform(1.0, 2.0, 4 * q)),
            "window": int(rng.integers(0, q - BLOCK_ORACLE_WINDOW + 1)),
        }))
    for n in (20, 40, 80):
        tasks.append(Task(0, "markov_check", f"n={n}", {
            "hurst": float(rng.uniform(0.3, 0.8)),
            "alpha": float(rng.uniform(0.2, 1.0)),
            "grid": _jittered(rng, 1.0, 2.0, n),
        }))
    for n in (200, 400):
        start = float(rng.uniform(0.0, 0.5))
        tasks.append(Task(0, "gram_psd", f"n={n}", {"grid": _jittered(rng, start, start + 2.0, n)}))
    tasks.append(Task(0, "global_convergence", "sets=7", {
        "queries": np.sort(rng.uniform(0.0, 1.0, 5)),
        "steps": [2.0**-k for k in range(1, 8)],
    }))
    return tasks


#: (kernel family, span of the recorded grid, where the grid may start)
SDE_CASES = (
    ("exponential", 2.0, (0.0, 1.0)),
    ("fbm_h0.5", 1.0, (1.0, 1.5)),
    ("fbm_h0.75", 2.0, (1.0, 1.5)),
    ("rate_1+t", 2.0, (0.0, 0.5)),
)


def sde_simulation(rng) -> list[Task]:
    # Why: time goes to Euler-Maruyama substeps, Philox draws and the
    # per-substep scalar kernel closures, while the Gaussian algebra is
    # trivial (n <= 8).  The rate_kernel(1+t) tasks evaluate the kernel
    # layer at thousands of distinct times (the antiderivative's linear knot
    # scan makes each one take seconds): the opposite use of kernels from
    # markov_algebra's Gram, so a kernel change that speeds the Gram and
    # slows scalar evaluation shows here.
    tasks = []
    for family, span, (lo, hi) in SDE_CASES:
        for route in ("exact", "cholesky"):
            start = round(float(rng.uniform(lo, hi)), 3)
            tasks.append(Task(0, "sde_comparison", f"{family},{route}", {
                "family": family,
                "route": route,
                "grid": start + np.linspace(0.0, span, 5),
                "paths": 10_000,
                "step": 1e-3,
                "seed": int(rng.integers(0, 2**31)),
            }))
    return tasks


def cli_variants(seed: int) -> list[tuple[str, list[str], int]]:
    """README examples as (bucket, argv, expected exit code) for one CLI seed."""
    s = str(seed)
    exp_kernel = '{"type": "exponential", "rate": 1.0}'
    return [
        ("psd-check", ["psd-check", "--kernel", exp_kernel, "--grid", "0:2:5",
                       "--random-grids", "20", "--seed", s], 0),
        ("transform", ["transform", "--kernel", '{"type": "fbm", "hurst": 0.75}',
                       "--alpha", "0.0", "--grid", "1:2:9"], 0),
        ("converge-mesh", ["converge", "--kernel", '{"type": "fbm_log", "hurst": 0.75}',
                           "--alpha", "0.0", "--grid", "0:1:2", "--mesh-sequence",
                           "0.125,0.03125,0.0078125,0.001953125"], 0),
        ("converge-steps", ["converge", "--kernel", '{"type": "fbm_log", "hurst": 0.5}',
                            "--alpha", "1.0", "--grid", "0:1:3", "--steps",
                            "0.5,0.25,0.125,0.0625,0.03125"], 0),
        ("counterexample", ["counterexample", "--i-max", "1", "--targets", "0.25,1,4"], 0),
        # The depth-4 witness search is provably out of reach: exit 3 with
        # partial artifacts is the expected outcome.
        ("counterexample-depth4", ["counterexample", "--i-max", "4", "--targets", "0.25,1,4"], 3),
        ("simulate", ["simulate", "--kernel", exp_kernel, "--alpha", "1.0", "--grid", "0:5:6",
                      "--paths", "10000", "--seed", s, "--step", "0.001"], 0),
        # ROADMAP item 4's reproduction: non-unit variance, so dumping the
        # base paths instead of the compared ones shows in the moments.
        ("simulate-dump", ["simulate", "--kernel", '{"type": "fbm", "hurst": 0.75}',
                           "--alpha", "0.0", "--grid", "1:3:3", "--paths", "10000",
                           "--seed", s, "--step", "0.001", "--dump-paths"], 0),
    ]


def cli_runs(rng) -> list[Task]:
    # Why: what a user pays per command: interpreter start, import, spec
    # parsing, the spectral index search and artifact writing.  The only
    # workload that runs spectral, serialize and cli, and the only one that
    # pays set-up on every task.
    tasks = []
    for i in range(len(cli_variants(0))):
        bucket, argv, expected = cli_variants(int(rng.choice(CLI_SEEDS)))[i]
        tasks.append(Task(0, "cli", bucket, {"argv": argv, "expected_exit": expected}))
    return tasks


GENERATORS = {
    "markov_algebra": markov_algebra,
    "sde_simulation": sde_simulation,
    "cli_runs": cli_runs,
}

#: Rounds a timed run does at ``--seconds REFERENCE_SECONDS``; other
#: lengths scale them.  With the speed probe before every task
#: (``metrics.speed_probe``) the timed phases take about 35, 38 and 46 s on a
#: busy 2-vCPU Xeon VM.  The count is fixed, not timed, so both sides of a
#: comparison do the same work and have the same number of tasks behind
#: each percentile.
ROUNDS = {
    "markov_algebra": 4,
    "sde_simulation": 3,
    "cli_runs": 3,
}

REFERENCE_SECONDS = 40.0


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(ROUNDS[workload] * seconds / REFERENCE_SECONDS))


# ---------------------------------------------------------------------------
# Execution: the code inside the timed span
# ---------------------------------------------------------------------------


def _fbm_log_profile(hurst: float, x):
    two_h = 2.0 * hurst
    return 0.5 * (np.exp(two_h * x) + np.exp(-two_h * x) - np.abs(np.exp(x) - np.exp(-x)) ** two_h)


def _one_plus_t(t: float) -> float:
    return 1.0 + t


def _half_over_t(t: float) -> float:
    return 0.5 / t


def _sde_inputs(family: str, inst):
    if family == "exponential":
        return inst.count_kernel(kernels.exponential_rate(1.0)), RateFunction.constant(1.0)
    if family == "fbm_h0.5":
        return inst.count_kernel(kernels.fbm(0.5)), inst.count_rate(RateFunction.from_callable(_half_over_t))
    if family == "fbm_h0.75":
        return inst.count_kernel(kernels.fbm(0.75)), RateFunction.constant(0.0)
    rate = inst.count_rate(RateFunction.from_callable(_one_plus_t))
    return inst.count_kernel(transform.rate_kernel(rate)), rate


def run_task(task: Task, inst, ctx=None):
    p = task.params
    if task.kind == "partition_law":
        kernel = inst.count_kernel(kernels.fbm_log(p["hurst"]))
        return transform.partition_law(kernel, transform.Partition.uniform(0.0, 1.0, p["n"]))
    if task.kind == "made_markov_law":
        kernel = inst.count_kernel(kernels.fbm(p["hurst"]))
        return transform.made_markov_law(kernel, p["splits"], p["queries"])
    if task.kind == "markov_check":
        kernel = inst.count_kernel(kernels.fbm(p["hurst"]))
        mimic = transform.mimic_kernel(kernel, RateFunction.constant(p["alpha"]))
        return gaussian.markov_check(transform.joint_law(mimic, p["grid"]))
    if task.kind == "gram_psd":
        kernel = inst.count_kernel(
            transform.rate_kernel(inst.count_rate(RateFunction.from_callable(_one_plus_t)))
        )
        return kernels.gram(kernel, p["grid"]), kernels.psd_check(kernel, p["grid"])
    if task.kind == "global_convergence":
        kernel = inst.count_kernel(kernels.fbm_log(0.5))
        target = transform.rate_kernel(RateFunction.constant(1.0))
        adm = transform.AdmissibleSequence.from_steps(p["steps"])
        return transform.global_convergence_experiment(kernel, target, adm, p["queries"], len(p["steps"]))
    if task.kind == "sde_comparison":
        kernel, alpha = _sde_inputs(p["family"], inst)
        return simulate.figure_comparison(
            kernel, alpha, p["grid"], n_paths=p["paths"], seed=p["seed"], step=p["step"],
            gaussian_route=p["route"],
        )
    if task.kind == "cli":
        return ctx.run_cli(task)
    raise ValueError(f"unknown task kind {task.kind!r}")


class CliRunner:
    """Runs CLI tasks as fresh interpreters; traced runs go through traced_cli.py."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.traced = False
        self.trace_files: list[Path] = []
        self.artifact_bytes = 0

    def run_cli(self, task: Task) -> dict:
        out = self.workdir / f"cli-task-{task.id}"
        shutil.rmtree(out, ignore_errors=True)
        args = [*task.params["argv"], "--out", str(out)]
        if self.traced:
            spans = self.workdir / f"cli-trace-{task.id}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), "--spans", str(spans),
                   "--task", str(task.id), "--", *args]
            self.trace_files.append(spans)
        else:
            cmd = [sys.executable, "-m", "gaussmarkov.cli", *args]
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        if out.is_dir():
            self.artifact_bytes += sum(f.stat().st_size for f in out.iterdir())
        return {"exit": proc.returncode, "dir": out, "stderr": proc.stderr[-500:]}


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def check(task: Task, result) -> list[tuple[str, bool]]:
    return CHECKS[task.kind](task.params, result)


def _check_partition_law(p, plan):
    pts = np.linspace(0.0, 1.0, p["n"] + 1)
    expected = float(np.prod(_fbm_log_profile(p["hurst"], np.diff(pts))))
    got = float(plan.cross[0, 0])
    problems = []
    if abs(got - expected) > PARTITION_RTOL * abs(expected):
        problems.append((f"correlation {got!r} != closed form {expected!r}", False))
    if plan.cov_left[0, 0] != 1.0 or plan.cov_right[0, 0] != 1.0:
        problems.append(("endpoint variances are not 1", False))
    return problems


def _check_made_markov_law(p, law):
    a = p["window"]
    queries = p["queries"][a:a + BLOCK_ORACLE_WINDOW]
    ref = transform.made_markov_law_by_blocks(kernels.fbm(p["hurst"]), p["splits"], queries)
    sub = law.cov[a:a + BLOCK_ORACLE_WINDOW, a:a + BLOCK_ORACLE_WINDOW]
    err = float(np.max(np.abs(sub - ref.cov)))
    if err > MADE_MARKOV_TOL * max(1.0, float(np.max(np.abs(ref.cov)))):
        return [(f"made_markov_law differs from the block oracle by {err:.3e}", False)]
    return []


def _check_markov_check(p, report):
    if not report.is_markov:
        return [(f"mimic law not Markov: residual {report.max_residual:.3e}", False)]
    return []


def _check_gram_psd(p, result):
    mat, report = result
    grid = p["grid"]
    antider = grid + 0.5 * grid**2  # integral of 1 + t
    expected = np.exp(-np.abs(antider[None, :] - antider[:, None]))
    problems = []
    err = float(np.max(np.abs(mat - expected)))
    if err > 1e-9:
        problems.append((f"Gram differs from exp(-|A(t)-A(s)|) by {err:.3e}", False))
    if not report.passed:
        problems.append((f"psd_check failed: min eigenvalue {report.min_eigenvalue:.3e}", False))
    return problems


def _check_global_convergence(p, rows):
    kernel = kernels.fbm_log(0.5)
    target_law = transform.joint_law(transform.rate_kernel(RateFunction.constant(1.0)), p["queries"])
    adm = transform.AdmissibleSequence.from_steps(p["steps"])
    problems = []
    for n, row in enumerate(rows, start=1):
        ref = transform.made_markov_law_by_blocks(kernel, adm.time_set(n), p["queries"])
        dist = gaussian.gaussian_distance(ref, target_law)
        if abs(dist - row.distance) > MADE_MARKOV_TOL:
            problems.append((f"set {n}: distance {row.distance!r} != block oracle {dist!r}", False))
    if len(rows) != len(p["steps"]):
        problems.append((f"{len(rows)} rows for {len(p['steps'])} sets", False))
    return problems


def _check_sde_comparison(p, report):
    step = p["step"]
    sde, gauss = report.sde_moments, report.gauss_moments
    se = np.sqrt(sde.cov_se**2 + gauss.cov_se**2)
    gaps = {
        "routes": (np.abs(sde.law.cov - gauss.law.cov), se),
        "sde vs analytic": (np.abs(sde.law.cov - report.analytic.cov), sde.cov_se),
        "gauss vs analytic": (np.abs(gauss.law.cov - report.analytic.cov), gauss.cov_se),
    }
    problems = []
    for name, (gap, err) in gaps.items():
        bad = gap > SDE_GATE_Z * err + 2.0 * step
        if np.any(bad):
            problems.append((f"{name}: max gap {float(np.max(gap)):.3e} beyond {SDE_GATE_Z} SE + 2 step", False))
    return problems


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_key(argv) -> str:
    return json.dumps(list(argv))


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


#: Files a correct fix must change; checked by their moments, not their bytes.
TRAJECTORY_FILES = ("trajectories_sde.csv", "trajectories_gauss.csv")


def artifact_digests(out: Path) -> dict[str, str]:
    return {f.name: _sha256(f) for f in sorted(out.iterdir()) if f.name not in TRAJECTORY_FILES}


def _check_cli(p, result, digests=None):
    digests = load_digests() if digests is None else digests
    out = result["dir"]
    problems = []
    if result["exit"] != p["expected_exit"]:
        problems.append((f"exit {result['exit']}, expected {p['expected_exit']}: {result['stderr']}", False))
    if not out.is_dir():
        return problems + [("no artifacts written", False)]
    expected = digests.get(digest_key(p["argv"]))
    got = artifact_digests(out)
    if expected is None:
        problems.append(("no reference digests for this command", False))
    elif got != expected:
        changed = sorted(set(got) ^ set(expected) | {k for k in got if got[k] != expected.get(k)})
        problems.append((f"artifacts differ from the reference: {changed}", False))
    if "--dump-paths" in p["argv"]:
        problems += _check_dumped_moments(out)
    return problems


def _check_dumped_moments(out: Path) -> list[tuple[str, bool]]:
    summary = json.loads((out / "summary.json").read_text())
    problems = []
    for route in ("sde", "gauss"):
        path = out / f"trajectories_{route}.csv"
        if not path.exists():
            problems.append((f"{path.name} missing", False))
            continue
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        paths = np.array(rows[1:], dtype=float)
        centered = paths - paths.mean(axis=0)
        cov = centered.T @ centered / (paths.shape[0] - 1)
        ref = np.array(summary[route]["cov"])
        err = float(np.max(np.abs(cov - ref)))
        if err > 1e-9 * max(1.0, float(np.max(np.abs(ref)))):
            # Only the Gaussian-route dump is the documented defect.
            known = route == "gauss"
            note = f": {DUMP_PATHS_DEFECT}" if known else ""
            problems.append((f"{path.name} covariance differs from summary.json by {err:.3e}{note}", known))
    return problems


CHECKS = {
    "partition_law": _check_partition_law,
    "made_markov_law": _check_made_markov_law,
    "markov_check": _check_markov_check,
    "gram_psd": _check_gram_psd,
    "global_convergence": _check_global_convergence,
    "sde_comparison": _check_sde_comparison,
    "cli": _check_cli,
}


def timed(task: Task, inst, ctx=None):
    """Runs one task; returns (result, latency in seconds)."""
    t0 = time.perf_counter()
    result = run_task(task, inst, ctx)
    return result, time.perf_counter() - t0
