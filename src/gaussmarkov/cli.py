"""Command-line entry point.

Subcommands wire kernel specs into reproducible runs that drop CSV/JSON
artifacts in the output directory:

    gaussmarkov psd-check      --kernel SPEC --grid 0:2:5 [--random-grids N]
    gaussmarkov transform      --kernel SPEC --alpha RATE --grid 1:2:5
    gaussmarkov converge       --kernel SPEC --alpha RATE --grid 0:1:2 --mesh-sequence ...
    gaussmarkov counterexample --targets 0.25,1,4 --i-max 4
    gaussmarkov simulate       --kernel SPEC --alpha RATE --grid 0:5:6 --paths N

Exit codes: 0 success, 1 numerical/validation failure, 2 usage error,
3 resource budget exceeded (partial artifacts are still written).

Values from ``--config FILE`` (JSON, keys = flag names with underscores)
fill in any flag not given on the command line; hard defaults apply last.
All floating-point output uses 17 significant digits, and reruns with the
same configuration and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import kernels, serialize, simulate, spectral, transform
from .errors import BudgetExceededError, GaussMarkovError, InvalidInputError
from .gaussian import markov_check
from .kernels import psd_check
from .spectral import WeierstrassConfig

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussmarkov",
        description="Markov transforms of Gaussian processes: checks, tables, simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with default values for flags")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--seed", type=int, help="RNG seed")

    p = sub.add_parser("psd-check", help="validate positive semi-definiteness on grids")
    common(p)
    p.add_argument("--kernel", help="kernel spec (inline JSON or file)")
    p.add_argument("--grid", help="start:stop:count evaluation grid")
    p.add_argument("--random-grids", type=int, help="additional random subgrids")

    p = sub.add_parser("transform", help="tabulate a kernel and its mimicking kernel")
    common(p)
    p.add_argument("--kernel", help="kernel spec (inline JSON or file)")
    p.add_argument("--alpha", help="decorrelation rate (number, 'inf', or JSON)")
    p.add_argument("--grid", help="start:stop:count evaluation grid")

    p = sub.add_parser("converge", help="partition/made-Markov convergence tables")
    common(p)
    p.add_argument("--kernel", help="kernel spec (inline JSON or file)")
    p.add_argument("--alpha", help="target rate (number, 'inf', or JSON)")
    p.add_argument("--grid", help="start:stop:count; endpoints give the time pair")
    p.add_argument("--mesh-sequence", help="comma list of meshes (local experiment)")
    p.add_argument("--steps", help="comma list of step sizes (global experiment)")
    p.add_argument("--n-max", type=int, help="number of sets in the global experiment")

    p = sub.add_parser("counterexample", help="lacunary measure and decay-rate witnesses")
    common(p)
    p.add_argument("--targets", help="comma list of decay-rate targets")
    p.add_argument("--i-max", type=int, help="witness depth")
    p.add_argument("--k-cut", type=int, help="frequency truncation index")
    p.add_argument("--budget", type=int, help="integer search budget")

    p = sub.add_parser("simulate", help="SDE route vs Gaussian route comparison")
    common(p)
    p.add_argument("--kernel", help="kernel spec (inline JSON or file)")
    p.add_argument("--alpha", help="decorrelation rate (number, 'inf', or JSON)")
    p.add_argument("--grid", help="start:stop:count recorded grid")
    p.add_argument("--paths", type=int, help="number of sample paths")
    p.add_argument("--step", type=float, help="Euler-Maruyama step")
    p.add_argument("--route", choices=["exact", "cholesky"], help="Gaussian route")
    p.add_argument("--dump-paths", action="store_true", default=None,
                   help="also write full trajectory CSVs")
    return parser


class _Config:
    """Flag resolution: command line > config file > hard default."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.file = {}
        if self.args.get("config"):
            path = Path(self.args["config"])
            if not path.exists():
                raise UsageError(f"config file not found: {path}")
            try:
                self.file = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise UsageError(f"config file is not valid JSON: {exc}") from exc

    def get(self, key: str, default=None, required: bool = False):
        val = self.args.get(key)
        if val is None:
            val = self.file.get(key, default)
        if required and val is None:
            raise UsageError(f"missing required option --{key.replace('_', '-')}")
        return val


def _out_dir(cfg: _Config) -> Path:
    out = Path(cfg.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse(parser_fn, value):
    """Spec/grid parsing failures are usage errors, not numerical ones."""
    try:
        return parser_fn(value)
    except InvalidInputError as exc:
        raise UsageError(str(exc)) from exc


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _cmd_psd_check(cfg: _Config) -> int:
    kernel = _parse(serialize.kernel_from_spec, cfg.get("kernel", required=True))
    grid = _parse(serialize.parse_grid, cfg.get("grid", required=True))
    reports = [(list(map(float, grid)), psd_check(kernel, grid))]
    n_random = int(cfg.get("random_grids", 0) or 0)
    if n_random:
        rng = np.random.default_rng(int(cfg.get("seed", 0) or 0))
        lo, hi = float(grid[0]), float(grid[-1])
        for _ in range(n_random):
            size = int(rng.integers(2, 9))
            pts = np.sort(rng.uniform(lo, hi, size=size))
            while np.any(np.diff(pts) <= 0):
                pts = np.sort(rng.uniform(lo, hi, size=size))
            reports.append((list(map(float, pts)), psd_check(kernel, pts)))
    payload = {
        "kernel": kernel.name,
        "grids": [
            {"grid": g, "min_eigenvalue": r.min_eigenvalue, "passed": r.passed}
            for g, r in reports
        ],
        "all_passed": all(r.passed for _, r in reports),
    }
    out = _out_dir(cfg) / "psd_report.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"psd-check: {'pass' if payload['all_passed'] else 'FAIL'} -> {out}")
    return EXIT_OK if payload["all_passed"] else EXIT_NUMERICAL


def _cmd_transform(cfg: _Config) -> int:
    kernel = _parse(serialize.kernel_from_spec, cfg.get("kernel", required=True))
    alpha = _parse(serialize.rate_from_spec, cfg.get("alpha", required=True))
    grid = _parse(serialize.parse_grid, cfg.get("grid", required=True))
    mimic = transform.mimic_kernel(kernel, alpha)
    rows = []
    for i, s in enumerate(grid):
        for t in grid[i:]:
            rows.append(
                (float(s), float(t), float(kernel.eval(s, t)), float(mimic.eval(s, t)))
            )
    out = _out_dir(cfg) / "transform_table.csv"
    _write_csv(out, ["s", "t", "k", "k_mimic"], rows)
    law = transform.joint_law(mimic, grid)
    report = markov_check(law)
    print(f"transform: mimic residual {report.max_residual:.3e} -> {out}")
    return EXIT_OK


def _cmd_converge(cfg: _Config) -> int:
    kernel = _parse(serialize.kernel_from_spec, cfg.get("kernel", required=True))
    alpha = _parse(serialize.rate_from_spec, cfg.get("alpha", required=True))
    grid = _parse(serialize.parse_grid, cfg.get("grid", required=True))
    target = kernels.rate_kernel(alpha, domain=kernel.domain)
    meshes = cfg.get("mesh_sequence")
    steps = cfg.get("steps")
    if (meshes is None) == (steps is None):
        raise UsageError("give exactly one of --mesh-sequence (local) or --steps (global)")
    if meshes is not None:
        s, t = float(grid[0]), float(grid[-1])
        partitions = []
        for mesh in serialize.parse_float_list(str(meshes)):
            n_intervals = max(1, round((t - s) / mesh))
            partitions.append(transform.Partition.uniform(s, t, n_intervals))
        rows = transform.local_convergence_experiment(kernel, target, s, t, partitions)
    else:
        step_list = serialize.parse_float_list(str(steps))
        adm = transform.AdmissibleSequence.from_steps(step_list)
        n_max = int(cfg.get("n_max", len(step_list)))
        rows = transform.global_convergence_experiment(kernel, target, adm, grid, n_max)
    out = _out_dir(cfg) / "convergence.csv"
    _write_csv(
        out,
        ["n_or_mesh", "distance", "correlation", "target_correlation"],
        [(r.index, r.distance, r.correlation, r.target_correlation) for r in rows],
    )
    print(f"converge: final distance {rows[-1].distance:.6g} -> {out}")
    return EXIT_OK


def _cmd_counterexample(cfg: _Config) -> int:
    config = WeierstrassConfig(
        k_cut=int(cfg.get("k_cut", 60)),
        i_max=int(cfg.get("i_max", 4)),
    )
    budget = int(cfg.get("budget", spectral.DEFAULT_INDEX_BUDGET))
    targets = serialize.parse_float_list(str(cfg.get("targets", "0.25,1,4")))
    out_dir = _out_dir(cfg)
    budget_hit = False
    try:
        witness = spectral.weierstrass_indices(config, budget=budget)
        measure = spectral.measure_from_windows(config, witness.windows)
        indices = list(witness.indices)
        windows = list(witness.windows)
    except BudgetExceededError as err:
        budget_hit = True
        indices = err.indices
        windows = err.windows
        measure = spectral.measure_from_windows(config, windows)
        print(f"counterexample: {err}", file=sys.stderr)

    (out_dir / "indices.json").write_text(
        json.dumps(
            {
                "indices": indices,
                "windows": [list(w) for w in windows],
                "complete": not budget_hit,
                "k_cut": config.k_cut,
                "i_max": config.i_max,
                "budget": budget,
            },
            indent=2,
        )
        + "\n"
    )
    (out_dir / "measure.json").write_text(json.dumps(measure.to_list(), indent=2) + "\n")

    results = spectral.cluster_witnesses(measure, targets)
    _write_csv(
        out_dir / "witnesses.csv",
        ["target", "t", "rate", "error", "found"],
        [
            (r.target, r.t, r.rate, r.error, str(r.found))
            for r in (results[t] for t in sorted(results))
        ],
    )
    n_found = sum(1 for r in results.values() if r.found)
    print(
        f"counterexample: {n_found}/{len(results)} witnesses found, "
        f"indices {'partial' if budget_hit else 'complete'} -> {out_dir}"
    )
    return EXIT_BUDGET if budget_hit else EXIT_OK


def _cmd_simulate(cfg: _Config) -> int:
    kernel = _parse(serialize.kernel_from_spec, cfg.get("kernel", required=True))
    alpha = _parse(serialize.rate_from_spec, cfg.get("alpha", required=True))
    grid = _parse(serialize.parse_grid, cfg.get("grid", required=True))
    n_paths = int(cfg.get("paths", 10_000))
    seed = int(cfg.get("seed", 0))
    step = float(cfg.get("step", 1e-3))
    route = cfg.get("route", "exact")
    report = simulate.figure_comparison(
        kernel, alpha, grid, n_paths=n_paths, seed=seed, step=step,
        gaussian_route=route,
    )
    out_dir = _out_dir(cfg)
    report.rows_to_csv(out_dir / "comparison.csv")
    (out_dir / "summary.json").write_text(report.summary_json() + "\n")
    if cfg.get("dump_paths"):
        report.sde_batch.to_csv(out_dir / "trajectories_sde.csv")
        report.gauss_batch.to_csv(out_dir / "trajectories_gauss.csv")
    print(
        f"simulate: max route discrepancy {report.max_cov_discrepancy:.6g} -> {out_dir}"
    )
    return EXIT_OK


_COMMANDS = {
    "psd-check": _cmd_psd_check,
    "transform": _cmd_transform,
    "converge": _cmd_converge,
    "counterexample": _cmd_counterexample,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _Config(args)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GaussMarkovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # surface anything unexpected as a clean failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
