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
fill in any flag not given on the command line; defaults apply last.  Every
value then passes its option's converter (``_OPTIONS``), so one that does not
parse is a usage error wherever it came from.  A config key that no command
reads is a usage error; another command's key is ignored, so that one file can
serve several commands.  A JSON boolean is no number, in an option or a spec.
``serialize.write_csv`` and ``serialize.write_json`` write every artifact, and
reruns with the same configuration and seed produce byte-identical files.

Each subcommand loads only the modules it runs: every command loads
``errors``, ``serialize`` and ``kernels``; ``transform`` and ``converge``
add ``transform`` (which loads ``gaussian``), ``simulate`` adds those and
``simulate``, and ``counterexample`` adds ``spectral``.  A spectral kernel
spec loads ``spectral`` when it is parsed.  Handlers import their modules
where they use them and look functions up on the module at each call.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import kernels, serialize
from .errors import GaussMarkovError, InvalidInputError, InvalidMeasureError
from .kernels import psd_check


def __getattr__(name: str):
    """``cli.markov_check`` is ``gaussian.markov_check``, loaded on first access."""
    if name != "markov_check":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .gaussian import markov_check
    return markov_check


EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Option(NamedTuple):
    """One flag of a subcommand; ``default`` is ``_REQUIRED`` for a flag that must be given."""

    name: str
    convert: Callable[[Any], Any]
    default: Any
    help: str


_REQUIRED = object()


def _directory(value) -> Path:
    path = Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _route(value):
    if value not in ("exact", "cholesky"):
        raise ValueError(f"expected exact or cholesky, got {value!r}")
    return value


#: Most random grids ``psd-check`` draws.  Each has at most 8 points, so all of
#: them evaluate fewer Gram entries than one grid of ``serialize.MAX_GRID_POINTS``.
MAX_RANDOM_GRIDS = 10_000


def _integer(value, what: str = "the value", least: int | None = None) -> int:
    """An integer literal, or a config value that passes the library's ``kernels._count``."""
    return kernels._count(int(value) if isinstance(value, str) else value, what, least)


def _random_grids(value) -> int:
    count = _integer(value, "random grid count", 0)
    if count > MAX_RANDOM_GRIDS:
        raise ValueError(f"expected at most {MAX_RANDOM_GRIDS}, got {count}")
    return count


def _budget(value) -> int:
    """An index budget no larger than the searches can scan (``spectral.MAX_INDEX_BUDGET``)."""
    from . import spectral

    budget = _integer(value)
    if budget > spectral.MAX_INDEX_BUDGET:
        raise ValueError(f"expected at most 2^53, got {budget}")
    return budget


def _switch(value) -> bool:
    """A flag given on the command line, or a JSON boolean in the config file."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _float_list(value) -> list[float]:
    return serialize.parse_float_list(str(value))


def _positive_list(value) -> list[float]:
    """A comma list of meshes or steps: every entry positive and finite."""
    values = _float_list(value)
    for v in values:
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"expected positive finite values, got {v}")
    return values


# The converters look the spec parsers up on ``serialize`` at each call, so a
# wrapper later installed on the module (a tracer, a test double) sees them.
_KERNEL = _Option("kernel", lambda v: serialize.kernel_from_spec(v), _REQUIRED,
                  "kernel spec (inline JSON or file)")
_ALPHA = _Option("alpha", lambda v: serialize.rate_from_spec(v), _REQUIRED,
                 "decorrelation rate (number, 'inf', or JSON)")
_GRID = _Option("grid", lambda v: serialize.parse_grid(str(v)), _REQUIRED,
                "start:stop:count evaluation grid")
_SEED = _Option("seed", lambda v: _integer(v, "seed", 0), 0, "RNG seed")
# Last in every command, so that a usage error creates no directory.
_OUT = _Option("out", _directory, Path("."), "output directory (default: current)")

#: Per subcommand: its help and the options it reads, in the order they resolve.
_OPTIONS = {
    "psd-check": ("validate positive semi-definiteness on grids", (
        _KERNEL, _GRID, _Option("random_grids", _random_grids, 0, "additional random subgrids"),
        _SEED, _OUT,
    )),
    "transform": ("tabulate a kernel and its mimicking kernel", (_KERNEL, _ALPHA, _GRID, _OUT)),
    "converge": ("partition/made-Markov convergence tables", (
        _KERNEL, _ALPHA,
        _GRID._replace(help="start:stop:count; endpoints give the time pair"),
        _Option("mesh_sequence", _positive_list, None, "comma list of meshes (local experiment)"),
        _Option("steps", _positive_list, None, "comma list of step sizes (global experiment)"),
        _Option("n_max", _integer, None,
                "number of sets in the global experiment, at most one per step (default: all)"),
        _OUT,
    )),
    "counterexample": ("lacunary measure and decay-rate witnesses", (
        _Option("targets", _float_list, (0.25, 1.0, 4.0), "comma list of decay-rate targets"),
        _Option("i_max", _integer, 4, "witness depth"),
        _Option("k_cut", _integer, 60, "frequency truncation index"),
        _Option("budget", _budget, None, "integer search budget, at most 2^53"),
        _OUT,
    )),
    "simulate": ("SDE route vs Gaussian route comparison", (
        _KERNEL, _ALPHA, _GRID._replace(help="start:stop:count recorded grid"),
        _Option("paths", _integer, 10_000, "number of sample paths"),
        _SEED,
        _Option("step", serialize._number, 1e-3, "Euler-Maruyama step"),
        _Option("route", _route, "exact", "Gaussian route: exact or cholesky"),
        _Option("dump_paths", _switch, False, "also write full trajectory CSVs"),
        _OUT,
    )),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussmarkov",
        description="Markov transforms of Gaussian processes: checks, tables, simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _OPTIONS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with default values for flags")
        for opt in options:
            # A switch is True when given and None (unset) otherwise, like any flag.
            switch = {"action": "store_const", "const": True} if opt.convert is _switch else {}
            p.add_argument(_flag(opt.name), help=opt.help, **switch)
    return parser


def _read_config(name: str) -> dict:
    try:
        data = json.loads(Path(name).read_text())
    except FileNotFoundError:
        raise UsageError(f"--config: file not found: {name}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"--config: expected a JSON object, got {type(data).__name__}")
    known = {opt.name for _, options in _OPTIONS.values() for opt in options}
    unread = [key for key in data if key not in known]
    if unread:
        raise UsageError(f"--config: no command reads the key {unread[0]!r}")
    return data


def _resolve(args: argparse.Namespace) -> dict[str, Any]:
    """The command's options, typed: command line > ``--config`` file > default."""
    from_file = _read_config(args.config) if args.config else {}
    values = {}
    for opt in _OPTIONS[args.command][1]:
        raw = getattr(args, opt.name)
        if raw is None:
            raw = from_file.get(opt.name)
        if raw is None:
            if opt.default is _REQUIRED:
                raise UsageError(f"{_flag(opt.name)}: missing required option")
            values[opt.name] = opt.default
            continue
        try:
            values[opt.name] = opt.convert(raw)
        except (InvalidInputError, InvalidMeasureError, ValueError, TypeError, KeyError,
                OverflowError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise UsageError(f"{_flag(opt.name)}: {reason}") from exc
    return values


def _holds_doubles(lo: float, hi: float, count: int) -> bool:
    """Whether ``[lo, hi]`` contains at least ``count`` distinct doubles."""
    for _ in range(count - 1):
        lo = np.nextafter(lo, math.inf)
    return lo <= hi


def _cmd_psd_check(kernel, grid, random_grids, seed, out) -> int:
    reports = [(grid.tolist(), psd_check(kernel, grid))]
    if random_grids:
        rng = np.random.default_rng(seed)
        for _ in range(random_grids):
            size = int(rng.integers(2, 9))
            # Without ``size`` distinct doubles in the span the redraws never end.
            if not _holds_doubles(grid[0], grid[-1], size):
                raise InvalidInputError(
                    f"--random-grids: grid {grid.tolist()} spans fewer than {size} "
                    "distinct doubles, too few for a random grid"
                )
            pts = np.sort(rng.uniform(grid[0], grid[-1], size=size))
            while np.any(np.diff(pts) <= 0):
                pts = np.sort(rng.uniform(grid[0], grid[-1], size=size))
            reports.append((pts.tolist(), psd_check(kernel, pts)))
    payload = {
        "kernel": kernel.name,
        "grids": [
            {"grid": g, "min_eigenvalue": r.min_eigenvalue, "passed": r.passed}
            for g, r in reports
        ],
        "all_passed": all(r.passed for _, r in reports),
    }
    path = out / "psd_report.json"
    serialize.write_json(path, payload)
    print(f"psd-check: {'pass' if payload['all_passed'] else 'FAIL'} -> {path}")
    return EXIT_OK if payload["all_passed"] else EXIT_NUMERICAL


def _cmd_transform(kernel, alpha, grid, out) -> int:
    from . import gaussian, transform

    mimic = transform.mimic_kernel(kernel, alpha)
    times = grid.tolist()
    pairs = [(s, t) for i, s in enumerate(times) for t in times[i:]]
    # one call per pair: fbm's scalar ``**`` rounds otherwise than its array one
    k = [float(kernel.cov(s, t)) for s, t in pairs]
    # one call: the mimicking kernel's array entries are its scalar ones, bit for bit
    k_mimic = mimic.cov(*np.array(pairs).T).tolist()
    rows = [(s, t, a, b) for (s, t), a, b in zip(pairs, k, k_mimic)]
    path = out / "transform_table.csv"
    serialize.write_csv(path, ["s", "t", "k", "k_mimic"], rows)
    report = gaussian.markov_check(transform.joint_law(mimic, grid))
    print(f"transform: mimic residual {report.max_residual:.3e} -> {path}")
    return EXIT_OK


def _cmd_converge(kernel, alpha, grid, mesh_sequence, steps, n_max, out) -> int:
    from . import transform

    if (mesh_sequence is None) == (steps is None):
        raise UsageError("give exactly one of --mesh-sequence (local) or --steps (global)")
    target = kernels.rate_kernel(alpha, domain=kernel.domain)
    if mesh_sequence is not None:
        s, t = grid[[0, -1]].tolist()
        partitions = []
        for mesh in mesh_sequence:
            count = (t - s) / mesh  # unrounded: a subnormal mesh gives inf, which round() refuses
            kernels._require_at_most(count, transform.MAX_PARTITION_INTERVALS,
                                     f"partition of {count:.4g} intervals")
            partitions.append(transform.Partition.uniform(s, t, max(1, round(count))))
        rows = transform.local_convergence_experiment(kernel, target, s, t, partitions)
    else:
        # a count past the steps is a usage error, not the library's validation failure
        if n_max is not None and n_max > len(steps):
            raise UsageError(f"--n-max: {n_max} sets asked for, but --steps gives {len(steps)}")
        adm = transform.AdmissibleSequence.from_steps(steps)
        n_sets = len(steps) if n_max is None else n_max
        rows = transform.global_convergence_experiment(kernel, target, adm, grid, n_sets)
    path = out / "convergence.csv"
    serialize.write_csv(
        path,
        ["n_or_mesh", "distance", "correlation", "target_correlation"],
        [(r.index, r.distance, r.correlation, r.target_correlation) for r in rows],
    )
    print(f"converge: final distance {rows[-1].distance:.6g} -> {path}")
    return EXIT_OK


def _cmd_counterexample(targets, i_max, k_cut, budget, out) -> int:
    from . import spectral

    if budget is None:
        budget = spectral.DEFAULT_INDEX_BUDGET
    config = spectral.WeierstrassConfig(k_cut=k_cut, i_max=i_max)
    witness = spectral.weierstrass_indices(config, budget=budget)
    if not witness.complete:
        print(
            f"counterexample: index budget {budget} exceeded while searching "
            f"{witness.stopped} (found {list(witness.indices)})",
            file=sys.stderr,
        )
    measure = spectral.measure_from_windows(config, witness.windows)

    serialize.write_json(out / "indices.json", {
        "indices": list(witness.indices),
        "windows": [list(w) for w in witness.windows],
        "complete": witness.complete,
        "k_cut": config.k_cut,
        "i_max": config.i_max,
        "budget": budget,
    })
    serialize.write_json(out / "measure.json", measure.to_list())

    results = spectral.cluster_witnesses(measure, targets)
    serialize.write_csv(
        out / "witnesses.csv",
        ["target", "t", "rate", "error", "found"],
        [
            (r.target, r.t, r.rate, r.error, str(r.found))
            for r in (results[t] for t in sorted(results))
        ],
    )
    n_found = sum(1 for r in results.values() if r.found)
    print(
        f"counterexample: {n_found}/{len(results)} witnesses found, "
        f"indices {'complete' if witness.complete else 'partial'} -> {out}"
    )
    return EXIT_OK if witness.complete else EXIT_BUDGET


def _cmd_simulate(kernel, alpha, grid, paths, seed, step, route, dump_paths, out) -> int:
    from . import simulate

    report = simulate.figure_comparison(
        kernel, alpha, grid, n_paths=paths, seed=seed, step=step, gaussian_route=route,
    )
    report.rows_to_csv(out / "comparison.csv")
    serialize.write_json(out / "summary.json", report.summary_dict())
    if dump_paths:
        report.sde_batch.to_csv(out / "trajectories_sde.csv")
        report.gauss_batch.to_csv(out / "trajectories_gauss.csv")
    print(f"simulate: max route discrepancy {report.max_cov_discrepancy:.6g} -> {out}")
    return EXIT_OK


_COMMANDS = {
    "psd-check": _cmd_psd_check,
    "transform": _cmd_transform,
    "converge": _cmd_converge,
    "counterexample": _cmd_counterexample,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](**_resolve(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GaussMarkovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # surface anything unexpected as a clean failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
