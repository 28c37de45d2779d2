import csv
import hashlib
import json
import math
import runpy
import sys
import time

import numpy as np
import pytest

from gaussmarkov import cli, kernels
from gaussmarkov.cli import MAX_RANDOM_GRIDS, main
from gaussmarkov.kernels import RateFunction
from gaussmarkov.simulate import MAX_PATH_VALUES, cholesky_sample
from gaussmarkov.transform import joint_law, mimic_kernel


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestPsdCheck:
    def test_exponential_passes(self, tmp_path):
        code = main([
            "psd-check",
            "--kernel", '{"type": "exponential", "rate": 1.0}',
            "--grid", "0:2:5",
            "--out", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "psd_report.json").read_text())
        assert report["all_passed"]

    def test_constant_passes(self, tmp_path):
        code = main([
            "psd-check", "--kernel", '{"type": "constant"}',
            "--grid", "0:2:3", "--out", str(tmp_path),
        ])
        assert code == 0

    def test_non_psd_table_fails_with_report(self, tmp_path):
        spec = json.dumps({
            "type": "matrix",
            "grid": [0.0, 1.0, 2.0],
            "matrix": [[1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
        })
        code = main([
            "psd-check", "--kernel", spec, "--grid", "0:2:3", "--out", str(tmp_path),
        ])
        assert code == 1
        report = json.loads((tmp_path / "psd_report.json").read_text())
        assert not report["all_passed"]
        assert report["grids"][0]["min_eigenvalue"] == pytest.approx(-1.0, abs=1e-12)

    def test_bad_spec_is_usage_error(self, tmp_path):
        for spec in (
            {"type": "nope"},
            {"type": "spectral", "atoms": [{"weight": "nan", "location": 1}]},
            {"type": "exponential", "domain": []},
            {"type": "transformed", "base": {"type": "fbm", "hurst": 0.5}, "scale": 3,
             "time_change": {"form": "affine"}},
            {"type": "fbm", "hurst": 10**400},
        ):
            code = main([
                "psd-check", "--kernel", json.dumps(spec),
                "--grid", "0:2:3", "--out", str(tmp_path),
            ])
            assert code == 2, spec

    def test_missing_flag_is_usage_error(self, tmp_path):
        assert main(["psd-check", "--out", str(tmp_path)]) == 2

    def test_grid_above_the_cap_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "psd"
        assert main([
            "psd-check", "--kernel", '{"type": "fbm", "hurst": 0.7}',
            "--grid", "0:1:100000", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            "usage error: --grid: grid point count must be at most 4096, got 100000\n"
        )
        assert not out.exists()

    # Each used to end in a LinAlgError, a report holding a bare NaN, a FAIL
    # on a NaN entry, an accepted NaN mass, or a grid error naming no value.
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("kernel,grid,code,message", [
        ({"type": "fbm", "hurst": 0.5}, "1e308:1.7e308:3", 1,
         "kernel 'fbm(H=0.5)' is inf at (s, t) = (1e+308, 1e+308)"),
        ({"type": "transformed", "base": {"type": "exponential"},
          "scale": {"form": "constant", "value": "nan"}, "time_change": {"form": "affine"}},
         "0:1:3", 1, "is nan at (s, t) = (0.0, 0.0)"),
        ({"type": "transformed", "base": {"type": "exponential"},
          "scale": {"form": "power", "exponent": "nan"}, "time_change": {"form": "affine"}},
         "1:2:3", 1, "is nan at (s, t) = (1.0, 1.5)"),
        ({"type": "spectral", "atoms": [{"weight": 1, "location": "nan"}]}, "0:1:3", 2,
         "atom location must be nonnegative and finite, got nan"),
        ({"type": "spectral", "atoms": [{"weight": "nan", "location": 1}]}, "0:1:3", 2,
         "atom weight must be positive and finite, got nan"),
        ({"type": "matrix", "grid": [0, 1], "matrix": [[1, "nan"], ["nan", 1]]}, "0:1:2", 1,
         "kernel 'matrix' is nan at (s, t) = (0.0, 1.0)"),
        ({"type": "exponential"}, "0:inf:3", 2,
         "--grid: grid endpoints and span must be finite, got '0:inf:3'"),
        ({"type": "transformed", "base": {"type": "fbm", "hurst": 0.5},
          "scale": {"form": "exp", "coeff": 1, "rate": 1000},
          "time_change": {"form": "affine", "slope": 1, "intercept": 0}, "domain": [0, 5]},
         "1:3:3", 1, "kernel 'transformed(fbm(H=0.5))': scale overflows at t = 1.0"),
        ({"type": "transformed", "base": {"type": "fbm", "hurst": 0.5},
          "scale": {"form": "constant", "value": 1},
          "time_change": {"form": "exp", "coeff": 1, "rate": 1000}, "domain": [0, 5]},
         "1:3:3", 1, "kernel 'transformed(fbm(H=0.5))': time change overflows at t = 1.0"),
        ({"type": "matrix", "grid": [0, 1], "matrix": [[1e308, 0], [0, 1]]}, "0:1:2", 1,
         "kernel 'matrix' has Gram entries too large to check, up to 1e+308"),
    ], ids=["fbm-overflow", "scale-nan", "scale-exponent-nan", "atom-location-nan",
            "atom-weight-nan", "matrix-nan", "grid-inf", "scale-exp-overflow",
            "time-change-exp-overflow", "matrix-huge"])
    def test_nonfinite_value_is_named(self, tmp_path, capsys, kernel, grid, code, message):
        argv = ["psd-check", "--kernel", json.dumps(kernel), "--grid", grid]
        assert main(argv + ["--out", str(tmp_path)]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "psd_report.json").exists()

    # Each used to redraw forever: the span holds fewer doubles than the
    # random grid's size.
    @pytest.mark.parametrize("grid,seed,message", [
        ("0:1:1", 0, "grid [0.0] spans fewer than 7 distinct doubles"),
        ("0:1e-323:2", 1, "grid [0.0, 1e-323] spans fewer than 5 distinct doubles"),
    ])
    def test_random_grid_needs_enough_doubles(self, tmp_path, capsys, grid, seed, message):
        argv = ["psd-check", "--kernel", '{"type": "constant"}', "--grid", grid,
                "--random-grids", "1", "--seed", str(seed), "--out", str(tmp_path)]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    # Seed 14 draws a 3-point grid, which the three doubles of the span hold.
    def test_random_grid_in_a_span_of_three_doubles(self, tmp_path):
        argv = ["psd-check", "--kernel", '{"type": "constant"}', "--grid", "0:1e-323:2",
                "--random-grids", "1", "--seed", "14", "--out", str(tmp_path)]
        assert main(argv) == 0
        report = json.loads((tmp_path / "psd_report.json").read_text())
        assert report["grids"][1]["grid"] == [0.0, 5e-324, 1e-323]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_random_grids_above_the_cap_are_usage_error(self, tmp_path, capsys, source):
        out = tmp_path / "psd"
        argv = ["psd-check", "--kernel", '{"type": "constant"}', "--grid", "0:1:3"]
        if source == "flag":
            argv += ["--random-grids", str(MAX_RANDOM_GRIDS + 1)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"random_grids": MAX_RANDOM_GRIDS + 1}))
            argv += ["--config", str(config)]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"usage error: --random-grids: random grid count must be at most {MAX_RANDOM_GRIDS}, "
            f"got {MAX_RANDOM_GRIDS + 1}\n"
        )
        assert not out.exists()

    # sha256 of the README psd-check command's report, recorded before the
    # Gram moved to one broadcasting covariance per kernel.
    def test_artifact_bytes_unchanged(self, tmp_path):
        assert main([
            "psd-check",
            "--kernel", '{"type": "exponential", "rate": 1.0}',
            "--grid", "0:2:5", "--random-grids", "20", "--seed", "1",
            "--out", str(tmp_path),
        ]) == 0
        data = (tmp_path / "psd_report.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "bfa1d27414a87b10940dea814ab22063111515076d6c15e59aef0d0a0e420dd4"
        )


class TestTransform:
    def test_fbm_smooth_case_table(self, tmp_path):
        code = main([
            "transform",
            "--kernel", '{"type": "fbm", "hurst": 0.75}',
            "--alpha", '{"form": "constant", "value": 0.0}',
            "--grid", "1:2:3",
            "--out", str(tmp_path),
        ])
        assert code == 0
        rows = read_csv(tmp_path / "transform_table.csv")
        assert rows[0] == ["s", "t", "k", "k_mimic"]
        for s, t, _, k_mimic in rows[1:]:
            assert float(k_mimic) == pytest.approx(
                (float(s) * float(t)) ** 0.75, abs=1e-9
            )

    def test_exponential_fixed_point(self, tmp_path):
        code = main([
            "transform",
            "--kernel", '{"type": "exponential", "rate": 1.0}',
            "--alpha", "1.0",
            "--grid", "0:2:4",
            "--out", str(tmp_path),
        ])
        assert code == 0
        for s, t, k, k_mimic in read_csv(tmp_path / "transform_table.csv")[1:]:
            assert float(k_mimic) == pytest.approx(float(k), rel=1e-10)

    def test_noise_integral_becomes_constant(self, tmp_path):
        code = main([
            "transform",
            "--kernel", '{"type": "noise_integral", "family": "sqrt_exp"}',
            "--alpha", "0.0",
            "--grid", "0.5:2:3",
            "--out", str(tmp_path),
        ])
        assert code == 0
        for _, _, _, k_mimic in read_csv(tmp_path / "transform_table.csv")[1:]:
            assert float(k_mimic) == pytest.approx(1.0, abs=1e-7)

    # A finite rate raised at t = 0, where fbm has zero variance, before the
    # infinite rate went through the same formula as the finite ones.
    @pytest.mark.parametrize("alpha", ["0", "0.7", "inf"])
    def test_zero_variance_point_has_zero_covariance(self, tmp_path, alpha):
        assert main([
            "transform", "--kernel", '{"type": "fbm", "hurst": 0.25}', "--alpha", alpha,
            "--grid", "0:2:5", "--out", str(tmp_path),
        ]) == 0
        rows = read_csv(tmp_path / "transform_table.csv")[1:]
        assert [k_mimic for s, _, _, k_mimic in rows if s == "0"] == ["0"] * 5

    # Each used to escape as a TypeError (a complex power) or a ValueError.
    @pytest.mark.parametrize("command,kernel,alpha,grid,message", [
        ("transform", {"type": "exponential"}, '{"form": "power", "exponent": 0.5}', "-1:1:3",
         "rate is not finite at t=-1.0"),
        ("transform", {"type": "transformed", "base": {"type": "exponential"},
                       "scale": {"form": "constant", "value": 1},
                       "time_change": {"form": "log", "coeff": 1, "intercept": 0}},
         "1", "-2:-1:3", "time change is undefined at t = -2.0"),
        ("psd-check", {"type": "transformed", "base": {"type": "exponential"},
                       "scale": {"form": "constant", "value": 1},
                       "time_change": {"form": "log", "coeff": 1, "intercept": 0}},
         None, "-2:-1:3", "time change is undefined at t = -2.0"),
        ("psd-check", {"type": "transformed", "base": {"type": "exponential"},
                       "scale": {"form": "power", "coeff": 1, "exponent": 0.5},
                       "time_change": {"form": "affine"}},
         None, "-2:-1:3", "scale is undefined at t = -2.0"),
    ], ids=["power-rate", "log-transform", "log-psd-check", "power-scale"])
    def test_undefined_spec_function_is_named(self, tmp_path, capsys, command, kernel, alpha,
                                              grid, message):
        argv = [command, "--kernel", json.dumps(kernel), f"--grid={grid}", "--out", str(tmp_path)]
        assert main(argv + ([] if alpha is None else ["--alpha", alpha])) == 1
        assert message in capsys.readouterr().err

    # sha256 of the README transform command's table, recorded before the
    # Gram moved to one broadcasting covariance per kernel: the table comes
    # from the scalar eval, which keeps its libm formula.
    def test_artifact_bytes_unchanged(self, tmp_path):
        assert main([
            "transform",
            "--kernel", '{"type": "fbm", "hurst": 0.75}',
            "--alpha", "0.0",
            "--grid", "1:2:9",
            "--out", str(tmp_path),
        ]) == 0
        data = (tmp_path / "transform_table.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "cc3848b179dae6cec482002f802f3375ba86cea51c82acec2563057713241cb9"
        )


class TestConverge:
    def test_exponential_all_zero(self, tmp_path):
        code = main([
            "converge",
            "--kernel", '{"type": "exponential", "rate": 1.0}',
            "--alpha", "1.0",
            "--grid", "0:1:2",
            "--mesh-sequence", "0.25,0.125,0.0625",
            "--out", str(tmp_path),
        ])
        assert code == 0
        rows = read_csv(tmp_path / "convergence.csv")
        assert rows[0] == ["n_or_mesh", "distance", "correlation", "target_correlation"]
        for row in rows[1:]:
            assert float(row[1]) < 1e-12

    def test_fbm_log_decreasing_distance(self, tmp_path):
        meshes = ",".join(str(2.0**-k) for k in range(3, 9))
        code = main([
            "converge",
            "--kernel", '{"type": "fbm_log", "hurst": 0.75}',
            "--alpha", "0.0",
            "--grid", "0:1:2",
            "--mesh-sequence", meshes,
            "--out", str(tmp_path),
        ])
        assert code == 0
        dists = [float(r[1]) for r in read_csv(tmp_path / "convergence.csv")[1:]]
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_global_mode(self, tmp_path):
        code = main([
            "converge",
            "--kernel", '{"type": "exponential", "rate": 1.0}',
            "--alpha", "1.0",
            "--grid", "0:1:3",
            "--steps", "0.5,0.25,0.125",
            "--out", str(tmp_path),
        ])
        assert code == 0
        dists = [float(r[1]) for r in read_csv(tmp_path / "convergence.csv")[1:]]
        assert all(d < 1e-10 for d in dists)

    # sha256 of convergence.csv from the two converge commands the CLI
    # examples use (README and benchmark), recorded before the partition and
    # made-Markov laws moved to the scalar chain routine.  The README promises
    # byte-identical artifacts, so any change in rounding shows here.
    @pytest.mark.parametrize("argv,digest", [
        (["--kernel", '{"type": "fbm_log", "hurst": 0.75}', "--alpha", "0.0",
          "--grid", "0:1:2", "--mesh-sequence", "0.125,0.03125,0.0078125,0.001953125"],
         "f1185eef7f408347bf2e7aa70718b0df6f5bbae91be255abfeae93df9d08509f"),
        (["--kernel", '{"type": "fbm_log", "hurst": 0.5}', "--alpha", "1.0",
          "--grid", "0:1:3", "--steps", "0.5,0.25,0.125,0.0625,0.03125"],
         "5afcd05d5d03a847c8da6cacd44d4748973ddc19e3bb7a53eb3138b4713e32e4"),
    ], ids=["mesh-sequence", "steps"])
    def test_artifact_bytes_unchanged(self, tmp_path, argv, digest):
        assert main(["converge", *argv, "--out", str(tmp_path)]) == 0
        data = (tmp_path / "convergence.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    # an admissible sequence has no set past its last step; the CLI names the flag
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_more_sets_than_steps_is_usage_error(self, tmp_path, capsys, source):
        argv = ["converge", "--kernel", '{"type": "exponential", "rate": 1.0}', "--alpha", "1.0",
                "--grid", "0:1:3", "--steps", "0.5,0.25", "--out", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--n-max", "5"]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"n_max": 5}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "usage error: --n-max: 5 sets asked for, but --steps gives 2\n"
        )
        assert not (tmp_path / "out" / "convergence.csv").exists()

    def test_as_many_sets_as_steps_runs(self, tmp_path):
        assert main(["converge", "--kernel", '{"type": "exponential", "rate": 1.0}',
                     "--alpha", "1.0", "--grid", "0:1:3", "--steps", "0.5,0.25",
                     "--n-max", "2", "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / "convergence.csv")) == 3

    # the count rounded in floats; 1 / 5e-324 overflows to inf
    @pytest.mark.parametrize("mesh,count", [
        ("1e-9", "1000000000.0"), ("1e-300", "9.999999999999999e+299"), ("0.5,5e-324", "inf"),
    ], ids=["1e-9", "1e-300", "5e-324"])
    def test_partition_above_the_cap_is_a_validation_failure(self, tmp_path, capsys, mesh,
                                                              count):
        assert main(["converge", "--kernel", '{"type": "exponential", "rate": 1.0}',
                     "--alpha", "1.0", "--grid", "0:1:2", "--mesh-sequence", mesh,
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: n_intervals must be at most 16777216, got {count}\n"
        )

    # Every set is sized at construction, so a late one is refused even past --n-max.
    @pytest.mark.parametrize("steps,n_max,message", [
        ("5e-324", [], "time set R_1 of inf points"),
        ("1e-15", [], "time set R_1 of 2e+15 points"),
        ("0.5,1e-7", ["--n-max", "1"], "time set R_2 of 4e+07 points"),
    ], ids=["5e-324", "1e-15", "late-set"])
    def test_time_set_above_the_cap_is_a_validation_failure(self, tmp_path, capsys, steps,
                                                            n_max, message):
        assert main(["converge", "--kernel", '{"type": "exponential", "rate": 1.0}',
                     "--alpha", "1.0", "--grid", "0:1:2", "--steps", steps, *n_max,
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}, above the cap of 16777216\n"
        assert not (tmp_path / "convergence.csv").exists()

    def test_both_modes_rejected(self, tmp_path):
        code = main([
            "converge",
            "--kernel", '{"type": "constant"}',
            "--alpha", "0.0",
            "--grid", "0:1:2",
            "--mesh-sequence", "0.5",
            "--steps", "0.5",
            "--out", str(tmp_path),
        ])
        assert code == 2


class TestCounterexample:
    def test_shallow_run_completes(self, tmp_path):
        code = main([
            "counterexample",
            "--i-max", "1",
            "--targets", "0.25,1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        indices = json.loads((tmp_path / "indices.json").read_text())
        assert indices["complete"]
        assert indices["indices"][:4] == [2, 3, 4, 9]
        atoms = json.loads((tmp_path / "measure.json").read_text())
        total = sum(
            2 * a["weight"] if a["location"] > 0 else a["weight"] for a in atoms
        )
        assert total == pytest.approx(1.0, abs=1e-12)
        rows = read_csv(tmp_path / "witnesses.csv")
        assert all(row[-1] == "True" for row in rows[1:])

    def test_deep_run_exits_three_with_partials(self, tmp_path, capsys):
        code = main([
            "counterexample",
            "--i-max", "4",
            "--targets", "0.25,1,4",
            "--out", str(tmp_path),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "counterexample: index budget 1000000 exceeded while searching n_7 "
            "(provably unreachable: sum below 2^-253722.1) "
            "(found [2, 3, 4, 9, 14, 8701, 253744])\n"
        )
        indices = json.loads((tmp_path / "indices.json").read_text())
        assert not indices["complete"]
        assert len(indices["indices"]) == 7
        assert (tmp_path / "witnesses.csv").exists()
        assert (tmp_path / "measure.json").exists()

    # sha256 of the artifacts of the two counterexample commands the CLI
    # examples use (README and benchmark), recorded before the index
    # searches moved to one chunked first-crossing scan with a lower-bound
    # prune.  The README promises byte-identical artifacts, so a different
    # window edge or a moved witness shows here.
    @pytest.mark.parametrize("i_max,digests", [
        ("1", {
            "indices.json": "88f0d3fc92121fa9a68cb68a91da6930d015ba6124e26c97c56da443f435582f",
            "measure.json": "d3a718a9d062019f6c136f2904476ca7a66479275e6240193594f73ff0bc3ccc",
            "witnesses.csv": "464f7ba5f348318f8416bdadb9a3aa7590faf178e0fde4793d7a5ede913c34d5",
        }),
        ("4", {
            "indices.json": "536872b796ec9edb7b55891653a503a411373e89c6b65345fd84dc7ddee4bf25",
            "measure.json": "dbf398ca0f0a4db76afdd18dccd38105dbf6716b40a98110f321202633dd52ff",
            "witnesses.csv": "8dba0f72e407f6fcc87af6152d2d5be5f0b62457946c9213088904464d406e4e",
        }),
    ], ids=["i-max-1", "i-max-4"])
    def test_artifact_bytes_unchanged(self, tmp_path, i_max, digests):
        main([
            "counterexample", "--i-max", i_max, "--targets", "0.25,1,4",
            "--out", str(tmp_path),
        ])
        assert {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests
        } == digests

    def test_overflowing_frequency_is_named(self, tmp_path, capsys):
        code = main(["counterexample", "--i-max", "4", "--k-cut", "700", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: location b**k of active index k = 647 overflows (b = 3.0)"
        )

    def test_cutoff_past_underflow_costs_nothing(self, tmp_path):
        # every weight past k = 1074 is 0.0: the artifacts are those of --k-cut 1100
        argv = ["counterexample", "--i-max", "1", "--targets", "0.25,1"]
        assert main(argv + ["--k-cut", "1100", "--out", str(tmp_path / "a")]) == 0
        start = time.perf_counter()
        assert main(argv + ["--k-cut", "10000000", "--out", str(tmp_path / "b")]) == 0
        assert time.perf_counter() - start < 0.5
        for name in ("measure.json", "witnesses.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("budget", [2**53 + 1, 10**400], ids=["2^53+1", "10^400"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_budget_beyond_the_search_is_usage_error(self, tmp_path, capsys, budget, source):
        out = tmp_path / "cx"
        shown = {10**400: "an integer of 1329 bits"}.get(budget, budget)
        if source == "flag":
            argv = ["counterexample", "--budget", str(budget), "--out", str(out)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"budget": budget}))
            argv = ["counterexample", "--config", str(config), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"usage error: --budget: index budget must be at most 9007199254740992, got {shown}\n"
        )
        assert not out.exists()

    def test_largest_budget_finds_the_same_indices(self, tmp_path):
        assert main([
            "counterexample", "--i-max", "1", "--budget", str(2**53), "--out", str(tmp_path),
        ]) == 0
        indices = json.loads((tmp_path / "indices.json").read_text())
        assert indices["indices"] == [2, 3, 4, 9, 14]
        assert indices["budget"] == 2**53


class TestSimulate:
    def test_summary_and_comparison(self, tmp_path):
        code = main([
            "simulate",
            "--kernel", '{"type": "exponential", "rate": 1.0}',
            "--alpha", "1.0",
            "--grid", "0:1:3",
            "--paths", "2000",
            "--seed", "7",
            "--step", "0.005",
            "--out", str(tmp_path),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["max_cov_discrepancy"] < 0.2
        rows = read_csv(tmp_path / "comparison.csv")
        assert rows[0][0] == "t_i"

    def test_reruns_byte_identical(self, tmp_path):
        args = [
            "simulate",
            "--kernel", '{"type": "exponential", "rate": 1.0}',
            "--alpha", "1.0",
            "--grid", "0:1:2",
            "--paths", "500",
            "--seed", "3",
            "--step", "0.01",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("summary.json", "comparison.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_dump_paths(self, tmp_path):
        code = main([
            "simulate",
            "--kernel", '{"type": "exponential", "rate": 1.0}',
            "--alpha", "1.0",
            "--grid", "0:1:2",
            "--paths", "50",
            "--seed", "3",
            "--step", "0.01",
            "--dump-paths",
            "--out", str(tmp_path),
        ])
        assert code == 0
        sde_rows = read_csv(tmp_path / "trajectories_sde.csv")
        assert len(sde_rows) == 51  # header + one row per path

    FBM_DUMP = [
        "simulate",
        "--kernel", '{"type": "fbm", "hurst": 0.75}',
        "--alpha", "0.0",
        "--grid", "1:3:3",
        "--paths", "2000",
        "--seed", "5",
        "--step", "0.001",
        "--dump-paths",
    ]

    @staticmethod
    def read_paths(path):
        return np.array(read_csv(path)[1:], dtype=float)

    def test_dumped_paths_are_the_compared_batches(self, tmp_path):
        # fbm has non-unit variance, so the unit-variance base paths of the
        # exact route would not reproduce the summary's moments
        assert main(self.FBM_DUMP + ["--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        for route in ("sde", "gauss"):
            paths = self.read_paths(tmp_path / f"trajectories_{route}.csv")
            assert paths.shape == (2000, 3)
            centered = paths - paths.mean(axis=0)
            cov = centered.T @ centered / (paths.shape[0] - 1)
            np.testing.assert_allclose(cov, summary[route]["cov"], rtol=0.0, atol=1e-9)
        assert summary["gauss"]["cov"][2][2] > 5.0

    def test_cholesky_route_dumps_the_cholesky_batch(self, tmp_path):
        assert main(self.FBM_DUMP + ["--route", "cholesky", "--out", str(tmp_path)]) == 0
        mimic = mimic_kernel(kernels.fbm(0.75), RateFunction.constant(0.0))
        law = joint_law(mimic, [1.0, 2.0, 3.0])
        expected = cholesky_sample(law, 2000, seed=6)  # the Gaussian route uses seed + 1
        np.testing.assert_array_equal(
            self.read_paths(tmp_path / "trajectories_gauss.csv"), expected.paths
        )

    # sha256 of the README simulate command's artifacts (with 2000 paths),
    # recorded before the Euler-Maruyama loop moved to precomputed
    # coefficients and in-place updates.  The README promises byte-identical
    # artifacts, so any change in rounding or in the Philox stream shows here.
    def test_artifact_bytes_unchanged(self, tmp_path):
        assert main([
            "simulate",
            "--kernel", '{"type": "exponential", "rate": 1.0}',
            "--alpha", "1.0",
            "--grid", "0:5:6",
            "--paths", "2000",
            "--seed", "7",
            "--step", "0.001",
            "--out", str(tmp_path),
        ]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("comparison.csv", "summary.json")
        }
        assert digests == {
            "comparison.csv": "3eb2e3453b18cebd3c2c9eea894dc655096da69d2dd81d498623e84dd31e20e7",
            "summary.json": "1fcd33717b6d41c3df17993487bb041b1f5a9d53d2cfb8438a81645d4fe4df73",
        }

    def test_substeps_above_the_cap_are_a_validation_failure(self, tmp_path, capsys):
        assert main([
            "simulate", "--kernel", '{"type": "exponential", "rate": 1.0}', "--alpha", "1.0",
            "--grid", "0:5:6", "--paths", "10", "--step", "1e-12", "--out", str(tmp_path),
        ]) == 1
        assert capsys.readouterr().err == (
            "error: step 1e-12 takes 5e+12 substeps over [0.0, 5.0], above the cap of 1000000\n"
        )

    def test_paths_above_the_cap_are_a_validation_failure(self, tmp_path, capsys):
        paths = MAX_PATH_VALUES // 6 + 1
        assert main([
            "simulate", "--kernel", '{"type": "exponential", "rate": 1.0}', "--alpha", "1.0",
            "--grid", "0:5:6", "--paths", str(paths), "--out", str(tmp_path),
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: {paths} paths over 6 grid points take {6 * paths} values, "
            f"above the cap of {MAX_PATH_VALUES}\n"
        )
        assert not (tmp_path / "comparison.csv").exists()

    # The same for fbm, whose cov_analytic is the only one among the README
    # and benchmark runs that comes from a mimicking Gram with non-unit
    # variances; recorded before the Gram moved to one broadcasting
    # covariance per kernel.
    def test_fbm_artifact_bytes_unchanged(self, tmp_path):
        assert main([
            "simulate",
            "--kernel", '{"type": "fbm", "hurst": 0.75}',
            "--alpha", "0.0",
            "--grid", "1:3:3",
            "--paths", "2000",
            "--seed", "7",
            "--step", "0.001",
            "--out", str(tmp_path),
        ]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("comparison.csv", "summary.json")
        }
        assert digests == {
            "comparison.csv": "bb742a15966d4a826732a5ef8f0fa61b6d29c9ca692dfa34f6a937bdcd4f844e",
            "summary.json": "57be6f05db0598cded5fdd4d3f33dd87e3e5e941b0b8c551f9c6cdfc4a1024fa",
        }


class TestConfigPrecedence:
    def test_file_fills_and_flags_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "kernel": {"type": "exponential", "rate": 1.0},
            "grid": "0:2:5",
            "random_grids": 0,
        }))
        out_a = tmp_path / "a"
        assert main(["psd-check", "--config", str(config), "--out", str(out_a)]) == 0
        report = json.loads((out_a / "psd_report.json").read_text())
        assert len(report["grids"]) == 1
        out_b = tmp_path / "b"
        assert main([
            "psd-check", "--config", str(config),
            "--grid", "0:1:3", "--random-grids", "2", "--seed", "1",
            "--out", str(out_b),
        ]) == 0
        report_b = json.loads((out_b / "psd_report.json").read_text())
        assert len(report_b["grids"]) == 3
        assert report_b["grids"][0]["grid"] == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("text,message", [
        (None, "--config: file not found: "),
        ("{", "--config: not valid JSON: "),
        ("[1]", "--config: expected a JSON object, got list"),
        ('{"random_grids": 1' + "0" * 5000 + "}", "--config: not valid JSON: Exceeds the limit"),
    ], ids=["missing", "invalid-json", "not-an-object", "integer-of-5001-digits"])
    def test_missing_config_file(self, tmp_path, capsys, text, message):
        config = tmp_path / "run.json"
        if text is not None:
            config.write_text(text)
        out = tmp_path / "out"
        assert main(["psd-check", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"usage error: {message}")
        assert not out.exists()

    # A value its option cannot convert is a usage error, from the command
    # line or from the config file alike.
    EXP = '{"type": "exponential", "rate": 1.0}'
    CONVERGE = ["converge", "--kernel", EXP, "--alpha", "1.0", "--grid", "0:1:3"]
    SIMULATE = ["simulate", "--kernel", EXP, "--alpha", "1.0", "--grid", "0:1:3"]

    @pytest.mark.parametrize("command,key,value", [
        (["psd-check", "--kernel", EXP], "grid", "0:1:x"),
        (["counterexample"], "i_max", "x"),
        (["counterexample"], "targets", "a,b"),
        (CONVERGE, "steps", "a"),
        (["psd-check", "--grid", "0:1:3"], "kernel", {"type": "fbm"}),
        (["simulate", "--kernel", EXP, "--alpha", "1.0", "--grid", "0:1:3"], "route", "bogus"),
        (["psd-check", "--kernel", EXP, "--grid", "0:1:3"], "random_grids", -4),
        (CONVERGE, "mesh_sequence", "0"),
        (CONVERGE, "mesh_sequence", "nan"),
        (CONVERGE, "mesh_sequence", "-1"),
        (CONVERGE, "steps", "nan"),
        (["transform", "--kernel", EXP, "--grid", "1:2:3"], "alpha", "nan"),
        (["transform", "--kernel", EXP, "--grid", "1:2:3"], "alpha",
         {"form": "constant", "value": "inf"}),
        (["psd-check", "--grid", "0:1:3"], "kernel", {"type": "exponential", "rate": "nan"}),
        (SIMULATE, "seed", -1),
        (["psd-check", "--kernel", EXP, "--grid", "0:1:3", "--random-grids", "2"], "seed", -1),
        (SIMULATE, "seed", True),
        (SIMULATE, "seed", 1.5),
        (SIMULATE, "paths", 2.5),
        (["counterexample"], "i_max", 1.9),
        (["counterexample"], "k_cut", math.inf),
        (["counterexample"], "budget", 1e3 + 0.5),
        (["psd-check", "--kernel", EXP, "--grid", "0:1:3"], "random_grids", False),
        (CONVERGE, "n_max", 1.5),
        (SIMULATE, "step", True),
        (SIMULATE, "step", False),
    ], ids=["grid", "i_max", "targets", "steps", "kernel", "route", "random_grids",
            "mesh_zero", "mesh_nan", "mesh_negative", "steps_nan", "alpha_nan",
            "alpha_constant_inf", "kernel_rate_nan", "seed_negative", "psd_seed_negative",
            "seed_bool", "seed_fraction", "paths_fraction", "i_max_fraction", "k_cut_inf",
            "budget_fraction", "random_grids_bool", "n_max_fraction", "step_true", "step_false"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unparsable_value_is_usage_error(self, tmp_path, capsys, command, key, value, source):
        flag = "--" + key.replace("_", "-")
        if source == "flag":
            extra = [flag, value if isinstance(value, str) else json.dumps(value)]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({key: value}))
            extra = ["--config", str(config)]
        assert main([*command, *extra, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"usage error: {flag}: ")
        assert not (tmp_path / "out").exists()

    # A switch in a config file must be a JSON boolean: the string "false"
    # must not read as true.
    @pytest.mark.parametrize("value", ["false", "true", 0, 1])
    def test_switch_in_config_must_be_boolean(self, tmp_path, capsys, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"dump_paths": value}))
        assert main([
            "simulate", "--kernel", self.EXP, "--alpha", "1.0", "--grid", "0:1:3",
            "--paths", "10", "--config", str(config), "--out", str(tmp_path / "out"),
        ]) == 2
        assert capsys.readouterr().err.startswith("usage error: --dump-paths: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [False, True])
    def test_switch_in_config_reads_a_boolean(self, tmp_path, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"dump_paths": value}))
        assert main([
            "simulate", "--kernel", self.EXP, "--alpha", "1.0", "--grid", "0:1:3",
            "--paths", "10", "--step", "0.1", "--config", str(config), "--out", str(tmp_path),
        ]) == 0
        assert (tmp_path / "trajectories_sde.csv").exists() == value

    # Every number parses as a --step, however bad; SdeSpec refuses the ones that are no step.
    @pytest.mark.parametrize("value,shown", [("nan", "nan"), ("inf", "inf"), (0, "0.0"),
                                             (-1, "-1.0")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_numeric_step_reaches_the_library(self, tmp_path, capsys, value, shown, source):
        if source == "flag":
            extra = ["--step", str(value)]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"step": value}))
            extra = ["--config", str(config)]
        assert main([*self.SIMULATE, "--paths", "10", *extra, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: step must be positive and finite, got {shown}\n"
        )

    def test_unused_config_keys_are_ignored(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"i_max": 1, "paths": "not read here", "seed": 3}))
        assert main(["counterexample", "--config", str(config), "--out", str(tmp_path)]) == 0

    # Keys of other commands pass, so one file serves several commands; a
    # misspelt key would otherwise leave its option at the default.
    def test_config_key_no_command_reads_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"stepz": 0.5, "paths": 10}))
        out = tmp_path / "out"
        assert main([*self.SIMULATE, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "usage error: --config: no command reads the key 'stepz'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("kernel,alpha,message", [
        ('{"type": "exponential", "rate": true}', "true", "--kernel: expected a number, got True"),
        (EXP, "true", "--alpha: expected a number, got True"),
        (EXP, '{"form": "constant", "value": true}', "--alpha: expected a number, got True"),
        (EXP, '{"form": "linear", "slope": true}', "--alpha: expected a number, got True"),
        ('{"type": "fbm", "hurst": true}', "1", "--kernel: expected a number, got True"),
        ('{"type": "exponential", "domain": [false, 5]}', "1",
         "--kernel: expected a number, got False"),
        ('{"type": "transformed", "base": {"type": "exponential"}, "scale": {"form": "constant", '
         '"value": 1}, "time_change": {"form": "affine", "intercept": true}}', "1",
         "--kernel: expected a number, got True"),
    ])
    def test_json_boolean_is_no_number_in_a_spec(self, tmp_path, capsys, kernel, alpha, message):
        out = tmp_path / "out"
        argv = ["transform", "--kernel", kernel, "--alpha", alpha, "--grid", "1:2:3"]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_seed_is_not_a_transform_option(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "transform", "--kernel", self.EXP, "--alpha", "1.0", "--grid", "0:1:3",
                "--seed", "1", "--out", str(tmp_path),
            ])
        assert exc.value.code == 2


def _deep_config(tmp_path):
    config = tmp_path / "deep.json"
    config.write_text('{"kernel": ' + "[" * 50_000 + "]" * 50_000 + "}")
    return ["--config", str(config)]


def _existing_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return ["--out", str(tmp_path / "taken")]


# Each reached main's last-resort handler: exit 1 with "error: RecursionError: …",
# "error: IsADirectoryError: …", "error: OSError: [Errno 36] …" or "error: FileExistsError: …".
@pytest.mark.parametrize("given,message", [
    (lambda tmp_path: ["--kernel", "[" * 50_000],
     "--kernel: kernel spec is JSON nested too deeply to parse"),
    (_deep_config, "--config: not valid JSON: maximum recursion depth exceeded while decoding a "
                   "JSON array from a unicode string"),
    (lambda tmp_path: ["--config", str(tmp_path)], "--config: cannot read the file: Is a directory"),
    (lambda tmp_path: ["--kernel", "x" * 5000 + ".json"],
     "--kernel: cannot read kernel spec file: File name too long"),
    (_existing_file, "--out: cannot make the directory: File exists"),
], ids=["kernel-nested-too-deeply", "config-nested-too-deeply", "config-is-a-directory",
        "kernel-path-too-long", "out-is-a-file"])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, given, message):
    argv = ["psd-check", "--grid", "0:1:3", "--out", str(tmp_path / "out"), *given(tmp_path)]
    if "--kernel" not in argv and "--config" not in argv:
        argv += ["--kernel", '{"type": "constant"}']
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("out", [[1], 3, {}])
def test_out_in_a_config_file_must_be_a_name(tmp_path, capsys, out):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"out": out}))
    argv = ["psd-check", "--kernel", '{"type": "constant"}', "--grid", "0:1:3"]
    assert main([*argv, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"usage error: --out: expected a directory name, got {out!r}\n"


# A table that is not symmetric is no covariance: each command that reads a
# kernel refuses it as a usage error before it writes anything.
@pytest.mark.parametrize("command", [
    ["psd-check"], ["transform", "--alpha", "1"],
    ["converge", "--alpha", "1", "--mesh-sequence", "0.5"],
    ["simulate", "--alpha", "1", "--paths", "4"],
], ids=lambda command: command[0])
def test_asymmetric_matrix_is_a_usage_error(tmp_path, capsys, command):
    spec = {"type": "matrix", "grid": [1, 2, 3], "matrix": [[1, 0.9, 0], [-0.9, 1, 0], [0, 0, 1]]}
    out = tmp_path / "out"
    argv = [*command, "--kernel", json.dumps(spec), "--grid", "1:3:3", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "usage error: --kernel: matrix entries not symmetric (max deviation 1.8)\n")
    assert not out.exists()


def test_module_run_as_a_script_exits_with_the_code_of_main(monkeypatch, tmp_path, capsys):
    """``python -m gaussmarkov.cli``, in this process: the ``__main__`` guard's ``sys.exit``."""
    monkeypatch.delitem(sys.modules, "gaussmarkov.cli")  # run afresh, as a script
    argv = ["psd-check", "--kernel", '{"type": "constant"}', "--grid", "0:1:3"]
    monkeypatch.setattr(sys, "argv", ["gaussmarkov", *argv, "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("gaussmarkov.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"psd-check: pass -> {tmp_path / 'psd_report.json'}\n"


def test_unexpected_exception_is_a_clean_failure(monkeypatch, tmp_path, capsys):
    """``main``'s last-resort branch: an exception no check names exits 1 with its type."""
    def boom(**options):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "counterexample", boom)
    assert main(["counterexample", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: RuntimeError: boom\n"
