"""Fuzz of the kernel-spec, rate-spec and option boundaries of the CLI.

Each spec example takes a valid spec, puts near-valid values (non-finite and
extreme numbers, wrong JSON types) into one or two of its fields, and runs
``psd-check`` with it as the kernel, or ``transform`` with it as the rate,
on a small grid drawn from positive, negative and zero-crossing ones.  The
option cases take a tiny valid run of every command and put one near-valid
value into one of its numeric or grid options, on the command line or in a
``--config`` file.
Whatever the input, the command must end with an exit code of its own, and
no exception may reach the last-resort handler of ``cli.main``, which
prints its type name after ``error:``.  A JSON boolean, a list or a word is
no option's value, so it never exits 0; nor is a JSON boolean a number in a
spec, so a spec holding one never exits 0 either.  A misspelled key, in a spec
or a config file, is a usage error that names it.
"""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussmarkov.cli import EXIT_BUDGET, main

#: One valid spec per kernel type, and per rate, scale and time-change form.
VALID_SPECS = [
    {"type": "fbm", "hurst": 0.5},
    {"type": "fbm_log", "hurst": 0.5},
    {"type": "exponential", "rate": {"form": "constant", "value": 1}},
    {"type": "exponential", "rate": 1.0, "domain": [0, 5]},
    {"type": "exponential", "rate": {"form": "linear", "slope": 1, "intercept": 0},
     "domain": [0, 5]},
    {"type": "exponential", "rate": {"form": "power", "coeff": 1, "exponent": 1},
     "domain": [0, 5]},
    {"type": "exponential", "rate": {"form": "power", "coeff": 1, "exponent": 1}},
    {"type": "constant"},
    {"type": "white_noise"},
    {"type": "spectral", "atoms": [{"weight": 0.5, "location": 1}, {"weight": 0.5, "location": 0}]},
    {"type": "noise_integral", "family": "sqrt_exp"},
    {"type": "matrix", "grid": [1, 2, 3], "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    {"type": "transformed", "base": {"type": "fbm", "hurst": 0.5},
     "scale": {"form": "exp", "coeff": 1, "rate": 1},
     "time_change": {"form": "affine", "slope": 1, "intercept": 0}, "domain": [0, 5]},
    {"type": "transformed", "base": {"type": "fbm", "hurst": 0.5},
     "scale": {"form": "power", "coeff": 1, "exponent": 1},
     "time_change": {"form": "log", "coeff": 1, "intercept": 1}, "domain": [1, 5]},
    {"type": "transformed", "base": {"type": "exponential"},
     "scale": {"form": "constant", "value": 1},
     "time_change": {"form": "exp", "coeff": 1, "rate": 1}, "domain": [0, 5]},
    {"type": "transformed", "base": {"type": "exponential"},
     "scale": {"form": "power", "coeff": 1, "exponent": 1},
     "time_change": {"form": "log", "coeff": 1, "intercept": 1}},
]

#: One valid object spec per rate form.
VALID_RATES = [
    {"form": "constant", "value": 1},
    {"form": "linear", "slope": 1, "intercept": 0},
    {"form": "power", "coeff": 1, "exponent": 1},
    {"form": "infinite"},
]

#: Kernels for the rate fuzz: one defined on the whole line, one on [0, inf).
RATE_KERNELS = [{"type": "exponential"}, {"type": "fbm", "hurst": 0.25}]

#: Grids on both sides of 0, across it, and starting at it.
GRIDS = ["1:3:3", "0:1:3", "-2:2:5", "-3:-1:3"]

#: Values one step off a valid field.  10**400 is a JSON integer that no double holds.
NEAR_VALID = [
    "nan", "inf", "-inf", "1e999", "x", "1", float("nan"), float("inf"), float("-inf"),
    0, -0.0, -1, 0.5, 1e-320, 700, 1e308, -1e308, 10**400, True, None, [], [1], [1, 2, 3], {},
]

#: Values one step off a valid option: subnormal, tiny, zero, negative, non-finite and
#: huge numbers, and the wrong JSON types.  As text, a value goes on the command line.
NEAR_VALID_OPTIONS = [
    5e-324, 1e-300, 1e-15, 0, -1, "nan", "inf", float("nan"), float("inf"), 10**400, True, [], "x",
]

_EXP = '{"type": "exponential"}'

#: Tiny valid runs, each with the options the fuzz changes in it, one at a time.
OPTION_RUNS = [
    (["converge", "--kernel", _EXP, "--alpha", "1", "--grid", "0:1:2", "--steps", "0.5,0.25"],
     ["steps", "n_max"]),
    (["converge", "--kernel", _EXP, "--alpha", "1", "--grid", "0:1:2",
      "--mesh-sequence", "0.5,0.25"], ["mesh_sequence"]),
    (["simulate", "--kernel", _EXP, "--alpha", "1", "--grid", "0:1:2", "--paths", "20",
      "--step", "0.25"], ["paths", "step"]),
    (["counterexample", "--targets", "1", "--i-max", "1", "--k-cut", "10", "--budget", "100"],
     ["i_max", "k_cut", "budget", "targets"]),
    (["psd-check", "--kernel", _EXP, "--grid", "0:1:2", "--random-grids", "2", "--seed", "1"],
     ["random_grids", "seed", "grid"]),
    (["transform", "--kernel", _EXP, "--alpha", "1", "--grid", "1:2:2"], ["grid"]),
]

#: Values that no option takes: a JSON boolean, a list and a word.
MALFORMED_OPTIONS = [True, [], "x"]

#: What ``cli.main`` prints for an exception that escaped every named error.
UNNAMED_ERROR = re.compile(r"^error: [A-Z]\w*(Error|Exception)\b", re.M)


def _holds_bool(node) -> bool:
    """Whether a JSON boolean sits anywhere in ``node``."""
    if isinstance(node, bool):
        return True
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    return any(_holds_bool(child) for child in children)


def _fields(node, path=()):
    """Path of every field under ``node``, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


@st.composite
def near_valid(draw, valid_specs):
    spec = copy.deepcopy(draw(st.sampled_from(valid_specs)))
    for _ in range(draw(st.integers(1, 2))):
        *parents, key = draw(st.sampled_from(list(_fields(spec))))
        node = spec
        for parent in parents:
            node = node[parent]
        node[key] = copy.deepcopy(draw(st.sampled_from(NEAR_VALID)))
    return spec


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundaries")


def assert_named_outcome(argv, codes=(0, 1, 2)):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in codes, err.getvalue()
    assert not UNNAMED_ERROR.search(err.getvalue()), (argv, err.getvalue())


# Extreme values overflow on the way to the named error that reports them.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(spec=near_valid(VALID_SPECS), grid=st.sampled_from(GRIDS))
@example(spec=VALID_SPECS[-1], grid="-3:-1:3")  # log of a negative time
@example(spec={"type": "exponential", "rate": {"form": "constant", "value": True}}, grid="1:3:3")
def test_near_valid_kernel_spec_ends_with_a_named_outcome(out_dir, spec, grid):
    codes = (1, 2) if _holds_bool(spec) else (0, 1, 2)
    assert_named_outcome(["psd-check", "--kernel", json.dumps(spec), f"--grid={grid}",
                          "--out", str(out_dir)], codes)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(rate=near_valid(VALID_RATES), kernel=st.sampled_from(RATE_KERNELS),
       grid=st.sampled_from(GRIDS))
@example(rate={"form": "power", "coeff": 1, "exponent": 0.5}, kernel=RATE_KERNELS[0],
         grid="-2:2:5")  # square root of a negative time
@example(rate={"form": "linear", "slope": True}, kernel=RATE_KERNELS[0], grid="1:3:3")
def test_near_valid_rate_spec_ends_with_a_named_outcome(out_dir, rate, kernel, grid):
    assert_named_outcome(["transform", "--kernel", json.dumps(kernel),
                          "--alpha", json.dumps(rate), f"--grid={grid}", "--out", str(out_dir)],
                         (1, 2) if _holds_bool(rate) else (0, 1, 2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", NEAR_VALID_OPTIONS,
                         ids=lambda v: "10**400" if v == 10**400 else repr(v))
@pytest.mark.parametrize("base, option", [
    pytest.param(base, option, id=f"{base[0]}-{option}")
    for base, options in OPTION_RUNS for option in options
])
def test_near_valid_option_ends_with_a_named_outcome(out_dir, base, option, value):
    flag = "--" + option.replace("_", "-")
    if flag in base:
        at = base.index(flag)
        base = base[:at] + base[at + 2:]
    config = out_dir / "options.json"
    config.write_text(json.dumps({option: value}))
    # counterexample's own exit code for an index search that passed its budget
    codes = (0, 1, 2, EXIT_BUDGET) if base[0] == "counterexample" else (0, 1, 2)
    if value in MALFORMED_OPTIONS:
        codes = codes[1:]
    text = value if isinstance(value, str) else json.dumps(value)
    for given in ([flag, text], ["--config", str(config)]):
        assert_named_outcome(base + given + ["--out", str(out_dir)], codes)


def _misspelled(spec: dict) -> tuple[dict, str]:
    """``spec`` with a misspelled copy of its last key added, and that key."""
    key = list(spec)[-1] + "z"
    return {**spec, key: spec[list(spec)[-1]]}, key


def assert_usage_error_names(argv, key):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 2 and f"key {key!r}" in err.getvalue(), err.getvalue()


@pytest.mark.parametrize("spec", VALID_SPECS, ids=lambda spec: spec["type"])
def test_misspelled_kernel_spec_key_is_a_usage_error(out_dir, spec):
    spec, key = _misspelled(spec)
    assert_usage_error_names(["psd-check", "--kernel", json.dumps(spec), "--grid", "1:3:3",
                              "--out", str(out_dir)], key)


@pytest.mark.parametrize("rate", VALID_RATES, ids=lambda rate: rate["form"])
def test_misspelled_rate_spec_key_is_a_usage_error(out_dir, rate):
    rate, key = _misspelled(rate)
    assert_usage_error_names(["transform", "--kernel", _EXP, "--alpha", json.dumps(rate),
                              "--grid", "1:3:3", "--out", str(out_dir)], key)


@pytest.mark.parametrize("base, option", [(base, options[0]) for base, options in OPTION_RUNS],
                         ids=lambda value: value if isinstance(value, str) else value[0])
def test_misspelled_config_key_is_a_usage_error(out_dir, base, option):
    config = out_dir / "misspelled.json"
    config.write_text(json.dumps({option + "z": 1}))
    assert_usage_error_names(base + ["--config", str(config), "--out", str(out_dir)], option + "z")
