"""Fuzz of the kernel-spec boundary of the CLI.

Each example takes a valid kernel spec, puts near-valid values (non-finite
and extreme numbers, wrong JSON types) into one or two of its fields, and
runs ``psd-check`` on a three-point grid.  Whatever the spec, the command
must end with an exit code of its own, and no exception may reach the
last-resort handler of ``cli.main``, which prints its type name after
``error:``.
"""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmarkov.cli import main

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
]

#: Values one step off a valid field.  10**400 is a JSON integer that no double holds.
NEAR_VALID = [
    "nan", "inf", "-inf", "1e999", "x", "1", float("nan"), float("inf"), float("-inf"),
    0, -0.0, -1, 1e-320, 700, 1e308, -1e308, 10**400, True, None, [], [1], [1, 2, 3], {},
]

#: What ``cli.main`` prints for an exception that escaped every named error.
UNNAMED_ERROR = re.compile(r"^error: [A-Z]\w*(Error|Exception)\b", re.M)


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
def near_valid_specs(draw):
    spec = copy.deepcopy(draw(st.sampled_from(VALID_SPECS)))
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


# Extreme values overflow on the way to the named error that reports them.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(spec=near_valid_specs())
def test_near_valid_kernel_spec_ends_with_a_named_outcome(out_dir, spec):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["psd-check", "--kernel", json.dumps(spec), "--grid", "1:3:3",
                     "--out", str(out_dir)])
    assert code in (0, 1, 2), err.getvalue()
    assert not UNNAMED_ERROR.search(err.getvalue()), (spec, err.getvalue())
