import copy
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmarkov.errors import InvalidInputError, InvalidMeasureError
from gaussmarkov.kernels import RateFunction, fbm
from gaussmarkov.serialize import (
    MAX_GRID_POINTS,
    kernel_from_spec,
    parse_float_list,
    parse_grid,
    rate_from_spec,
)
from test_boundaries import NEAR_VALID, VALID_RATES, VALID_SPECS, _fields


class TestKernelSpecs:
    def test_every_type_builds(self):
        specs = [
            {"type": "fbm", "hurst": 0.6},
            {"type": "fbm_log", "hurst": 0.6},
            {"type": "exponential", "rate": 2.0},
            {"type": "constant"},
            {"type": "white_noise"},
            {"type": "spectral", "atoms": [{"weight": 0.5, "location": 1.0}]},
            {"type": "noise_integral", "family": "sqrt_exp"},
            {"type": "matrix", "grid": [0.0, 1.0], "matrix": [[1.0, 0.5], [0.5, 1.0]]},
        ]
        for spec in specs:
            kern = kernel_from_spec(spec)
            t = 1.0 if spec["type"] in ("fbm", "noise_integral") else 0.0
            assert kern.eval(t, t) > 0.0

    def test_inline_json_and_file(self, tmp_path):
        spec = {"type": "exponential", "rate": 1.5}
        from_text = kernel_from_spec(json.dumps(spec))
        path = tmp_path / "kern.json"
        path.write_text(json.dumps(spec))
        from_file = kernel_from_spec(str(path))
        assert from_text.eval(0.0, 1.0) == from_file.eval(0.0, 1.0)

    def test_transformed_reconstructs_fbm(self):
        spec = {
            "type": "transformed",
            "base": {"type": "fbm_log", "hurst": 0.75},
            "scale": {"form": "power", "coeff": 1.0, "exponent": 0.75},
            "time_change": {"form": "log", "coeff": 0.5},
            "domain": [0.0, "inf"],
        }
        kern = kernel_from_spec(spec)
        ref = fbm(0.75)
        for s, t in [(0.5, 1.0), (2.0, 7.0)]:
            assert kern.eval(s, t) == pytest.approx(ref.eval(s, t), abs=1e-12)

    def test_exponential_with_domain_and_rate_spec(self):
        spec = {
            "type": "exponential",
            "rate": {"form": "linear", "slope": 1.0, "intercept": 0.0},
            "domain": [0, 2],
        }
        kern = kernel_from_spec(spec)
        assert kern.eval(0.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-9)

    @pytest.mark.parametrize("bounds,domain", [
        (["-inf", "inf"], (-math.inf, math.inf)),
        ([" -INF ", "+inf"], (-math.inf, math.inf)),
        ([0, "Infinity"], (0.0, math.inf)),
        ([0, None], (0.0, math.inf)),
        ([None, 2], (-math.inf, 2.0)),
    ])
    def test_domain_bounds(self, bounds, domain):
        assert kernel_from_spec({"type": "exponential", "domain": bounds}).domain == domain

    @pytest.mark.parametrize("spec,message", [
        ({"type": "exponential", "domain": ["x", 1]}, "expected a number, got 'x'"),
        ({"type": "noise_integral", "family": "gauss"}, "unknown noise-integral family 'gauss'"),
    ])
    def test_bad_field_is_named(self, spec, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            kernel_from_spec(spec)

    # "1e999" and "-infinity" read as every other spec number does.
    @pytest.mark.parametrize("bounds,domain", [
        (["-1e999", "1e999"], (-math.inf, math.inf)),
        (["-infinity", None], (-math.inf, math.inf)),
        ([" 0.5 ", "+Infinity"], (0.5, math.inf)),
    ])
    def test_domain_bounds_are_spec_numbers(self, bounds, domain):
        assert kernel_from_spec({"type": "exponential", "domain": bounds}).domain == domain

    # Each escaped as a KeyError, TypeError, OverflowError, numpy's ValueError or a
    # RecursionError.
    @pytest.mark.parametrize("spec,message", [
        ({"type": "fbm"}, "fbm kernel spec needs the key 'hurst'"),
        ({"type": "matrix", "grid": [0]}, "matrix kernel spec needs the key 'matrix'"),
        ({"type": "transformed", "base": {"type": "constant"}, "scale": {"form": "constant"},
          "time_change": {"form": "affine"}}, "constant scale spec needs the key 'value'"),
        ({"type": "spectral", "atoms": [{"location": 0}]},
         "spectral atom spec needs the key 'weight'"),
        ({"type": "spectral", "atoms": 3}, "spectral atoms must be a list, got 3"),
        ({"type": "fbm", "hurst": [1]}, "expected a number, got [1]"),
        ({"type": "fbm", "hurst": 10**400}, "expected a number, got an integer of 1329 bits"),
        ({"type": "exponential", "domain": [0, {}]}, "expected a number, got {}"),
        ({"type": "matrix", "grid": [0, 1], "matrix": [[1, 0], [0]]},
         "matrix is not a square table of numbers"),
        ({"type": "matrix", "grid": [0, 1], "matrix": json.loads("[" * 600 + "]" * 600)},
         "lists of numbers nest deeper than 64"),
        ({"type": "exponential", "rate": [10**5000]},
         "cannot parse rate spec a list holding an integer too long to print"),
        ({"type": "fbm", "hurst": [10**5000]},
         "expected a number, got a list holding an integer too long to print"),
        ({"type": "transformed", "base": {"type": "constant"}, "scale": 10**5000,
          "time_change": {"form": "affine"}},
         "scale spec must be an object, got an integer of 16610 bits"),
        ({"type": "exponential", "domain": [10**5000]},
         "domain must be a pair [lo, hi], got a list holding an integer too long to print"),
        ({"type": "spectral", "atoms": [10**5000]},
         "spectral atom spec must be an object, got an integer of 16610 bits"),
        ({"type": "matrix", "grid": [1, 2, 3], "matrix": [[1, 0.9, 0], [-0.9, 1, 0], [0, 0, 1]]},
         "matrix entries not symmetric (max deviation 1.8)"),
    ], ids=["fbm-hurst", "matrix-matrix", "scale-value", "atom-weight", "atoms-not-a-list",
            "hurst-list", "hurst-huge", "bound-object", "ragged-matrix", "matrix-600-deep",
            "rate-list-1e5000", "hurst-list-1e5000", "scale-1e5000", "domain-list-1e5000",
            "atom-1e5000", "matrix-asymmetric"])
    def test_malformed_spec_is_refused_by_name(self, spec, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            kernel_from_spec(spec)

    def test_unreadable_spec_file_is_refused(self, tmp_path):
        (tmp_path / "dir.json").mkdir()
        (tmp_path / "bad.json").write_text("{")
        for path, message in [
            (tmp_path / "dir.json", "cannot read kernel spec file: Is a directory"),
            ("x" * 5000 + ".json", "cannot read kernel spec file: File name too long"),
            (tmp_path / "bad.json", "kernel spec is not valid JSON: Expecting property"),
        ]:
            with pytest.raises(InvalidInputError, match=f"^{message}"):
                kernel_from_spec(str(path))

    def test_a_kernel_is_not_a_spec(self):
        with pytest.raises(InvalidInputError, match="^kernel spec must be an object, got <class"):
            kernel_from_spec(fbm(0.5))

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidInputError):
            kernel_from_spec({"type": "spline"})

    def test_garbage_text_rejected(self):
        with pytest.raises(InvalidInputError):
            kernel_from_spec("not json and not a file")


class TestRateSpecs:
    def test_number_and_inf(self):
        assert rate_from_spec(2.0)(1.0) == 2.0
        assert rate_from_spec("inf").is_infinite
        assert rate_from_spec("0.5")(3.0) == 0.5

    def test_forms(self):
        assert rate_from_spec({"form": "constant", "value": 1.0}).const == 1.0
        linear = rate_from_spec({"form": "linear", "slope": 2.0, "intercept": 1.0})
        assert linear(2.0) == 5.0
        power = rate_from_spec({"form": "power", "coeff": 3.0, "exponent": -1.0})
        assert power(2.0) == 1.5
        assert rate_from_spec({"form": "infinite"}).is_infinite

    def test_a_rate_function_is_not_a_spec(self):
        with pytest.raises(InvalidInputError, match=r"^cannot parse rate spec RateFunction\("):
            rate_from_spec(RateFunction.constant(1.0))

    def test_unknown_form(self):
        with pytest.raises(InvalidInputError):
            rate_from_spec({"form": "quadratic"})

    # "abc" raised a JSONDecodeError, and a constant without its value a KeyError.
    @pytest.mark.parametrize("spec,message", [
        ("abc", "rate spec is neither a number, an infinity word nor valid JSON: 'abc'"),
        ('{"form": "constant", "value": 1' + "0" * 5000 + "}",
         "rate spec is neither a number, an infinity word nor valid JSON: "),
        ({"form": "constant"}, "constant rate spec needs the key 'value'"),
        ({"form": "linear", "slope": "x"}, "expected a number, got 'x'"),
    ], ids=["word", "integer-of-5000-digits", "constant-value", "slope-word"])
    def test_malformed_rate_is_refused_by_name(self, spec, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
            rate_from_spec(spec)


# JSON nested deeper than the parser goes raised a RecursionError.
@pytest.mark.parametrize("parse,what", [(kernel_from_spec, "kernel"), (rate_from_spec, "rate")])
def test_text_nested_too_deeply_is_refused(parse, what):
    with pytest.raises(InvalidInputError, match=f"^{what} spec is JSON nested too deeply to parse$"):
        parse("[" * 50_000)


class TestParsing:
    def test_grid(self):
        grid = parse_grid("0:2:5")
        assert grid.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        with pytest.raises(InvalidInputError):
            parse_grid("0:2")
        with pytest.raises(InvalidInputError):
            parse_grid("2:0:5")
        for text in ("0:inf:3", "nan:1:3", "-1.7e308:1.7e308:3"):  # the last span overflows
            with pytest.raises(InvalidInputError, match="must be finite"):
                parse_grid(text)

    @pytest.mark.parametrize("count", [MAX_GRID_POINTS + 1, 10**400])
    def test_grid_above_the_cap(self, count):
        shown = {10**400: "an integer of 1329 bits"}.get(count, count)
        with pytest.raises(InvalidInputError, match=f"count must be at most 4096, got {shown}$"):
            parse_grid(f"0:1:{count}")

    def test_float_list(self):
        assert parse_float_list("0.5, 0.25") == [0.5, 0.25]
        with pytest.raises(InvalidInputError):
            parse_float_list(" , ")


@st.composite
def damaged(draw, valid_specs):
    """A valid spec with one or two of its fields dropped or set to a near-valid value."""
    spec = copy.deepcopy(draw(st.sampled_from(valid_specs)))
    for _ in range(draw(st.integers(1, 2))):
        if not (paths := list(_fields(spec))):
            break  # the first change emptied it
        *parents, key = draw(st.sampled_from(paths))
        node = spec
        for parent in parents:
            node = node[parent]
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(NEAR_VALID)))
    return spec


# The library's side of the CLI fuzz in test_boundaries: a bad spec is refused
# with a package error, never with a builtin exception such as KeyError.
@settings(max_examples=200, deadline=None)
@given(spec=damaged(VALID_SPECS), rate=damaged(VALID_RATES))
def test_damaged_spec_is_built_or_refused_by_name(spec, rate):
    for parse, value in ((kernel_from_spec, spec), (rate_from_spec, rate)):
        try:
            parse(value)
        except (InvalidInputError, InvalidMeasureError):
            pass
