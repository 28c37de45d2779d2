import json
import math
import re

import pytest

from gaussmarkov.errors import InvalidInputError
from gaussmarkov.kernels import RateFunction, fbm
from gaussmarkov.serialize import (
    MAX_GRID_POINTS,
    kernel_from_spec,
    parse_float_list,
    parse_grid,
    rate_from_spec,
)


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
        ({"type": "exponential", "domain": ["x", 1]}, "bad domain bound 'x'"),
        ({"type": "noise_integral", "family": "gauss"}, "unknown noise-integral family 'gauss'"),
    ])
    def test_bad_field_is_named(self, spec, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            kernel_from_spec(spec)

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
