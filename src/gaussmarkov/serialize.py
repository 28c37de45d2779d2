"""JSON-compatible specifications for kernels and rate functions, and the artifact writers.

Schema (one object per kernel, dispatched on ``"type"``):

    {"type": "fbm",            "hurst": H}
    {"type": "fbm_log",        "hurst": H}
    {"type": "exponential",    "rate": <rate spec>, "domain": [lo, hi]?}
    {"type": "constant"}
    {"type": "white_noise"}
    {"type": "spectral",       "atoms": [{"weight": w, "location": y}, ...]}
    {"type": "noise_integral", "family": "sqrt_exp"}
    {"type": "matrix",         "grid": [...], "matrix": [[...]]}
    {"type": "transformed",    "base": <kernel spec>, "scale": <scale spec>,
                               "time_change": <time-change spec>, "domain": [lo, hi]}

Rate specs are a number, the string "inf", or an object.  Rate, scale and
time-change objects dispatch on ``"form"``; ``_FORMS`` is the one list of the
forms each kind accepts.  Every field but ``value`` is optional: 1, intercepts 0.

    {"form": "constant", "value": v}                  # rate, scale
    {"form": "infinite"}                              # rate
    {"form": "linear",   "slope": a, "intercept": b}  # rate; "affine" for a time change
    {"form": "power",    "coeff": c, "exponent": p}   # rate, scale: c * t**p where real
    {"form": "exp",      "coeff": c, "rate": r}       # scale, time change: c * e**(r*t)
    {"form": "log",      "coeff": a, "intercept": b}  # time change: a * ln(t) + b
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

from . import kernels
from .errors import InvalidInputError
from .kernels import Kernel, RateFunction

#: Most points a ``start:stop:count`` grid may have: a Gram over it takes 128 MiB.
MAX_GRID_POINTS = 4096


def _bound(value, missing: float) -> float:
    """One domain bound; ``None`` (JSON ``null``) is the unbounded end, ``missing``."""
    if value is None:
        return missing
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "+inf", "infinity"):
            return math.inf
        if text == "-inf":
            return -math.inf
        raise InvalidInputError(f"bad domain bound {value!r}")
    return float(value)


def _domain(value, default):
    """A ``[lo, hi]`` domain, or ``default`` when the spec gives none."""
    if value is None:
        return default
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvalidInputError(f"domain must be a pair [lo, hi], got {value!r}")
    return _bound(value[0], -math.inf), _bound(value[1], math.inf)


#: The forms each kind of function of time accepts: the one list of them.
_FORMS = {
    "rate": ("constant", "infinite", "linear", "power"),
    "scale": ("constant", "power", "exp"),
    "time-change": ("affine", "log", "exp"),
}


def _function(spec, kind: str) -> Callable[[float], float]:
    """A ``kind`` spec's function of time; ``rate_from_spec`` builds constant and infinite rates."""
    if not isinstance(spec, dict):
        raise InvalidInputError(f"{kind} spec must be an object, got {spec!r}")
    form = spec.get("form")
    if form not in _FORMS[kind]:
        raise InvalidInputError(f"unknown {kind} form {form!r}")
    increasing = kind == "time-change"
    if form == "constant":
        c = float(spec["value"])
        return lambda t: c
    if form == "power":
        c = float(spec.get("coeff", 1.0))
        p = float(spec.get("exponent", 1.0))
        return lambda t: c * math.pow(t, p)
    if form == "exp":
        c = float(spec.get("coeff", 1.0))
        r = float(spec.get("rate", 1.0))
        if increasing and c * r <= 0.0:
            raise InvalidInputError("exp time change must be increasing")
        return lambda t: c * math.exp(r * t)
    if form == "log":
        a = float(spec.get("coeff", 1.0))
        b = float(spec.get("intercept", 0.0))
        if a <= 0.0:
            raise InvalidInputError("log time change must have positive coefficient")
        return lambda t: a * math.log(t) + b
    a = float(spec.get("slope", 1.0))  # linear or affine
    b = float(spec.get("intercept", 0.0))
    if increasing and a <= 0.0:
        raise InvalidInputError("affine time change must have positive slope")
    return lambda t: a * t + b


def rate_from_spec(spec) -> RateFunction:
    """Parse a rate specification (number, "inf", or an object)."""
    if isinstance(spec, (int, float)):
        return RateFunction.constant(float(spec))
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text in ("inf", "+inf", "infinity", "infinite"):
            return RateFunction.infinite()
        try:
            return RateFunction.constant(float(text))
        except ValueError:
            return rate_from_spec(json.loads(spec))
    if not isinstance(spec, dict):
        raise InvalidInputError(f"cannot parse rate spec {spec!r}")
    form = spec.get("form")
    if form == "constant":
        return RateFunction.constant(float(spec["value"]))
    if form == "infinite":
        return RateFunction.infinite()
    return RateFunction.from_callable(_function(spec, "rate"))


def _noise_integral_family(name: str) -> Kernel:
    if name == "sqrt_exp":
        # X_t = integral of sqrt(t) exp(-t u / 2) dB_u on (0, inf);
        # closed form K(s, t) = 2 sqrt(s t) / (s + t), unit variance.
        kern = kernels.noise_integral(
            lambda t, u: math.sqrt(t) * math.exp(-t * u / 2.0),
            interval=(0.0, math.inf),
        )
        return dataclasses.replace(kern, domain=(0.0, math.inf), name="noise_integral(sqrt_exp)")
    raise InvalidInputError(f"unknown noise-integral family {name!r}")


def kernel_from_spec(spec) -> Kernel:
    """Build a kernel from a spec object, JSON text, or file path."""
    if isinstance(spec, (str, Path)):
        text = str(spec)
        path = Path(text)
        if path.suffix == ".json" and path.exists():
            spec = json.loads(path.read_text())
        else:
            try:
                spec = json.loads(text)
            except json.JSONDecodeError as exc:
                raise InvalidInputError(
                    f"kernel spec is neither valid JSON nor an existing file: {text!r}"
                ) from exc
    if not isinstance(spec, dict):
        raise InvalidInputError(f"kernel spec must be an object, got {type(spec)}")
    kind = spec.get("type")
    if kind == "fbm":
        return kernels.fbm(float(spec["hurst"]))
    if kind == "fbm_log":
        return kernels.fbm_log(float(spec["hurst"]))
    if kind == "exponential":
        bounds = _domain(spec.get("domain"), (-math.inf, math.inf))
        return kernels.exponential_rate(rate_from_spec(spec.get("rate", 1.0)), domain=bounds)
    if kind == "constant":
        return kernels.constant()
    if kind == "white_noise":
        return kernels.white_noise()
    if kind == "spectral":
        from . import spectral

        mu = spectral.SpectralMeasure.from_list(spec["atoms"])
        return spectral.kernel_from_spectral(mu)
    if kind == "noise_integral":
        return _noise_integral_family(spec.get("family", "sqrt_exp"))
    if kind == "matrix":
        return kernels.matrix_kernel(spec["grid"], spec["matrix"])
    if kind == "transformed":
        base = kernel_from_spec(spec["base"])
        return kernels.transform_kernel(
            base, _function(spec["scale"], "scale"), _function(spec["time_change"], "time-change"),
            domain=_domain(spec.get("domain"), None),
        )
    raise InvalidInputError(f"unknown kernel type {kind!r}")


def parse_grid(text: str) -> np.ndarray:
    """Parse ``start:stop:count`` into a linspace grid over a finite interval."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInputError(f"grid must be start:stop:count, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    # stop - start is not finite when an endpoint is not, or when the span
    # overflows, which would make the inner points NaN.
    if not math.isfinite(stop - start):
        raise InvalidInputError(f"grid endpoints and span must be finite, got {text!r}")
    if count < 1 or not start < stop:
        raise InvalidInputError(f"bad grid {text!r}")
    kernels._require_at_most(count, MAX_GRID_POINTS, f"grid {text!r} has {count} points")
    return np.linspace(start, stop, count)


def parse_float_list(text: str) -> list[float]:
    vals = [float(x) for x in text.split(",") if x.strip()]
    if not vals:
        raise InvalidInputError(f"empty list {text!r}")
    return vals


def _csv_line(cells) -> str:
    return ",".join("%.17g" if isinstance(c, float) else "%s" for c in cells) + "\r\n"


def write_csv(path, header, rows) -> None:
    """Write a CSV artifact: floats as ``%.17g``, other cells as ``str``, CRLF rows.

    Every row is formatted like the first.  The bytes are those of
    ``csv.writer`` over ``f"{x:.17g}"`` float cells and the other cells, as
    long as no cell needs quoting: none of the artifacts' cells does.
    """
    header = tuple(header)
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(header) % header)
        if first is not None:
            line = _csv_line(first)
            fh.write(line % tuple(first))
            fh.writelines(line % tuple(row) for row in rows)


def write_json(path, payload) -> None:
    """Write a JSON artifact: indent 2 and a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
