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
forms each kind accepts and of their keys, as ``_TYPES`` is of the kernel types'.
A spec holding any other key is refused.  Every field but ``value`` is optional:
1, intercepts 0.  A JSON ``true`` or ``false`` is no number: ``_number`` refuses
it wherever one goes, in spectral atoms and matrix tables too.

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


def _number(value) -> float:
    """A number or a numeric string; never a bool, which JSON's ``true`` parses to."""
    if isinstance(value, bool):
        raise InvalidInputError(f"expected a number, got {value!r}")
    return float(value)


def _numbers(value):
    """A number, or nested lists of numbers, as ``_number`` reads each."""
    if isinstance(value, (list, tuple)):
        return [_numbers(item) for item in value]
    return _number(value)


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
    return _number(value)


def _domain(value, default):
    """A ``[lo, hi]`` domain, or ``default`` when the spec gives none."""
    if value is None:
        return default
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvalidInputError(f"domain must be a pair [lo, hi], got {value!r}")
    return _bound(value[0], -math.inf), _bound(value[1], math.inf)


#: The keys of each kernel type's spec, beside ``type``: the one list of them.
_TYPES = {
    "fbm": ("hurst",), "fbm_log": ("hurst",), "exponential": ("rate", "domain"),
    "constant": (), "white_noise": (), "spectral": ("atoms",), "noise_integral": ("family",),
    "matrix": ("grid", "matrix"), "transformed": ("base", "scale", "time_change", "domain"),
}

#: The forms each kind of function of time accepts, each with its keys beside ``form``.
_FORMS = {
    "rate": {"constant": ("value",), "infinite": (), "linear": ("slope", "intercept"),
             "power": ("coeff", "exponent")},
    "scale": {"constant": ("value",), "power": ("coeff", "exponent"), "exp": ("coeff", "rate")},
    "time-change": {"affine": ("slope", "intercept"), "log": ("coeff", "intercept"),
                    "exp": ("coeff", "rate")},
}


def _only(spec, keys, what: str) -> dict:
    """``spec``, refused unless it is an object whose every key is one of ``keys``."""
    if not isinstance(spec, dict):
        raise InvalidInputError(f"{what} spec must be an object, got {spec!r}")
    if unknown := [key for key in spec if key not in keys]:
        raise InvalidInputError(f"unknown key {unknown[0]!r} in {what} spec")
    return spec


def _form(spec, kind: str) -> str:
    """The form of a ``kind`` spec, whose keys are checked against the form's."""
    if not isinstance(spec, dict):
        raise InvalidInputError(f"{kind} spec must be an object, got {spec!r}")
    form = spec.get("form")
    if not isinstance(form, str) or form not in _FORMS[kind]:
        raise InvalidInputError(f"unknown {kind} form {form!r}")
    _only(spec, ("form", *_FORMS[kind][form]), f"{form} {kind}")
    return form


def _function(spec, kind: str) -> Callable[[float], float]:
    """A ``kind`` spec's function of time; ``rate_from_spec`` builds constant and infinite rates."""
    form = _form(spec, kind)
    increasing = kind == "time-change"
    if form == "constant":
        c = _number(spec["value"])
        return lambda t: c
    if form == "power":
        c = _number(spec.get("coeff", 1.0))
        p = _number(spec.get("exponent", 1.0))
        return lambda t: c * math.pow(t, p)
    if form == "exp":
        c = _number(spec.get("coeff", 1.0))
        r = _number(spec.get("rate", 1.0))
        if increasing and c * r <= 0.0:
            raise InvalidInputError("exp time change must be increasing")
        return lambda t: c * math.exp(r * t)
    if form == "log":
        a = _number(spec.get("coeff", 1.0))
        b = _number(spec.get("intercept", 0.0))
        if a <= 0.0:
            raise InvalidInputError("log time change must have positive coefficient")
        return lambda t: a * math.log(t) + b
    a = _number(spec.get("slope", 1.0))  # linear or affine
    b = _number(spec.get("intercept", 0.0))
    if increasing and a <= 0.0:
        raise InvalidInputError("affine time change must have positive slope")
    return lambda t: a * t + b


def rate_from_spec(spec) -> RateFunction:
    """Parse a rate specification (number, "inf", or an object)."""
    if isinstance(spec, (int, float)):
        return RateFunction.constant(_number(spec))
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
    form = _form(spec, "rate")
    if form == "constant":
        return RateFunction.constant(_number(spec["value"]))
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
    if not isinstance(kind, str) or kind not in _TYPES:
        raise InvalidInputError(f"unknown kernel type {kind!r}")
    _only(spec, ("type", *_TYPES[kind]), f"{kind} kernel")
    if kind == "fbm":
        return kernels.fbm(_number(spec["hurst"]))
    if kind == "fbm_log":
        return kernels.fbm_log(_number(spec["hurst"]))
    if kind == "exponential":
        bounds = _domain(spec.get("domain"), (-math.inf, math.inf))
        return kernels.exponential_rate(rate_from_spec(spec.get("rate", 1.0)), domain=bounds)
    if kind == "constant":
        return kernels.constant()
    if kind == "white_noise":
        return kernels.white_noise()
    if kind == "spectral":
        from . import spectral

        atoms = [_only(atom, ("weight", "location"), "spectral atom") for atom in spec["atoms"]]
        return spectral.kernel_from_spectral(spectral.SpectralMeasure(atoms=tuple(
            (_number(atom["weight"]), _number(atom["location"])) for atom in atoms)))
    if kind == "noise_integral":
        return _noise_integral_family(spec.get("family", "sqrt_exp"))
    if kind == "matrix":
        return kernels.matrix_kernel(_numbers(spec["grid"]), _numbers(spec["matrix"]))
    base = kernel_from_spec(spec["base"])  # transformed
    return kernels.transform_kernel(
        base, _function(spec["scale"], "scale"), _function(spec["time_change"], "time-change"),
        domain=_domain(spec.get("domain"), None),
    )


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
