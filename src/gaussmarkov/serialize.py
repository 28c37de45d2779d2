"""JSON-compatible specifications for kernels and rate functions, and the artifact writers.

Schema (one object per kernel, dispatched on ``"type"``):

    {"type": "fbm",            "hurst": H}
    {"type": "fbm_log",        "hurst": H}
    {"type": "exponential",    "rate"?: <rate spec>, "domain"?: [lo, hi]}
    {"type": "constant"}
    {"type": "white_noise"}
    {"type": "spectral",       "atoms": [{"weight": w, "location": y}, ...]}
    {"type": "noise_integral", "family"?: "sqrt_exp"}
    {"type": "matrix",         "grid": [...], "matrix": [[...]]}
    {"type": "transformed",    "base": <kernel spec>, "scale": <scale spec>,
                               "time_change": <time-change spec>, "domain"?: [lo, hi]}

A rate spec is a number, an infinity word or an object.  Rate, scale and
time-change objects dispatch on ``"form"``; all their fields but ``value`` are
optional: 1, intercepts 0.  ``_fields`` reads each spec's keys where it is built,
and refuses any other key or a missing one by name.  ``_number`` reads every spec
number, domain bounds and table entries included.

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
    """A spec number: whatever ``float()`` reads, an infinity word included, but
    never a bool, which JSON's ``true`` parses to."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    shown = kernels._shown(value) if isinstance(value, int) else repr(value)
    raise InvalidInputError(f"expected a number, got {shown}")


def _numbers(value, depth: int = 64):
    """A number, or lists of numbers nested at most ``depth`` (numpy's most dimensions) deep."""
    if isinstance(value, (list, tuple)):
        if depth == 0:
            raise InvalidInputError("lists of numbers nest deeper than 64")
        return [_numbers(item, depth - 1) for item in value]
    return _number(value)


def _domain(value, default):
    """A ``[lo, hi]`` of spec numbers, ``None`` for an unbounded end; ``default`` if absent."""
    if value is None:
        return default
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvalidInputError(f"domain must be a pair [lo, hi], got {value!r}")
    lo, hi = value
    return -math.inf if lo is None else _number(lo), math.inf if hi is None else _number(hi)


def _json(text, what: str, refusal: str | None = None):
    """``text`` parsed as JSON; too deep a nesting is refused by name, other text by ``refusal``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise InvalidInputError(f"{what} is JSON nested too deeply to parse") from None
    except ValueError as exc:
        raise InvalidInputError(refusal or f"{what} is not valid JSON: {exc}") from None


#: The kernel types, and the forms each kind of function of time accepts.
_TYPES = ("fbm", "fbm_log", "exponential", "constant", "white_noise", "spectral",
          "noise_integral", "matrix", "transformed")
_FORMS = {"rate": ("constant", "infinite", "linear", "power"),
          "scale": ("constant", "power", "exp"), "time-change": ("affine", "log", "exp")}


def _fields(spec, what: str, tag: str | None, *required: str, **optional) -> list:
    """The values of ``spec``'s ``required`` keys, then its ``optional`` ones (default if absent);
    refused unless ``spec`` is an object with each required key and no key but these and ``tag``."""
    if not isinstance(spec, dict):
        raise InvalidInputError(f"{what} spec must be an object, got {spec!r}")
    if unknown := [key for key in spec if key not in {tag, *required, *optional}]:
        raise InvalidInputError(f"unknown key {unknown[0]!r} in {what} spec")
    if missing := [key for key in required if key not in spec]:
        raise InvalidInputError(f"{what} spec needs the key {missing[0]!r}")
    return [spec[key] for key in required] + [spec.get(key, d) for key, d in optional.items()]


def _form(spec, kind: str) -> str:
    """The form of a ``kind`` spec, one of ``_FORMS[kind]``."""
    if not isinstance(spec, dict):
        raise InvalidInputError(f"{kind} spec must be an object, got {spec!r}")
    form = spec.get("form")
    if form not in _FORMS[kind]:
        raise InvalidInputError(f"unknown {kind} form {form!r}")
    return form


def _function(spec, kind: str) -> Callable[[float], float]:
    """A ``kind`` spec's function of time; ``rate_from_spec`` builds constant and infinite rates."""
    form = _form(spec, kind)
    what = f"{form} {kind}"
    if form == "constant":
        (c,) = map(_number, _fields(spec, what, "form", "value"))
        return lambda t: c
    if form == "power":
        c, p = map(_number, _fields(spec, what, "form", coeff=1.0, exponent=1.0))
        return lambda t: c * math.pow(t, p)
    if form == "exp":
        c, r = map(_number, _fields(spec, what, "form", coeff=1.0, rate=1.0))
        if kind == "time-change" and c * r <= 0.0:
            raise InvalidInputError("exp time change must be increasing")
        return lambda t: c * math.exp(r * t)
    if form == "log":
        a, b = map(_number, _fields(spec, what, "form", coeff=1.0, intercept=0.0))
        if a <= 0.0:
            raise InvalidInputError("log time change must have positive coefficient")
        return lambda t: a * math.log(t) + b
    a, b = map(_number, _fields(spec, what, "form", slope=1.0, intercept=0.0))  # linear, affine
    if kind == "time-change" and a <= 0.0:
        raise InvalidInputError("affine time change must have positive slope")
    return lambda t: a * t + b


def rate_from_spec(spec) -> RateFunction:
    """Parse a rate specification: a number, an infinity word, an object, or JSON text."""
    if isinstance(spec, (int, float)):
        return RateFunction.constant(_number(spec))
    if isinstance(spec, str):
        if spec.strip().lower() in ("inf", "+inf", "infinity", "infinite"):
            return RateFunction.infinite()
        try:
            return RateFunction.constant(float(spec))
        except ValueError:  # no number: JSON text
            return rate_from_spec(_json(spec, "rate spec", (
                f"rate spec is neither a number, an infinity word nor valid JSON: {spec!r}")))
    if not isinstance(spec, dict):
        raise InvalidInputError(f"cannot parse rate spec {spec!r}")
    form = _form(spec, "rate")
    if form == "constant":
        (value,) = _fields(spec, "constant rate", "form", "value")
        return RateFunction.constant(_number(value))
    if form == "infinite":
        _fields(spec, "infinite rate", "form")
        return RateFunction.infinite()
    return RateFunction.from_callable(_function(spec, "rate"))


def kernel_from_spec(spec) -> Kernel:
    """Build a kernel from a spec object, JSON text, or file path."""
    if isinstance(spec, (str, Path)):
        path = Path(spec)
        try:
            is_file = path.suffix == ".json" and path.exists()
            text = path.read_bytes() if is_file else str(spec)
        except OSError as exc:  # a name too long, a directory, no permission
            raise InvalidInputError(f"cannot read kernel spec file: {exc.strerror}") from None
        spec = _json(text, "kernel spec", None if is_file else
                     f"kernel spec is neither valid JSON nor an existing file: {text!r}")
    if not isinstance(spec, dict):
        raise InvalidInputError(f"kernel spec must be an object, got {type(spec)}")
    kind = spec.get("type")
    if kind not in _TYPES:
        raise InvalidInputError(f"unknown kernel type {kind!r}")
    what = f"{kind} kernel"
    if kind in ("fbm", "fbm_log"):
        (hurst,) = _fields(spec, what, "type", "hurst")
        return getattr(kernels, kind)(_number(hurst))
    if kind == "exponential":
        rate, domain = _fields(spec, what, "type", rate=1.0, domain=None)
        bounds = _domain(domain, (-math.inf, math.inf))
        return kernels.exponential_rate(rate_from_spec(rate), domain=bounds)
    if kind in ("constant", "white_noise"):
        _fields(spec, what, "type")
        return getattr(kernels, kind)()
    if kind == "spectral":
        from . import spectral

        (atoms,) = _fields(spec, what, "type", "atoms")
        if not isinstance(atoms, (list, tuple)):
            raise InvalidInputError(f"spectral atoms must be a list, got {atoms!r}")
        atoms = [_fields(atom, "spectral atom", None, "weight", "location") for atom in atoms]
        return spectral.kernel_from_spectral(spectral.SpectralMeasure(atoms=tuple(
            (_number(weight), _number(location)) for weight, location in atoms)))
    if kind == "noise_integral":
        (family,) = _fields(spec, what, "type", family="sqrt_exp")
        if family != "sqrt_exp":
            raise InvalidInputError(f"unknown noise-integral family {family!r}")
        # X_t = integral of sqrt(t) exp(-t u / 2) dB_u on (0, inf);
        # closed form K(s, t) = 2 sqrt(s t) / (s + t), unit variance.
        kern = kernels.noise_integral(lambda t, u: math.sqrt(t) * math.exp(-t * u / 2.0),
                                      interval=(0.0, math.inf))
        return dataclasses.replace(kern, domain=(0.0, math.inf), name="noise_integral(sqrt_exp)")
    if kind == "matrix":
        grid, matrix = _fields(spec, what, "type", "grid", "matrix")
        return kernels.matrix_kernel(_numbers(grid), _numbers(matrix))
    base, scale, time_change, domain = _fields(  # transformed
        spec, what, "type", "base", "scale", "time_change", domain=None)
    return kernels.transform_kernel(
        kernel_from_spec(base), _function(scale, "scale"),
        _function(time_change, "time-change"), domain=_domain(domain, None),
    )


def parse_grid(text: str) -> np.ndarray:
    """Parse ``start:stop:count`` into a linspace grid over a finite interval."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInputError(f"grid must be start:stop:count, got {text!r}")
    start, stop = _number(parts[0]), _number(parts[1])
    # stop - start is not finite when an endpoint is not, or when the span
    # overflows, which would make the inner points NaN.
    if not math.isfinite(stop - start):
        raise InvalidInputError(f"grid endpoints and span must be finite, got {text!r}")
    try:  # int() refuses a non-literal, and one past Python's 4300 digits
        count = kernels._count(int(parts[2]), "grid point count", 1, most=MAX_GRID_POINTS)
    except ValueError as exc:
        raise InvalidInputError(f"grid point count: {exc}") from None
    if not start < stop:
        raise InvalidInputError(f"bad grid {text!r}")
    return np.linspace(start, stop, count)


def parse_float_list(text: str) -> list[float]:
    vals = [_number(x) for x in text.split(",") if x.strip()]
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
