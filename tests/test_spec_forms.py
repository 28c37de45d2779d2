"""The one parser of rate, scale and time-change specs against the three it replaced."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gaussmarkov.errors import InvalidInputError
from gaussmarkov.serialize import _FORMS, _function, rate_from_spec
from test_boundaries import NEAR_VALID

REFERENCES = {
    "rate": oracles.rate_spec_function,
    "scale": oracles.scale_from_spec,
    "time-change": oracles.time_change_from_spec,
}

#: Every field some form reads; a drawn spec holds any of them, with any form.
FIELDS = ["value", "slope", "intercept", "coeff", "exponent", "rate"]
ALL_FORMS = sorted({form for forms in _FORMS.values() for form in forms})
SAMPLE_TIMES = [-1.5, 0.0, 0.25, 1.0, 2.0, 800.0]
VALUES = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(NEAR_VALID))


#: The number fields each form reads, in the order it reads them.
READS = {
    "constant": ("value",), "power": ("coeff", "exponent"), "exp": ("coeff", "rate"),
    "log": ("coeff", "intercept"), "linear": ("slope", "intercept"),
    "affine": ("slope", "intercept"),
}


def _new(spec, kind):
    return rate_from_spec(spec) if kind == "rate" else _function(spec, kind)


def _reference(spec, kind):
    """The replaced parser's outcome, except for four refusals: of a key the form does
    not read, of a constant form without ``value``, and of the first field read that
    is a JSON boolean or that ``float()`` cannot read.  The old parsers ignored the
    key, raised ``KeyError`` for the missing ``value``, took ``true`` for 1.0 and
    raised ``float()``'s own error."""
    if isinstance(spec, dict) and spec.get("form") in tuple(_FORMS[kind]):
        form = spec["form"]
        for key in spec:
            if key != "form" and key not in READS.get(form, ()):
                return InvalidInputError, f"unknown key {key!r} in {form} {kind} spec"
        if form == "constant" and "value" not in spec:
            return InvalidInputError, f"constant {kind} spec needs the key 'value'"
        for field in READS.get(form, ()):
            value = spec.get(field, 1.0)
            if isinstance(value, bool):
                return InvalidInputError, f"expected a number, got {value!r}"
            try:
                float(value)
            except (TypeError, ValueError, OverflowError):
                big = isinstance(value, int)  # such as 10**400, which no double holds
                shown = f"an integer of {value.bit_length()} bits" if big else repr(value)
                return InvalidInputError, f"expected a number, got {shown}"
    return _outcome(REFERENCES[kind], spec)


def _outcome(call, *args):
    """``("ok", bits)`` of what the call returns, or the type and message of what it raises."""
    try:
        value = call(*args)
    except Exception as exc:  # every outcome is compared, errors included
        return type(exc), str(exc)
    if callable(value):
        return value
    return "ok", struct.pack("<d", value)


@st.composite
def specs(draw, kind):
    if kind != "rate" and draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(NEAR_VALID))  # not an object
    spec = draw(st.dictionaries(st.sampled_from(FIELDS), VALUES, max_size=3))
    if draw(st.integers(0, 9)):
        spec["form"] = draw(st.one_of(
            st.sampled_from(sorted(_FORMS[kind])), st.sampled_from(ALL_FORMS),
            st.sampled_from(NEAR_VALID)))
    return spec


@pytest.mark.parametrize("kind", sorted(_FORMS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parser_matches_reference_bit_for_bit(kind, data):
    spec = data.draw(specs(kind))
    new, ref = _outcome(_new, spec, kind), _reference(spec, kind)
    if not callable(ref):
        assert new == ref
        return
    assert callable(new)
    if kind == "rate":
        assert (new.is_infinite, new.const) == (ref.is_infinite, ref.const)
    for t in SAMPLE_TIMES:
        assert _outcome(new, t) == _outcome(ref, t), t


@pytest.mark.parametrize("kind", sorted(_FORMS))
def test_every_form_with_its_defaults_matches_reference(kind):
    for form in _FORMS[kind]:
        spec = {"form": form, "value": 0.5} if form == "constant" else {"form": form}
        new, ref = _new(spec, kind), REFERENCES[kind](spec)
        if kind == "rate":
            assert (new.is_infinite, new.const) == (ref.is_infinite, ref.const)
            if new.is_infinite:
                continue
        for t in SAMPLE_TIMES[2:-1]:
            assert struct.pack("<d", new(t)) == struct.pack("<d", ref(t))
            assert math.isfinite(new(t))


@pytest.mark.parametrize("spec,message", [
    ({"form": "affine", "slope": 0.0}, "affine time change must have positive slope"),
    ({"form": "log", "coeff": -1.0}, "log time change must have positive coefficient"),
    ({"form": "exp", "coeff": 1.0, "rate": -1.0}, "exp time change must be increasing"),
])
def test_decreasing_time_change_is_rejected(spec, message):
    assert _outcome(_function, spec, "time-change") == (InvalidInputError, message)
