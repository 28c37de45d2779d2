"""Kernel values against 50-digit references (``tests/precise.py``).

Each family is drawn at random pairs over a range and at close pairs
``(s, s + h)``, ``h`` in [1e-9, 1e-3], away from the origin, and checked
against the bound its kernel's docstring states, with ``eps = 2**-52``:
``cov`` within ``4 eps`` times the size of the terms its formula rounds,
and ``1 - correlation`` within ``4 eps`` of the exact value plus that size
relative to the variances.  Near the diagonal these bounds are absolute, so
the relative error of ``1 - correlation`` grows like ``eps / (1 - rho)``:
fbm(0.95) at ``(100, 100 + 1e-6)`` is off by 0.59 of it, and the rate
``1 + t`` at ``(1e6, 1e6 + 1e-9)`` by 9.7e-3, where its two antiderivative
values of ``5e11`` cancel.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import precise
from gaussmarkov import kernels
from gaussmarkov.serialize import rate_from_spec

EPS = float(np.finfo(float).eps)

EXAMPLES = settings(max_examples=120, deadline=None)


def _pairs(lo: float, hi: float, far_lo: float, far_hi: float):
    """A sorted pair in ``[lo, hi]``, or ``(s, s + h)`` with ``s`` in ``[far_lo, far_hi]``."""
    spread = st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(sorted)
    close = st.tuples(st.floats(far_lo, far_hi), st.floats(1e-9, 1e-3)).map(
        lambda p: (p[0], p[0] + p[1]))
    return st.one_of(spread, close)


def _check(family: str, kernel, param: float, s: float, t: float,
           cov_scale: float, rho_scale: float) -> None:
    """``cov`` within ``4 eps cov_scale``, ``1 - correlation`` within ``4 eps (1 + rho_scale)``."""
    assert abs(kernel.cov(s, t) - precise.cov(family, param, s, t)) <= 4 * EPS * cov_scale
    one_minus = 1.0 - kernels.correlation(kernel, s, t)
    exact = precise.one_minus_rho(family, param, s, t)
    assert abs(one_minus - exact) <= 4 * EPS * (1.0 + rho_scale)


@EXAMPLES
@given(st.floats(0.05, 0.95), _pairs(0.01, 10.0, 1.0, 100.0))
@example(0.95, (100.0, 100.0 + 1e-6))
@example(0.75, (100.0, 100.0 + 1e-6))
def test_fbm(hurst, pair):
    s, t = pair
    two_h = 2.0 * hurst
    size = 0.5 * (s**two_h + t**two_h + (t - s) ** two_h)
    _check("fbm", kernels.fbm(hurst), hurst, s, t, size, size / math.sqrt(s**two_h * t**two_h))


@EXAMPLES
@given(st.floats(0.05, 0.95), _pairs(-3.0, 3.0, -3.0, 3.0))
@example(0.75, (2.0, 2.0 + 1e-6))
def test_fbm_log(hurst, pair):
    s, t = pair
    x = t - s
    size = 1.0
    if x:
        # the exponentials, and e^x - e^-x's cancellation raised to 2H
        size = 0.5 * (math.exp(2 * hurst * x) + math.exp(-2 * hurst * x)
                      + 4 * hurst * math.cosh(x) * (2 * math.sinh(x)) ** (2 * hurst - 1))
    _check("fbm_log", kernels.fbm_log(hurst), hurst, s, t, size, size)


@EXAMPLES
@given(st.floats(1e-3, 10.0), _pairs(-10.0, 10.0, 1.0, 1e6))
def test_constant_rate(c, pair):
    s, t = pair
    k = precise.cov("const_rate", c, s, t)
    size = k * (1.0 + c * (t - s))
    _check("const_rate", kernels.exponential_rate(c), c, s, t, size, size)


LINEAR = kernels.rate_kernel(rate_from_spec({"form": "linear", "slope": 1.0, "intercept": 1.0}),
                             domain=(0.0, math.inf))


@EXAMPLES
@given(_pairs(0.0, 10.0, 0.01, 1e6))
@example((1e4, 1e4 + 1e-6))
@example((1e6, 1e6 + 1e-9))
def test_linear_rate(pair):
    s, t = pair

    def antiderivative(u):  # of 1 + u, from the anchor 1 of the domain [0, inf)
        return u + 0.5 * u * u - 1.5

    k = precise.cov("linear_rate", 0.0, s, t)
    size = k * (1.0 + abs(antiderivative(s)) + abs(antiderivative(t)))
    _check("linear_rate", LINEAR, 0.0, s, t, size, size)
