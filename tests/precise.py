"""Kernel covariances and correlations in 50-digit arithmetic.

Each function takes float arguments, reads them exactly into mpmath at 50
significant digits, and returns the exact kernel value at those floats,
rounded once.  ``one_minus_rho`` is ``1 - K(s, t) / sqrt(K(s, s) K(t, t))``,
the quantity that a decorrelation rate divides by ``t - s``; near the
diagonal it is what a float correlation loses first.

The families covered: ``fbm``, ``fbm_log``, the constant-rate kernel
``exp(-c |t - s|)`` and the rate kernel of ``alpha(t) = 1 + t``,
``exp(-|(t - s)(1 + (t + s) / 2)|)``.  The Hurst parameter enters as the
float ``2 H`` the library uses, which is exact.
"""

import mpmath

_mp = mpmath.MPContext()
_mp.dps = 50


def _fbm(two_h, s, t):
    return (abs(t) ** two_h + abs(s) ** two_h - abs(t - s) ** two_h) / 2


def _fbm_log(two_h, s, t):
    x = t - s
    return (_mp.exp(two_h * x) + _mp.exp(-two_h * x) - abs(2 * _mp.sinh(x)) ** two_h) / 2


def _rate(exponent):
    return _mp.exp(-abs(exponent))


def _linear(s, t):
    """``integral of 1 + u from s to t``, without cancellation."""
    return (t - s) * (1 + (t + s) / 2)


_COV = {
    "fbm": lambda p, s, t: _fbm(2 * p, s, t),
    "fbm_log": lambda p, s, t: _fbm_log(2 * p, s, t),
    "const_rate": lambda p, s, t: _rate(p * (t - s)),
    "linear_rate": lambda p, s, t: _rate(_linear(s, t)),
}


def cov(family: str, param: float, s: float, t: float) -> float:
    """``K(s, t)`` of ``family`` at its parameter: H, H, c, or ignored for ``linear_rate``."""
    f = _COV[family]
    return float(f(_mp.mpf(param), _mp.mpf(s), _mp.mpf(t)))


def one_minus_rho(family: str, param: float, s: float, t: float) -> float:
    """``1 - K(s, t) / sqrt(K(s, s) K(t, t))`` of ``family`` at its parameter."""
    f = _COV[family]
    p, s, t = _mp.mpf(param), _mp.mpf(s), _mp.mpf(t)
    return float(1 - f(p, s, t) / _mp.sqrt(f(p, s, s) * f(p, t, t)))
