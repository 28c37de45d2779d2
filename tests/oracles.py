"""Scalar running-product oracles of ``gaussmarkov.spectral._windowed_sum``.

They round each phase ``b^k / x`` otherwise than the library (running product
and division against power and reciprocal): a term of weight ``x * a^k`` can
differ by up to ``min(2, (k + 2) 2^-52 b^k / x)`` of it, all once ``b^k / x``
nears 2^52.
"""

import math

from gaussmarkov.errors import InvalidInputError
from gaussmarkov.spectral import WeierstrassConfig, _effective_cap


def lacunary_sum(config: WeierstrassConfig, x: float, k_from: int, k_to: int) -> float:
    """``x * sum_{k=k_from}^{k_to} a^k (1 - cos(b^k / x))``.

    Terms beyond :func:`_effective_cap` are dropped; the omission is below
    1e-12 for any x within the search budget.
    """
    if x <= 0.0:
        raise InvalidInputError(f"x must be positive, got {x}")
    k_to = min(k_to, _effective_cap(config, x))
    if k_to < k_from:
        return 0.0
    total = 0.0
    a, b = config.a, config.b
    ak = a**k_from
    bk = b**k_from
    for _ in range(k_from, k_to + 1):
        total += ak * (1.0 - math.cos(bk / x))
        ak *= a
        bk *= b
    return x * total


def f_witness(config: WeierstrassConfig, n: int, x: float) -> float:
    """Growth functional ``x * sum_{k=n}^{floor(x)} a^k (1 - cos(b^k / x))``."""
    return lacunary_sum(config, x, n, int(math.floor(x)))
