"""The made-Markov and partition laws commute with a scale and a time change.

For ``K_T(s, t) = u(s) u(t) K(phi(s), phi(t))`` with ``u > 0`` and ``phi``
increasing, ``made_markov_law(K_T, S, Q) = D_u made_markov_law(K, phi(S),
phi(Q)) D_u`` with ``D_u = diag(u(Q))``, and likewise ``partition_law``: the
chains of the two kernels telescope through the same points.  The scale
cancels from the correlation, so the decorrelation rate of ``K_T`` is the
base kernel's rate at ``phi(t)`` times ``phi'(t)``.
"""

import math

import numpy as np
import pytest

from gaussmarkov.kernels import estimate_alpha
from gaussmarkov.serialize import _function, kernel_from_spec
from gaussmarkov.transform import Partition, made_markov_law, partition_law

DOMAIN = [0.8, 1.7]
BASES = {
    "fbm_log": {"type": "fbm_log", "hurst": 0.7},
    "fbm": {"type": "fbm", "hurst": 0.6},
    "exponential": {"type": "exponential", "rate": 1.3},
}
SCALES = {
    "constant": {"form": "constant", "value": 1.7},
    "power": {"form": "power", "coeff": 0.8, "exponent": 1.5},
    "exp": {"form": "exp", "coeff": 1.2, "rate": -0.4},
}
TIME_CHANGES = {
    "affine": {"form": "affine", "slope": 1.5, "intercept": 0.2},
    "log": {"form": "log", "coeff": 0.9, "intercept": 1.0},
    "exp": {"form": "exp", "coeff": 0.5, "rate": 0.7},
}
QUERIES = np.linspace(0.8, 1.7, 9)
SPLITS = np.linspace(0.805, 1.695, 40)
PARTITION = np.linspace(0.8, 1.7, 30)
#: Worst gap measured over these cases: 2.6e-15 of the entry.
REL_TOL = 1e-13


def _close(got, expected):
    assert np.all(np.abs(got - expected) <= REL_TOL * np.abs(expected)), (got, expected)


@pytest.mark.parametrize("phi_form", sorted(TIME_CHANGES))
@pytest.mark.parametrize("u_form", sorted(SCALES))
@pytest.mark.parametrize("base", sorted(BASES))
def test_laws_of_a_transformed_kernel_are_the_scaled_laws_of_its_base(base, u_form, phi_form):
    spec = {"type": "transformed", "base": BASES[base], "scale": SCALES[u_form],
            "time_change": TIME_CHANGES[phi_form], "domain": DOMAIN}
    transformed, kern = kernel_from_spec(spec), kernel_from_spec(BASES[base])
    u, phi = _function(SCALES[u_form], "scale"), _function(TIME_CHANGES[phi_form], "time-change")

    def scaled(cov, times):
        d_u = np.array([u(float(t)) for t in times])
        return d_u[:, None] * cov * d_u[None, :]

    def image(times):
        return np.array([phi(float(t)) for t in times])

    _close(made_markov_law(transformed, SPLITS, QUERIES).cov,
           scaled(made_markov_law(kern, image(SPLITS), image(QUERIES)).cov, QUERIES))
    ends = PARTITION[[0, -1]]
    _close(partition_law(transformed, Partition(PARTITION)).joint.cov,
           scaled(partition_law(kern, Partition(image(PARTITION))).joint.cov, ends))


#: Each rate base with its own rate ``alpha_K(x)``: fbm(1/2) is Brownian motion, min(s, t).
RATE_BASES = {
    "exponential": ({"type": "exponential", "rate": 1.3}, lambda x: 1.3),
    "fbm(0.5)": ({"type": "fbm", "hurst": 0.5}, lambda x: 0.5 / x),
}
#: ``phi'`` of each time change in ``TIME_CHANGES``.
PHI_PRIME = {
    "affine": lambda t: 1.5,
    "log": lambda t: 0.9 / t,
    "exp": lambda t: 0.5 * 0.7 * math.exp(0.7 * t),
}
RATE_DOMAIN = [0.5, 3.0]
RATE_TIMES = [0.7, 1.3, 2.5]
H_SEQUENCE = [10.0**-k for k in range(3, 8)]
#: Worst relative gap measured over these cases: 2.1e-7, the O(h) bias at h = 1e-7.
RATE_REL_TOL = 1e-6


@pytest.mark.parametrize("phi_form", sorted(TIME_CHANGES))
@pytest.mark.parametrize("u_form", sorted(SCALES))
@pytest.mark.parametrize("base", sorted(RATE_BASES))
def test_rate_of_a_transformed_kernel_is_the_time_changed_rate(base, u_form, phi_form):
    base_spec, alpha = RATE_BASES[base]
    transformed = kernel_from_spec({
        "type": "transformed", "base": base_spec, "scale": SCALES[u_form],
        "time_change": TIME_CHANGES[phi_form], "domain": RATE_DOMAIN,
    })
    phi = _function(TIME_CHANGES[phi_form], "time-change")
    for t in RATE_TIMES:
        est = estimate_alpha(transformed, t, H_SEQUENCE)
        expected = alpha(phi(t)) * PHI_PRIME[phi_form](t)
        assert est.converged and not est.is_infinite
        assert abs(est.value - expected) <= RATE_REL_TOL * expected, (t, est.value, expected)
