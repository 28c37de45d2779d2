"""One stationary process, three Markov limits.

The depth-1 lacunary measure, the one ``counterexample --i-max 1`` writes,
gives a stationary kernel whose decay rate ``(1 - mu_hat(t)) / t`` crosses
each of 0.25, 1 and 4 at a small lag t_c.  Made Markov along the uniform
partition of mesh t_c, the process has the correlation ``mu_hat(t_c)^N``
over N steps, which is ``exp(-rate * span)`` up to a discretization term of
order ``rate^2 t_c span``.  So one process, made Markov along three mesh
sequences, tends to three Markov laws ``exp(-c |t - s|)``: one weak Markov
transform per cluster point of its decay rate.

The lags come from the half-angle oracle of ``tests/oracles.py``, checked
here against mpmath, because the library's ``1 - cos`` loses its digits at
small lags.
"""

import math

import mpmath
import numpy as np
import pytest

import oracles
from gaussmarkov import spectral
from gaussmarkov.transform import Partition, partition_law

TARGETS = (0.25, 1.0, 4.0)


@pytest.fixture(scope="module")
def depth_one():
    config = spectral.WeierstrassConfig(i_max=1)
    return spectral.measure_from_windows(config, spectral.weierstrass_indices(config).windows)


def exact_rate(mu, t: float) -> float:
    """The decay rate at the double ``t`` in 50-digit arithmetic."""
    masses, locs = mu.effective()
    with mpmath.workdps(50):
        lag = mpmath.mpf(t)
        total = sum(mpmath.mpf(float(m)) * 2 * mpmath.sin(lag * mpmath.mpf(float(y)) / 2) ** 2
                    for m, y in zip(masses, locs))
        return float(total / lag)


def smallest_crossing(mu, target: float) -> float:
    """The smallest lag on ``cluster_witnesses``' search grid where the half-angle
    rate reaches ``target``, bisected to the last double."""
    grid = np.geomspace(1e-9, 20.0, 4000)
    rates = oracles.half_angle_decay_rates(mu, grid)
    i = int(np.argmax(rates >= target))
    # rising from near 0 up to the crossing, so no earlier one hides between grid points
    assert i > 0 and np.all(np.diff(rates[: i + 1]) > 0.0)
    lo, hi = grid[i - 1], grid[i]
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if oracles.half_angle_decay_rates(mu, [mid])[0] < target:
            lo = mid
        else:
            hi = mid
    return float(hi)


# 1e-13 .. 1e-7 are the lags where 1 - cos cancels; 1.43 is a witness that
# cluster_witnesses reports for target 0.25.
LAGS = [1e-13, 1e-11, 1e-9, 1e-7, 1.1568893200046912e-06, 1e-4, 1e-3, 0.1, 1.0,
        1.4280842833985905, 20.0]


@pytest.mark.parametrize("t", LAGS)
def test_half_angle_rate_is_the_exact_rate(depth_one, t):
    exact = exact_rate(depth_one, t)
    assert abs(oracles.half_angle_decay_rates(depth_one, [t])[0] - exact) <= 1e-13 * exact


# Below 1e-6 the library's 1 - cos loses the rate (7.7e-2 relative at 1e-11).
@pytest.mark.parametrize("t", [t for t in LAGS if t >= 1e-6])
def test_library_rate_is_exact_at_the_witness_lags(depth_one, t):
    exact = exact_rate(depth_one, t)
    assert abs(spectral.fourier_decay_rate(depth_one, t) - exact) <= 1e-9 * exact


def test_one_process_has_three_markov_limits(depth_one):
    kernel = spectral.kernel_from_spectral(depth_one)
    limits, bounds = [], []
    for target in TARGETS:
        t_c = smallest_crossing(depth_one, target)
        n = round(1.0 / t_c)
        span = n * t_c
        plan = partition_law(kernel, Partition.uniform(0.0, span, n))
        corr = plan.cross[0, 0] / math.sqrt(plan.cov_left[0, 0] * plan.cov_right[0, 0])
        rate = oracles.half_angle_decay_rates(depth_one, [t_c])[0]
        bound = target**2 * t_c * span
        assert abs(corr - math.exp(-rate * span)) <= bound, (target, t_c, corr)
        limits.append(corr)
        bounds.append(bound)
    for i in range(len(TARGETS)):
        for j in range(i):
            assert abs(limits[i] - limits[j]) > bounds[i] + bounds[j]
