import dataclasses
import functools
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmarkov import kernels, spectral
from gaussmarkov.errors import (
    InvalidInputError,
    SingularMarginalError,
    UnsupportedDiagnosticError,
)
from gaussmarkov.kernels import (
    Kernel,
    RateFunction,
    correlation,
    decay_rate,
    estimate_alpha,
    psd_check,
    transform_kernel,
    uniform_convergence_diagnostic,
)
from gaussmarkov.transform import mimic_kernel

import oracles


def fbm_cov(h, s, t):
    return 0.5 * (abs(t) ** (2 * h) + abs(s) ** (2 * h) - abs(t - s) ** (2 * h))


class TestPsdCheck:
    def test_exponential_kernel_passes(self):
        report = psd_check(kernels.exponential_rate(1.0), [0.0, 1.0, 2.0])
        assert report.passed
        assert report.min_eigenvalue > 0.0

    def test_constant_kernel_rank_one(self):
        report = psd_check(kernels.constant(), [0.0, 1.0, 2.0])
        assert report.passed
        assert abs(report.min_eigenvalue) < 1e-12

    def test_negative_off_diagonal_fails(self):
        # eigenvalues of [[1,-1,-1],[-1,1,-1],[-1,-1,1]] are {2, 2, -1}
        bad = Kernel.from_scalar(lambda s, t: 1.0 if s == t else -1.0, name="bad")
        report = psd_check(bad, [0.0, 1.0, 2.0])
        assert not report.passed
        assert report.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            psd_check(kernels.constant(), [0.0, 0.0, 1.0])

    def test_builtins_on_random_grids(self):
        rng = np.random.default_rng(7)
        cases = [
            kernels.fbm(0.3),
            kernels.fbm(0.75),
            kernels.fbm_log(0.6),
            kernels.exponential_rate(1.0),
            kernels.constant(),
            kernels.white_noise(),
        ]
        for kern in cases:
            lo = 0.1 if kern.domain[0] == 0.0 else -3.0
            for _ in range(50):
                size = int(rng.integers(2, 9))
                pts = np.sort(rng.uniform(lo, lo + 5.0, size=size))
                if np.any(np.diff(pts) <= 0):
                    continue
                assert psd_check(kern, pts).passed, kern.name


class TestCorrelation:
    def test_exponential_unit_lag(self):
        val = correlation(kernels.exponential_rate(1.0), 0.0, 1.0)
        assert val == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_diagonal_is_one(self):
        for kern in (kernels.fbm(0.4), kernels.constant(), kernels.fbm_log(0.8)):
            t = 1.3
            assert correlation(kern, t, t) == pytest.approx(1.0, abs=1e-14)

    def test_fbm_075_against_direct_arithmetic(self):
        expected = fbm_cov(0.75, 1, 2) / math.sqrt(fbm_cov(0.75, 1, 1) * fbm_cov(0.75, 2, 2))
        val = correlation(kernels.fbm(0.75), 1.0, 2.0)
        assert val == pytest.approx(expected, rel=1e-14)
        assert val == pytest.approx(2.0 ** -0.25, rel=1e-14)

    def test_singular_variance_raises(self):
        with pytest.raises(SingularMarginalError):
            correlation(kernels.fbm(0.5), 0.0, 1.0)  # variance 0 at t=0 boundary

    def test_bounds_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for kern in (kernels.fbm(0.25), kernels.fbm_log(0.75), kernels.exponential_rate(2.0)):
            lo = 0.1 if kern.domain[0] == 0.0 else -5.0
            for _ in range(1000):
                s, t = rng.uniform(lo, lo + 8.0, size=2)
                assert abs(correlation(kern, s, t)) <= 1.0 + 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(23)
        noise = kernels.noise_integral(
            lambda t, u: math.sqrt(t) * math.exp(-t * u / 2.0), (0.0, math.inf)
        )
        for kern in (
            kernels.fbm(0.3),
            kernels.fbm_log(0.9),
            kernels.exponential_rate(0.7),
            kernels.constant(),
            kernels.white_noise(),
            noise,
        ):
            lo = 0.1 if kern.domain[0] == 0.0 or kern is noise else -4.0
            for _ in range(100 if kern is noise else 1000):  # a noise pair takes about 1 ms
                s, t = rng.uniform(lo, lo + 6.0, size=2)
                assert kern.eval(s, t) == kern.eval(t, s)


class TestDecayRate:
    def test_exponential_rate_two(self):
        val = decay_rate(kernels.exponential_rate(2.0), 0.0, 1e-3)
        assert val == pytest.approx(2.0, rel=2e-3)

    def test_constant_kernel_zero(self):
        assert decay_rate(kernels.constant(), 0.3, 0.25) == 0.0

    def test_fbm_log_075_small_lag(self):
        h = 1e-4
        val = decay_rate(kernels.fbm_log(0.75), 0.0, h)
        assert val == pytest.approx(math.sqrt(2 * h), rel=0.05)
        assert val < 0.02


class TestEstimateAlpha:
    def test_exponential_converges(self):
        est = estimate_alpha(
            kernels.exponential_rate(2.0), 0.0, [10.0**-k for k in range(2, 7)]
        )
        assert est.converged and not est.is_infinite
        assert est.value == pytest.approx(2.0, abs=1e-3)

    def test_fbm_log_rough_is_infinite(self):
        # decay rate grows like (2h)^(2H-1) = (2h)^(-1/2) for H = 1/4
        est = estimate_alpha(
            kernels.fbm_log(0.25),
            0.0,
            [10.0**-k for k in range(5, 14)],
            h_min=1e-14,
        )
        assert est.is_infinite

    def test_oscillating_rate_does_not_converge(self):
        from gaussmarkov import spectral

        cfg = spectral.WeierstrassConfig(i_max=2)
        mu = spectral.counterexample_measure(cfg)
        kern = spectral.kernel_from_spectral(mu)
        # lags along the witness subsequences swing the rate between
        # large and small values, so the trailing values disagree
        hs = [1.0 / x for x in (2, 8, 13, 8700, 253743)]
        est = estimate_alpha(kern, 0.0, hs, h_min=1e-14)
        assert not est.converged

    def test_estimate_feeds_back_as_rate(self):
        est = estimate_alpha(
            kernels.exponential_rate(1.0), 0.0, [10.0**-k for k in range(2, 7)]
        )
        rate = est.as_rate()
        assert rate(5.0) == pytest.approx(1.0, abs=1e-3)
        inf_rate = estimate_alpha(
            kernels.fbm_log(0.25), 0.0, [10.0**-k for k in range(5, 14)], h_min=1e-14
        ).as_rate()
        assert inf_rate.is_infinite

    def test_requires_decreasing_sequence(self):
        with pytest.raises(InvalidInputError):
            estimate_alpha(kernels.constant(), 0.0, [1e-2, 1e-2, 1e-3])

    def test_respects_h_floor(self):
        with pytest.raises(InvalidInputError):
            estimate_alpha(kernels.constant(), 0.0, [1e-2, 1e-4, 1e-12])


def _sqrt_exp():
    return kernels.noise_integral(lambda t, u: math.sqrt(t) * math.exp(-t * u / 2.0),
                                  (0.0, math.inf))


#: A kernel of each family in ``oracles.DECAY_RATE_LIMITS``.
LIMIT_KERNELS = {
    "fbm(0.3)": lambda: kernels.fbm(0.3),
    "fbm(0.5)": lambda: kernels.fbm(0.5),
    "fbm(0.7)": lambda: kernels.fbm(0.7),
    "fbm_log(0.3)": lambda: kernels.fbm_log(0.3),
    "fbm_log(0.5)": lambda: kernels.fbm_log(0.5),
    "fbm_log(0.7)": lambda: kernels.fbm_log(0.7),
    "sqrt_exp": _sqrt_exp,
    "constant": kernels.constant,
    "spectral": lambda: spectral.kernel_from_spectral(
        spectral.SpectralMeasure(atoms=((0.2, 0.0), (0.25, 1.5), (0.15, 4.0)))),
    "white_noise": kernels.white_noise,
}


# Along h = 1e-3 ... 1e-7, at t = 1.3: fbm(0.5) converges to 0.38462 (1/2.6) and
# fbm_log(0.5) to 0.99999995, each off by its O(h) term, 3h/(4t) and h/2 relative
# (at most 1.1e-7 here), plus rounding, eps/h = 2.2e-9; the gate is 2h + 1e-8.
# The rest do not settle on a finite nonzero value: fbm(0.3) reaches 269.5 and
# fbm_log(0.3) 478, rising; fbm(0.7) 5.5e-4 and fbm_log(0.7) 2.1e-3, falling;
# sqrt_exp's samples are about h/(8t^2), the spectral kernel's about 2.96 h, and
# the constant kernel's are 0; white noise's are 1/h, declared infinite.
@pytest.mark.parametrize("name", sorted(oracles.DECAY_RATE_LIMITS))
def test_decay_rate_tends_to_the_family_limit(name):
    assert set(LIMIT_KERNELS) == set(oracles.DECAY_RATE_LIMITS)
    kern = LIMIT_KERNELS[name]()
    h_last = RATE_H_SEQUENCE[-1]
    for t in (0.7, 1.3, 2.5):
        limit = oracles.DECAY_RATE_LIMITS[name](t)
        est = estimate_alpha(kern, t, RATE_H_SEQUENCE)
        steps = np.diff(est.samples)
        if limit == math.inf:
            assert (steps > 0.0).all() and (est.is_infinite or not est.converged)
        elif limit == 0.0 and any(est.samples):
            assert (steps < 0.0).all() and min(est.samples) > 0.0 and not est.is_infinite
        else:
            assert est.converged and not est.is_infinite
            assert abs(est.value - limit) <= (2.0 * h_last + 1e-8) * limit


class TestUniformConvergenceDiagnostic:
    def test_exponential_is_tight(self):
        kern = kernels.exponential_rate(1.0)
        dev = uniform_convergence_diagnostic(
            kern, RateFunction.constant(1.0), 0.0, 1.0, h_star=1e-3, grid_density=8
        )
        assert dev < 1e-3

    def test_constant_kernel_exact(self):
        dev = uniform_convergence_diagnostic(
            kernels.constant(), RateFunction.constant(0.0), 0.0, 1.0,
            h_star=1e-2, grid_density=5,
        )
        assert dev == 0.0

    def test_mimic_kernel_deviation_shrinks(self):
        from gaussmarkov.transform import mimic_kernel, rate_kernel

        alpha = RateFunction.from_callable(lambda t: t)
        base = rate_kernel(alpha, domain=(0.0, 2.0))
        mimic = mimic_kernel(base, alpha)
        devs = [
            uniform_convergence_diagnostic(mimic, alpha, 0.0, 1.0, h_star=h, grid_density=6)
            for h in (1e-1, 1e-2, 1e-3)
        ]
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 1e-2

    def test_infinite_rate_unsupported(self):
        with pytest.raises(UnsupportedDiagnosticError):
            uniform_convergence_diagnostic(
                kernels.white_noise(), RateFunction.infinite(), 0.0, 1.0, 1e-2, 4
            )

    def test_lags_past_the_interval_are_clipped_to_it(self):
        # h_star = 2 on [0, 1]: both lags clip to h = 1 - 1e-12, the worst
        # deviation of the exponential kernel's decay rate (1 - e^-h) / h
        h = 1.0 - 1e-12
        dev = uniform_convergence_diagnostic(
            kernels.exponential_rate(1.0), RateFunction.constant(1.0), 0.0, 1.0,
            h_star=2.0, grid_density=2,
        )
        assert dev == pytest.approx(1.0 - (1.0 - math.exp(-h)) / h, rel=1e-12)


def _rate_1_plus_t():
    return RateFunction.from_callable(lambda t: 1.0 + t)


#: Kernels whose one-call rates are the scalar loops' bit for bit, each with a time
#: inside its domain: rate kernels, fbm_log and mimicking kernels.
BITWISE_RATE_KERNELS = {
    "exponential(1.3)": (lambda: kernels.exponential_rate(1.3), 0.4),
    "rate 1+t": (lambda: kernels.rate_kernel(_rate_1_plus_t(), (0.0, 4.0)), 1.1),
    "fbm_log(0.3)": (lambda: kernels.fbm_log(0.3), -0.6),
    "fbm_log(0.75)": (lambda: kernels.fbm_log(0.75), 0.9),
    "mimic(fbm(0.6), 0.5)":
        (lambda: mimic_kernel(kernels.fbm(0.6), RateFunction.constant(0.5)), 1.3),
    "mimic(fbm_log(0.75), 1+t)":
        (lambda: mimic_kernel(kernels.fbm_log(0.75), _rate_1_plus_t()), 0.2),
}
RATE_H_SEQUENCE = [10.0**-k for k in range(3, 8)]
EPS = float(np.finfo(float).eps)


def fbm_rate_slack(hurst, v, h):
    """Largest gap of two fbm decay rates at ``(v, h)`` that each keep ``fbm``'s
    stated bound on 1 - correlation, ``4 eps (1 + S / (s t)^H)``, divided by h."""
    s, t, two_h = v, v + h, 2.0 * hurst
    size = 0.5 * (s**two_h + t**two_h + h**two_h)
    return 8.0 * EPS * (1.0 + size / (s * t) ** hurst) / h


class TestOneCallAgainstScalarLoops:
    """``estimate_alpha`` and the uniform diagnostic against the scalar ``eval`` loops
    they replaced (``tests/oracles.py``)."""

    @pytest.mark.parametrize("name", sorted(BITWISE_RATE_KERNELS))
    def test_estimate_alpha_bit_for_bit(self, name):
        make, t = BITWISE_RATE_KERNELS[name]
        kern = make()
        est = estimate_alpha(kern, t, RATE_H_SEQUENCE)
        assert est.samples == tuple(oracles.decay_rate_by_eval(kern, t, h) for h in RATE_H_SEQUENCE)

    @pytest.mark.parametrize("h_star", [0.3, 2.0])  # 2.0 clips the longer lags to the interval
    @pytest.mark.parametrize("name", sorted(BITWISE_RATE_KERNELS))
    def test_uniform_diagnostic_bit_for_bit(self, name, h_star):
        make, t = BITWISE_RATE_KERNELS[name]
        kern, alpha = make(), _rate_1_plus_t()
        args = (kern, alpha, t, t + 1.0, h_star, 7)
        assert uniform_convergence_diagnostic(*args) == oracles.uniform_deviation_by_loops(*args)

    @pytest.mark.parametrize("hurst", [0.3, 0.75])
    def test_fbm_within_its_stated_bound(self, hurst):
        # numpy's array ** rounds otherwise than libm's pow on two floats
        kern, t = kernels.fbm(hurst), 1.7
        est = estimate_alpha(kern, t, RATE_H_SEQUENCE)
        for h, new in zip(RATE_H_SEQUENCE, est.samples):
            assert abs(new - oracles.decay_rate_by_eval(kern, t, h)) <= fbm_rate_slack(hurst, t, h)
        s, t, h_star, density = 0.8, 1.8, 0.05, 7
        hs = h_star * np.arange(1, density + 1) / density
        slack = fbm_rate_slack(hurst, np.linspace(s, t - hs, density), hs).max()
        args = (kern, _rate_1_plus_t(), s, t, h_star, density)
        new, old = uniform_convergence_diagnostic(*args), oracles.uniform_deviation_by_loops(*args)
        assert abs(new - old) <= slack

    def test_two_floats_give_a_float(self):
        kern = kernels.fbm(0.75)
        assert type(correlation(kern, 1.0, 2.0)) is float
        assert type(decay_rate(kern, 1.0, 0.5)) is float
        assert decay_rate(kern, 1.0, np.array([0.5, 0.25])).shape == (2,)

    def test_array_errors_name_the_first_bad_entry(self):
        with pytest.raises(InvalidInputError, match=r"h must be positive, got -0\.5"):
            decay_rate(kernels.fbm(0.5), 1.0, np.array([0.5, -0.5, -1.0]))
        with pytest.raises(SingularMarginalError, match=r"at s=0\.0 or t=0\.5"):
            correlation(kernels.fbm(0.5), np.array([1.0, 0.0]), np.array([2.0, 0.5]))


def test_no_library_path_calls_eval(monkeypatch, tmp_path):
    """Every kernel built while this runs has an ``eval`` that raises, as perfbench's
    tracer replaces it: the library reads kernels only through ``cov``."""
    from gaussmarkov import cli, serialize, simulate, transform

    def refuse(s, t):
        raise AssertionError("the library called Kernel.eval")

    built = Kernel.__post_init__

    def post_init(self):
        built(self)
        object.__setattr__(self, "eval", refuse)

    monkeypatch.setattr(Kernel, "__post_init__", post_init)
    one = RateFunction.constant(1.0)
    rate = RateFunction.from_callable(lambda t: 1.0 + t * t)
    for kern in (kernels.fbm(0.6), kernels.fbm_log(0.75), kernels.rate_kernel(rate)):
        with pytest.raises(AssertionError):
            kern.eval(1.0, 2.0)
        grid = np.linspace(1.0, 2.0, 5)
        transform.partition_law(kern, transform.Partition(grid))
        transform.made_markov_law(kern, [1.5], grid)
        if kern.domain[0] < -2.0:  # the sweep's sets R_n = step Z ∩ [-n, n]
            adm = transform.AdmissibleSequence.from_steps([0.5, 0.25])
            transform.global_convergence_experiment(kern, kernels.exponential_rate(1.0),
                                                    adm, grid, 2)
        transform.joint_law(kern, grid)
        psd_check(kern, grid)
        mimic = mimic_kernel(kern, one)
        mimic.cov(grid[:, None], grid[None, :])
        correlation(kern, 1.0, 2.0)
        decay_rate(kern, 1.0, 1e-3)
        estimate_alpha(mimic, 1.0, RATE_H_SEQUENCE)
        uniform_convergence_diagnostic(kern, one, 1.0, 2.0, 0.1, 3)
        transform.tightness_bound_check(kern, 1.0, 2.0, [transform.Partition(grid)])
        for route in ("exact", "cholesky"):
            simulate.figure_comparison(kern, one, grid[:3], n_paths=20, seed=1, step=0.05,
                                       gaussian_route=route)
    monkeypatch.setattr(serialize, "kernel_from_spec", lambda spec: kernels.fbm(0.75))
    argv = ["transform", "--kernel", "fbm", "--alpha", "1", "--grid", "1:2:9"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0


class TestTransformKernel:
    def test_scale_is_taken_at_every_point_before_the_time_change(self):
        # the time change fails at 1.0, the scale at 3.0: the scale's error is named
        kern = transform_kernel(kernels.fbm(0.5), lambda t: math.sqrt(2.5 - t),
                                lambda t: math.log(t - 1.0), domain=(0.5, 5.0))
        for run in (lambda: kernels.gram(kern, [1.0, 3.0]), lambda: kern.eval(1.0, 3.0)):
            with pytest.raises(InvalidInputError, match=r"scale is undefined at t = 3\.0"):
                run()

    def test_identity_transform(self):
        kern = kernels.fbm_log(0.6)
        same = transform_kernel(kern, lambda t: 1.0, lambda t: t)
        for s, t in [(0.0, 1.0), (-2.0, 3.5), (0.7, 0.7)]:
            assert same.eval(s, t) == kern.eval(s, t)

    def test_fbm_from_stationary_profile(self):
        # t^H-rescaled, log-time-changed stationary profile is exactly fBm
        for hurst in (0.25, 0.5, 0.75):
            base = kernels.fbm_log(hurst)
            built = transform_kernel(
                base,
                scale=lambda t, H=hurst: t**H,
                time_change=lambda s: 0.5 * math.log(s),
                domain=(0.0, math.inf),
            )
            ref = kernels.fbm(hurst)
            for s in np.linspace(0.1, 10.0, 20):
                for t in np.linspace(0.1, 10.0, 20):
                    assert built.eval(s, t) == pytest.approx(ref.eval(s, t), abs=1e-12)

    def test_ou_variance_rescaling(self):
        alpha = 1.7
        scaled = transform_kernel(
            kernels.exponential_rate(alpha),
            scale=lambda t: (2 * alpha) ** -0.5,
            time_change=lambda t: t,
        )
        for s, t in [(0.0, 0.3), (1.0, 2.5)]:
            assert scaled.eval(s, t) == pytest.approx(
                math.exp(-alpha * abs(t - s)) / (2 * alpha), rel=1e-14
            )

    def test_domain_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            transform_kernel(
                kernels.fbm(0.5), lambda t: 1.0, lambda t: t - 5.0, domain=(1.0, 2.0)
            )


# A NaN time has no place in the sorted distinct points the array covariances
# evaluate at; each must say so instead of failing on a lookup or returning NaN.
NAN_COVARIANCES = {
    "rate_kernel": lambda: kernels.rate_kernel(RateFunction.from_callable(lambda t: 1.0 + t)),
    "mimic_kernel": lambda: mimic_kernel(kernels.fbm(0.75), RateFunction.constant(0.5)),
    "transform_kernel": lambda: transform_kernel(
        kernels.exponential_rate(1.0), lambda t: 2.0, lambda t: t
    ),
}


@pytest.mark.parametrize("name", sorted(NAN_COVARIANCES))
@pytest.mark.parametrize("times", [[0.5, math.nan, math.nan], [math.nan]])
def test_nan_time_is_rejected_by_name(name, times):
    kern = NAN_COVARIANCES[name]()
    with pytest.raises(InvalidInputError, match="time nan is not a number"):
        kern.cov(np.array(times), np.full(len(times), 0.75))


@pytest.mark.parametrize("name", sorted(NAN_COVARIANCES))
def test_nan_time_is_rejected_by_name_at_two_floats(name):
    kern = NAN_COVARIANCES[name]()
    for s, t in [(math.nan, 0.75), (0.75, math.nan), (math.nan, math.nan)]:
        with pytest.raises(InvalidInputError, match="time nan is not a number"):
            kern.eval(s, t)


class TestNoiseIntegral:
    def test_closed_form(self):
        kern = kernels.noise_integral(
            lambda t, u: math.sqrt(t) * math.exp(-t * u / 2.0), (0.0, math.inf)
        )
        for s in (0.5, 1.0, 2.0, 3.7):
            for t in (0.5, 1.3, 4.0):
                assert kern.eval(s, t) == pytest.approx(
                    2.0 * math.sqrt(s * t) / (s + t), abs=1e-8
                )

    def test_unit_variance(self):
        kern = kernels.noise_integral(
            lambda t, u: math.sqrt(t) * math.exp(-t * u / 2.0), (0.0, math.inf)
        )
        assert kern.eval(2.0, 2.0) == pytest.approx(1.0, abs=1e-8)

    def test_psd_on_random_grids(self):
        kern = kernels.noise_integral(
            lambda t, u: math.sqrt(t) * math.exp(-t * u / 2.0), (0.0, math.inf)
        )
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = np.sort(rng.uniform(0.2, 5.0, size=5))
            if np.any(np.diff(pts) <= 0):
                continue
            assert psd_check(kern, pts).passed

    @pytest.mark.parametrize("k", [
        # 1/|u - 0.3|: not integrable across 0.3
        lambda t, u: math.inf if u == 0.3 else abs(u - 0.3) ** -0.5,
        # |u - 0.5|^(-1/2): raises ZeroDivisionError at the midpoint node
        lambda t, u: abs(u - 0.5) ** -0.25,
    ], ids=["not_integrable", "raises_at_node"])
    def test_failure_names_the_interval(self, k):
        kern = kernels.noise_integral(k, (0.0, 1.0))
        start = time.perf_counter()
        with pytest.raises(InvalidInputError, match=r"\[0\.0, 1\.0\]") as raised:
            kern.eval(1.0, 2.0)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(InvalidInputError) as expected:
            oracles.noise_integral_by_entry(k, (0.0, 1.0))(1.0, 2.0)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("k,interval", [
        (lambda t, u: math.sqrt(t) * math.exp(-t * u / 2.0), (0.0, math.inf)),
        (lambda t, u: math.exp(-abs(t - u)), (-math.inf, math.inf)),
        (lambda t, u: math.cos(t * u) / (1.0 + u * u), (-math.inf, 0.5)),
        (lambda t, u: min(t, u), (0.0, 1.0)),
    ], ids=["sqrt_exp", "two_sided", "lower_tail", "brownian"])
    def test_gram_is_the_per_entry_oracle_bit_for_bit(self, k, interval):
        rng = np.random.default_rng(53)
        for size in (1, 2, 7):
            pts = np.sort(rng.uniform(0.2, 3.0, size))
            reference = oracles.noise_integral_by_entry(k, interval)
            expected = [[reference(s, t) for t in pts.tolist()] for s in pts.tolist()]
            assert kernels.gram(kernels.noise_integral(k, interval), pts).tolist() == expected

    def test_integrand_is_called_once_per_node_and_distinct_pair(self):
        calls = []

        def k(t, u):
            calls.append(1)
            return math.sqrt(t) * math.exp(-t * u / 2.0)

        pts = np.linspace(0.5, 3.0, 6)
        kernels.gram(kernels.noise_integral(k, (0.0, math.inf)), pts)
        batched, calls[:] = len(calls), []
        reference = oracles.noise_integral_by_entry(k, (0.0, math.inf))
        for s in pts.tolist():
            for t in pts.tolist():
                reference(s, t)
        assert batched == len(calls)

    def test_pairs_are_integrated_in_chunks(self, monkeypatch):
        sizes = []
        integrate = kernels._integrate

        def counted(func, lo, hi, integrand=None):
            sizes.append(lo.size)
            return integrate(func, lo, hi, integrand)

        monkeypatch.setattr(kernels, "_integrate", counted)
        kern = kernels.noise_integral(lambda t, u: 1.0, (0.0, 1.0))
        pts = np.linspace(0.5, 3.0, 30)  # 465 distinct pairs
        assert (kernels.gram(kern, pts) == kern.eval(1.0, 1.0)).all()
        assert sizes == [1, 2, 4, 8, 16, 32, 64, 128, 465 - 255, 1]
        sizes[:] = []
        kernels.gram(kern, np.linspace(0.5, 3.0, 45))  # 1035 distinct pairs
        assert sizes == [1, 2, 4, 8, 16, 32, 64, 128, 256, 256, 256, 1035 - 1023]
        assert max(sizes) == kernels.NOISE_PAIR_CHUNK

    def test_an_integrand_failing_everywhere_fails_after_one_pair(self):
        kern = kernels.noise_integral(lambda t, u: math.cos(1e7 * t * u), (0.0, 1.0))
        start = time.perf_counter()
        with pytest.raises(InvalidInputError, match=r"not integrable .* over \[0\.0, 1\.0\]"):
            kernels.gram(kern, np.linspace(0.5, 3.0, 23))  # 276 distinct pairs
        # one pair takes about 0.05 s to fail; the pairs of a run bisect in lockstep
        assert time.perf_counter() - start < 1.0


def test_numpy_is_the_only_runtime_dependency():
    code = (
        "import math, sys\n"
        "import numpy as np\n"
        "from gaussmarkov import gaussian, kernels\n"
        "gaussian.solve_spd(np.array([[2.0, 0.5], [0.5, 1.0]]), np.ones(2))\n"
        "kernels.noise_integral(lambda t, u: math.sqrt(t) * math.exp(-t * u / 2.0),\n"
        "                       (0.0, math.inf)).eval(1.0, 2.0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(kernels.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_distinct_times_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call (12-20 ms), which would
    # land inside whichever timed call comes first.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from gaussmarkov import kernels, transform\n"
        "rate = kernels.RateFunction(func=lambda t: 1.0 + t)\n"
        "kernels.gram(kernels.rate_kernel(rate, (0.0, 10.0)), np.linspace(0.5, 3.0, 6))\n"
        "transform.made_markov_law(kernels.fbm(0.75), [1.5, 1.5, 1.25], [1.0, 2.0])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(kernels.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 1e300, -math.inf, math.inf]),
                max_size=12))
def test_sorted_unique_matches_np_unique(values):
    got = kernels._sorted_unique(values)
    want = np.unique(np.asarray(values, dtype=float))
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


class TestConcurrentEvaluation:
    def test_memoizing_kernels_match_sequential_results(self):
        from concurrent.futures import ThreadPoolExecutor

        from gaussmarkov.transform import rate_kernel

        kern = rate_kernel(RateFunction.from_callable(lambda t: 0.5 + t * t),
                           domain=(0.0, 4.0))
        rng = np.random.default_rng(37)
        pairs = [tuple(np.sort(rng.uniform(0.1, 3.9, 2))) for _ in range(200)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda p: kern.eval(*p), pairs))
        fresh = rate_kernel(RateFunction.from_callable(lambda t: 0.5 + t * t),
                            domain=(0.0, 4.0))
        sequential = [fresh.eval(*p) for p in pairs]
        assert threaded == sequential


class TestRateFunction:
    def test_negative_constant_rejected(self):
        with pytest.raises(InvalidInputError):
            RateFunction.constant(-1.0)

    def test_infinite_marker_not_callable(self):
        with pytest.raises(UnsupportedDiagnosticError):
            RateFunction.infinite()(0.0)

    def test_exponential_rate_accepts_plain_number(self):
        kern = kernels.exponential_rate(2.0)
        assert kern.eval(0.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)


def _matrix_table():
    grid = np.linspace(0.0, 3.0, 13)
    return grid, kernels.gram(kernels.exponential_rate(0.7), grid)


#: (family, lowest time, highest time): the built-in families, plus a kernel
#: made by ``Kernel.from_scalar``, whose cov calls its scalar function per entry.
GRAM_FAMILIES = {
    "fbm": (lambda: kernels.fbm(0.3), 0.0, 4.0),
    "fbm_log": (lambda: kernels.fbm_log(0.7), -2.0, 2.0),
    "constant": (kernels.constant, -2.0, 2.0),
    "white_noise": (kernels.white_noise, -2.0, 2.0),
    "rate_const": (lambda: kernels.exponential_rate(1.3), -2.0, 2.0),
    "rate_1+t": (lambda: kernels.exponential_rate(
        RateFunction.from_callable(lambda t: 1.0 + t)), 0.0, 3.0),
    "rate_inf": (lambda: kernels.exponential_rate(RateFunction.infinite()), -2.0, 2.0),
    "spectral": (lambda: spectral.kernel_from_spectral(
        spectral.SpectralMeasure(atoms=((0.2, 0.0), (0.25, 1.5), (0.15, 4.0)))), -3.0, 3.0),
    "spectral_60": (lambda: spectral.kernel_from_spectral(spectral.SpectralMeasure(atoms=tuple(
        zip(np.random.default_rng(5).dirichlet(np.ones(60)) / 2.0, np.linspace(0.5, 8.0, 60))
    ))), -3.0, 3.0),
    "transformed": (lambda: transform_kernel(
        kernels.fbm_log(0.75), lambda t: t**0.75, lambda t: 0.5 * math.log(t),
        domain=(0.0, math.inf)), 0.1, 4.0),
    "mimic": (lambda: mimic_kernel(
        kernels.fbm(0.6), RateFunction.from_callable(lambda t: 0.5 / t)), 0.1, 4.0),
    "mimic_inf": (lambda: mimic_kernel(kernels.fbm(0.6), RateFunction.infinite()), 0.1, 4.0),
    "mimic_const": (lambda: mimic_kernel(kernels.fbm(0.6), RateFunction.constant(0.8)), 0.1, 4.0),
    "matrix": (lambda: kernels.matrix_kernel(*_matrix_table()), 0.0, 3.0),
    "noise_integral": (_sqrt_exp, 0.2, 4.0),
    "scalar_only": (lambda: Kernel.from_scalar(
        lambda s, t: math.exp(-(t - s) ** 2) / (1.0 + s * t), domain=(0.0, math.inf)), 0.0, 3.0),
}


def _examples(family: str, count: int) -> int:
    """A family's share of a sweep's ``count`` examples: a fifth for a noise integral,
    whose lone pair takes about 1 ms and whose Gram about 10 ms at 10 times."""
    return max(1, count // 5) if family == "noise_integral" else count


def _run_property(check, family: str, count: int) -> None:
    """Runs ``check(data)`` as a hypothesis property over ``_examples(family, count)`` examples."""
    settings(max_examples=_examples(family, count), deadline=None)(given(data=st.data())(check))()


@pytest.mark.parametrize("family", sorted(GRAM_FAMILIES))
def test_gram_matches_scalar_eval_and_is_symmetric(family):
    make, lo, hi = GRAM_FAMILIES[family]

    def check(data):
        if family == "matrix":
            grid, _ = _matrix_table()
            picks = data.draw(st.sets(st.integers(0, grid.size - 1), min_size=1))
            pts = grid[sorted(picks)]
        else:
            pts = np.array(sorted(data.draw(st.sets(
                st.floats(lo, hi, allow_nan=False), min_size=1, max_size=12))))
        kern = make()
        mat = kernels.gram(kern, pts)
        expected = np.array([[kern.eval(s, t) for t in pts.tolist()] for s in pts.tolist()])
        assert np.array_equal(mat, mat.T)
        scale = np.max(np.abs(np.diag(expected)))
        assert np.max(np.abs(mat - expected)) <= 1e-13 * scale

    _run_property(check, family, 40)


#: (reference, bound) per built-in family: the scalar formula its eval had
#: before eval became cov at a scalar pair (tests/oracles.py), and how far
#: eval may be from it.  0.0 is bit for bit; "ulp" is one unit in the last
#: place, for the rate kernels, whose exp now goes through numpy; a number is
#: a relative bound, for the kernels built on a rate kernel.  The matrix and
#: scalar_only kernels look up or call what they are given.
SCALAR_REFERENCES = {
    "fbm": (lambda: oracles.fbm_eval(0.3), 0.0),
    "fbm_log": (lambda: oracles.fbm_log_eval(0.7), 0.0),
    "constant": (lambda: oracles.constant_eval, 0.0),
    "white_noise": (lambda: oracles.white_noise_eval, 0.0),
    "rate_const": (lambda: oracles.rate_eval(RateFunction.constant(1.3)), "ulp"),
    "rate_1+t": (lambda: oracles.rate_eval(RateFunction.from_callable(lambda t: 1.0 + t)), "ulp"),
    "rate_inf": (lambda: oracles.rate_eval(RateFunction.infinite()), "ulp"),
    "spectral": (lambda: oracles.spectral_eval(
        spectral.SpectralMeasure(atoms=((0.2, 0.0), (0.25, 1.5), (0.15, 4.0)))), 0.0),
    "spectral_60": (lambda: oracles.spectral_eval(spectral.SpectralMeasure(atoms=tuple(
        zip(np.random.default_rng(5).dirichlet(np.ones(60)) / 2.0, np.linspace(0.5, 8.0, 60))
    ))), 0.0),
    "transformed": (lambda: oracles.transformed_eval(
        oracles.fbm_log_eval(0.75), lambda t: t**0.75, lambda t: 0.5 * math.log(t)), 0.0),
    "mimic": (lambda: oracles.mimic_eval(oracles.fbm_eval(0.6), RateFunction.from_callable(
        lambda t: 0.5 / t), domain=(0.0, math.inf)), 4e-16),
    "mimic_inf": (lambda: oracles.mimic_eval(
        oracles.fbm_eval(0.6), RateFunction.infinite(), domain=(0.0, math.inf)), 4e-16),
    "mimic_const": (lambda: oracles.mimic_eval(
        oracles.fbm_eval(0.6), RateFunction.constant(0.8), domain=(0.0, math.inf)), 4e-16),
    "noise_integral": (lambda: oracles.noise_integral_by_entry(
        lambda t, u: math.sqrt(t) * math.exp(-t * u / 2.0), (0.0, math.inf)), 0.0),
}


def test_every_built_in_family_has_a_scalar_reference():
    assert set(SCALAR_REFERENCES) == set(GRAM_FAMILIES) - {"matrix", "scalar_only"}


def _assert_eval_is_cov_and_reference(family, kern, reference, s, t):
    value = kern.eval(s, t)
    assert value.hex() == float(kern.cov(s, t)).hex()
    if reference is None:
        return
    expected = reference(s, t)
    bound = SCALAR_REFERENCES[family][1]
    if bound == 0.0:
        assert value.hex() == expected.hex()
    elif bound == "ulp":
        assert abs(value - expected) <= math.ulp(expected)
    else:
        assert abs(value - expected) <= bound * abs(expected)


def _scalar_case(family):
    kern = GRAM_FAMILIES[family][0]()
    reference = SCALAR_REFERENCES[family][0]() if family in SCALAR_REFERENCES else None
    return kern, reference


@pytest.mark.parametrize("family", sorted(GRAM_FAMILIES))
def test_eval_is_cov_at_a_scalar_pair(family):
    _, lo, hi = GRAM_FAMILIES[family]
    if family == "matrix":
        points = st.sampled_from(_matrix_table()[0].tolist())
    else:
        points = st.floats(lo, hi, allow_nan=False)

    def check(data):
        s = data.draw(points)
        t = data.draw(st.one_of(st.just(s), points))
        _assert_eval_is_cov_and_reference(family, *_scalar_case(family), s, t)

    _run_property(check, family, 60)


# Uniform draws reach the roundings that the simple floats a property test
# favours rarely do: libm's and numpy's pow disagree on about 5 % of them.
@pytest.mark.parametrize("family", sorted(GRAM_FAMILIES))
def test_eval_is_cov_on_uniform_pairs(family):
    _, lo, hi = GRAM_FAMILIES[family]
    rng, count = np.random.default_rng(45), _examples(family, 300)
    if family == "matrix":
        s, t = rng.choice(_matrix_table()[0], size=(2, count)).tolist()
    else:
        s, t = rng.uniform(lo, hi, size=(2, count)).tolist()
    kern, reference = _scalar_case(family)
    diagonal = count // 6  # 50 of 300 pairs, last
    for a, b in zip(s + s[:diagonal], t + s[:diagonal]):
        _assert_eval_is_cov_and_reference(family, kern, reference, a, b)


# The Gram of a family without ``**`` in its formula rounds each entry as
# eval does; fbm's and fbm_log's ``**`` takes libm's pow on two floats and
# numpy's loop on arrays.
@pytest.mark.parametrize("family", sorted(set(GRAM_FAMILIES) - {"fbm", "fbm_log", "transformed"}))
def test_gram_is_eval_bit_for_bit(family):
    make, lo, hi = GRAM_FAMILIES[family]
    rng = np.random.default_rng(44)
    kern = make()
    for _ in range(_examples(family, 10)):
        if family == "matrix":
            pts = np.sort(rng.choice(_matrix_table()[0], size=6, replace=False))
        else:
            pts = np.sort(rng.uniform(lo, hi, size=12))
        expected = [[kern.eval(s, t) for t in pts.tolist()] for s in pts.tolist()]
        assert kernels.gram(kern, pts).tolist() == expected


# made_markov_law is bitwise its per-query row loop only because every
# kernel's cov rounds each entry on its own, whatever the batch.
@pytest.mark.parametrize("family", sorted(GRAM_FAMILIES))
def test_cov_in_one_call_is_bitwise_one_call_per_entry(family):
    make, lo, hi = GRAM_FAMILIES[family]
    rng, count = np.random.default_rng(43), _examples(family, 300)
    if family == "matrix":
        s, t = rng.choice(_matrix_table()[0], size=(2, count))
    else:
        s, t = rng.uniform(lo, hi, size=(2, count))
    kern = make()
    batch = np.asarray(kern.cov(s, t), dtype=float)
    single = [float(np.asarray(kern.cov(s[[i]], t[[i]]))[0]) for i in range(s.size)]
    assert np.array_equal(batch, single)


class TestReplace:
    def test_replaced_cov_derives_eval_again(self):
        base = kernels.fbm(0.5)
        kern = dataclasses.replace(base, cov=lambda s, t: 2.0 * base.cov(s, t))
        assert kern.eval(1.0, 1.0) == float(kern.cov(1.0, 1.0)) == 2.0
        assert base.eval(1.0, 1.0) == 1.0

    def test_replaced_eval_is_kept(self):
        # perfbench's tracer counts calls this way, through functools.wraps
        base = kernels.fbm(0.5)

        @functools.wraps(base.eval)
        def counted(s, t):
            return base.eval(s, t)

        for given in (counted, lambda s, t: 3.0):
            kern = dataclasses.replace(base, eval=given)
            assert kern.eval is given and kern.cov is base.cov

    def test_replaced_cov_of_a_scalar_kernel_is_kept_and_derives_eval_again(self):
        base = Kernel.from_scalar(lambda s, t: min(s, t), domain=(0.0, math.inf))
        assert base.eval(3.0, 0.5) == 0.5
        kern = dataclasses.replace(base, cov=np.maximum)
        assert kern.cov is np.maximum and kern.eval(3.0, 0.5) == 3.0

    @pytest.mark.parametrize("make", [lambda: kernels.fbm(0.5), kernels.white_noise,
                                      lambda: kernels.matrix_kernel(*_matrix_table())])
    def test_other_fields_keep_both_callables(self, make):
        base = make()
        kern = dataclasses.replace(base, name="renamed", domain=(0.5, 2.0))
        assert kern.eval is base.eval and kern.cov is base.cov


#: Whole-array references (tests/oracles.py) of the families whose cov works
#: in place: the rate kernels and the mimicking kernels built on fbm(0.6).
COV_REFERENCES = {
    "rate_const": lambda: oracles.rate_cov(RateFunction.constant(1.3)),
    "rate_1+t": lambda: oracles.rate_cov(RateFunction.from_callable(lambda t: 1.0 + t)),
    "rate_inf": lambda: oracles.rate_cov(RateFunction.infinite()),
    "mimic": lambda: oracles.mimic_cov(kernels.fbm(0.6).eval, RateFunction.from_callable(
        lambda t: 0.5 / t), domain=(0.0, math.inf)),
    "mimic_inf": lambda: oracles.mimic_cov(
        kernels.fbm(0.6).eval, RateFunction.infinite(), domain=(0.0, math.inf)),
    "mimic_const": lambda: oracles.mimic_cov(
        kernels.fbm(0.6).eval, RateFunction.constant(0.8), domain=(0.0, math.inf)),
}


def _asymmetric_matrix_kernel():
    grid, mat = _matrix_table()
    upper = np.triu(np.random.default_rng(7).uniform(-1e-3, 1e-3, mat.shape), 1)
    return kernels.matrix_kernel(grid, mat + upper, name="asymmetric")


#: The Gram families plus a kernel whose Gram is not symmetric.
PSD_FAMILIES = {**GRAM_FAMILIES, "matrix_asymmetric": (_asymmetric_matrix_kernel, 0.0, 3.0)}


def _draw_grid(data, family, lo, hi) -> np.ndarray:
    if family.startswith("matrix"):
        grid = _matrix_table()[0]
        return grid[sorted(data.draw(st.sets(st.integers(0, grid.size - 1), min_size=1)))]
    return np.array(sorted(data.draw(st.sets(
        st.floats(lo, hi, allow_nan=False), min_size=1, max_size=12))))


@pytest.mark.parametrize("family", sorted(COV_REFERENCES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_in_place_cov_is_its_whole_array_reference(family, data):
    make, lo, hi = GRAM_FAMILIES[family]
    kern, reference = make(), COV_REFERENCES[family]()
    pts = _draw_grid(data, family, lo, hi)
    assert kernels.gram(kern, pts).tobytes() == reference(pts[:, None], pts[None, :]).tobytes()
    s = data.draw(st.floats(lo, hi, allow_nan=False))
    t = data.draw(st.one_of(st.just(s), st.floats(lo, hi, allow_nan=False)))
    assert kern.eval(s, t).hex() == float(reference(s, t)).hex()


@pytest.mark.parametrize("family", sorted(PSD_FAMILIES))
def test_psd_check_is_the_always_symmetrized_check(family):
    make, lo, hi = PSD_FAMILIES[family]
    kern = make()

    def check(data):
        pts = _draw_grid(data, family, lo, hi)
        report, expected = psd_check(kern, pts), oracles.psd_check_symmetrized(kern, pts)
        assert report.min_eigenvalue.hex() == expected.min_eigenvalue.hex()
        assert report.passed == expected.passed

    _run_property(check, family, 25)


def test_asymmetric_gram_is_symmetrized():
    kern, grid = _asymmetric_matrix_kernel(), _matrix_table()[0]
    mat = kernels.gram(kern, grid)
    assert not np.array_equal(mat, mat.T)
    min_eig = psd_check(kern, grid).min_eigenvalue
    assert min_eig == float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])
    assert min_eig != float(np.linalg.eigvalsh(mat)[0])


# A symmetric Gram is checkable up to half the largest double, where x + x
# still is finite; an asymmetric one while every x_ij + x_ji is.
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("corner", [np.finfo(float).max / 2, -np.finfo(float).max / 2])
@pytest.mark.parametrize("symmetric", [True, False])
def test_too_large_to_check_is_the_symmetrized_check(corner, symmetric):
    for entry in (corner, np.nextafter(corner, math.copysign(math.inf, corner))):
        mat = np.array([[1.0, entry], [entry if symmetric else 0.5 * entry, 1.0]])
        kern = kernels.matrix_kernel([0.0, 1.0], mat)
        try:
            expected = oracles.psd_check_symmetrized(kern, [0.0, 1.0])
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError, match=f"^{re.escape(str(exc))}$"):
                psd_check(kern, [0.0, 1.0])
            assert entry != corner and symmetric
        else:
            assert psd_check(kern, [0.0, 1.0]) == expected


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_RATE_1_T = RateFunction.from_callable(lambda t: 1.0 + t)


# The rate kernels' covariance is made inside the one n-by-n array the
# integral returns; a mimicking Gram adds R's array, a PSD check the
# symmetry test's booleans (LAPACK's own copy is not traced).
@pytest.mark.parametrize("run,grams", [
    (lambda pts: kernels.gram(kernels.exponential_rate(_RATE_1_T), pts), 1.25),
    (lambda pts: kernels.gram(kernels.exponential_rate(1.0), pts), 1.25),
    (lambda pts: psd_check(kernels.exponential_rate(_RATE_1_T), pts), 1.25),
    (lambda pts: kernels.gram(mimic_kernel(kernels.fbm(0.6), RateFunction.from_callable(
        lambda t: 0.5 / t)), pts), 2.25),
], ids=["gram-rate_1+t", "gram-exponential", "psd_check-rate_1+t", "gram-mimic"])
def test_gram_memory_in_grams(run, grams):
    n = 1024
    pts = np.linspace(0.1, 3.0, n)
    assert _traced_peak(lambda: run(pts)) <= grams * 8 * n * n


def test_spectral_psd_check_memory_is_bounded(partial_measure):
    # the n x n x atoms cosine table took 133 MiB here
    assert len(partial_measure.atoms) == 54
    kern = spectral.kernel_from_spectral(partial_measure)
    assert _traced_peak(lambda: psd_check(kern, np.linspace(0.0, 3.0, 400))) < 8 * 2**20


def test_fourier_in_chunks_is_bitwise_one_array(partial_measure):
    pts = np.linspace(0.0, 3.0, 150)
    x = np.subtract(pts[None, :], pts[:, None])
    assert 5 * spectral._FOURIER_COSINES < x.size * len(partial_measure.atoms)
    assert partial_measure.fourier(x).tobytes() == oracles.spectral_fourier(partial_measure, x).tobytes()
    for t in (x[0], x[0, 7], 0.7):
        expected = oracles.spectral_fourier(partial_measure, t)
        assert partial_measure.fourier(t).tobytes() == np.asarray(expected).tobytes()


def test_transformed_fbm_log_gram_memory_is_its_base_kernels():
    # fbm_log's five arrays are freed before the scale's u * v is formed
    kern = transform_kernel(kernels.fbm_log(0.75), lambda t: t**0.75,
                            lambda t: 0.5 * math.log(t), domain=(0.0, math.inf))
    n = 1024
    pts = np.linspace(0.1, 3.0, n)
    assert _traced_peak(lambda: kernels.gram(kern, pts)) <= 5.1 * 8 * n * n


def _zero_variance():
    return Kernel(cov=lambda s, t: np.zeros(np.broadcast(s, t).shape), name="zero")


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: Kernel(eval=lambda s, t: 1.0), InvalidInputError,
                 "a kernel needs a cov; see Kernel.from_scalar", id="kernel-no-callable"),
    pytest.param(lambda: Kernel(cov=np.multiply, domain=(1.0, 1.0)), InvalidInputError,
                 "empty kernel domain (1.0, 1.0)", id="kernel-empty-domain"),
    pytest.param(lambda: kernels.fbm(1.0), InvalidInputError,
                 "Hurst parameter must lie in (0, 1), got 1.0", id="fbm-hurst"),
    pytest.param(lambda: kernels.fbm_log(0.0), InvalidInputError,
                 "Hurst parameter must lie in (0, 1), got 0.0", id="fbm-log-hurst"),
    pytest.param(lambda: _zero_variance().std(1.0), SingularMarginalError,
                 "kernel 'zero' is singular at t=1.0", id="std-singular"),
    pytest.param(lambda: kernels.gram(kernels.fbm(0.5), []), InvalidInputError,
                 "grid must contain at least one time", id="gram-empty-grid"),
    pytest.param(lambda: decay_rate(kernels.fbm(0.5), 1.0, 0.0), InvalidInputError,
                 "h must be positive, got 0.0", id="decay-rate-h"),
    pytest.param(lambda: estimate_alpha(kernels.fbm(0.5), 1.0, [0.1, 0.01]), InvalidInputError,
                 "h_sequence needs at least three values", id="alpha-short-sequence"),
    pytest.param(lambda: uniform_convergence_diagnostic(
        kernels.constant(), RateFunction.constant(0.0), 1.0, 1.0, 0.1, 3),
        InvalidInputError, "need s < t", id="diagnostic-interval"),
    pytest.param(lambda: uniform_convergence_diagnostic(
        kernels.constant(), RateFunction.constant(0.0), 0.0, 1.0, 0.1, 1),
        InvalidInputError, "grid_density must be at least 2", id="diagnostic-density"),
    pytest.param(lambda: uniform_convergence_diagnostic(
        kernels.constant(), RateFunction.constant(0.0), 0.0, 1.0, 0.1, 10**6),
        InvalidInputError, "grid_density 1000000, above the cap of 2048", id="diagnostic-cap"),
    pytest.param(lambda: kernels.noise_integral(lambda t, u: 1.0, (1.0, 1.0)), InvalidInputError,
                 "empty integration interval (1.0, 1.0)", id="noise-integral-interval"),
    pytest.param(lambda: kernels.noise_integral(lambda t, u: 1.0, (0.0, math.inf)).eval(1.0, 1.0),
                 InvalidInputError,
                 "noise-integral integrand does not decay on (0.0, inf) at (1.0, 1.0)",
                 id="noise-integral-tail"),
    pytest.param(lambda: transform_kernel(kernels.fbm(0.5), lambda t: 0.0, lambda t: t).eval(1.0, 2.0),
                 InvalidInputError, "scale vanishes at 1.0", id="transform-zero-scale"),
    pytest.param(lambda: kernels.matrix_kernel([0.0, 1.0], np.eye(3)), InvalidInputError,
                 "matrix shape does not match grid length", id="matrix-shape"),
    pytest.param(lambda: kernels.matrix_kernel([0.0, 1.0], np.eye(2)).eval(0.0, 0.5),
                 InvalidInputError, "time 0.5 not on the kernel grid", id="matrix-off-grid"),
])
def test_bad_arguments_are_named(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
