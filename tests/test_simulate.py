import csv
import dataclasses
import math
import re

import numpy as np
import pytest

from gaussmarkov import kernels, simulate, transform
from gaussmarkov.errors import InvalidInputError, InvalidSdeError, NotPsdError
from gaussmarkov.gaussian import GaussianVector
from gaussmarkov.kernels import RateFunction
from gaussmarkov.serialize import write_csv
from gaussmarkov.simulate import (
    FD_STEP,
    MAX_EM_SUBSTEPS,
    MAX_PATH_VALUES,
    SdeSpec,
    TrajectoryBatch,
    _stream,
    cholesky_sample,
    empirical_covariance,
    euler_maruyama,
    figure_comparison,
    mimicking_sde,
    ou_exact,
)
from gaussmarkov.transform import joint_law

import oracles


def constant(value):
    return lambda t: value


def ou_spec(step):
    return SdeSpec(
        offset=constant(0.0),
        slope=constant(-1.0),
        center=constant(0.0),
        diffusion=constant(math.sqrt(2.0)),
        initial_mean=0.0,
        initial_var=1.0,
        step=step,
    )


class TestCholeskySample:
    def test_identity_covariance_variances(self):
        law = GaussianVector(times=[0, 1, 2], mean=np.zeros(3), cov=np.eye(3))
        batch = cholesky_sample(law, 10**5, seed=1)
        var = batch.paths.var(axis=0, ddof=1)
        assert np.all(var > 0.99) and np.all(var < 1.01)

    def test_constant_kernel_paths_flat(self):
        # Rank-one laws, whose paths are multiples of the standard deviations:
        # the constant kernel, and fbm mimicked with alpha = 0, whose
        # K'(s, t) = sigma(s) sigma(t).  Each path lies on that line to rounding.
        fbm_mimic = transform.mimic_kernel(kernels.fbm(0.75), RateFunction.constant(0.0))
        for kern, grid in [
            (kernels.constant(), np.linspace(0, 1, 5)),
            (fbm_mimic, np.linspace(1, 3, 3)),
            (fbm_mimic, np.linspace(1, 2, 50)),
        ]:
            law = joint_law(kern, grid)
            paths = cholesky_sample(law, 2000, seed=2).paths
            line = np.sqrt(np.diag(law.cov)) / math.sqrt(np.trace(law.cov))
            off = paths - np.outer(paths @ line, line)
            rel = np.linalg.norm(off, axis=1) / np.linalg.norm(paths, axis=1)
            assert np.max(rel) <= 1e-12

    def test_exponential_kernel_empirical_cov(self):
        kern = kernels.exponential_rate(1.0)
        law = joint_law(kern, [0.0, 0.5, 1.0])
        batch = cholesky_sample(law, 10**5, seed=3)
        est = empirical_covariance(batch)
        assert np.all(np.abs(est.law.cov - law.cov) < 3 * est.cov_se)

    def test_deterministic_given_seed(self):
        law = GaussianVector(times=[0, 1], mean=[0, 0], cov=[[1, 0.4], [0.4, 1]])
        a = cholesky_sample(law, 100, seed=9)
        b = cholesky_sample(law, 100, seed=9)
        np.testing.assert_array_equal(a.paths, b.paths)
        c = cholesky_sample(law, 100, seed=10)
        assert np.any(c.paths != a.paths)

    def test_indefinite_matrix_not_factorizable(self):
        with pytest.raises(NotPsdError):
            GaussianVector(times=[0, 1], mean=[0, 0], cov=[[1.0, 2.0], [2.0, 1.0]])

    # The sampler takes the Cholesky factor from the routine that certifies the
    # law, or clips an eigen decomposition when there is none.
    def test_full_rank_law_is_sampled_through_its_cholesky_factor(self):
        law = joint_law(kernels.exponential_rate(1.0), [0.0, 0.5, 1.0, 2.0])
        expected = _stream(4, "cholesky-sampler").standard_normal((50, 4))
        expected = expected @ np.linalg.cholesky(law.cov).T + law.mean
        np.testing.assert_array_equal(cholesky_sample(law, 50, seed=4).paths, expected)

    def test_rank_one_law_is_sampled_through_its_clipped_eigen_factor(self):
        mimic = transform.mimic_kernel(kernels.fbm(0.75), RateFunction.constant(0.0))
        law = joint_law(mimic, np.linspace(1, 2, 5))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(law.cov)
        lam, vecs = np.linalg.eigh(law.cov)
        lam[lam <= 5 * 2.0**-52 * lam[-1]] = 0.0
        expected = _stream(4, "cholesky-sampler").standard_normal((50, 5))
        expected = expected @ (vecs * np.sqrt(lam)).T + law.mean
        np.testing.assert_array_equal(cholesky_sample(law, 50, seed=4).paths, expected)


class TestEulerMaruyama:
    def test_zero_coefficients_constant_paths(self):
        spec = SdeSpec(
            offset=constant(0.0),
            slope=constant(0.0),
            center=constant(0.0),
            diffusion=constant(0.0),
            initial_mean=3.0,
            initial_var=0.0,
            step=0.1,
        )
        batch = euler_maruyama(spec, [0.0, 0.5, 1.0], 50, seed=4)
        assert np.all(batch.paths == 3.0)

    def test_zero_rate_sde_constant_paths(self):
        # completely correlated limit: no drift, no noise
        spec = mimicking_sde(kernels.constant(), RateFunction.constant(0.0), 0.0, step=0.1)
        batch = euler_maruyama(spec, [0.0, 1.0, 2.0], 100, seed=5)
        assert np.max(np.abs(batch.paths - batch.paths[:, :1])) < 1e-12

    def test_ou_against_closed_form(self):
        step = 5e-3
        batch = euler_maruyama(ou_spec(step), [0.0, 0.5, 1.0], 10**5, seed=6)
        est = empirical_covariance(batch)
        target = kernels.gram(kernels.exponential_rate(1.0), [0.0, 0.5, 1.0])
        assert np.all(np.abs(est.law.cov - target) < 3 * est.cov_se + 2 * step)

    @staticmethod
    def _euler_chain_variance(step, horizon):
        # exact second moment of the Euler recursion for the OU spec
        var = 1.0
        for _ in range(round(horizon / step)):
            var = (1.0 - step) ** 2 * var + 2.0 * step
        return var

    @pytest.mark.slow
    def test_weak_first_order_trend(self):
        # the scheme's exact variance bias at t=1 halves with the step, and
        # the simulation tracks its own chain law within pure sampling noise
        steps = (1e-2, 5e-3, 2.5e-3)
        biases = [abs(self._euler_chain_variance(s, 1.0) - 1.0) for s in steps]
        assert biases[0] > biases[1] > biases[2]
        assert biases[0] / biases[1] == pytest.approx(2.0, rel=0.1)
        for step in steps:
            batch = euler_maruyama(ou_spec(step), [0.0, 1.0], 2 * 10**5, seed=7)
            var = batch.paths[:, 1].var(ddof=1)
            se = math.sqrt(2.0 / batch.n_paths)
            assert abs(var - self._euler_chain_variance(step, 1.0)) < 3 * se

    def test_negative_diffusion_reported(self):
        spec = SdeSpec(
            offset=constant(0.0),
            slope=constant(0.0),
            center=constant(0.0),
            diffusion=constant(-1.0),
            initial_mean=0.0,
            initial_var=1.0,
            step=0.1,
        )
        with pytest.raises(InvalidSdeError, match="t="):
            euler_maruyama(spec, [0.0, 1.0], 10, seed=8)

    def test_step_must_divide_gaps(self):
        with pytest.raises(InvalidInputError):
            euler_maruyama(ou_spec(0.3), [0.0, 1.0], 10, seed=8)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(InvalidInputError, match=f"got {step}"):
            ou_spec(step)

    @pytest.mark.parametrize("step,substeps", [
        (1.0 / (MAX_EM_SUBSTEPS + 1), "1e\\+06"), (1e-12, "1e\\+12"), (5e-324, "inf"),
    ])
    def test_substeps_are_capped_before_any_coefficient(self, monkeypatch, step, substeps):
        calls = count_draws(monkeypatch)
        evaluated = []
        spec = dataclasses.replace(ou_spec(step), diffusion=evaluated.append)
        with pytest.raises(InvalidInputError,
                           match=f"takes {substeps} substeps .* above the cap of 1000000"):
            euler_maruyama(spec, [0.0, 1.0], 10, seed=8)
        assert evaluated == [] and calls == []

    def test_draws_are_capped_before_any_coefficient(self, monkeypatch):
        calls = count_draws(monkeypatch)
        evaluated = []
        spec = dataclasses.replace(ou_spec(1e-6), diffusion=evaluated.append)
        with pytest.raises(InvalidInputError, match=re.escape(
                "20000 paths of 1e+06 substeps take 2e+10 normals, above the cap of 1000000000")):
            euler_maruyama(spec, [0.0, 1.0], 20_000, seed=8)
        assert evaluated == [] and calls == []

    @pytest.mark.parametrize("name", ["initial_mean", "initial_var"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_initial_moments_must_be_finite(self, monkeypatch, name, value):
        calls = count_draws(monkeypatch)
        with pytest.raises(InvalidInputError, match=f"{name} .*got {value}"):
            spec = dataclasses.replace(ou_spec(0.1), **{name: value})
            euler_maruyama(spec, [0.0, 1.0], 10, seed=8)
        assert calls == []


def euler_maruyama_by_closures(drift, diffusion, initial_mean, initial_var, step,
                               t_grid, n_paths, seed):
    """The former Euler-Maruyama loop: closures of (t, x), fresh arrays per substep."""
    grid = np.asarray(t_grid, dtype=float)
    gen = _stream(seed, "euler-maruyama")
    x = initial_mean + math.sqrt(initial_var) * gen.standard_normal(n_paths)
    recorded = np.empty((n_paths, grid.size))
    recorded[:, 0] = x
    for gi, (a, b) in enumerate(zip(grid[:-1], grid[1:]), start=1):
        gap = b - a
        n_sub = max(1, round(gap / step))
        h = gap / n_sub
        sqrt_h = math.sqrt(h)
        t = a
        for _ in range(n_sub):
            d = np.broadcast_to(np.asarray(diffusion(t, x), dtype=float), x.shape)
            x = x + np.asarray(drift(t, x), dtype=float) * h + d * sqrt_h * gen.standard_normal(n_paths)
            t += h
        recorded[:, gi] = x
    return recorded


def mimicking_closures(kernel, alpha):
    """The former mimicking SDE coefficients, as closures of (t, x)."""
    m, sigma = kernel.mean, kernel.std

    def derivative(f, t):
        return (f(t + FD_STEP) - f(t - FD_STEP)) / (2.0 * FD_STEP)

    def drift(t, x):
        s = sigma(t)
        return derivative(m, t) + (derivative(sigma, t) / s - alpha(t)) * (x - m(t))

    def diffusion(t, x):
        return np.full_like(np.asarray(x, dtype=float), sigma(t) * math.sqrt(2.0 * alpha(t)))

    return drift, diffusion


def _one_plus_t(t):
    return 1.0 + t


def count_draws(monkeypatch):
    """Patch the package's streams to count their ``standard_normal`` calls."""
    calls = []

    class Counting:
        def __init__(self, gen):
            self._gen = gen

        def standard_normal(self, *args, **kwargs):
            calls.append(1)
            return self._gen.standard_normal(*args, **kwargs)

    stream = simulate._stream
    monkeypatch.setattr(simulate, "_stream", lambda seed, name: Counting(stream(seed, name)))
    return calls


#: The families the benchmark's SDE workload simulates: kernel and rate factories.
EM_FAMILIES = {
    "exponential": lambda: (kernels.exponential_rate(1.0), RateFunction.constant(1.0)),
    "fbm_h0.5": lambda: (kernels.fbm(0.5), RateFunction.from_callable(lambda t: 0.5 / t)),
    "fbm_h0.75": lambda: (kernels.fbm(0.75), RateFunction.constant(0.0)),
    "rate_1+t": lambda: (
        transform.rate_kernel(RateFunction.from_callable(_one_plus_t)),
        RateFunction.from_callable(_one_plus_t),
    ),
}


class TestEulerMaruyamaOracle:
    """The precomputed in-place loop against the closure loop it replaced, bit for bit."""

    # first gap: one substep; later gaps: several
    OFFSETS = np.array([0.0, 0.01, 0.05, 0.25])

    @pytest.mark.parametrize("family", sorted(EM_FAMILIES))
    @pytest.mark.parametrize("start,step", [(1.2, 0.01), (1.3, 0.002)])
    def test_mimicking_sde(self, family, start, step):
        grid = start + self.OFFSETS
        kernel, alpha = EM_FAMILIES[family]()
        spec = mimicking_sde(kernel, alpha, t0=float(grid[0]), step=step)
        fast = euler_maruyama(spec, grid, 300, seed=31)
        kernel, alpha = EM_FAMILIES[family]()
        drift, diffusion = mimicking_closures(kernel, alpha)
        slow = euler_maruyama_by_closures(
            drift, diffusion, kernel.mean(grid[0]), kernel.variance(grid[0]), step,
            grid, 300, seed=31,
        )
        np.testing.assert_array_equal(fast.paths, slow)

    @pytest.mark.parametrize("grid", [[0.0, 0.01], [0.0, 0.01, 0.5, 0.6]])
    def test_ou_spec(self, grid):
        fast = euler_maruyama(ou_spec(0.01), grid, 300, seed=32)
        slow = euler_maruyama_by_closures(
            lambda t, x: -x, lambda t, x: math.sqrt(2.0), 0.0, 1.0, 0.01, grid, 300, seed=32,
        )
        np.testing.assert_array_equal(fast.paths, slow)

    # Rates with a run of zeros: trailing (no draws after t = 0.5) and
    # leading (the zero substeps before the first noisy one still draw).
    STEP_RATES = {
        "trailing_zeros": lambda t: 1.0 if t < 0.5 else 0.0,
        "leading_zeros": lambda t: 0.0 if t < 0.5 else 1.0,
    }

    @pytest.mark.parametrize("rates", sorted(STEP_RATES))
    def test_zero_noise_runs(self, rates):
        grid = [0.0, 0.5, 1.0]
        kernel = kernels.exponential_rate(1.0)
        alpha = RateFunction.from_callable(self.STEP_RATES[rates])
        fast = euler_maruyama(mimicking_sde(kernel, alpha, t0=0.0, step=0.1), grid, 300, seed=33)
        drift, diffusion = mimicking_closures(kernel, alpha)
        slow = euler_maruyama_by_closures(drift, diffusion, 0.0, 1.0, 0.1, grid, 300, seed=33)
        np.testing.assert_array_equal(fast.paths, slow)

    @pytest.mark.parametrize("rates,grid,n_calls", [
        ("zero", [0.5, 1.0, 1.5], 1),  # the initial law's draw only
        ("trailing_zeros", [0.0, 0.5, 1.0], 1 + 5),  # t = 0, 0.1, ..., 0.4
        ("leading_zeros", [0.0, 0.5, 1.0], 1 + 10),
    ])
    def test_draws_stop_after_the_last_noisy_substep(self, monkeypatch, rates, grid, n_calls):
        if rates == "zero":
            kernel, alpha = kernels.fbm(0.75), RateFunction.constant(0.0)
        else:
            kernel = kernels.exponential_rate(1.0)
            alpha = RateFunction.from_callable(self.STEP_RATES[rates])
        spec = mimicking_sde(kernel, alpha, t0=grid[0], step=0.1)
        calls = count_draws(monkeypatch)
        euler_maruyama(spec, grid, 20, seed=34)
        assert len(calls) == n_calls

    def test_negative_rate_rejected_before_drawing(self):
        alpha = RateFunction.from_callable(lambda t: 1.0 if t < 0.5 else -1.0)
        spec = mimicking_sde(kernels.exponential_rate(1.0), alpha, t0=0.0, step=0.1)
        with pytest.raises(InvalidSdeError, match="t="):
            euler_maruyama(spec, [0.0, 1.0], 10, seed=8)


class TestOuExact:
    def test_unit_rate_transition_correlation(self):
        batch = ou_exact(RateFunction.constant(1.0), [0.0, 0.5], 2 * 10**5, seed=11)
        est = empirical_covariance(batch)
        assert abs(est.law.cov[0, 1] - math.exp(-0.5)) < 3 * est.cov_se[0, 1]

    def test_zero_rate_constant_paths(self):
        batch = ou_exact(RateFunction.constant(0.0), [0.0, 1.0, 5.0], 100, seed=12)
        np.testing.assert_array_equal(batch.paths, np.repeat(batch.paths[:, :1], 3, axis=1))

    def test_infinite_rate_iid(self):
        batch = ou_exact(RateFunction.infinite(), [0.0, 1.0], 2 * 10**5, seed=13)
        est = empirical_covariance(batch)
        assert abs(est.law.cov[0, 1]) < 3 * est.cov_se[0, 1]

    def test_linear_rate_covariance(self):
        alpha = RateFunction.from_callable(lambda t: t)
        batch = ou_exact(alpha, [0.0, 1.0, 2.0], 2 * 10**5, seed=14)
        est = empirical_covariance(batch)
        assert abs(est.law.cov[0, 2] - math.exp(-2.0)) < 3 * est.cov_se[0, 2]

    def test_matches_time_changed_unit_rate(self):
        # running the linear-rate process equals running the unit-rate
        # process at times t^2/2
        grid = np.array([0.0, 0.6, 1.2, 2.0])
        a = empirical_covariance(
            ou_exact(RateFunction.from_callable(lambda t: t), grid, 2 * 10**5, seed=15)
        )
        b = empirical_covariance(
            ou_exact(RateFunction.constant(1.0), grid**2 / 2.0, 2 * 10**5, seed=16)
        )
        combined = np.sqrt(a.cov_se**2 + b.cov_se**2)
        assert np.all(np.abs(a.law.cov - b.law.cov) < 3 * combined)


    @pytest.mark.parametrize("alpha", [
        RateFunction.constant(0.37),
        RateFunction.from_callable(lambda t: 1.0 + t),
        RateFunction.from_callable(lambda t: 0.8 * t**1.5),
    ], ids=["constant", "1+t", "power"])
    def test_one_cov_call_is_the_step_loop_bit_for_bit(self, alpha):
        rng = np.random.default_rng(31)
        for size in (2, 17, 60):
            grid = np.sort(rng.uniform(0.0, 4.0, size))
            batch = ou_exact(alpha, grid, 5, seed=size)
            np.testing.assert_array_equal(
                batch.paths, oracles.ou_exact_by_steps(alpha, grid, 5, seed=size).paths)

    def test_one_point_grid_is_one_column(self):
        # the first draw starts every path, as on a longer grid of the same seed
        one = RateFunction.constant(1.0)
        batch = ou_exact(one, [1.0], 3, seed=1)
        assert batch.paths.shape == (3, 1) and batch.times.tolist() == [1.0]
        np.testing.assert_array_equal(batch.paths, ou_exact(one, [1.0, 2.0], 3, seed=1).paths[:, :1])
        assert ou_exact(RateFunction.infinite(), [1.0], 3, seed=1).paths.shape == (3, 1)

    def test_one_cov_call_per_run(self, monkeypatch):
        calls = []
        rate_kernel = simulate.rate_kernel

        def counted(alpha, domain):
            kern = rate_kernel(alpha, domain=domain)
            return dataclasses.replace(kern, cov=lambda s, t: calls.append(1) or kern.cov(s, t))

        monkeypatch.setattr(simulate, "rate_kernel", counted)
        ou_exact(RateFunction.constant(1.0), np.linspace(0.0, 1.0, 50), 3, seed=1)
        assert calls == [1]


class TestEmpiricalCovariance:
    def test_constant_batch_zero_covariance(self):
        batch = TrajectoryBatch(times=[0.0, 1.0], paths=np.ones((50, 2)))
        est = empirical_covariance(batch)
        assert np.all(est.law.cov == 0.0)

    def test_iid_standard_normal(self):
        rng = np.random.default_rng(17)
        batch = TrajectoryBatch(
            times=[0.0, 1.0, 2.0],
            paths=rng.standard_normal((10**5, 3)),
        )
        est = empirical_covariance(batch)
        assert np.all(np.abs(est.law.cov - np.eye(3)) < 3 * est.cov_se)

    def test_needs_two_paths(self):
        batch = TrajectoryBatch(times=[0.0], paths=np.ones((1, 1)))
        with pytest.raises(InvalidInputError):
            empirical_covariance(batch)


class TestFigureComparison:
    def test_unit_rate_routes_agree(self):
        report = figure_comparison(
            kernels.exponential_rate(1.0),
            RateFunction.constant(1.0),
            np.linspace(0.0, 2.0, 5),
            n_paths=2 * 10**4,
            seed=18,
            step=5e-3,
        )
        se = np.sqrt(report.sde_moments.cov_se**2 + report.gauss_moments.cov_se**2)
        bound = 3 * se + 2 * 5e-3
        assert np.all(
            np.abs(report.sde_moments.law.cov - report.gauss_moments.law.cov) < bound
        )
        assert np.all(np.abs(report.sde_moments.law.cov - report.analytic.cov) < bound)

    def test_zero_rate_routes_constant(self):
        report = figure_comparison(
            kernels.constant(),
            RateFunction.constant(0.0),
            [0.0, 1.0, 2.0],
            n_paths=10**4,
            seed=19,
            step=1e-2,
        )
        np.testing.assert_allclose(report.analytic.cov, np.ones((3, 3)), atol=1e-12)
        se = np.sqrt(report.sde_moments.cov_se**2 + report.gauss_moments.cov_se**2)
        assert np.all(
            np.abs(report.sde_moments.law.cov - report.gauss_moments.law.cov) < 3 * se + 1e-6
        )

    def test_fbm_smooth_case_covariance(self):
        hurst = 0.75
        report = figure_comparison(
            kernels.fbm(hurst),
            RateFunction.constant(0.0),  # decorrelation rate of fBm for H > 1/2
            np.linspace(1.0, 2.0, 5),
            n_paths=2 * 10**4,
            seed=20,
            step=2e-3,
        )
        grid = report.analytic.times
        target = np.array([[(s * t) ** hurst for t in grid] for s in grid])
        np.testing.assert_allclose(report.analytic.cov, target, atol=1e-9)
        for m in (report.sde_moments, report.gauss_moments):
            assert np.all(np.abs(m.law.cov - target) < 3 * m.cov_se + 2 * 2e-3)

    def test_nonzero_mean_and_varying_std(self):
        # kernel with drifting mean: both routes must reproduce the mean
        # function and the rescaled covariance
        kern = kernels.Kernel.from_scalar(
            lambda s, t: (1 + 0.2 * s) * (1 + 0.2 * t) * math.exp(-abs(t - s)),
            mean=lambda t: 2.0 + 0.5 * t,
        )
        report = figure_comparison(
            kern,
            RateFunction.constant(1.0),
            np.linspace(0.0, 2.0, 5),
            n_paths=4 * 10**4,
            seed=24,
            step=5e-3,
        )
        grid = report.analytic.times
        np.testing.assert_allclose(report.analytic.mean, 2.0 + 0.5 * grid, atol=1e-12)
        for m in (report.sde_moments, report.gauss_moments):
            assert np.all(np.abs(m.law.mean - report.analytic.mean) < 4 * m.mean_se + 0.01)
            assert np.all(np.abs(m.law.cov - report.analytic.cov) < 3 * m.cov_se + 2 * 5e-3)

    def test_cholesky_route(self):
        report = figure_comparison(
            kernels.exponential_rate(1.0),
            RateFunction.constant(1.0),
            [0.0, 1.0],
            n_paths=10**4,
            seed=21,
            step=1e-2,
            gaussian_route="cholesky",
        )
        assert report.max_cov_discrepancy < 0.1

    @pytest.mark.parametrize("n_paths,route,message", [
        (1, "exact", "got 1"),
        (10, "bogus", "'bogus'"),
        (MAX_PATH_VALUES // 2 + 1, "exact", f"above the cap of {MAX_PATH_VALUES}"),
        (True, "exact", "n_paths must be an integer, got True"),
        (2.5, "exact", "n_paths must be an integer, got 2.5"),
        (math.nan, "exact", "need at least two paths to estimate moments, got nan"),
    ])
    def test_bad_arguments_rejected_before_drawing(self, monkeypatch, n_paths, route, message):
        calls = count_draws(monkeypatch)
        with pytest.raises(InvalidInputError, match=message):
            figure_comparison(
                kernels.exponential_rate(1.0), RateFunction.constant(1.0), [0.0, 1.0],
                n_paths=n_paths, seed=24, step=0.1, gaussian_route=route,
            )
        assert calls == []


class TestExports:
    # write_csv against the csv.writer loop it replaced, over every kind of
    # cell the artifacts hold; TrajectoryBatch.to_csv goes through it too.
    def test_csv_bytes_match_csv_writer(self, tmp_path):
        paths = np.array([
            [5e-324, -1.7976931348623157e308, 0.1],
            [-2.5e-300, 1e22, -0.0],
            [-1.0, 123456789.123456789, 1 / 3],
        ])
        batch = TrajectoryBatch(times=[0.0, 1e-5, 2.5], paths=paths)
        cases = [
            (batch.times.tolist(), batch.paths.tolist()),
            (["target", "t", "rate", "error", "found"], [
                (0.25, 1.5, 0.2500000001, 1e-10, "True"),
                (4.0, math.nan, math.nan, math.inf, "False"),
                (-0.0, -math.inf, 5e-324, 2.2250738585072014e-308, "True"),
            ]),
            (["s", "t", "k", "k_mimic"], []),
            ([0.0, 1e-5, 2.5], []),
        ]
        for n, (header, rows) in enumerate(cases):
            write_csv(tmp_path / f"fast{n}.csv", header, rows)
            with open(tmp_path / f"writer{n}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                for cells in [header, *rows]:
                    writer.writerow([f"{c:.17g}" if isinstance(c, float) else c for c in cells])
            expected = (tmp_path / f"writer{n}.csv").read_bytes()
            assert (tmp_path / f"fast{n}.csv").read_bytes() == expected
        batch.to_csv(tmp_path / "batch.csv")
        assert (tmp_path / "batch.csv").read_bytes() == (tmp_path / "writer0.csv").read_bytes()

    def test_csv_round_trip(self, tmp_path):
        batch = ou_exact(RateFunction.constant(1.0), [0.0, 1.0], 7, seed=22)
        path = tmp_path / "paths.csv"
        batch.to_csv(path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "0,1"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        np.testing.assert_array_equal(data, batch.paths)

    def test_summary_json(self):
        report = figure_comparison(
            kernels.exponential_rate(1.0),
            RateFunction.constant(1.0),
            [0.0, 1.0],
            n_paths=500,
            seed=23,
            step=1e-2,
        )
        summary = report.summary_dict()
        assert set(summary) >= {"max_cov_discrepancy", "sde", "gauss", "analytic"}


def test_numpy_integer_seeds_are_python_integer_seeds():
    for seed in (np.int64(7), np.uint32(7)):
        assert _stream(seed, "ou-exact").standard_normal(3).tolist() == (
            _stream(7, "ou-exact").standard_normal(3).tolist())


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: TrajectoryBatch(times=[0.0, 1.0], paths=[[1.0, 2.0, 3.0]]),
                 "paths shape (1, 3) does not match 2 times", id="batch-shape"),
    pytest.param(lambda: TrajectoryBatch(times=[0.0, 1.0], paths=[[1.0, math.nan]]),
                 "paths contain non-finite entries", id="batch-non-finite"),
    pytest.param(lambda: cholesky_sample(GaussianVector([0.0], [0.0], [[1.0]]), 0, seed=1),
                 "need at least one path", id="cholesky-no-path"),
    pytest.param(lambda: euler_maruyama(ou_spec(0.1), [0.0, 1.0], 0, seed=1),
                 "need at least one path", id="em-no-path"),
    pytest.param(lambda: euler_maruyama(ou_spec(0.1), [0.0, 1.0], -1, seed=1),
                 "need at least one path", id="em-negative-paths"),
    pytest.param(lambda: ou_exact(RateFunction.constant(1.0), [0.0, 1.0], 0, seed=1),
                 "need at least one path", id="ou-no-path"),
    pytest.param(lambda: ou_exact(RateFunction.constant(1.0), [0.0, 1.0], -1, seed=1),
                 "need at least one path", id="ou-negative-paths"),
    pytest.param(lambda: cholesky_sample(GaussianVector([0.0], [0.0], [[1.0]]), 1, seed=-1),
                 "seed must be a nonnegative integer, got -1", id="cholesky-negative-seed"),
    pytest.param(lambda: euler_maruyama(ou_spec(0.1), [0.0, 1.0], 1, seed=-1),
                 "seed must be a nonnegative integer, got -1", id="em-negative-seed"),
    pytest.param(lambda: ou_exact(RateFunction.constant(1.0), [0.0, 1.0], 1, seed=-1),
                 "seed must be a nonnegative integer, got -1", id="ou-negative-seed"),
    pytest.param(lambda: ou_exact(RateFunction.constant(1.0), [0.0, 1.0], 1, seed=1.9),
                 "seed must be a nonnegative integer, got 1.9", id="ou-fractional-seed"),
    pytest.param(lambda: cholesky_sample(GaussianVector([0.0], [0.0], [[1.0]]), 1,
                                         seed=np.int64(-2)),
                 "seed must be a nonnegative integer, got -2",
                 id="cholesky-negative-numpy-seed"),
    pytest.param(lambda: cholesky_sample(GaussianVector([0.0], [0.0], [[1.0]]), True, seed=1),
                 "n_paths must be an integer, got True", id="cholesky-bool-paths"),
    pytest.param(lambda: cholesky_sample(GaussianVector([0.0], [0.0], [[1.0]]), 2.5, seed=1),
                 "n_paths must be an integer, got 2.5", id="cholesky-fractional-paths"),
    pytest.param(lambda: cholesky_sample(GaussianVector([0.0], [0.0], [[1.0]]), math.inf, seed=1),
                 "n_paths must be at most 16777216, got inf", id="cholesky-infinite-paths"),
    pytest.param(lambda: euler_maruyama(ou_spec(0.1), [0.0, 1.0], True, seed=1),
                 "n_paths must be an integer, got True", id="em-bool-paths"),
    pytest.param(lambda: euler_maruyama(ou_spec(0.1), [0.0, 1.0], 2.5, seed=1),
                 "n_paths must be an integer, got 2.5", id="em-fractional-paths"),
    pytest.param(lambda: euler_maruyama(ou_spec(0.1), [0.0, 1.0], math.nan, seed=1),
                 "need at least one path", id="em-nan-paths"),
    pytest.param(lambda: ou_exact(RateFunction.constant(1.0), [0.0, 1.0], True, seed=1),
                 "n_paths must be an integer, got True", id="ou-bool-paths"),
    pytest.param(lambda: ou_exact(RateFunction.constant(1.0), [0.0, 1.0], 2.5, seed=1),
                 "n_paths must be an integer, got 2.5", id="ou-fractional-paths"),
    pytest.param(lambda: ou_exact(RateFunction.constant(1.0), [0.0, 1.0], math.inf, seed=1),
                 "n_paths must be at most 16777216, got inf", id="ou-infinite-paths"),
    pytest.param(lambda: ou_exact(RateFunction.constant(1.0), [0.0, 1.0], 1, seed=True),
                 "seed must be a nonnegative integer, got True", id="ou-bool-seed"),
    pytest.param(lambda: euler_maruyama(ou_spec(0.1), [0.0, 1.0], 1, seed=math.nan),
                 "seed must be a nonnegative integer, got nan", id="em-nan-seed"),
    pytest.param(lambda: mimicking_sde(kernels.exponential_rate(1.0), RateFunction.infinite(),
                                       0.0, 0.1),
                 "the SDE form requires a finite rate", id="sde-infinite-rate"),
    pytest.param(lambda: figure_comparison(kernels.exponential_rate(1.0), RateFunction.constant(1.0),
                                           [0.0], n_paths=10, seed=1),
                 "need at least two grid times", id="comparison-one-time"),
])
def test_bad_arguments_are_named(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()
