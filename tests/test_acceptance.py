"""Acceptance criteria, one test per criterion, each printing a verdict line.

Two criteria are known to fail and are asserted literally anyway:

* Criterion 3 (H = 0.75 case): the partition correlation converges at rate
  sqrt(mesh), so at mesh 2^-12 it sits ~2.2e-2 away from its limit, outside
  the 5e-3 gate.  The convergence itself is monotone (criterion's other
  cases and the module tests cover it).
* Criterion 7 (depths i = 3, 4): the witness-index recursion grows
  tower-exponentially past depth 2 (n_7 would need f-sums with base index
  ~2.5e5, bounded by x * 2^(-250000)); no integer budget or float can
  reach it.  Depths i <= 2 hold, and the cluster-witness targets are all
  realized on the partial measure.

See README, "Known limitations", for the full analysis.
"""

import math
import time

import numpy as np
import pytest

from gaussmarkov import kernels, spectral
from gaussmarkov.errors import BudgetExceededError
from gaussmarkov.gaussian import concatenate, markov_check
from gaussmarkov.kernels import RateFunction, estimate_alpha
from gaussmarkov.simulate import figure_comparison
from gaussmarkov.spectral import WeierstrassConfig, WitnessIndices
from gaussmarkov.gaussian import TransportPlan
from gaussmarkov.transform import (
    Partition,
    joint_law,
    mimic_kernel,
    partition_law,
    rate_kernel,
    tightness_bound_check,
)


def scalar_chain(correlations):
    """Unit-variance 1-d plans with the given one-step correlations."""
    return [
        TransportPlan.from_blocks(
            [[1.0]], [[rho]], [[1.0]], times=np.array([float(i), float(i + 1)])
        )
        for i, rho in enumerate(correlations)
    ]


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def verdict(criterion, ok, detail, watch):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {criterion}: {status} ({watch.elapsed:.1f}s) - {detail}")


def test_criterion_1_markov_fixed_point():
    """K_alpha is Markov: residual < 1e-10 on 100 random grids of size <= 6."""
    rates = [
        (RateFunction.constant(0.5), (-2.0, 3.0)),
        (RateFunction.constant(1.0), (-2.0, 3.0)),
        (RateFunction.constant(2.0), (-2.0, 3.0)),
        (RateFunction.from_callable(lambda t: t), (0.0, 3.0)),
    ]
    rng = np.random.default_rng(101)
    worst = 0.0
    with Stopwatch(5.0) as watch:
        for alpha, (lo, hi) in rates:
            kern = rate_kernel(alpha, domain=(lo, hi))
            for _ in range(100):
                size = int(rng.integers(3, 7))
                pts = np.unique(rng.uniform(lo, hi, size=size))
                if pts.size < 3:
                    continue
                report = markov_check(joint_law(kern, pts))
                worst = max(worst, report.max_residual)
    ok = worst < 1e-10 and watch.elapsed < 5.0
    verdict(1, ok, f"max residual {worst:.3e}, budget 5s", watch)
    assert worst < 1e-10
    assert watch.elapsed < 5.0


def test_criterion_2_concatenation_vs_monte_carlo():
    """Concatenate matches a chain-sampling oracle within 3 standard errors."""
    rng = np.random.default_rng(202)
    n_samples = 10**6
    worst_sigmas = 0.0
    with Stopwatch(60.0) as watch:
        for _ in range(20):
            length = int(rng.integers(2, 5))  # 3 to 5 coordinates
            rhos = rng.uniform(-0.9, 0.9, size=length)
            law = concatenate(scalar_chain(list(rhos)))

            x = rng.standard_normal(n_samples)
            samples = [x]
            for rho in rhos:
                x = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n_samples)
                samples.append(x)
            data = np.column_stack(samples)
            mc_cov = np.cov(data.T)
            var = np.diag(mc_cov)
            se = np.sqrt((np.outer(var, var) + mc_cov**2) / n_samples)
            worst_sigmas = max(worst_sigmas, float(np.max(np.abs(law.cov - mc_cov) / se)))
    ok = worst_sigmas < 3.0 and watch.elapsed < 60.0
    verdict(2, ok, f"worst deviation {worst_sigmas:.2f} standard errors, budget 60s", watch)
    assert worst_sigmas < 3.0
    assert watch.elapsed < 60.0


def test_criterion_3_stationary_strong_transform():
    """Partition correlation at mesh 2^-12 vs the limit-rate targets.

    Known failure for H = 0.75: convergence is O(sqrt(mesh)) ~ 2.2e-2.
    """
    targets = {0.25: 0.0, 0.5: math.exp(-1.0), 0.75: 1.0}
    results = {}
    with Stopwatch(10.0) as watch:
        part = Partition.uniform(0.0, 1.0, 2**12)
        for hurst, target in targets.items():
            plan = partition_law(kernels.fbm_log(hurst), part)
            corr = float(plan.cross[0, 0])
            results[hurst] = (corr, abs(corr - target))
    detail = ", ".join(
        f"H={h}: corr {c:.6f} (|err| {e:.2e})" for h, (c, e) in results.items()
    )
    ok = all(e < 5e-3 for _, e in results.values()) and watch.elapsed < 10.0
    verdict(3, ok, detail + ", tol 5e-3, budget 10s", watch)
    assert watch.elapsed < 10.0
    for hurst, (_, err) in results.items():
        assert err < 5e-3, f"H={hurst}: correlation off by {err:.3e} at mesh 2^-12"


def test_criterion_3_rate_h075():
    """Criterion 3's H = 0.75 case past mesh 2^-12: the sqrt(mesh) rate.

    Halving the mesh divides the error by about sqrt(2); the error enters
    the 5e-3 band between 2^-16 and 2^-17, which is why the 2^-12 gate of
    test_criterion_3_stationary_strong_transform fails.
    """
    levels = range(12, 21)
    with Stopwatch(1.0) as watch:
        kern = kernels.fbm_log(0.75)
        errs = {}
        for level in levels:
            plan = partition_law(kern, Partition.uniform(0.0, 1.0, 2**level))
            errs[level] = abs(float(plan.cross[0, 0]) - 1.0)
    ratios = [errs[k] / errs[k + 1] for k in levels[:-1]]
    rate_ok = all(1.38 <= r <= 1.44 for r in ratios)
    band_ok = errs[16] >= 5e-3 and all(errs[k] < 5e-3 for k in levels if k >= 17)
    ok = rate_ok and band_ok and watch.elapsed < 1.0
    verdict(
        "3 (H=0.75 rate)", ok,
        f"errors {errs[12]:.2e} at 2^-12 -> {errs[20]:.2e} at 2^-20, "
        f"ratios {min(ratios):.3f}..{max(ratios):.3f}, "
        f"|err| {errs[16]:.2e} at 2^-16, {errs[17]:.2e} at 2^-17, budget 1s",
        watch,
    )
    assert rate_ok, f"consecutive error ratios {ratios} outside [1.38, 1.44]"
    assert band_ok, f"errors {errs} do not enter the 5e-3 band at mesh 2^-17"
    assert watch.elapsed < 1.0


def test_criterion_4_fbm_transform_table():
    """Mimicking covariance of fBm at (1, 2): {0, 1, 2^0.75} within 1e-9."""
    cases = {
        0.25: (RateFunction.infinite(), 0.0),
        0.5: (RateFunction.from_callable(lambda t: 0.5 / t), 1.0),
        0.75: (RateFunction.constant(0.0), 2.0**0.75),
    }
    errs = {}
    with Stopwatch(1.0) as watch:
        for hurst, (alpha, expected) in cases.items():
            mimic = mimic_kernel(kernels.fbm(hurst), alpha)
            errs[hurst] = abs(mimic.eval(1.0, 2.0) - expected)
    ok = all(e < 1e-9 for e in errs.values()) and watch.elapsed < 1.0
    detail = ", ".join(f"H={h}: |err| {e:.1e}" for h, e in errs.items())
    verdict(4, ok, detail + ", tol 1e-9, budget 1s", watch)
    assert all(e < 1e-9 for e in errs.values())
    assert watch.elapsed < 1.0


def test_criterion_5_mimicking_invariants():
    """Diagonal preserved exactly, Markov residual < 1e-8, rate recovered to 1e-2."""
    noise = kernels.noise_integral(
        lambda t, u: math.sqrt(t) * math.exp(-t * u / 2.0), (0.0, math.inf)
    )
    cases = [
        ("exponential", kernels.exponential_rate(1.0), RateFunction.constant(1.0),
         np.linspace(0.1, 3.0, 20), 1.0),
        ("noise_integral", noise, RateFunction.constant(0.0),
         np.linspace(0.5, 3.0, 20), 0.0),
        ("fbm_log", kernels.fbm_log(0.75), RateFunction.constant(0.0),
         np.linspace(0.0, 2.0, 20), 0.0),
    ]
    hs = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]
    failures = []
    with Stopwatch(30.0) as watch:
        for name, kern, alpha, times, alpha_value in cases:
            mimic = mimic_kernel(kern, alpha)
            if any(mimic.eval(t, t) != kern.eval(t, t) for t in times):
                failures.append(f"{name}: diagonal not exact")
            residual = markov_check(joint_law(mimic, times[::3])).max_residual
            if residual >= 1e-8:
                failures.append(f"{name}: residual {residual:.2e}")
            worst = max(
                abs(estimate_alpha(mimic, float(t), hs).value - alpha_value)
                for t in times
            )
            if worst >= 1e-2:
                failures.append(f"{name}: rate error {worst:.2e}")
    ok = not failures and watch.elapsed < 30.0
    verdict(5, ok, "; ".join(failures) or "all three kernels", watch)
    assert not failures
    assert watch.elapsed < 30.0


def test_criterion_6_sde_route_equals_gaussian_route():
    """Euler-Maruyama and exact transitions agree on [0, 5] at step 1e-3."""
    step = 1e-3
    with Stopwatch(300.0) as watch:
        report = figure_comparison(
            kernels.exponential_rate(1.0),
            RateFunction.constant(1.0),
            np.linspace(0.0, 5.0, 6),
            n_paths=10**5,
            seed=606,
            step=step,
        )
        se = np.sqrt(report.sde_moments.cov_se**2 + report.gauss_moments.cov_se**2)
        gap_routes = np.abs(report.sde_moments.law.cov - report.gauss_moments.law.cov)
        gap_sde = np.abs(report.sde_moments.law.cov - report.analytic.cov)
        gap_gauss = np.abs(report.gauss_moments.law.cov - report.analytic.cov)
        ok_routes = bool(np.all(gap_routes < 3 * se + 2 * step))
        ok_sde = bool(np.all(gap_sde < 3 * report.sde_moments.cov_se + 2 * step))
        ok_gauss = bool(np.all(gap_gauss < 3 * report.gauss_moments.cov_se + 2 * step))
    ok = ok_routes and ok_sde and ok_gauss and watch.elapsed < 300.0
    verdict(
        6, ok,
        f"max route gap {float(np.max(gap_routes)):.2e}, "
        f"sde vs analytic {float(np.max(gap_sde)):.2e}, budget 300s",
        watch,
    )
    assert ok_routes and ok_sde and ok_gauss
    assert watch.elapsed < 300.0


def test_criterion_7_counterexample_witnesses():
    """Witness inequalities to depth 4 plus decay-rate targets {0.25, 1, 4}.

    Known failure: depths 3 and 4 are unreachable (the search budget is
    exhausted after n_6); the inequalities hold at every completed depth
    and all witness targets are realized.
    """
    config = WeierstrassConfig(a=0.5, b=3.0, k_cut=60, i_max=4)
    targets = [0.25, 1.0, 4.0]
    with Stopwatch(120.0) as watch:
        budget_error = None
        try:
            witness = spectral.weierstrass_indices(config)
            indices = witness.indices
            windows = witness.windows
        except BudgetExceededError as err:
            budget_error = err
            indices = tuple(err.indices)
            windows = tuple(err.windows)
        witness = WitnessIndices(
            indices=indices, windows=windows, complete=budget_error is None,
            config=config,
        )
        measure = spectral.measure_from_windows(config, windows)

        tail_tol = 1e-6
        inequality_status = {}
        for i in range(config.i_max + 1):
            odd, even = 2 * i + 1, 2 * (i + 1)
            if odd < len(indices):
                val = spectral.piecewise_f(config, witness, indices[odd] - 1)
                inequality_status[f"f(n_{odd}-1)>{i}"] = val > i
            else:
                inequality_status[f"f(n_{odd}-1)>{i}"] = False
            if i >= 1:
                if even < len(indices):
                    val = spectral.piecewise_f(config, witness, indices[even] - 1)
                    inequality_status[f"f(n_{even}-1)<1/{i}"] = val < 1.0 / i + tail_tol
                else:
                    inequality_status[f"f(n_{even}-1)<1/{i}"] = False

        results = spectral.cluster_witnesses(measure, targets, tol_factor=1e-2)
        witnesses_ok = all(r.found for r in results.values())

    missing = [k for k, v in inequality_status.items() if not v]
    ok = not missing and witnesses_ok and watch.elapsed < 120.0
    verdict(
        7, ok,
        f"indices {list(indices)}, "
        f"inequalities failed: {missing or 'none'}, "
        f"witness targets found: {witnesses_ok}, budget 120s",
        watch,
    )
    assert witnesses_ok
    assert watch.elapsed < 120.0
    assert not missing, f"witness inequalities unreachable within budget: {missing}"


def test_criterion_8_tightness_bound():
    """Made-Markov correlation ratios stay bounded down to mesh 2^-12."""
    with Stopwatch(10.0) as watch:
        parts = [Partition.dyadic(0.0, 1.0, k) for k in range(3, 13)]
        report = tightness_bound_check(
            kernels.fbm_log(0.75), RateFunction.constant(0.0), 0.0, 1.0, parts
        )
    ok = report.passed and watch.elapsed < 10.0
    verdict(
        8, ok,
        f"M_empirical {report.m_empirical:.4f}, "
        f"per-partition maxima decreasing: "
        f"{report.per_partition[0]:.3f} -> {report.per_partition[-1]:.3f}, budget 10s",
        watch,
    )
    assert report.passed
    assert watch.elapsed < 10.0
