import math
import os
import subprocess
import sys
import time
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
        bad = Kernel(eval=lambda s, t: 1.0 if s == t else -1.0, name="bad")
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
            for _ in range(1000):
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


class TestTransformKernel:
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
        with pytest.raises(InvalidInputError, match=r"\[0\.0, 1\.0\]"):
            kern.eval(1.0, 2.0)
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
#: given by its scalar eval alone, which gets the default elementwise cov
#: (the path noise_integral takes, whose quadrature is too slow to sweep).
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
    "transformed": (lambda: transform_kernel(
        kernels.fbm_log(0.75), lambda t: t**0.75, lambda t: 0.5 * math.log(t),
        domain=(0.0, math.inf)), 0.1, 4.0),
    "mimic": (lambda: mimic_kernel(
        kernels.fbm(0.6), RateFunction.from_callable(lambda t: 0.5 / t)), 0.1, 4.0),
    "mimic_inf": (lambda: mimic_kernel(kernels.fbm(0.6), RateFunction.infinite()), 0.1, 4.0),
    "matrix": (lambda: kernels.matrix_kernel(*_matrix_table()), 0.0, 3.0),
    "scalar_only": (lambda: Kernel(eval=lambda s, t: math.exp(-(t - s) ** 2) / (1.0 + s * t),
                                   domain=(0.0, math.inf)), 0.0, 3.0),
}


@pytest.mark.parametrize("family", sorted(GRAM_FAMILIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gram_matches_scalar_eval_and_is_symmetric(family, data):
    make, lo, hi = GRAM_FAMILIES[family]
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
