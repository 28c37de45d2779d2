import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from gaussmarkov import kernels
from gaussmarkov.errors import InvalidInputError, InvalidRateError, SingularMarginalError
from gaussmarkov.gaussian import GaussianVector, TransportPlan, gaussian_distance, markov_check
from gaussmarkov.kernels import Kernel, RateFunction, estimate_alpha
from gaussmarkov.transform import (
    MAX_PARTITION_INTERVALS,
    AdmissibleSequence,
    Partition,
    _made_markov_laws,
    global_convergence_experiment,
    joint_law,
    local_convergence_experiment,
    made_markov_law,
    made_markov_law_by_blocks,
    mimic_kernel,
    pair_law,
    partition_law,
    rate_kernel,
    tightness_bound_check,
)

from oracles import global_convergence_rows


def fbm_cov(h, s, t):
    return 0.5 * (abs(t) ** (2 * h) + abs(s) ** (2 * h) - abs(t - s) ** (2 * h))


class TestPartition:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Partition(points=[0.0])
        with pytest.raises(InvalidInputError):
            Partition(points=[0.0, 0.0, 1.0])

    @pytest.mark.parametrize("points,message", [
        ([], "grid must contain at least one time"),
        ([0.0], "a partition needs at least two points"),
        ([0.0, 0.0, 1.0], "grid must be strictly increasing"),
        ([0.0, math.nan], "grid must be strictly increasing"),
    ])
    def test_bad_points_are_named(self, points, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            Partition(points=points)

    def test_mesh(self):
        part = Partition(points=[0.0, 0.25, 1.0])
        assert part.mesh == 0.75
        assert Partition.dyadic(0.0, 1.0, 3).mesh == pytest.approx(0.125)


class TestAdmissibleSequence:
    def test_time_sets(self):
        adm = AdmissibleSequence.geometric(2, ratio=0.5, first_step=1.0)
        r2 = adm.time_set(2)
        assert r2[0] == -2.0 and r2[-1] == 2.0
        assert np.max(np.diff(r2)) == pytest.approx(0.25)

    def test_rejects_growing_steps(self):
        with pytest.raises(InvalidInputError):
            AdmissibleSequence(steps=(1.0, 2.0), halfwidths=(1.0, 2.0))

    def test_from_steps(self):
        adm = AdmissibleSequence.from_steps([0.5, 0.25, 0.125])
        assert np.max(np.diff(adm.time_set(3))) == pytest.approx(0.125)

    @pytest.mark.parametrize("steps,halfwidths", [
        ([0.5, math.nan], None),
        ([math.inf, 0.5], None),
        ([0.5, 0.25], [1.0, math.nan]),
        ([0.5, 0.25], [1.0, math.inf]),
        ([0.5, 0.0], None),
    ])
    def test_rejects_nonfinite_or_nonpositive(self, steps, halfwidths):
        with pytest.raises(InvalidInputError, match="positive and finite"):
            AdmissibleSequence.from_steps(steps, halfwidths)

    # every given set is checked, not only the first four
    @pytest.mark.parametrize("steps,halfwidths,message", [
        ([0.5, 0.25, 0.125, 0.0625, math.nan], None, "positive and finite"),
        ([0.5, 0.25, 0.125, 0.0625, 0.5], None, "steps must decrease"),
        ([0.5, 0.25, 0.125, 0.0625, 0.03125], [1.0, 2.0, 3.0, 4.0, 3.5], "must not shrink"),
    ], ids=["nan-fifth-step", "rising-fifth-step", "shrinking-fifth-halfwidth"])
    def test_checks_every_set(self, steps, halfwidths, message):
        with pytest.raises(InvalidInputError, match=message):
            AdmissibleSequence.from_steps(steps, halfwidths)

    # 2 floor(w / step) + 1 points, as time_set builds them, to four digits; inf when
    # w / step overflows
    @pytest.mark.parametrize("steps,halfwidths,count", [
        ([1.0], [8388608.0], r"1\.678e\+07"),
        ([0.5, 5e-324], None, "inf"),
    ], ids=["one-past-the-cap", "subnormal-step"])
    def test_sets_above_the_cap_are_refused(self, steps, halfwidths, count):
        n = len(steps)
        with pytest.raises(InvalidInputError,
                           match=f"^time set R_{n} of {count} points, above the cap of 16777216$"):
            AdmissibleSequence.from_steps(steps, halfwidths)

    def test_set_at_the_cap_is_kept(self):
        # floor(8388607.75) = 8388607: 16777215 points, one below the cap
        adm = AdmissibleSequence.from_steps([1.0], [8388607.75])
        assert adm.halfwidths == (8388607.75,)

    def test_is_a_checked_pair_of_tuples(self):
        adm = AdmissibleSequence.geometric(3)
        assert adm == AdmissibleSequence(steps=[0.5, 0.25, 0.125], halfwidths=[1, 2, 3])
        assert adm.steps == (0.5, 0.25, 0.125) and adm.halfwidths == (1.0, 2.0, 3.0)
        with pytest.raises(InvalidInputError, match="steps must decrease"):
            AdmissibleSequence(steps=(0.5, 0.25, 0.125, 0.0625, 0.5), halfwidths=(1, 2, 3, 4, 5))

    # ``geometric`` stops at the first step that is not positive and finite and
    # leaves its naming to the constructor.
    @pytest.mark.parametrize("first_step,shown", [
        (math.inf, "inf"), (math.nan, "nan"), (0.0, "0.0"), (-1.0, "-0.5"),
    ])
    def test_geometric_names_a_bad_first_step(self, first_step, shown):
        with pytest.raises(InvalidInputError,
                           match=f"^step 1 must be positive and finite, got {shown}$"):
            AdmissibleSequence.geometric(3, first_step=first_step)

    # Sets past the last used to repeat it; ``sets`` raises before it yields any.
    @pytest.mark.parametrize("ask,message", [
        (lambda adm: adm.time_set(4), "set index n must be at most 3, got 4"),
        (lambda adm: adm.time_set(0), "set index n must be at least 1, got 0"),
        (lambda adm: adm.sets(4), "n_max must be at most 3, got 4"),
    ], ids=["time-set-past-last", "time-set-zero", "sets-past-last"])
    def test_no_set_past_the_last(self, ask, message):
        adm = AdmissibleSequence.from_steps([0.5, 0.25, 0.125])
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            ask(adm)


class TestRateKernel:
    def test_zero_rate_is_constant(self):
        kern = rate_kernel(RateFunction.constant(0.0))
        for s, t in [(0.0, 1.0), (-3.0, 7.0)]:
            assert kern.eval(s, t) == 1.0

    def test_constant_rate_closed_form(self):
        kern = rate_kernel(RateFunction.constant(2.0))
        assert kern.eval(0.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_linear_rate_closed_form(self):
        kern = rate_kernel(RateFunction.from_callable(lambda t: t), domain=(0.0, 2.0))
        assert kern.eval(0.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_negative_rate_rejected(self):
        kern = rate_kernel(RateFunction.from_callable(lambda t: -1.0))
        with pytest.raises(InvalidRateError):
            kern.eval(0.0, 1.0)

    def test_diagonal_integrates_nothing(self):
        # std and variance are exp(0) = 1 without querying the antiderivative
        calls = []
        kern = rate_kernel(RateFunction.from_callable(lambda t: calls.append(t) or 1.0 + t))
        assert kern.std(0.3) == 1.0
        assert kern.variance(2.0) == 1.0
        assert kern.cov(0.7, 0.7) == 1.0
        assert calls == []
        # equal arrays take the integral path, whose diagonal is exp(-0) = 1
        assert kern.cov(np.array([0.3, 2.0]), np.array([0.3, 2.0])).tolist() == [1.0, 1.0]

    def test_infinite_rate_is_white_noise(self):
        kern = rate_kernel(RateFunction.infinite())
        assert kern.eval(0.0, 0.0) == 1.0
        assert kern.eval(0.0, 1e-9) == 0.0

    def test_markov_to_machine_precision(self):
        kern = rate_kernel(RateFunction.from_callable(lambda t: t * t + 0.5), domain=(0.0, 3.0))
        law = joint_law(kern, np.linspace(0.1, 2.9, 6))
        assert markov_check(law).max_residual < 1e-14


class TestPartitionLaw:
    def test_markov_kernel_invariance(self):
        kern = kernels.exponential_rate(1.0)
        target = kern.eval(0.0, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            interior = np.sort(rng.uniform(0.0, 1.0, size=int(rng.integers(1, 8))))
            interior = interior[(interior > 1e-9) & (interior < 1 - 1e-9)]
            pts = np.unique(np.concatenate([[0.0], interior, [1.0]]))
            plan = partition_law(kern, Partition(points=pts))
            assert plan.cross[0, 0] == pytest.approx(target, abs=1e-12)

    def test_constant_kernel_correlation_one(self):
        plan = partition_law(kernels.constant(), Partition.uniform(0.0, 1.0, 13))
        assert plan.cross[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_fbm_correlation_product(self):
        h = 0.75
        kern = kernels.fbm(h)
        plan = partition_law(kern, Partition(points=[1.0, 1.5, 2.0]))
        c = lambda s, t: fbm_cov(h, s, t) / math.sqrt(fbm_cov(h, s, s) * fbm_cov(h, t, t))
        expected = c(1.0, 1.5) * c(1.5, 2.0)
        corr = plan.cross[0, 0] / math.sqrt(plan.cov_left[0, 0] * plan.cov_right[0, 0])
        assert corr == pytest.approx(expected, abs=1e-12)

    def test_correlation_product_identity_random(self):
        kern = kernels.fbm_log(0.65)
        rng = np.random.default_rng(8)
        for _ in range(20):
            pts = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(0, 2, 6)), [2.0]]))
            plan = partition_law(kern, Partition(points=pts))
            explicit = np.prod(
                [kern.eval(a, b) for a, b in zip(pts[:-1], pts[1:])]
            )  # unit variances
            assert plan.cross[0, 0] == pytest.approx(explicit, abs=1e-12)

    def test_marginals_preserved(self):
        kern = kernels.fbm(0.6)
        plan = partition_law(kern, Partition.uniform(1.0, 2.0, 9))
        assert plan.cov_left[0, 0] == pytest.approx(fbm_cov(0.6, 1, 1), rel=1e-14)
        assert plan.cov_right[0, 0] == pytest.approx(fbm_cov(0.6, 2, 2), rel=1e-14)

    def test_checked_once(self, monkeypatch):
        # the chain checks every pair; the law skips GaussianVector's re-checks
        def refuse(self):
            raise AssertionError("GaussianVector.__post_init__ called")

        monkeypatch.setattr(GaussianVector, "__post_init__", refuse)
        plan = partition_law(kernels.fbm(0.6), Partition.uniform(1.0, 2.0, 9))
        assert plan.joint.times.tolist() == [1.0, 2.0]
        assert pair_law(kernels.fbm_log(0.3), 0.0, 1.0).joint.dim == 2

    def test_same_law_as_from_blocks(self):
        kern = Kernel(mean=lambda t: 0.5 * t, cov=kernels.fbm(0.7).cov, domain=(0.0, math.inf))
        plan = partition_law(kern, Partition.uniform(0.5, 1.5, 7))
        ref = TransportPlan.from_blocks(
            plan.cov_left, plan.cross, plan.cov_right,
            [kern.mean(0.5)], [kern.mean(1.5)], [0.5, 1.5],
        )
        for name in ("times", "mean", "cov"):
            assert getattr(plan.joint, name).tobytes() == getattr(ref.joint, name).tobytes()


class TestMadeMarkovLaw:
    def test_markov_kernel_unchanged(self):
        kern = kernels.exponential_rate(1.0)
        grid = [0.0, 1.0, 2.0]
        law = made_markov_law(kern, [0.25, 0.5, 1.5], grid)
        np.testing.assert_allclose(law.cov, kernels.gram(kern, grid), atol=1e-12)

    def test_empty_split_set(self):
        kern = kernels.fbm(0.75)
        grid = [1.0, 2.0, 3.0]
        law = made_markov_law(kern, [], grid)
        np.testing.assert_allclose(law.cov, kernels.gram(kern, grid), atol=0)

    def test_single_split_direct_arithmetic(self):
        h = 0.75
        kern = kernels.fbm(h)
        law = made_markov_law(kern, [1.5], [1.0, 2.0])
        expected = fbm_cov(h, 1, 1.5) * fbm_cov(h, 1.5, 2) / fbm_cov(h, 1.5, 1.5)
        assert law.cov[0, 1] == pytest.approx(expected, rel=1e-14)

    def test_splits_outside_query_range_ignored(self):
        kern = kernels.fbm(0.4)
        a = made_markov_law(kern, [0.5, 5.0], [1.0, 2.0, 3.0])
        b = made_markov_law(kern, [], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(a.cov, b.cov, atol=0)

    def test_matches_block_concatenation_path(self):
        rng = np.random.default_rng(13)
        kern = kernels.fbm_log(0.8)
        for _ in range(15):
            queries = np.unique(np.sort(rng.uniform(0.0, 4.0, size=4)))
            if queries.size < 2:
                continue
            splits = np.sort(rng.uniform(0.0, 4.0, size=int(rng.integers(1, 5))))
            fast = made_markov_law(kern, splits, queries)
            slow = made_markov_law_by_blocks(kern, splits, queries)
            assert gaussian_distance(fast, slow) < 1e-12

    def test_split_coinciding_with_query_time(self):
        kern = kernels.fbm(0.6)
        queries = [0.5, 1.0, 2.0]
        fast = made_markov_law(kern, [1.0, 1.5], queries)
        slow = made_markov_law_by_blocks(kern, [1.0, 1.5], queries)
        assert gaussian_distance(fast, slow) < 1e-12
        # variance at the split point itself is untouched
        assert fast.cov[1, 1] == kern.eval(1.0, 1.0)

    def test_two_queries_equal_partition_law(self):
        kern = kernels.fbm(0.75)
        splits = [1.2, 1.5, 1.8]
        law = made_markov_law(kern, splits, [1.0, 2.0])
        plan = partition_law(kern, Partition(points=[1.0, 1.2, 1.5, 1.8, 2.0]))
        assert law.cov[0, 1] == pytest.approx(plan.cross[0, 0], abs=1e-12)

    def test_memory_is_queries_squared_plus_splits(self):
        # O(q^2 + m): about six arrays of the m splits, while a q x m table
        # of running products alone would take 76 MiB here.
        rng = np.random.default_rng(5)
        queries = np.sort(rng.uniform(1.0, 2.0, 50))
        splits = np.sort(rng.uniform(1.0, 2.0, 200_000))
        tracemalloc.start()
        try:
            made_markov_law(kernels.fbm(0.7), splits, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.6 * 2**20

    def test_sweep_memory_is_one_law(self):
        # the sweep holds one set's splits at a time
        rng = np.random.default_rng(5)
        queries = np.sort(rng.uniform(1.0, 2.0, 50))
        sets = [np.sort(rng.uniform(1.0, 2.0, 200_000)) for _ in range(6)]
        kern = kernels.fbm(0.7)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: made_markov_law(kern, sets[0], queries))
        sweep = peak(lambda: [law.cov[0, -1] for law in _made_markov_laws(kern, sets, queries)])
        assert sweep <= 1.05 * one

    def test_nan_split_is_outside_the_domain(self):
        with pytest.raises(InvalidInputError, match="time nan outside domain"):
            made_markov_law(kernels.fbm(0.75), [0.3, math.nan, math.nan], [0.1, 0.5, 0.9])

    @pytest.mark.parametrize("splits", [[0.3, math.nan, math.nan], [math.nan], [0.95, math.nan]])
    def test_blocks_reject_a_nan_split_as_made_markov_law_does(self, splits):
        kern = kernels.fbm(0.75)
        for build in (made_markov_law, made_markov_law_by_blocks):
            with pytest.raises(InvalidInputError, match="time nan outside domain"):
                build(kern, splits, [0.1, 0.5, 0.9])


class TestMimicKernel:
    def test_rate_kernel_fixed_point(self):
        alpha = RateFunction.constant(1.3)
        kern = rate_kernel(alpha)
        mimic = mimic_kernel(kern, alpha)
        for s, t in [(0.0, 1.0), (-2.0, 0.5)]:
            assert mimic.eval(s, t) == pytest.approx(kern.eval(s, t), rel=1e-12)

    def test_noise_integral_becomes_constant(self):
        kern = kernels.noise_integral(
            lambda t, u: math.sqrt(t) * math.exp(-t * u / 2.0), (0.0, math.inf)
        )
        mimic = mimic_kernel(kern, RateFunction.constant(0.0))
        for s, t in [(0.5, 1.0), (1.0, 3.0), (2.0, 2.0)]:
            assert mimic.eval(s, t) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "hurst,expected",
        [
            (0.25, 0.0),          # rough case: independent coordinates
            (0.5, 1.0),           # Brownian case: min(s, t)
            (0.75, 2.0**0.75),    # smooth case: (s t)^H
        ],
    )
    def test_fbm_table_at_one_two(self, hurst, expected):
        kern = kernels.fbm(hurst)
        if hurst < 0.5:
            alpha = RateFunction.infinite()
        else:
            beta = 1.0 if hurst == 0.5 else 0.0
            alpha = RateFunction.from_callable(lambda t, b=beta: b / (2.0 * t))
        mimic = mimic_kernel(kern, alpha)
        assert mimic.eval(1.0, 2.0) == pytest.approx(expected, abs=1e-9)

    def test_fbm_piecewise_formula_on_grid(self):
        for hurst in (0.25, 0.5, 0.75):
            kern = kernels.fbm(hurst)
            if hurst < 0.5:
                alpha = RateFunction.infinite()
            else:
                beta = 1.0 if hurst == 0.5 else 0.0
                alpha = RateFunction.from_callable(lambda t, b=beta: b / (2.0 * t))
            mimic = mimic_kernel(kern, alpha)
            for s in (0.5, 1.0, 2.0):
                for t in (0.5, 1.5, 3.0):
                    if hurst < 0.5:
                        expected = (s * t) ** hurst if s == t else 0.0
                    elif hurst == 0.5:
                        expected = min(s, t)
                    else:
                        expected = (s * t) ** hurst
                    assert mimic.eval(s, t) == pytest.approx(expected, abs=1e-9)

    def test_diagonal_preserved_exactly(self):
        kern = kernels.fbm(0.3)
        mimic = mimic_kernel(kern, RateFunction.constant(0.7))
        for t in np.linspace(0.2, 5.0, 20):
            assert mimic.eval(t, t) == kern.eval(t, t)

    def test_output_is_markov(self):
        kern = kernels.fbm(0.75)
        alpha = RateFunction.from_callable(lambda t: 1.0 / t)
        mimic = mimic_kernel(kern, alpha)
        law = joint_law(mimic, np.linspace(0.5, 4.0, 7))
        assert markov_check(law).max_residual < 1e-8

    def test_alpha_recovered(self):
        alpha_value = 0.8
        kern = rate_kernel(RateFunction.constant(alpha_value))
        mimic = mimic_kernel(kern, RateFunction.constant(alpha_value))
        hs = [10.0**-k for k in range(2, 6)]
        for t in np.linspace(-2.0, 2.0, 20):
            est = estimate_alpha(mimic, float(t), hs)
            assert est.converged
            assert est.value == pytest.approx(alpha_value, abs=1e-2)

    def test_infinite_rate_gives_diagonal(self):
        kern = kernels.fbm(0.25)
        mimic = mimic_kernel(kern, RateFunction.infinite())
        assert mimic.eval(1.0, 1.0) == kern.eval(1.0, 1.0)
        assert mimic.eval(1.0, 2.0) == 0.0

    @pytest.mark.parametrize("make,grid", [
        (lambda: kernels.fbm(0.25), np.linspace(0.0, 2.0, 5)),
        (lambda: kernels.fbm(0.75), np.linspace(0.5, 3.0, 7)),
        (lambda: kernels.fbm_log(0.3), np.linspace(-1.0, 1.0, 6)),
        (lambda: kernels.exponential_rate(0.5), np.linspace(-2.0, 2.0, 5)),
        (lambda: kernels.transform_kernel(kernels.fbm(0.5), lambda t: 2.0 + t, lambda t: t),
         np.linspace(0.0, 3.0, 4)),
        (lambda: kernels.matrix_kernel([0.0, 1.0, 2.0], [[2, 1, 0], [1, 3, 1], [0, 1, 0.5]]),
         [0.0, 1.0, 2.0]),
    ], ids=["fbm-rough", "fbm-smooth", "fbm_log", "exponential", "transformed", "matrix"])
    def test_infinite_rate_gram_is_the_variance_diagonal(self, make, grid):
        kern = make()
        mimic = mimic_kernel(kern, RateFunction.infinite())
        expected = np.diag([kern.variance(float(t)) for t in grid])
        np.testing.assert_array_equal(kernels.gram(mimic, grid), expected)

    # fbm has zero variance at t = 0: every rate gives it zero covariance.
    @pytest.mark.parametrize("alpha", [
        RateFunction.constant(0.0), RateFunction.constant(0.7), RateFunction.infinite(),
    ], ids=["0", "0.7", "inf"])
    def test_zero_variance_point_has_zero_covariance(self, alpha):
        kern = kernels.fbm(0.25)
        mimic = mimic_kernel(kern, alpha)
        grid = np.linspace(0.0, 2.0, 5)
        mat = kernels.gram(mimic, grid)
        assert not mat[0].any() and not mat[:, 0].any()
        np.testing.assert_array_equal(np.diag(mat), [kern.variance(t) for t in grid])
        assert [mimic.eval(0.0, t) for t in grid] == [0.0] * 5

    @pytest.mark.parametrize("alpha", [RateFunction.constant(0.7), RateFunction.infinite()],
                             ids=["0.7", "inf"])
    def test_negative_variance_is_singular(self, alpha):
        kern = kernels.matrix_kernel([0.0, 1.0, 2.0], [[1, 0, 0], [0, -0.5, 0], [0, 0, 1]])
        mimic = mimic_kernel(kern, alpha)
        with pytest.raises(SingularMarginalError, match=r"negative variance -0\.5 at t=1\.0"):
            kernels.gram(mimic, [0.0, 1.0, 2.0])
        with pytest.raises(SingularMarginalError, match=r"at t=1\.0"):
            mimic.eval(0.0, 1.0)


class TestLocalConvergence:
    def test_markov_kernel_distance_zero(self):
        kern = kernels.exponential_rate(1.0)
        parts = [Partition.dyadic(0.0, 1.0, k) for k in range(1, 6)]
        rows = local_convergence_experiment(kern, kern, 0.0, 1.0, parts)
        assert all(r.distance < 1e-12 for r in rows)
        assert all(a.index > b.index for a, b in zip(rows, rows[1:]))

    def test_fbm_log_toward_constant(self):
        kern = kernels.fbm_log(0.75)
        target = rate_kernel(RateFunction.constant(0.0))
        parts = [Partition.dyadic(0.0, 1.0, k) for k in range(3, 13)]
        rows = local_convergence_experiment(kern, target, 0.0, 1.0, parts)
        distances = [r.distance for r in rows]
        assert all(a > b for a, b in zip(distances, distances[1:]))
        assert distances[-1] < distances[0] / 5

    def test_smooth_stationary_limit_below_tol_by_fine_mesh(self):
        # kernels whose decay rate converges at speed O(h) are within 1e-3
        # of their limit law by mesh 1e-4; rougher profiles (H != 1/2
        # log-time kernels) converge like sqrt(mesh) and need finer meshes
        from gaussmarkov.spectral import SpectralMeasure, kernel_from_spectral

        cosine = kernel_from_spectral(SpectralMeasure(atoms=((0.5, 1.0),)))
        cases = [
            (cosine, rate_kernel(RateFunction.constant(0.0))),
            (kernels.fbm_log(0.5), rate_kernel(RateFunction.constant(1.0))),
        ]
        meshes = [1e-2, 1e-3, 1e-4]
        for kern, target in cases:
            parts = [
                Partition.uniform(0.0, 1.0, round(1.0 / m)) for m in meshes
            ]
            rows = local_convergence_experiment(kern, target, 0.0, 1.0, parts)
            dists = [r.distance for r in rows]
            noise_floor = 1e-10
            assert all(
                a >= b or max(a, b) < noise_floor for a, b in zip(dists, dists[1:])
            )
            assert dists[-1] < 1e-3

    def test_rows_carry_correlations(self):
        kern = kernels.fbm_log(0.5)  # exactly exponential
        target = rate_kernel(RateFunction.constant(1.0))
        rows = local_convergence_experiment(
            kern, target, 0.0, 1.0, [Partition.dyadic(0.0, 1.0, 4)]
        )
        assert rows[0].correlation == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert rows[0].target_correlation == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert rows[0].distance < 1e-12


class TestConvergenceOrder:
    """Partition-law correlation of ``fbm_log(H)`` on [0, 1] at meshes 2^-8 .. 2^-18.

    ``1 - Ktilde(h) ~ (2h)^{2H} / 2``: for H > 1/2 the error from the limit 1
    falls like mesh^{2H - 1}, for H < 1/2 faster than any power toward 0, and
    at H = 1/2 the kernel is Markov, so only rounding is left.  This is why
    criterion 3 fails at its fixed mesh 2^-12 for H = 0.75 (2.159e-2).
    """

    LEVELS = range(8, 19)

    def errors(self, hurst, limit):
        kern = kernels.fbm_log(hurst)
        return [abs(float(partition_law(kern, Partition.dyadic(0.0, 1.0, k)).cross[0, 0]) - limit)
                for k in self.LEVELS]

    @pytest.mark.parametrize("hurst,first,last", [(0.6, 0.1635, 0.1900), (0.75, 0.4613, 0.4982),
                                                  (0.9, 0.7156, 0.7820)])
    def test_order_rises_toward_2h_minus_1(self, hurst, first, last):
        errs = self.errors(hurst, 1.0)
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(a < b for a, b in zip(orders, orders[1:])), orders
        assert orders[-1] < 2 * hurst - 1
        assert orders[0] == pytest.approx(first, abs=1e-3)
        assert orders[-1] == pytest.approx(last, abs=1e-3)

    def test_rough_kernel_decorrelates_faster_than_any_power(self):
        errs = self.errors(0.3, 0.0)
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(a < b for a, b in zip(orders, orders[1:])), orders
        assert errs[-1] == pytest.approx(3.945e-49, rel=1e-3)

    def test_markov_kernel_is_exact_to_rounding(self):
        # the running product rounds once or twice a step: at most 2^k eps at mesh 2^-k
        errs = self.errors(0.5, math.exp(-1.0))
        eps = np.finfo(float).eps
        assert all(e <= 2.0**k * eps for k, e in zip(self.LEVELS, errs)), errs
        assert max(errs) < 4e-12


class TestGlobalConvergence:
    def test_markov_kernel_all_small(self):
        kern = kernels.exponential_rate(1.0)
        adm = AdmissibleSequence.geometric(5)
        rows = global_convergence_experiment(kern, kern, adm, [0.0, 0.7, 1.5], 5)
        assert all(r.distance < 1e-10 for r in rows)

    @pytest.mark.parametrize("case", ["benchmark", "fbm_log_0.75"])
    def test_rows_are_bitwise_the_per_set_oracle(self, case):
        rng = np.random.default_rng(3)
        if case == "benchmark":
            kern, target = kernels.fbm_log(0.5), rate_kernel(RateFunction.constant(1.0))
            adm = AdmissibleSequence.from_steps([2.0**-k for k in range(1, 8)])
            queries, n_max = np.sort(rng.uniform(0.0, 1.0, 5)), 7
        else:
            kern, target = kernels.fbm_log(0.75), rate_kernel(RateFunction.constant(0.0))
            adm = AdmissibleSequence.geometric(9, ratio=0.5, first_step=0.5)
            queries, n_max = np.sort(rng.uniform(-1.0, 2.0, 12)), 9
        rows = global_convergence_experiment(kern, target, adm, queries, n_max)
        assert rows == global_convergence_rows(kern, target, adm, queries, n_max)

    @pytest.mark.parametrize("n_sets", [1, 7])
    def test_benchmark_sweep_takes_two_calls_per_set(self, n_sets):
        # 1 call takes the query variances, 2 per set take its splits
        calls = []
        base = kernels.fbm_log(0.5)

        def cov(s, t):
            calls.append(np.size(s))
            return base.cov(s, t)

        kern = dataclasses.replace(base, cov=cov)
        adm = AdmissibleSequence.from_steps([2.0**-k for k in range(1, 8)])
        queries = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 5))
        if n_sets == 1:
            made_markov_law(kern, adm.time_set(1), queries)
        else:
            global_convergence_experiment(kern, rate_kernel(RateFunction.constant(1.0)), adm,
                                          queries, n_sets)
        assert len(calls) == 1 + 2 * n_sets

    def test_benchmark_sweep_checks_each_domain_once(self, monkeypatch):
        # one check per split set, one for the queries, one for the target's Gram
        calls = []
        check = kernels.Kernel.require_in_domain
        monkeypatch.setattr(kernels.Kernel, "require_in_domain",
                            lambda kern, times: calls.append(np.size(times)) or check(kern, times))
        adm = AdmissibleSequence.from_steps([2.0**-k for k in range(1, 8)])
        queries = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 5))
        global_convergence_experiment(kernels.fbm_log(0.5), rate_kernel(RateFunction.constant(1.0)),
                                      adm, queries, 7)
        assert len(calls) == 7 + 1 + 1

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_fewer_than_one_set_is_rejected(self, n_max):
        kern = kernels.exponential_rate(1.0)
        with pytest.raises(InvalidInputError, match="n_max must be at least 1"):
            global_convergence_experiment(
                kern, kern, AdmissibleSequence.geometric(1), [0.0, 1.0], n_max
            )

    def test_stationary_limit_rate(self):
        kern = kernels.fbm_log(0.75)  # decay rate -> 0
        target = rate_kernel(RateFunction.constant(0.0))
        adm = AdmissibleSequence.geometric(10, ratio=0.5, first_step=0.5)
        rows = global_convergence_experiment(kern, target, adm, [0.0, 1.0], 10)
        distances = [r.distance for r in rows]
        assert distances[-1] < distances[0]
        assert distances[-1] < 0.05

    def test_weierstrass_witness_steps_toward_white_noise(self, partial_witness):
        from gaussmarkov.spectral import kernel_from_spectral, measure_from_windows

        witness = partial_witness
        mu = measure_from_windows(witness.config, witness.windows)
        kern = kernel_from_spectral(mu)
        target = rate_kernel(RateFunction.infinite())
        # lags along the high-rate witness subsequence 1/(n_{2i+1} - 1)
        steps = [1.0 / (witness.indices[1] - 1), 1.0 / (witness.indices[3] - 1),
                 1.0 / (witness.indices[5] - 1)]
        adm = AdmissibleSequence.from_steps(steps, halfwidths=[2.0, 2.0, 2.0])
        rows = global_convergence_experiment(kern, target, adm, [0.0, 1.0], 3)
        distances = [r.distance for r in rows]
        assert distances[0] > distances[-1]
        assert distances[-1] < 0.05


@pytest.mark.parametrize("run", [
    lambda kern: local_convergence_experiment(
        kern, kern, 0.0, 1.0, [Partition.uniform(0.0, 1.0, 2)]
    ),
    lambda kern: global_convergence_experiment(
        kern, kern, AdmissibleSequence.geometric(1), [0.0, 1.0], 1
    ),
], ids=["local", "global"])
def test_zero_variance_target_is_singular(run):
    # fBm has variance 0 at t = 0, where no correlation is defined.
    with pytest.raises(SingularMarginalError, match="nonpositive variance at s=0.0"):
        run(kernels.fbm(0.5))


# No split falls strictly between the queries 1, 2 and 3, so their law is the
# table's own, with eigenvalues 1.9, 1.9 and -0.8; time 0 is there for the split
# that every R_n holds.
_NON_PSD_BLOCK = kernels.matrix_kernel([0.0, 1.0, 2.0, 3.0], [
    [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.9, 0.9], [0.0, 0.9, 1.0, -0.9], [0.0, 0.9, -0.9, 1.0],
])


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("kern,queries,message", [
    pytest.param(_NON_PSD_BLOCK, [1.0, 2.0, 3.0],
                 "covariance not PSD: min eigenvalue -0.8, scale 1.0", id="non-psd-block"),
    # an unsplit pair of consecutive queries is the law's own block
    pytest.param(kernels.matrix_kernel([0.0, 1.0, 2.0], [[1, 0, 0], [0, 1, 2], [0, 2, 1]]),
                 [1.0, 2.0], "covariance not PSD: min eigenvalue -1.0, scale 1.0",
                 id="non-psd-pair"),
    pytest.param(kernels.fbm_log(0.5), [0.0, 1.0, math.inf],
                 "times must be finite, got inf", id="infinite-time"),
    pytest.param(dataclasses.replace(kernels.fbm_log(0.5), mean=lambda t: math.inf), [0.0, 1.0],
                 "mean must be finite, got inf", id="infinite-mean"),
])
def test_made_markov_laws_keep_the_law_checks(kern, queries, message):
    # Every R_n here is {0}, at or before the first query.  The global experiment
    # builds the target's law first, which names an infinite time the same way.
    adm = AdmissibleSequence.from_steps([4.0, 3.5], [3.0, 3.0])
    runs = [
        lambda: made_markov_law(kern, [0.0], queries),
        lambda: list(_made_markov_laws(kern, adm.sets(2), queries)),
        lambda: global_convergence_experiment(kern, kernels.constant(), adm, queries, 2),
    ]
    for run in runs:
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            run()


class TestTightnessBound:
    def test_exponential_about_one(self):
        kern = kernels.exponential_rate(1.0)
        parts = [Partition.dyadic(0.0, 1.0, k) for k in range(2, 9)]
        report = tightness_bound_check(kern, 0.0, 1.0, parts)
        assert report.passed
        assert 0.8 <= report.m_empirical <= 1.05

    def test_constant_kernel_zero(self):
        report = tightness_bound_check(
            kernels.constant(), 0.0, 1.0,
            [Partition.dyadic(0.0, 1.0, 3)],
        )
        assert report.m_empirical == 0.0
        assert report.passed

    def test_fbm_log_bounded(self):
        kern = kernels.fbm_log(0.75)
        parts = [Partition.dyadic(0.0, 1.0, k) for k in range(3, 13)]
        report = tightness_bound_check(kern, 0.0, 1.0, parts)
        assert report.passed
        # ratios shrink with the mesh for a vanishing limit rate
        assert report.per_partition[-1] < report.per_partition[0]


def _cosine():
    from gaussmarkov.spectral import SpectralMeasure, kernel_from_spectral

    return kernel_from_spectral(SpectralMeasure(atoms=((0.5, 1.0),)))  # K(s, t) = cos(t - s)


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: Partition.uniform(0.0, 1.0, 0), InvalidInputError,
                 "need at least one interval", id="uniform-no-interval"),
    pytest.param(lambda: Partition.uniform(0.0, 1.0, MAX_PARTITION_INTERVALS + 1),
                 InvalidInputError, "n_intervals must be at most 16777216, got 16777217",
                 id="uniform-above-cap"),
    pytest.param(lambda: Partition.uniform(0.0, 1.0, True), InvalidInputError,
                 "n_intervals must be an integer, got True", id="uniform-bool"),
    pytest.param(lambda: Partition.uniform(0.0, 1.0, 2.5), InvalidInputError,
                 "n_intervals must be an integer, got 2.5", id="uniform-fraction"),
    pytest.param(lambda: Partition.uniform(0.0, 1.0, math.inf), InvalidInputError,
                 "n_intervals must be at most 16777216, got inf", id="uniform-inf"),
    pytest.param(lambda: Partition.dyadic(0.0, 1.0, True), InvalidInputError,
                 "level must be a nonnegative integer, got True", id="dyadic-bool"),
    pytest.param(lambda: Partition.dyadic(0.0, 1.0, 1.5), InvalidInputError,
                 "level must be a nonnegative integer, got 1.5", id="dyadic-fraction"),
    pytest.param(lambda: Partition.dyadic(0.0, 1.0, math.nan), InvalidInputError,
                 "level must be a nonnegative integer, got nan", id="dyadic-nan"),
    pytest.param(lambda: Partition.dyadic(0.0, 1.0, -1), InvalidInputError,
                 "level must be a nonnegative integer, got -1", id="dyadic-negative"),
    pytest.param(lambda: AdmissibleSequence.geometric(1, ratio=1.0), InvalidInputError,
                 "ratio must be in (0, 1)", id="geometric-ratio"),
    pytest.param(lambda: AdmissibleSequence.geometric(0), InvalidInputError,
                 "n_sets must be at least 1, got 0", id="geometric-no-set"),
    pytest.param(lambda: AdmissibleSequence.geometric(-3), InvalidInputError,
                 "n_sets must be at least 1, got -3", id="geometric-negative"),
    pytest.param(lambda: AdmissibleSequence.geometric(True), InvalidInputError,
                 "n_sets must be an integer, got True", id="geometric-bool"),
    pytest.param(lambda: AdmissibleSequence.geometric(2.5), InvalidInputError,
                 "n_sets must be an integer, got 2.5", id="geometric-fraction"),
    pytest.param(lambda: AdmissibleSequence.geometric(math.inf), InvalidInputError,
                 "n_sets must be an integer, got inf", id="geometric-inf"),
    pytest.param(lambda: AdmissibleSequence.from_steps([0.5, 0.25], [1.0]), InvalidInputError,
                 "need one half-width per step", id="from-steps-halfwidths"),
    pytest.param(lambda: local_convergence_experiment(kernels.fbm(0.5), kernels.fbm(0.5),
                                                      0.0, 1.0, []),
                 InvalidInputError, "need at least one partition", id="local-no-partition"),
    pytest.param(lambda: local_convergence_experiment(kernels.fbm(0.5), kernels.fbm(0.5), 0.0, 1.0,
                                                      [Partition(points=[0.0, 2.0])]),
                 InvalidInputError, "partition [0.0, 2.0] does not span [0.0, 1.0]",
                 id="local-span"),
    pytest.param(lambda: global_convergence_experiment(
        kernels.fbm(0.5), kernels.fbm(0.5), AdmissibleSequence.geometric(1), [1.0], 1),
        InvalidInputError, "need at least two query times", id="global-one-query"),
    pytest.param(lambda: global_convergence_experiment(
        kernels.fbm(0.5), kernels.fbm(0.5), AdmissibleSequence.geometric(1), [0.0, 1.0], True),
        InvalidInputError, "n_max must be an integer, got True", id="global-bool"),
    pytest.param(lambda: global_convergence_experiment(
        kernels.fbm(0.5), kernels.fbm(0.5), AdmissibleSequence.geometric(1), [0.0, 1.0], 1.5),
        InvalidInputError, "n_max must be at most 1, got 1.5", id="global-fraction"),
    pytest.param(lambda: global_convergence_experiment(
        kernels.fbm(0.5), kernels.fbm(0.5), AdmissibleSequence.geometric(1), [0.0, 1.0], math.nan),
        InvalidInputError, "n_max must be at least 1, got nan", id="global-nan"),
    pytest.param(lambda: tightness_bound_check(kernels.fbm(0.5), 0.0, 1.0, []),
                 InvalidInputError, "need at least one partition", id="tightness-no-partition"),
    pytest.param(lambda: tightness_bound_check(kernels.fbm(0.5), math.nan, 1.0,
                                               [Partition(points=[0.0, 1.0])]),
                 InvalidInputError, "need a < b, got [nan, 1.0]", id="tightness-nan-end"),
    pytest.param(lambda: tightness_bound_check(kernels.fbm(0.5), 1.0, 0.0,
                                               [Partition(points=[0.0, 1.0])]),
                 InvalidInputError, "need a < b, got [1.0, 0.0]", id="tightness-reversed"),
    pytest.param(lambda: tightness_bound_check(kernels.fbm(0.5), 0.0, 1.0,
                                               [Partition(points=[0.0, 2.0])]),
                 InvalidInputError, "partition leaves [0.0, 1.0]", id="tightness-range"),
    pytest.param(lambda: tightness_bound_check(_cosine(), 0.0, 4.0,
                                               [Partition(points=[0.0, 2.0, 4.0])]),
                 SingularMarginalError, "nonpositive one-step correlation",
                 id="tightness-negative-correlation"),
])
def test_bad_arguments_are_named(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
