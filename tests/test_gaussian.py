import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussmarkov import gaussian, kernels
from gaussmarkov.errors import (
    ChainMismatchError,
    InvalidInputError,
    NotPsdError,
    SingularMarginalError,
)
from gaussmarkov.gaussian import (
    GaussianVector,
    TransportPlan,
    compose,
    concatenate,
    condition,
    gaussian_distance,
    markov_check,
)
from gaussmarkov.kernels import Kernel, RateFunction
from gaussmarkov.transform import joint_law, mimic_kernel, pair_law


def _law_from_json(text):
    """A law read back from JSON text (as summary.json holds it) through the constructor."""
    d = json.loads(text)
    return GaussianVector(**{k: d[k] for k in ("times", "mean", "cov")})


def scalar_chain(correlations, times=None):
    """Unit-variance 1-d plans with the given one-step correlations."""
    times = np.arange(len(correlations) + 1, dtype=float) if times is None else times
    return [
        TransportPlan.from_blocks(
            [[1.0]], [[rho]], [[1.0]], times=np.array([times[i], times[i + 1]])
        )
        for i, rho in enumerate(correlations)
    ]


def random_plan(rng, left_dim, right_dim, times=None):
    n = left_dim + right_dim
    a = rng.normal(size=(n, n + 2))
    cov = a @ a.T / (n + 2) + 0.5 * np.eye(n)
    joint = GaussianVector(
        times=np.arange(n, dtype=float) if times is None else times,
        mean=rng.normal(size=n),
        cov=cov,
    )
    return TransportPlan(joint=joint, left_dim=left_dim, right_dim=right_dim)


def chained_random_plans(rng, dims):
    """Random plans whose shared marginals match exactly."""
    plans = []
    prev = None
    offset = 0.0
    for left, right in zip(dims, dims[1:]):
        plan = random_plan(
            rng, left, right,
            times=offset + np.arange(left + right, dtype=float),
        )
        if prev is not None:
            # overwrite the left marginal with the previous right marginal
            cov = plan.joint.cov.copy()
            mean = plan.joint.mean.copy()
            cov[:left, :left] = prev.cov_right
            mean[:left] = prev.mean_right
            plan = TransportPlan(
                joint=GaussianVector(
                    times=np.concatenate([prev.times_right, plan.times_right]),
                    mean=mean,
                    cov=_nearest_valid(cov, left),
                ),
                left_dim=left,
                right_dim=right,
            )
        plans.append(plan)
        prev = plan
        offset += left
    return plans


def _nearest_valid(cov, left):
    # shrink the cross block until the joint is PSD
    sym = 0.5 * (cov + cov.T)
    for shrink in (1.0, 0.8, 0.5, 0.25, 0.1):
        trial = sym.copy()
        trial[:left, left:] *= shrink
        trial[left:, :left] *= shrink
        if np.linalg.eigvalsh(trial)[0] > 1e-9:
            return trial
    return np.diag(np.diag(sym))


class TestGaussianVector:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            GaussianVector(times=[0.0, 0.0], mean=[0, 0], cov=np.eye(2))
        with pytest.raises(InvalidInputError):
            GaussianVector(times=[0.0, 1.0], mean=[0, 0], cov=[[1, 0.5], [0.4, 1]])
        with pytest.raises(InvalidInputError):
            GaussianVector(times=[0.0, 1.0], mean=[0, 0], cov=[[1, 2], [2, 1]])

    def test_json_round_trip(self):
        # summary.json holds to_dict(); a law reads back through the constructor
        law = GaussianVector(times=[0.0, 1.0], mean=[0.5, -1.0], cov=[[2, 1], [1, 2]])
        again = _law_from_json(json.dumps(law.to_dict()))
        assert gaussian_distance(law, again) == 0.0

    @pytest.mark.parametrize("build", ["init", "from_json"])
    @pytest.mark.parametrize("field,value", [
        ("cov", [[1.0, math.nan], [math.nan, 1.0]]),
        ("cov", [[1.0, math.inf], [math.inf, 1.0]]),
        ("cov", [[1.0, -math.inf], [-math.inf, 1.0]]),
        ("cov", [[math.nan, 0.0], [0.0, 1.0]]),
        ("cov", [[math.inf, 0.0], [0.0, 1.0]]),
        ("mean", [math.nan, 0.0]),
        ("mean", [0.0, -math.inf]),
        ("times", [0.0, math.inf]),
        ("times", [-math.inf, 0.0]),
    ])
    def test_non_finite_law_is_rejected(self, build, field, value):
        data = {"times": [0.0, 1.0], "mean": [0.0, 0.0], "cov": [[1.0, 0.5], [0.5, 1.0]]}
        data[field] = value
        with pytest.raises(InvalidInputError, match=f"^{field} must be finite, got"):
            if build == "init":
                GaussianVector(**data)
            else:
                _law_from_json(json.dumps(data))

    @pytest.mark.parametrize("build", ["init", "from_json"])
    @pytest.mark.parametrize("cov,top", [
        ([[1e308, 5e307], [5e307, 1e308]], "1e+308"),
        ([[1.0, -1e308], [-1e308, 1.0]], "1e+308"),
        ([[1.0, 0.0], [0.0, np.nextafter(kernels._HALF_MAX, np.inf)]], "8.98846567431158e+307"),
    ])
    def test_cov_too_large_to_symmetrize_is_rejected(self, build, cov, top):
        # 0.5 * (cov + cov.T) would store inf where cov + cov.T overflows
        data = {"times": [0.0, 1.0], "mean": [0.0, 0.0], "cov": cov}
        with pytest.raises(InvalidInputError,
                           match=f"^cov entries too large to check, up to {re.escape(top)}$"):
            if build == "init":
                GaussianVector(**data)
            else:
                _law_from_json(json.dumps(data))

    def test_cov_up_to_half_max_keeps_its_bits(self):
        half = kernels._HALF_MAX
        cov = np.array([[half, 0.5 * half], [0.5 * half, half]])
        assert np.array_equal(GaussianVector(times=[0.0, 1.0], mean=[0.0, 0.0], cov=cov).cov, cov)

    @pytest.mark.parametrize("times,message", [
        ([], "grid must contain at least one time"),
        ([1.0, 0.0], "grid must be strictly increasing"),
        ([0.0, math.nan], "grid must be strictly increasing"),
    ])
    def test_bad_time_grid_is_rejected(self, times, message):
        n = len(times)
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            GaussianVector(times=times, mean=np.zeros(n), cov=np.eye(n))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=1, max_value=60), seed=st.integers(0, 2**32 - 1),
       offset=st.floats(min_value=-15.0, max_value=-6.0), sign=st.sampled_from([-1.0, 1.0]))
def test_psd_certificate_decides_as_eigvalsh(n, seed, offset, sign):
    # smallest eigenvalue -TOL_PSD * scale +- 10^offset * scale, the rest in [0, 1)
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(0.0, 1.0, size=n)
    eigs[0] = 0.0
    cov = (basis * eigs) @ basis.T
    scale = float(np.max(np.diag(cov)))
    eigs[0] = (-kernels.TOL_PSD + sign * 10.0**offset) * scale
    cov = (basis * eigs) @ basis.T
    cov = 0.5 * (cov + cov.T)
    spectrum = np.linalg.eigvalsh(cov)
    min_eig = float(spectrum[0])
    tol = kernels.TOL_PSD * max(float(np.max(np.diag(cov))), 1e-300)
    # outside the band where rounding may decide either way
    assume(abs(min_eig + tol) > 4 * n * 2.0**-53 * float(np.max(np.abs(spectrum))))
    times, mean = np.arange(n, dtype=float), np.zeros(n)
    if min_eig >= -tol:
        GaussianVector(times=times, mean=mean, cov=cov)
    else:
        with pytest.raises(InvalidInputError, match=re.escape(f"min eigenvalue {min_eig}, ")):
            GaussianVector(times=times, mean=mean, cov=cov)


PSD_KERNELS = {
    "fbm(0.3)": lambda: kernels.fbm(0.3),
    "fbm(0.75)": lambda: kernels.fbm(0.75),
    "fbm_log(0.75)": lambda: kernels.fbm_log(0.75),
    "exponential_rate(1)": lambda: kernels.exponential_rate(1.0),
    "constant": kernels.constant,
    "mimic fbm(0.75), alpha 0": lambda: mimic_kernel(kernels.fbm(0.75), RateFunction.constant(0.0)),
    "white_noise": kernels.white_noise,
}


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(PSD_KERNELS)), n=st.integers(min_value=1, max_value=40),
       seed=st.integers(0, 2**32 - 1), offset=st.floats(min_value=-12.0, max_value=-7.0),
       sign=st.sampled_from([-1.0, 1.0]))
def test_psd_check_decides_as_law_construction(name, n, seed, offset, sign):
    # the kernel's diagonal shifted so that its Gram's smallest eigenvalue
    # is -TOL_PSD * scale +- 10^offset * scale
    grid = 0.5 + np.cumsum(np.random.default_rng(seed).uniform(0.05, 1.0, size=n))
    base = PSD_KERNELS[name]()
    mat = kernels.gram(base, grid)
    scale = float(np.max(np.diag(mat)))
    shift = -float(np.linalg.eigvalsh(mat)[0]) + (-kernels.TOL_PSD + sign * 10.0**offset) * scale
    kern = Kernel(cov=lambda s, t: base.cov(s, t) + shift * np.equal(s, t), name="shifted")
    shifted = kernels.gram(kern, grid)
    spectrum = np.linalg.eigvalsh(shifted)
    tol = kernels.TOL_PSD * max(float(np.max(np.diag(shifted))), 0.0)
    # outside the band where rounding may decide either way
    assume(abs(spectrum[0] + tol) > 4 * n * 2.0**-53 * float(np.max(np.abs(spectrum))))
    passed = bool(spectrum[0] >= -tol)
    assert kernels.psd_check(kern, grid).passed == passed
    try:
        joint_law(kern, grid)
    except NotPsdError:
        assert not passed
    else:
        assert passed


# Both PSD rejections raise NotPsdError, which every InvalidInputError catch still takes.
@pytest.mark.parametrize("reject,message", [
    pytest.param(lambda: GaussianVector([0.0, 1.0], [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]]),
                 "covariance not PSD: min eigenvalue -1.0, scale 1.0", id="law"),
    pytest.param(lambda: pair_law(kernels.matrix_kernel([0.0, 1.0], [[1, 2], [2, 1]]), 0.0, 1.0),
                 "two-time covariance not PSD at t=0.0", id="pair"),
])
def test_psd_rejections_raise_not_psd_error(reject, message):
    assert issubclass(NotPsdError, InvalidInputError)
    with pytest.raises(NotPsdError, match=f"^{re.escape(message)}$"):
        reject()


class TestCondition:
    def test_independent_blocks(self):
        plan = TransportPlan.from_blocks([[1.0]], [[0.0]], [[1.0]])
        law = condition(plan, [5.0])
        assert law.mean[0] == 0.0
        assert law.cov[0, 0] == 1.0

    def test_half_correlation(self):
        plan = TransportPlan.from_blocks([[1.0]], [[0.5]], [[1.0]])
        law = condition(plan, [1.0])
        assert law.mean[0] == pytest.approx(0.5)
        assert law.cov[0, 0] == pytest.approx(0.75)

    def test_block_plan_against_monte_carlo_regression(self):
        cov_left = np.array([[2.0, 1.0], [1.0, 2.0]])
        cross = np.array([[1.0], [0.5]])
        plan = TransportPlan.from_blocks(cov_left, cross, [[1.0]])
        law = condition(plan, [1.0, 1.0])

        rng = np.random.default_rng(42)
        joint_cov = plan.joint.cov
        samples = rng.multivariate_normal(np.zeros(3), joint_cov, size=10**6)
        x, y = samples[:, :2], samples[:, 2]
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        mc_mean = beta @ np.array([1.0, 1.0])
        mc_var = np.var(y - x @ beta, ddof=2)
        assert law.mean[0] == pytest.approx(mc_mean, rel=0.01)
        assert law.cov[0, 0] == pytest.approx(mc_var, rel=0.01)

    def test_singular_left_marginal(self):
        joint = GaussianVector(
            times=[0.0, 1.0, 2.0],
            mean=np.zeros(3),
            cov=[[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]],
        )
        plan = TransportPlan(joint=joint, left_dim=2, right_dim=1)
        with pytest.raises(SingularMarginalError):
            condition(plan, [0.0, 0.0])


class TestConcatenate:
    def test_scalar_formula(self):
        a, b = 0.7, -0.3
        law = concatenate(scalar_chain([a, b]))
        expected = np.array([[1, a, a * b], [a, 1, b], [a * b, b, 1]])
        np.testing.assert_allclose(law.cov, expected, atol=1e-15)

    def test_markov_kernel_fixed_point(self):
        kern = kernels.exponential_rate(1.0)
        grid = [0.0, 1.0, 2.0]
        plans = [pair_law(kern, 0.0, 1.0), pair_law(kern, 1.0, 2.0)]
        law = concatenate(plans)
        np.testing.assert_allclose(law.cov, kernels.gram(kern, grid), atol=1e-14)

    def test_against_monte_carlo_chain_sampling(self):
        rhos = [0.9, -0.4]
        law = concatenate(scalar_chain(rhos))
        rng = np.random.default_rng(123)
        n = 10**6
        x1 = rng.standard_normal(n)
        x2 = rhos[0] * x1 + math.sqrt(1 - rhos[0] ** 2) * rng.standard_normal(n)
        x3 = rhos[1] * x2 + math.sqrt(1 - rhos[1] ** 2) * rng.standard_normal(n)
        samples = np.column_stack([x1, x2, x3])
        mc_cov = np.cov(samples.T)
        se = np.sqrt((np.outer(np.diag(mc_cov), np.diag(mc_cov)) + mc_cov**2) / n)
        assert np.all(np.abs(law.cov - mc_cov) < 3 * se)

    def test_marginal_mismatch_rejected(self):
        good = TransportPlan.from_blocks([[1.0]], [[0.5]], [[1.0]], times=[0.0, 1.0])
        bad = TransportPlan.from_blocks([[2.0]], [[0.5]], [[1.0]], times=[1.0, 2.0])
        with pytest.raises(ChainMismatchError):
            concatenate([good, bad])

    def test_singular_intermediate_rejected(self):
        rank_deficient = [[1.0, 1.0], [1.0, 1.0]]
        first = TransportPlan.from_blocks(
            [[1.0]], [[0.5, 0.5]], rank_deficient, times=[0.0, 1.0, 2.0]
        )
        second = TransportPlan.from_blocks(
            rank_deficient, [[0.3], [0.3]], [[1.0]], times=[1.0, 2.0, 3.0]
        )
        with pytest.raises(SingularMarginalError):
            concatenate([first, second])

    def test_concatenation_is_always_markov(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rhos = rng.uniform(-0.95, 0.95, size=int(rng.integers(2, 5)))
            law = concatenate(scalar_chain(list(rhos)))
            assert markov_check(law).max_residual < 1e-10

    def test_middle_conditioning_gives_independence(self):
        # given the middle coordinate, the outer pair decorrelates
        law = concatenate(scalar_chain([0.8, 0.6]))
        cov = law.cov
        outer = np.ix_([0, 2], [0, 2])
        cross_mid = cov[[0, 2], 1][:, None]
        conditional = cov[outer] - cross_mid @ cross_mid.T / cov[1, 1]
        assert abs(conditional[0, 1]) < 1e-10

    @staticmethod
    def _concatenate_solving_per_row(plans):
        """The former row loop, which solved every step again for each row."""
        margs = [p.cov_left for p in plans] + [plans[-1].cov_right]
        offsets = np.concatenate([[0], np.cumsum([m.shape[0] for m in margs])])
        cov = np.zeros((offsets[-1], offsets[-1]))
        for i, m in enumerate(margs):
            cov[offsets[i] : offsets[i + 1], offsets[i] : offsets[i + 1]] = m
        for i in range(len(margs) - 1):
            block = plans[i].cross
            cov[offsets[i] : offsets[i + 1], offsets[i + 1] : offsets[i + 2]] = block
            cov[offsets[i + 1] : offsets[i + 2], offsets[i] : offsets[i + 1]] = block.T
            for j in range(i + 1, len(margs) - 1):
                block = block @ gaussian.solve_spd(margs[j], plans[j].cross)
                cov[offsets[i] : offsets[i + 1], offsets[j + 1] : offsets[j + 2]] = block
                cov[offsets[j + 1] : offsets[j + 2], offsets[i] : offsets[i + 1]] = block.T
        return cov

    @pytest.mark.parametrize("case", ["scalar", "blocks"])
    def test_one_solve_per_intermediate_marginal(self, monkeypatch, case):
        if case == "scalar":
            kern = kernels.fbm(0.75)
            grid = np.linspace(1.0, 2.0, 61)
            plans = [pair_law(kern, s, t) for s, t in zip(grid[:-1], grid[1:])]
        else:
            plans = chained_random_plans(np.random.default_rng(8), [2, 1, 3, 2, 2, 1])
        expected = self._concatenate_solving_per_row(plans)
        calls = []
        solve = gaussian.solve_spd

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(gaussian, "solve_spd", counting_solve)
        law = concatenate(plans)
        # one solve per marginal shared by two plans
        assert len(calls) == len(plans) - 1
        np.testing.assert_array_equal(law.cov, expected)


class TestCompose:
    def test_scalar_product(self):
        plan = compose(scalar_chain([0.5, 0.5]))
        assert plan.cross[0, 0] == pytest.approx(0.25)

    def test_single_plan_identity(self):
        plan = scalar_chain([0.3])[0]
        assert compose([plan]) is plan

    # Both multiply the same transitions in the same order: equal bit for bit.
    @pytest.mark.parametrize("dims", [[2, 2, 2, 2], [1, 3, 2], [3, 1, 1, 2]],
                             ids=["2-2-2-2", "1-3-2", "3-1-1-2"])
    def test_matches_outer_projection_of_concatenate(self, dims):
        rng = np.random.default_rng(17)
        plans = chained_random_plans(rng, dims)
        joint = concatenate(plans)
        outer = list(range(dims[0])) + list(range(joint.dim - dims[-1], joint.dim))
        projected = joint.project(outer)
        composed = compose(plans)
        np.testing.assert_array_equal(composed.joint.cov, projected.cov)
        np.testing.assert_array_equal(composed.joint.mean, projected.mean)

    @settings(max_examples=40, deadline=None)
    @given(
        rhos=st.lists(
            st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
            min_size=3,
            max_size=6,
        )
    )
    def test_associativity(self, rhos):
        plans = scalar_chain(rhos)
        flat = compose(plans)
        left = compose([compose(plans[:2])] + plans[2:])
        assert abs(flat.cross[0, 0] - left.cross[0, 0]) < 1e-12

    def test_projection_coherence_scalar(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            rhos = list(rng.uniform(-0.9, 0.9, size=int(rng.integers(2, 6))))
            plans = scalar_chain(rhos)
            joint = concatenate(plans)
            composed = compose(plans)
            assert composed.cross[0, 0] == pytest.approx(
                joint.cov[0, -1], abs=1e-12
            )


class TestMarkovCheck:
    def test_exponential_gram_is_markov(self):
        law = joint_law(kernels.exponential_rate(1.0), [0.0, 1.0, 2.0, 3.0])
        report = markov_check(law)
        assert report.is_markov
        assert report.max_residual < 1e-14

    def test_fbm_gram_is_not_markov(self):
        law = joint_law(kernels.fbm(0.75), [1.0, 2.0, 3.0])
        k = lambda s, t: 0.5 * (t**1.5 + s**1.5 - abs(t - s) ** 1.5)
        expected_residual = abs(k(1, 3) - k(1, 2) * k(2, 3) / k(2, 2))
        report = markov_check(law)
        assert not report.is_markov
        assert report.max_residual == pytest.approx(expected_residual, rel=1e-12)

    def test_white_noise_is_markov(self):
        law = joint_law(kernels.white_noise(), [0.0, 0.5, 1.0])
        assert markov_check(law).is_markov

    def test_block_structure(self):
        rng = np.random.default_rng(31)
        plans = chained_random_plans(rng, [2, 2, 2])
        law = concatenate(plans)
        assert markov_check(law, block_dims=[2, 2, 2]).is_markov


class TestGaussianDistance:
    def test_identical(self):
        law = joint_law(kernels.constant(), [0.0, 1.0])
        assert gaussian_distance(law, law) == 0.0

    def test_cross_term_difference(self):
        a = GaussianVector(times=[0, 1], mean=[0, 0], cov=[[1, 0.3], [0.3, 1]])
        b = GaussianVector(times=[0, 1], mean=[0, 0], cov=[[1, 0.25], [0.25, 1]])
        assert gaussian_distance(a, b) == pytest.approx(0.05)

    def test_one_over_n_sequence(self):
        ones = GaussianVector(times=[0, 1], mean=[0, 0], cov=[[1, 1], [1, 1]])
        for n in (2, 10, 100):
            rho = 1 - 1 / n
            law = GaussianVector(times=[0, 1], mean=[0, 0], cov=[[1, rho], [rho, 1]])
            assert gaussian_distance(law, ones) == pytest.approx(1 / n)

    def test_shape_mismatch(self):
        a = GaussianVector(times=[0], mean=[0], cov=[[1]])
        b = GaussianVector(times=[0, 1], mean=[0, 0], cov=np.eye(2))
        with pytest.raises(InvalidInputError):
            gaussian_distance(a, b)


def _law(times):
    return GaussianVector(times=times, mean=np.zeros(len(times)), cov=np.eye(len(times)))


def test_project_counts_negative_indices_from_the_end():
    law = GaussianVector(times=[0.0, 1.0, 2.0], mean=[1.0, 2.0, 3.0],
                         cov=[[2.0, 1.0, 0.5], [1.0, 3.0, 1.5], [0.5, 1.5, 4.0]])
    assert law.project([0, -1]).to_dict() == law.project(np.array([0, 2])).to_dict() == {
        "times": [0.0, 2.0], "mean": [1.0, 3.0], "cov": [[2.0, 0.5], [0.5, 4.0]]}


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: GaussianVector(times=[0.0, 1.0], mean=[0.0], cov=np.eye(2)),
                 InvalidInputError, "shape mismatch: 2 times, mean (1,), cov (2, 2)",
                 id="vector-shapes"),
    pytest.param(lambda: TransportPlan(joint=_law([0.0, 1.0]), left_dim=0, right_dim=2),
                 InvalidInputError, "block dimensions must be positive", id="plan-empty-block"),
    pytest.param(lambda: TransportPlan(joint=_law([0.0, 1.0, 2.0]), left_dim=1.5, right_dim=1.5),
                 InvalidInputError, "left_dim must be an integer, got 1.5",
                 id="plan-fractional-block"),
    pytest.param(lambda: TransportPlan(joint=_law([0.0, 1.0]), left_dim=1, right_dim=True),
                 InvalidInputError, "right_dim must be an integer, got True", id="plan-bool-block"),
    pytest.param(lambda: TransportPlan(joint=_law([0.0, 1.0]), left_dim=math.nan, right_dim=2),
                 InvalidInputError, "block dimensions must be positive", id="plan-nan-block"),
    pytest.param(lambda: TransportPlan(joint=_law([0.0, 1.0]), left_dim=1, right_dim=2),
                 InvalidInputError, "blocks 1+2 != joint dim 2", id="plan-blocks-vs-joint"),
    pytest.param(lambda: TransportPlan.from_blocks(np.ones((2, 3)), np.zeros(2), [[1.0]]),
                 InvalidInputError, "marginal covariances must be square, got (2, 3) and (1, 1)",
                 id="plan-non-square-marginal"),
    pytest.param(lambda: condition(scalar_chain([0.5])[0], [1.0, 2.0]),
                 InvalidInputError, "conditioning point has dim 2, expected 1",
                 id="condition-point-dim"),
    pytest.param(lambda: condition(scalar_chain([0.5])[0], [math.nan]),
                 InvalidInputError, "conditioning point must be finite, got nan",
                 id="condition-point-nan"),
    pytest.param(lambda: concatenate([]), InvalidInputError, "need at least one transport plan",
                 id="concatenate-no-plan"),
    pytest.param(lambda: compose([TransportPlan(joint=_law([0.0, 1.0]), left_dim=1, right_dim=1),
                                  TransportPlan(joint=_law([1.0, 2.0, 3.0]), left_dim=2,
                                                right_dim=1)]),
                 ChainMismatchError, "dim mismatch: right block 1 vs left block 2",
                 id="compose-block-dims"),
    pytest.param(lambda: markov_check(_law([0.0, 1.0]), block_dims=[1, 2]),
                 InvalidInputError, "block dims [1, 2] do not partition dim 2",
                 id="markov-check-block-dims"),
    pytest.param(lambda: markov_check(_law([0.0, 1.0, 2.0]), block_dims=[1.5, 1.5, 1]),
                 InvalidInputError, "block dim must be an integer, got 1.5",
                 id="markov-check-fractional-blocks"),
    pytest.param(lambda: markov_check(_law([0.0, 1.0, 2.0]), block_dims=[True, 2]),
                 InvalidInputError, "block dim must be an integer, got True",
                 id="markov-check-bool-block"),
    pytest.param(lambda: markov_check(_law([0.0, 1.0, 2.0]), block_dims=[math.nan, 3]),
                 InvalidInputError, "block dim must be at least 1, got nan",
                 id="markov-check-nan-block"),
    pytest.param(lambda: _law([0.0, 1.0, 2.0]).project([0.5, 1.7]),
                 InvalidInputError, "index must be an integer, got 0.5",
                 id="project-fractional-index"),
    pytest.param(lambda: _law([0.0, 1.0, 2.0]).project([3]),
                 InvalidInputError, "index must be at most 2, got 3", id="project-past-end"),
    pytest.param(lambda: _law([0.0, 1.0, 2.0]).project([-4]),
                 InvalidInputError, "index must be at least -3, got -4",
                 id="project-before-start"),
    pytest.param(lambda: gaussian_distance(_law([0.0, 1.0]), _law([0.0, 2.0])),
                 InvalidInputError, "laws live on different time grids",
                 id="distance-time-grids"),
])
def test_bad_arguments_are_named(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
