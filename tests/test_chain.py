"""Scalar chain laws against the slow paths they replaced.

``partition_law``, ``made_markov_law`` and ``markov_check`` multiply one
running product along sorted times.  Each is checked here against a
reference that shares none of that code: composition of eval-built
two-time plans, block gluing with ``concatenate``, and the all-triples
Markov scan.  Kernels cover unit and non-unit variances, stationary and
tabulated covariances, negative one-step correlations (cosine spectra and
random tables) and exact zero correlations (white noise and tables with
independent groups).  ``made_markov_law`` is also checked bit for bit against
the per-query row loop it replaced, over a wider set of kernel families,
and so is every law of a sweep over several split sets.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussmarkov import kernels
from gaussmarkov.errors import InvalidInputError, SingularMarginalError
from gaussmarkov.gaussian import (
    MARKOV_RESIDUAL_TOL,
    GaussianVector,
    TransportPlan,
    compose,
    concatenate,
    markov_check,
    solve_spd,
)
from gaussmarkov.kernels import RateFunction, rate_kernel, transform_kernel
from gaussmarkov.spectral import SpectralMeasure, kernel_from_spectral
from gaussmarkov.transform import (
    Partition,
    _made_markov_laws,
    joint_law,
    made_markov_law,
    made_markov_law_by_blocks,
    mimic_kernel,
    partition_law,
    tightness_bound_check,
)

from oracles import made_markov_law_rows

FAMILIES = ("fbm_log", "fbm", "spectral", "white_noise", "table")
#: The bitwise check adds a quadrature rate, a mimicking and a transformed kernel.
BITWISE_FAMILIES = FAMILIES + ("rate", "mimic", "transformed")

#: Agreement demanded of each fast path, relative to the largest entry (at least 1).
TOL = 1e-12


# ---------------------------------------------------------------------------
# Reference paths
# ---------------------------------------------------------------------------


def pair_plan(kernel, s, t):
    """Two-time plan from scalar kernel evaluations, checked as one Gaussian law."""
    kernel.require_in_domain([s, t])
    vs, vt = kernel.variance(s), kernel.variance(t)
    if vs <= 0.0 or vt <= 0.0:
        raise SingularMarginalError(f"kernel singular at {s} or {t}")
    return TransportPlan.from_blocks(
        [[vs]], [[kernel.eval(s, t)]], [[vt]],
        mean_left=[kernel.mean(s)], mean_right=[kernel.mean(t)], times=[s, t],
    )


def partition_law_by_compose(kernel, points):
    return compose([pair_plan(kernel, float(a), float(b)) for a, b in zip(points, points[1:])])


def all_triples_residual(joint, block_dims=None):
    """Largest ``|S_ik - S_ij S_jj^{-1} S_jk|`` over every block triple i < j < k."""
    dims = [1] * joint.dim if block_dims is None else list(block_dims)
    offsets = np.concatenate([[0], np.cumsum(dims)])
    blocks = [slice(int(a), int(b)) for a, b in zip(offsets, offsets[1:])]
    cov = joint.cov
    worst = 0.0
    for j in range(1, len(blocks) - 1):
        for k in range(j + 1, len(blocks)):
            step = solve_spd(cov[blocks[j], blocks[j]], cov[blocks[j], blocks[k]])
            for i in range(j):
                predicted = cov[blocks[i], blocks[j]] @ step
                worst = max(worst, float(np.max(np.abs(cov[blocks[i], blocks[k]] - predicted))))
    return worst


# ---------------------------------------------------------------------------
# Random kernels and grids
# ---------------------------------------------------------------------------


def random_kernel(family, rng, n_points):
    """A kernel of the family and a sorted grid of ``n_points`` times it accepts."""
    if family == "table":
        grid = np.sort(rng.choice(np.arange(100), size=n_points, replace=False)) / 10.0
        a = rng.normal(size=(n_points, 3))
        # Schur product with a group indicator: PSD, exactly zero across groups.
        groups = rng.integers(0, 2, size=n_points)
        table = (a @ a.T + 0.1 * np.eye(n_points)) * (groups[:, None] == groups[None, :])
        return kernels.matrix_kernel(grid, table), grid
    grid = np.sort(rng.uniform(0.2, 3.0, size=n_points))
    if family in ("rate", "mimic"):
        c0, c1 = rng.uniform(0.1, 2.0, size=2)
        alpha = RateFunction.from_callable(lambda t: c0 + c1 * t)
        if family == "rate":
            return rate_kernel(alpha, domain=(0.0, math.inf)), grid
        return mimic_kernel(kernels.fbm(rng.uniform(0.1, 0.9)), alpha), grid
    if family == "transformed":
        hurst, c = rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0)
        return transform_kernel(kernels.fbm_log(hurst), scale=lambda t: 1.0 + c * t,
                                time_change=math.log, domain=(0.0, math.inf)), grid
    if family == "fbm_log":
        return kernels.fbm_log(rng.uniform(0.1, 0.9)), grid
    if family == "fbm":
        return kernels.fbm(rng.uniform(0.1, 0.9)), grid
    if family == "spectral":
        weights = rng.dirichlet(np.ones(3)) / 2.0
        atoms = tuple(zip(weights, rng.uniform(0.5, 8.0, size=3)))
        return kernel_from_spectral(SpectralMeasure(atoms=atoms)), grid
    return kernels.white_noise(), grid


def assert_close(fast, slow):
    scale = max(1.0, float(np.max(np.abs(slow))))
    np.testing.assert_allclose(fast, slow, rtol=0.0, atol=TOL * scale)


seeds = st.integers(min_value=0, max_value=2**32 - 1)
families = st.sampled_from(FAMILIES)


# ---------------------------------------------------------------------------
# Fast paths against their references
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(family=families, seed=seeds, n_points=st.integers(min_value=2, max_value=40))
def test_partition_law_matches_composed_pair_plans(family, seed, n_points):
    kern, grid = random_kernel(family, np.random.default_rng(seed), n_points)
    fast = partition_law(kern, Partition(points=grid))
    slow = partition_law_by_compose(kern, grid)
    assert_close(fast.joint.cov, slow.joint.cov)
    assert_close(fast.joint.mean, slow.joint.mean)
    np.testing.assert_array_equal(fast.joint.times, slow.joint.times)


@settings(max_examples=60, deadline=None)
@given(family=families, seed=seeds, n_points=st.integers(min_value=2, max_value=24))
def test_made_markov_law_matches_block_gluing(family, seed, n_points):
    rng = np.random.default_rng(seed)
    kern, grid = random_kernel(family, rng, n_points)
    queries = np.sort(rng.choice(grid, size=int(rng.integers(1, min(8, n_points) + 1)),
                                 replace=False))
    # splits may coincide with queries or lie outside their range
    splits = rng.choice(grid, size=int(rng.integers(0, n_points + 1)), replace=False)
    fast = made_markov_law(kern, splits, queries)
    slow = made_markov_law_by_blocks(kern, splits, queries)
    assert_close(fast.cov, slow.cov)
    assert_close(fast.mean, slow.mean)


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(["fbm", "fbm_log", "rate_1+t", "mimic"]), seed=seeds,
       n_intervals=st.integers(min_value=1, max_value=60), uniform=st.booleans())
def test_two_query_made_markov_law_is_bitwise_the_partition_law(family, seed, n_intervals,
                                                               uniform):
    rng = np.random.default_rng(seed)
    hurst = rng.uniform(0.1, 0.9)
    kern = {
        "fbm": lambda: kernels.fbm(hurst),
        "fbm_log": lambda: kernels.fbm_log(hurst),
        "rate_1+t": lambda: rate_kernel(RateFunction.from_callable(lambda t: 1.0 + t)),
        "mimic": lambda: mimic_kernel(kernels.fbm(hurst), RateFunction.constant(1.0)),
    }[family]()
    s, t = np.sort(rng.uniform(0.2, 3.0, 2))
    if uniform:
        points = Partition.uniform(s, t, n_intervals).points
    else:
        points = np.sort(np.concatenate([[s, t], rng.uniform(s, t, n_intervals - 1)]))
        assume(np.all(np.diff(points) > 0.0))
    law = made_markov_law(kern, points[1:-1], points[[0, -1]])
    plan = partition_law(kern, Partition(points=points))
    np.testing.assert_array_equal(law.cov, plan.joint.cov)
    np.testing.assert_array_equal(law.mean, plan.joint.mean)


def test_a_query_pair_with_a_split_between_is_not_checked():
    # K(1, 2) = 2 at unit variances, but the split at 1.5 keeps that pair out
    # of every law: each one is [[1, 0.25], [0.25, 1]].
    kern = kernels.matrix_kernel([1.0, 1.5, 2.0], [[1, 0.5, 2], [0.5, 1, 0.5], [2, 0.5, 1]])
    law = made_markov_law(kern, [1.5], [1.0, 2.0])
    np.testing.assert_array_equal(law.cov, [[1.0, 0.25], [0.25, 1.0]])
    for ref in (made_markov_law_by_blocks(kern, [1.5], [1.0, 2.0]).cov,
                partition_law(kern, Partition(points=[1.0, 1.5, 2.0])).joint.cov,
                next(_made_markov_laws(kern, [[1.5]], [1.0, 2.0])).cov):
        np.testing.assert_array_equal(law.cov, ref)


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(BITWISE_FAMILIES), seed=seeds,
       q=st.integers(min_value=1, max_value=40), m=st.integers(min_value=0, max_value=200),
       inside=st.booleans())
def test_made_markov_law_is_bitwise_the_row_loop(family, seed, q, m, inside):
    rng = np.random.default_rng(seed)
    n_points = min(q + m, 100) if family == "table" else q + m
    kern, grid = random_kernel(family, rng, max(n_points, q, 2))
    queries = np.sort(rng.choice(grid, size=q, replace=False))
    # drawn with replacement: duplicate splits, splits on queries and outside their range
    pool = grid if inside else grid[(grid <= queries[0]) | (grid >= queries[-1])]
    splits = rng.choice(pool, size=m) if pool.size else np.array([])
    fast = made_markov_law(kern, splits, queries)
    slow = made_markov_law_rows(kern, splits, queries)
    np.testing.assert_array_equal(fast.cov, slow.cov)
    np.testing.assert_array_equal(fast.mean, slow.mean)
    np.testing.assert_array_equal(fast.times, slow.times)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(BITWISE_FAMILIES), seed=seeds,
       q=st.integers(min_value=1, max_value=12), m=st.integers(min_value=0, max_value=80),
       kinds=st.lists(st.sampled_from(["empty", "outside", "inside"]), min_size=1, max_size=6))
def test_sweep_laws_are_bitwise_the_one_set_laws(family, seed, q, m, kinds):
    rng = np.random.default_rng(seed)
    n_points = min(q + m, 100) if family == "table" else q + m
    kern, grid = random_kernel(family, rng, max(n_points, q, 2))
    queries = np.sort(rng.choice(grid, size=q, replace=False))
    pools = {"empty": grid[:0], "inside": grid,
             "outside": grid[(grid <= queries[0]) | (grid >= queries[-1])]}
    # sizes up to m, so that sets of every size share a group of one kernel call
    sets = [rng.choice(pools[kind], size=int(rng.integers(0, m + 1))) if pools[kind].size
            else np.array([]) for kind in kinds]
    laws = list(_made_markov_laws(kern, sets, queries))
    assert len(laws) == len(sets)
    for splits, law in zip(sets, laws):
        for ref in (made_markov_law(kern, splits, queries),
                    made_markov_law_rows(kern, splits, queries)):
            np.testing.assert_array_equal(law.cov, ref.cov)
            np.testing.assert_array_equal(law.mean, ref.mean)
            np.testing.assert_array_equal(law.times, ref.times)


def test_sweep_raises_the_first_error_set_after_set():
    # [1.0] makes K(q, r_after) = 1.5 at unit variances; 3.0 is outside the domain.
    # Each pair of sets shares one group, whose domain checks run before its PSD test.
    kern = table_kernel([[1.0, 1.5, 0.1], [1.5, 1.0, 0.5], [0.1, 0.5, 1.0]])
    queries = [0.0, 2.0]
    laws = _made_markov_laws(kern, [[], [1.0]], queries)
    assert np.array_equal(next(laws).cov, made_markov_law(kern, [], queries).cov)
    with pytest.raises(InvalidInputError, match="not PSD at t=0.0"):
        next(laws)
    with pytest.raises(InvalidInputError, match="not PSD at t=0.0"):
        list(_made_markov_laws(kern, [[1.0], [3.0]], queries))
    with pytest.raises(InvalidInputError, match="time 3.0 outside domain"):
        list(_made_markov_laws(kern, [[3.0], [1.0]], queries))


def markov_chain_law(rng, n):
    """Concatenated scalar chain with random variances; some steps exactly 0 or negative."""
    rhos = rng.choice([0.0, -0.6, 0.3, 0.9], size=n - 1) * rng.uniform(0.5, 1.0, size=n - 1)
    std = rng.uniform(0.5, 2.0, size=n)
    plans = [
        TransportPlan.from_blocks(
            [[std[i] ** 2]], [[rho * std[i] * std[i + 1]]], [[std[i + 1] ** 2]],
            times=[float(i), float(i + 1)],
        )
        for i, rho in enumerate(rhos)
    ]
    return concatenate(plans)


def random_law(kind, rng, n):
    if kind == "chain":
        return markov_chain_law(rng, n)
    if kind == "made_markov":
        kern, grid = random_kernel(str(rng.choice(FAMILIES)), rng, n)
        return made_markov_law(kern, grid, grid)
    kern, grid = random_kernel(str(rng.choice(FAMILIES)), rng, n)
    return joint_law(kern, grid)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["chain", "made_markov", "joint"]), seed=seeds,
       n=st.integers(min_value=3, max_value=12))
def test_markov_verdict_matches_all_triples_scan(kind, seed, n):
    law = random_law(kind, np.random.default_rng(seed), n)
    scale = float(np.max(np.diag(law.cov)))
    threshold = MARKOV_RESIDUAL_TOL * scale
    reference = all_triples_residual(law)
    # a law within two decades of the threshold has no verdict to compare
    assume(reference < 1e-2 * threshold or reference > 1e2 * threshold)
    report = markov_check(law)
    assert report.is_markov == (reference < threshold)
    # consecutive triples are a subset of all triples
    assert report.max_residual <= reference + 1e-14 * scale


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n_blocks=st.integers(min_value=3, max_value=5))
def test_block_markov_verdict_matches_all_triples_scan(seed, n_blocks):
    rng = np.random.default_rng(seed)
    dims = list(rng.integers(1, 4, size=n_blocks))
    n = sum(dims)
    a = rng.normal(size=(n, n + 2))
    law = GaussianVector(times=np.arange(n, dtype=float), mean=np.zeros(n),
                         cov=a @ a.T / (n + 2) + 0.5 * np.eye(n))
    reference = all_triples_residual(law, dims)
    report = markov_check(law, block_dims=dims)
    assert not report.is_markov and reference > 1e-6
    assert report.max_residual <= reference + 1e-14


def test_worst_pair_names_the_perturbed_entry():
    rng = np.random.default_rng(4)
    law = markov_chain_law(rng, 6)
    cov = law.cov / np.sqrt(np.outer(np.diag(law.cov), np.diag(law.cov)))
    delta = 0.5 * float(np.linalg.eigvalsh(cov)[0])
    cov[1, 4] += delta
    cov[4, 1] += delta
    report = markov_check(GaussianVector(times=law.times, mean=law.mean, cov=cov))
    assert not report.is_markov
    assert report.worst_pair == (1, 4)
    assert report.max_residual == pytest.approx(delta, rel=1e-9)


def test_worst_pair_is_none_below_three_blocks():
    law = joint_law(kernels.fbm(0.75), [1.0, 2.0])
    assert markov_check(law).worst_pair is None


def test_tightness_maxima_unchanged_by_chain_routine():
    # maxima of the previous per-pair log-prefix loop, to 1e-12
    kern = kernels.fbm_log(0.75)
    parts = [Partition.dyadic(0.0, 1.0, k) for k in range(3, 9)]
    report = tightness_bound_check(kern, RateFunction.constant(0.0), 0.0, 1.0, parts)
    for part, got in zip(parts, report.per_partition):
        pts = part.points
        log_prefix = np.concatenate([[0.0], np.cumsum(np.log(kern.cov(pts[:-1], pts[1:])))])
        worst = 0.0
        stride = 1
        while stride < pts.size:
            for i in range(0, pts.size - stride, max(1, (pts.size - stride) // 32)):
                j = i + stride
                ratio = (1.0 - np.exp(log_prefix[j] - log_prefix[i])) / (pts[j] - pts[i])
                worst = max(worst, ratio)
            stride *= 2
        assert abs(got - worst) < 1e-12


# ---------------------------------------------------------------------------
# The errors of the replaced paths still fire
# ---------------------------------------------------------------------------


def table_kernel(matrix):
    return kernels.matrix_kernel([0.0, 1.0, 2.0], matrix)


def test_step_correlation_above_one_is_rejected():
    kern = kernels.matrix_kernel([0.0, 1.0, 2.0, 3.0], [
        [1.0, 0.5, 0.0, 0.0], [0.5, 1.0, 1.5, 0.0], [0.0, 1.5, 1.0, 0.5], [0.0, 0.0, 0.5, 1.0],
    ])
    with pytest.raises(InvalidInputError):
        partition_law_by_compose(kern, [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(InvalidInputError):
        partition_law(kern, Partition(points=[0.0, 1.0, 2.0, 3.0]))
    # the step between the two splits is checked even though the law on
    # the queries, with covariance 0.375, would be a valid one
    with pytest.raises(InvalidInputError):
        made_markov_law(kern, [1.0, 2.0], [0.0, 3.0])


# K(q_i, r_after) and K(r_before, q_j) enter the law without a step of
# either chain; each is checked as its own two-time covariance.
@pytest.mark.parametrize("matrix,at", [
    ([[1.0, 1.5, 0.1], [1.5, 1.0, 0.5], [0.1, 0.5, 1.0]], 0.0),
    ([[1.0, 0.5, 0.1], [0.5, 1.0, 1.5], [0.1, 1.5, 1.0]], 1.0),
], ids=["query-to-split", "split-to-query"])
def test_query_split_covariance_above_one_is_rejected(matrix, at):
    kern = table_kernel(matrix)
    with pytest.raises(InvalidInputError, match=f"not PSD at t={at}"):
        made_markov_law(kern, [1.0], [0.0, 2.0])
    with pytest.raises(InvalidInputError):
        made_markov_law_by_blocks(kern, [1.0], [0.0, 2.0])
    with pytest.raises(InvalidInputError):
        partition_law(kern, Partition(points=[0.0, 1.0, 2.0]))


def test_zero_interior_variance_is_singular():
    kern = table_kernel([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularMarginalError):
        partition_law_by_compose(kern, [0.0, 1.0, 2.0])
    with pytest.raises(SingularMarginalError):
        partition_law(kern, Partition(points=[0.0, 1.0, 2.0]))
    with pytest.raises(SingularMarginalError):
        made_markov_law(kern, [1.0], [0.0, 2.0])
    law = GaussianVector(times=[0.0, 1.0, 2.0], mean=np.zeros(3), cov=np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(SingularMarginalError):
        all_triples_residual(law)
    with pytest.raises(SingularMarginalError):
        markov_check(law)


def test_point_outside_domain_is_rejected():
    kern = kernels.fbm(0.6)  # domain [0, inf)
    with pytest.raises(InvalidInputError):
        partition_law_by_compose(kern, [-1.0, 1.0])
    with pytest.raises(InvalidInputError):
        partition_law(kern, Partition(points=[-1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        made_markov_law(kern, [-0.5], [1.0, 2.0])
    with pytest.raises(InvalidInputError):
        tightness_bound_check(kern, RateFunction.constant(0.0), -1.0, 1.0,
                              [Partition(points=[-1.0, 0.5, 1.0])])
