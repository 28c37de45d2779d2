"""The rate antiderivative behind ``rate_kernel``.

``A(t)`` is a function of ``t`` alone: panels laid out from an anchor fixed
by the kernel's domain, each integrated by a bisected Gauss-Kronrod pair.
Checked here against closed forms, for bit-identical values whatever the
order, batching or threading of the queries, for bounded work on rates
that are hard or impossible to integrate, and for one integration per time.
"""

import itertools
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmarkov.errors import InvalidRateError
from gaussmarkov.kernels import RateFunction, _antiderivative, gram, psd_check, rate_kernel


def _rate(t):
    return 1.0 + t * t


def _half_over_t(t):
    return 0.5 / t


ORACLES = {
    "1+t": (lambda t: 1.0 + t, (-1.0, math.inf), lambda t: t + 0.5 * t * t,
            [-1.0, -0.9, -0.5, -1e-3, 0.0, 0.3, 1.0, 1.7, 2.0, 3.9, 4.0, 10.5, 123.25, 1e4]),
    "0.5/t": (_half_over_t, (0.0, math.inf), lambda t: 0.5 * math.log(t),
              [1e-6, 1e-3, 0.3, 0.999, 1.0, 1.5, 2.0, 7.5, 1e3, 1e6]),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_differences_match_closed_form(name):
    rate, domain, exact, points = ORACLES[name]
    values = _antiderivative(RateFunction.from_callable(rate), domain)(np.array(points))
    for i, j in itertools.combinations(range(len(points)), 2):
        assert values[j] - values[i] == pytest.approx(
            exact(points[j]) - exact(points[i]), rel=1e-12, abs=0.0
        )


times = st.lists(
    st.one_of(
        st.floats(0.01, 40.0, allow_nan=False),
        # panel edges of the anchor 1 and points next to them
        st.sampled_from([1.0, 2.0, 3.0, 5.0, 9.0, 1.0 + 2.0**-52, 3.0 - 2.0**-51]),
    ),
    min_size=2, max_size=30, unique=True,
)


@settings(max_examples=100, deadline=None)
@given(times, st.randoms(use_true_random=False), st.integers(1, 6))
def test_values_do_not_depend_on_query_order_or_batches(points, rnd, n_batches):
    def fresh():
        return rate_kernel(RateFunction.from_callable(_half_over_t), domain=(0.0, math.inf))

    pts = np.sort(np.array(points))
    expected = fresh().cov(pts[:, None], pts[None, :])
    shuffled = list(points)
    rnd.shuffle(shuffled)
    kern = fresh()
    for batch in np.array_split(np.array(shuffled), n_batches):
        kern.cov(batch[:, None], batch[None, :])
    np.testing.assert_array_equal(kern.cov(pts[:, None], pts[None, :]), expected)
    # the scalar path asks for two times at a time
    in_pairs = fresh()
    for s, t in zip(shuffled, shuffled[1:]):
        in_pairs.eval(s, t)
    np.testing.assert_array_equal(in_pairs.cov(pts[:, None], pts[None, :]), expected)


def run_threads(work, n_threads):
    """Runs ``work(k)`` on n threads released together; returns their exceptions."""
    errors = []
    barrier = threading.Barrier(n_threads)

    def target(k):
        try:
            barrier.wait(timeout=10)
            work(k)
        except Exception as exc:  # handed back to the test, with the thread's index
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(k,)) for k in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    return errors


def test_concurrent_evaluation_matches_single_thread():
    times = np.linspace(0.0, 3.0, 401)
    pairs = [(float(s), float(t)) for s, t in zip(times[:-1], times[1:])]
    single = rate_kernel(RateFunction.from_callable(_rate))
    expected = [single.eval(s, t) for s, t in pairs]

    shared = rate_kernel(RateFunction.from_callable(_rate))
    got = [None] * len(pairs)

    def work(k):
        for i in range(k, len(pairs), 4):  # interleaved times
            got[i] = shared.eval(*pairs[i])

    assert run_threads(work, 4) == []
    assert got == expected


def test_concurrent_misses_cache_each_time_once():
    times = np.linspace(-2.0, 2.0, 301)
    expected = rate_kernel(RateFunction.from_callable(_rate)).cov(times[0], times)
    shared = rate_kernel(RateFunction.from_callable(_rate))
    seen = [dict() for _ in range(4)]

    def work(k):
        for t in list(times[k::4]) + list(times[::-1]):
            seen[k][float(t)] = float(shared.cov(times[0], t))

    assert run_threads(work, 4) == []
    for values in seen:
        # every thread got the one value of each time, as a single thread does
        assert [values[float(t)] for t in times] == expected.tolist()

    def exact(t):
        return t + t**3 / 3.0

    np.testing.assert_allclose(-np.log(expected), exact(times) - exact(times[0]), atol=1e-8)


def test_gram_then_psd_check_integrates_each_point_once():
    calls = []
    kern = rate_kernel(RateFunction.from_callable(lambda t: calls.append(t) or 1.0 + t))
    grid = np.linspace(0.2, 2.2, 50)
    gram(kern, grid)
    first = len(calls)
    assert first > 0
    assert psd_check(kern, grid).passed
    assert kern.eval(0.2, 2.2) == pytest.approx(math.exp(-4.4), rel=1e-14)
    assert len(calls) == first


def test_steep_integrable_rate_is_fast():
    kern = rate_kernel(RateFunction.from_callable(lambda t: t**-2), domain=(0.0, math.inf))
    start = time.perf_counter()
    assert kern.eval(1e-4, 1.0) == 0.0
    assert time.perf_counter() - start < 1.0


def test_non_integrable_rate_is_rejected_quickly():
    def rate(t):
        return math.inf if t == 0.5 else 1.0 / abs(t - 0.5)

    kern = rate_kernel(RateFunction.from_callable(rate))
    start = time.perf_counter()
    with pytest.raises(InvalidRateError, match=r"\[0\.0, 0\.7\]"):
        kern.eval(0.1, 0.7)
    assert time.perf_counter() - start < 1.0


def test_fast_oscillating_rate_hits_the_evaluation_cap():
    # Finite everywhere, but no piece settles before MAX_RATE_EVALS.
    kern = rate_kernel(
        RateFunction.from_callable(lambda t: 1.0 + math.sin(1e6 * t) ** 2), domain=(0.0, 10.0)
    )
    start = time.perf_counter()
    with pytest.raises(
        InvalidRateError,
        match=r"not integrable to 1e-10 over \[5\.0, 6\.0\] within 100000 evaluations",
    ):
        kern.cov(0.0, 10.0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, "1/|t - 1.75|"])
def test_bad_rate_values_name_the_interval(value):
    def rate(t):
        if t <= 1.5:
            return 1.0
        # no inf guard: raises ZeroDivisionError at the node t = 1.75
        return 1.0 / abs(t - 1.75) if isinstance(value, str) else value

    kern = rate_kernel(RateFunction.from_callable(rate))
    with pytest.raises(InvalidRateError, match=r"integrating over \[1\.0, 1\.75\]"):
        kern.eval(0.0, 1.75)


@pytest.mark.parametrize("jump_at", [0.3, 1 / 3, 0.7071, 1e-7, 2.5])
@pytest.mark.parametrize("jump", [1e-3, 1.0, 1e3])
def test_rate_with_a_jump_matches_closed_form(jump_at, jump):
    def rate(t):
        return 1.0 if t < jump_at else 1.0 + jump

    values = _antiderivative(RateFunction.from_callable(rate), (-math.inf, math.inf))(
        np.array([-0.2, 3.1])
    )
    exact = 3.3 + jump * (3.1 - jump_at)
    assert values[1] - values[0] == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_step_rate_kernel_matches_closed_form():
    calls = []
    step = rate_kernel(RateFunction.from_callable(lambda t: calls.append(t) or (1.0 if t < 0.3 else 2.0)))
    assert step.eval(0.0, 1.0) == pytest.approx(math.exp(-1.7), rel=1e-10)
    # the jump's piece stops once it meets the tolerance, long before the float spacing of 0.3
    assert len(calls) < 600
