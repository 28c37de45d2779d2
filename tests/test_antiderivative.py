"""The rate antiderivative behind ``rate_kernel``.

Its nearest-knot lookup bisects the sorted knots.  It is checked here, bit
for bit, against the linear scan it replaced, on query sequences with exact
ties, queries outside every knot and knots so close that their distances to
a far query round to the same value.  A threaded run checks that the cache
stays consistent when several threads miss at once.
"""

import sys
import threading
from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmarkov.kernels import RateFunction
from gaussmarkov.transform import _Antiderivative, rate_kernel


class LinearScanAntiderivative(_Antiderivative):
    """The former lookup: ``min`` over every knot, lowest index on ties."""

    def __call__(self, t):
        t = float(t)
        if t in self._values:
            return self._values[t]
        if not self._knots:
            self._knots.append(t)
            self._values[t] = 0.0
            return 0.0
        pos = min(range(len(self._knots)), key=lambda i: abs(self._knots[i] - t))
        base = self._knots[pos]
        val = self._values[base] + self._integrate(base, t)
        insort(self._knots, t)
        self._values[t] = val
        return val


def _rate(t):
    return 1.0 + t * t


RATE = RateFunction.from_callable(_rate)

queries = st.one_of(
    # dyadic points: midpoints of two knots are exact ties
    st.integers(-32, 32).map(lambda k: k / 8.0),
    st.floats(-4.0, 4.0, allow_nan=False),
    # clustered knots whose distances to a query far away round alike
    st.sampled_from([1e-20, 2e-20, 3e-20, -1e-20, 1.0 + 2.0**-52, 1.0 + 2.0**-51]),
    # beyond every other query
    st.sampled_from([-100.0, 100.0]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(queries, min_size=1, max_size=40))
def test_bisected_lookup_matches_linear_scan(sequence):
    fast, slow = _Antiderivative(RATE), LinearScanAntiderivative(RATE)
    for t in sequence:
        assert fast(t) == slow(t)
    assert fast._knots == slow._knots


def test_far_query_takes_the_lowest_of_equally_distant_knots():
    # 1 - 1e-20, 1 - 2e-20 and 1 - 3e-20 all round to 1.0: the scan took 1e-20
    fast, slow = _Antiderivative(RATE), LinearScanAntiderivative(RATE)
    for t in (2e-20, 1e-20, 3e-20):
        assert fast(t) == slow(t)
    assert fast._nearest_knot(1.0) == 1e-20
    assert fast(1.0) == slow(1.0)


def test_ties_take_the_lower_knot():
    fast = _Antiderivative(RATE)
    for t in (0.0, 1.0):
        fast(t)
    assert fast._nearest_knot(0.5) == 0.0
    assert fast._nearest_knot(-3.0) == 0.0
    assert fast._nearest_knot(7.0) == 1.0


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
    # Each value integrates from whichever knot was nearest when it was
    # first asked for, so thread scheduling can move the last bits only.
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_concurrent_misses_cache_each_time_once():
    antider = _Antiderivative(RATE)
    times = [float(t) for t in np.linspace(-2.0, 2.0, 301)]
    seen = [dict() for _ in range(4)]

    def work(k):
        for t in times[k::4] + times[::-1]:
            seen[k][t] = antider(t)

    assert run_threads(work, 4) == []
    assert antider._knots == sorted(times)
    for values in seen:
        # every thread got the one cached value of each time
        assert values == antider._values

    def exact(t):
        return t + t**3 / 3.0

    for t in times:
        assert antider(t) - antider(times[0]) == pytest.approx(exact(t) - exact(times[0]), abs=1e-8)
