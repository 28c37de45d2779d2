import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussmarkov import spectral
from gaussmarkov.errors import (
    BudgetExceededError,
    InvalidInputError,
    InvalidMeasureError,
)
from gaussmarkov.kernels import psd_check
from gaussmarkov.spectral import (
    SpectralMeasure,
    WeierstrassConfig,
    cluster_witnesses,
    counterexample_measure,
    fourier_decay_rate,
    kernel_from_spectral,
    measure_from_windows,
    piecewise_f,
    weierstrass_gamma,
    weierstrass_indices,
)
import oracles
from oracles import f_witness


def two_point():
    return SpectralMeasure(atoms=((0.5, 1.0),))


# ---------------------------------------------------------------------------
# Reference index searches: the scalar odd loop over f_witness and the
# unpruned gap scan that spectral._first_crossing replaced.
# ---------------------------------------------------------------------------


def reference_first_gap_hit(config, windows, x_start, x_stop, threshold, chunk=8192):
    """Smallest integer x in [x_start, x_stop] with g_windows(x) < threshold."""
    cap = spectral._effective_cap(config, float(x_stop))
    ks = np.concatenate(
        [np.arange(lo, min(hi - 1, cap) + 1) for lo, hi in windows]
    ).astype(float)
    if ks.size == 0:
        return x_start
    weights = config.a**ks
    freqs = config.b**ks
    start = x_start
    while start <= x_stop:
        stop = min(start + chunk, x_stop + 1)
        xs = np.arange(start, stop, dtype=float)
        vals = xs * ((1.0 - np.cos(np.outer(1.0 / xs, freqs))) @ weights)
        hits = np.nonzero(vals < threshold)[0]
        if hits.size:
            return start + int(hits[0])
        start = stop
    return None


def reference_search(config, budget):
    """(indices, windows, complete, failed stage) of the searches as they were."""
    indices, windows = [2], []

    def failed(stage):
        open_window = [(indices[-1], spectral._TERM_CAP + 1)]
        if len(indices) % 2 == 0 or indices[-1] > spectral._TERM_CAP:
            open_window = []
        return indices, windows + open_window, False, stage

    for i in range(config.i_max + 1):
        lo = indices[-1]
        if i > 0 and budget * 2.0 * config.a**lo / (1.0 - config.a) <= i:
            return failed(f"n_{2 * i + 1} unreachable")
        n = lo + 1
        while True:
            if n > budget:
                return failed(f"n_{2 * i + 1}")
            if f_witness(config, lo, n - 1) > i:
                break
            n += 1
        indices.append(n)
        windows.append((lo, n))
        if i == 0:
            indices.append(n + 1)
            continue
        hit = reference_first_gap_hit(config, windows, n, budget - 1, 1.0 / i)
        if hit is None:
            return failed(f"n_{2 * (i + 1)}")
        indices.append(hit + 1)
    return indices, windows, True, None


def search(config, budget):
    """:func:`weierstrass_indices` in the form of :func:`reference_search`."""
    found = weierstrass_indices(config, budget=budget)
    stage, _, proof = found.stopped.partition(" (provably unreachable")
    return (
        list(found.indices), list(found.windows), found.complete,
        (stage + " unreachable" if proof else stage) or None,
    )


class TestSpectralMeasure:
    def test_mass_validation(self):
        with pytest.raises(InvalidMeasureError):
            SpectralMeasure(atoms=((0.5, 1.0), (0.5, 2.0)))  # effective mass 2
        with pytest.raises(InvalidMeasureError):
            SpectralMeasure(atoms=((-0.5, 1.0), (1.0, 0.0)))
        with pytest.raises(InvalidMeasureError, match="finite, got nan"):
            SpectralMeasure(atoms=((math.nan, 1.0),))  # a NaN total mass is not != 1
        with pytest.raises(InvalidMeasureError, match="finite, got inf"):
            SpectralMeasure(atoms=((0.5, math.inf),))

    def test_serialization_round_trip(self):
        mu = SpectralMeasure(atoms=((0.25, 1.0), (0.5, 0.0)))
        again = SpectralMeasure.from_list(mu.to_list())
        assert again.atoms == mu.atoms


class TestKernelFromSpectral:
    def test_two_point_gives_cosine(self):
        kern = kernel_from_spectral(two_point())
        for h in (0.0, 0.5, 2.0, -1.3):
            assert kern.eval(0.0, h) == pytest.approx(math.cos(h), abs=1e-15)

    def test_point_mass_at_zero_gives_constant(self):
        kern = kernel_from_spectral(SpectralMeasure(atoms=((1.0, 0.0),)))
        assert kern.eval(0.0, 7.3) == 1.0

    def test_weierstrass_profile(self):
        cfg = WeierstrassConfig()
        mu = weierstrass_gamma(cfg)
        kern = kernel_from_spectral(mu)
        assert kern.eval(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        # direct lacunary cosine sum as the oracle
        for h in (0.05, 0.3, 1.7):
            direct = sum(
                2.0 * 0.5**k * math.cos(h * 3.0**k) for k in range(2, cfg.k_cut + 1)
            )
            direct += 2.0 * 0.5**cfg.k_cut  # truncated tail at frequency zero
            assert kern.eval(0.0, h) == pytest.approx(direct, abs=1e-12)

    def test_psd_on_random_grids(self):
        kern = kernel_from_spectral(two_point())
        rng = np.random.default_rng(19)
        for _ in range(50):
            pts = np.sort(rng.uniform(-5, 5, size=int(rng.integers(2, 9))))
            if np.any(np.diff(pts) <= 0):
                continue
            assert psd_check(kern, pts).passed


class TestFourierDecayRate:
    def test_point_mass_at_zero(self):
        mu = SpectralMeasure(atoms=((1.0, 0.0),))
        assert fourier_decay_rate(mu, 0.37) == 0.0

    def test_two_point_small_lag(self):
        val = fourier_decay_rate(two_point(), 0.01)
        assert val == pytest.approx((1 - math.cos(0.01)) / 0.01, rel=1e-12)
        assert val == pytest.approx(0.005, rel=1e-4)

    def test_weierstrass_rate_increases(self):
        mu = weierstrass_gamma()
        vals = [fourier_decay_rate(mu, 1.0 / x) for x in (10.0, 100.0, 1000.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_nonnegative_and_continuous(self):
        mu = weierstrass_gamma()
        rng = np.random.default_rng(4)
        for _ in range(100):
            t = float(rng.uniform(1e-4, 5.0))
            r = fourier_decay_rate(mu, t)
            assert r >= 0.0
            assert abs(fourier_decay_rate(mu, t + 1e-9) - r) < 1e-4 * (1 + r)

    def test_rejects_nonpositive_lag(self):
        with pytest.raises(InvalidInputError):
            fourier_decay_rate(two_point(), 0.0)


class TestWitnessIndices:
    def test_first_indices(self, partial_witness):
        n = partial_witness.indices
        assert n[0] == 2
        # brute-force oracle for n_1: first n > 2 with f_2(n-1) > 0
        cfg = partial_witness.config
        candidates = [m for m in range(3, 10) if f_witness(cfg, 2, m - 1) > 0]
        assert n[1] == candidates[0] == 3
        assert n[2] == 4  # threshold 1/0 reads as +inf

    def test_minimality_of_search(self, partial_witness):
        cfg = partial_witness.config
        n = partial_witness.indices
        # n_3 = inf{n > n_2 : f_{n_2}(n-1) > 1}
        assert f_witness(cfg, n[2], n[3] - 1) > 1
        assert all(f_witness(cfg, n[2], m - 1) <= 1 for m in range(n[2] + 1, n[3]))

    def test_witness_inequalities_on_completed_depths(self, partial_witness):
        cfg = partial_witness.config
        n = partial_witness.indices
        depth = (len(n) - 1) // 2
        for i in range(depth):
            assert piecewise_f(cfg, partial_witness, n[2 * i + 1] - 1) > i
            if i >= 1 and 2 * (i + 1) < len(n):
                assert piecewise_f(cfg, partial_witness, n[2 * (i + 1)] - 1) < 1.0 / i

    def test_shallow_search_completes(self):
        result = weierstrass_indices(WeierstrassConfig(i_max=2))
        assert result.complete and result.stopped == ""
        assert result.indices == (2, 3, 4, 9, 14, 8701, 253744)

    def test_deep_search_exceeds_budget(self, partial_witness):
        assert not partial_witness.complete
        assert partial_witness.indices == (2, 3, 4, 9, 14, 8701, 253744)  # n_0 .. n_6
        # the active window opened at n_6 is past the term cap, so it adds nothing
        assert partial_witness.windows == ((2, 3), (4, 9), (14, 8701))

    def test_unreachable_bound_is_reported_in_logs(self, partial_witness):
        assert partial_witness.stopped == "n_7 (provably unreachable: sum below 2^-253722.1)"

    @pytest.mark.parametrize("budget,stage", [
        (8192, "n_5 unreachable"),  # the bound equals the threshold 2 exactly
        (8193, "n_5"),
        (8700, "n_5"),
        (8701, "n_6"),
    ])
    def test_budget_edges_match_reference(self, budget, stage):
        config = WeierstrassConfig(i_max=4)
        got = search(config, budget)
        assert got == reference_search(config, budget)
        assert got[3] == stage

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_rejected(self, budget):
        with pytest.raises(InvalidInputError, match="index budget must be at least 1"):
            weierstrass_indices(WeierstrassConfig(i_max=1), budget=budget)

    @pytest.mark.parametrize("budget", [2**53 + 1, 10**400])
    def test_budget_past_exact_doubles_is_rejected(self, budget):
        # Past 2^53 the scans would step over integers that no double holds.
        with pytest.raises(InvalidInputError, match=f"at most 2\\^53, got {budget}"):
            weierstrass_indices(WeierstrassConfig(i_max=1), budget=budget)

    def test_pruned_gap_scan_returns_unpruned_hit(self):
        # the i = 2 gap scan of the default construction: the lower bound
        # leaves only a few thousand of its ~2.5e5 integers to the full sum
        config = WeierstrassConfig(i_max=4)
        windows = [(2, 3), (4, 9), (14, 8701)]
        budget = spectral.DEFAULT_INDEX_BUDGET
        want = reference_first_gap_hit(config, windows, 8701, budget - 1, 0.5)
        assert want == 253743
        assert spectral._first_crossing(config, windows, 8701, budget - 1, 0.5) == want

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(0.3, 0.7),
        excess=st.floats(1.01, 3.0),
        terms=st.integers(1, spectral._BOUND_TERMS),
        above=st.floats(1e-12, 5e-4),
    )
    def test_gap_scan_keeps_a_sum_just_under_the_threshold(self, a, excess, terms, above):
        # A few terms, all of phase >= 1 on the whole range: the lower bound
        # is the whole sum, so only the bound's margin keeps the crossing x.
        config = WeierstrassConfig(a=a, b=excess / a)
        k0 = math.ceil(math.log(5000.0) / math.log(config.b))
        windows = [(k0, k0 + terms)]
        ks = np.arange(k0, k0 + terms).astype(float)
        xs = np.arange(1000, 5001, dtype=float)
        g = xs * ((1.0 - np.cos(np.outer(1.0 / xs, config.b**ks))) @ config.a**ks)
        records = 1 + np.flatnonzero(g[1:] * (1.0 + above) < np.minimum.accumulate(g)[:-1])
        assume(records.size)
        threshold = g[records[-1]] * (1.0 + above)  # crossed first at the last record low
        want = reference_first_gap_hit(config, windows, 1000, 5000, threshold)
        assert want == 1000 + records[-1]
        assert spectral._first_crossing(config, windows, 1000, 5000, threshold) == want

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(0.3, 0.7),
        excess=st.floats(1.01, 3.0),
        lo=st.integers(2, 6),
        below=st.floats(1e-9, 5e-4),
    )
    def test_odd_scan_finds_a_sum_just_above_the_threshold(self, a, excess, lo, below):
        # On [lo, 400] both floor(x) and the per-x term cap of f_witness
        # decide which terms count; the scan caps at x_stop and masks k <= x.
        config = WeierstrassConfig(a=a, b=excess / a)
        xs = np.arange(lo, 401)
        f = np.array([f_witness(config, lo, float(x)) for x in xs])
        # Two float evaluations of the phase b^k / x differ by up to (k + 2)
        # roundings, which move a term by up to min(2, that phase error) of
        # its weight x a^k; past phase ~2^52 the term itself is rounding.
        ks = np.arange(lo, spectral._TERM_CAP + 1)
        phase_error = (ks + 2) * 2.0**-52 * np.outer(1.0 / xs, config.b**ks)
        slack = 1e-12 + xs * (
            (np.minimum(2.0, phase_error) * (ks <= xs[:, None])) @ config.a**ks
        )
        low, high = (f - slack) * (1.0 - below), np.maximum.accumulate(f + slack)
        records = 1 + np.flatnonzero(low[1:] > high[:-1])
        assume(records.size)
        for r in records:  # a threshold just under a record high is crossed there first
            hit = spectral._first_crossing(
                config, [(lo, spectral._TERM_CAP + 1)], lo, 400, low[r], upward=True
            )
            assert hit == lo + r

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.3, 0.7),
        excess=st.floats(1.01, 3.0),
        i_max=st.integers(1, 3),
        budget=st.integers(10**3, 10**5),
    )
    def test_chunked_scans_match_reference(self, a, excess, i_max, budget):
        config = WeierstrassConfig(a=a, b=excess / a, i_max=i_max)
        want = reference_search(config, budget)
        assert search(config, budget) == want
        # A budget one short of each found index exhausts that index's
        # search, odd and gap stages alike.
        for n in want[0][1:]:
            assert search(config, n - 1) == reference_search(config, n - 1)

    def test_location_map(self, partial_witness):
        y = partial_witness.y_map()
        assert y[2] == 9.0 and y[3] == 0.0
        assert y[4] == 81.0 and y[8] == 3.0**8 and y[9] == 0.0
        assert y[14] == 3.0**14


class TestCounterexampleMeasure:
    def test_total_mass_one(self, partial_measure):
        assert partial_measure.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_incomplete_search_raises(self):
        # the contract is the full measure: a partial one never comes back
        with pytest.raises(BudgetExceededError, match=r"searching n_7 \(provably unreachable"):
            counterexample_measure(WeierstrassConfig(i_max=4))

    def test_shallow_measure_construction(self):
        mu = counterexample_measure(WeierstrassConfig(i_max=1))
        assert mu.total_mass == pytest.approx(1.0, abs=1e-15)
        locs = sorted(y for _, y in mu.atoms if y > 0)
        assert locs == [3.0**k for k in (2, 4, 5, 6, 7, 8)]

    def test_rate_explodes_along_odd_witnesses(self, partial_witness, partial_measure):
        mu = partial_measure
        n = partial_witness.indices
        tail_tol = 1e-6
        for i in (1, 2):
            s_i = 1.0 / (n[2 * i + 1] - 1)
            assert fourier_decay_rate(mu, s_i) > i - tail_tol

    def test_rate_dies_along_even_witnesses(self, partial_witness, partial_measure):
        # the decay rate is twice the window functional, so the honest
        # bound along the even witnesses is 2/i plus the truncation slack
        mu = partial_measure
        n = partial_witness.indices
        tail_tol = 1e-6
        for i in (1, 2):
            t_i = 1.0 / (n[2 * (i + 1)] - 1)
            assert fourier_decay_rate(mu, t_i) < 2.0 / i + tail_tol

    def test_truncation_tail_bound(self):
        # doubling the cutoff moves any decay-rate value by less than
        # x * 2^(1 - k_cut)
        cfg60 = WeierstrassConfig(i_max=1, k_cut=60)
        cfg80 = WeierstrassConfig(i_max=1, k_cut=80)
        mu60 = counterexample_measure(cfg60)
        mu80 = counterexample_measure(cfg80)
        for x in (2.0, 8.0, 13.0, 100.0):
            bound = x * 2.0 ** (1 - 60)
            diff = abs(
                fourier_decay_rate(mu60, 1.0 / x) - fourier_decay_rate(mu80, 1.0 / x)
            )
            assert diff <= bound + 1e-15

    def test_weights_past_underflow_add_nothing(self):
        # 0.5**k is 0.0 from k = 1075 on, so no later index changes a bit
        windows = [(2, 3), (4, 9)]
        at_1100 = measure_from_windows(WeierstrassConfig(k_cut=1100), windows)
        assert measure_from_windows(WeierstrassConfig(k_cut=10**9), windows) == at_1100
        assert measure_from_windows(WeierstrassConfig(k_cut=1075), windows) == at_1100

    @pytest.mark.parametrize("windows,k", [([(2, 3), (600, 700)], 647), ([(2, 3), (2000, 2001)], 2000)],
                             ids=["below-underflow", "past-underflow"])
    def test_overflowing_location_is_named(self, windows, k):
        with pytest.raises(InvalidInputError,
                           match=rf"active index k = {k} overflows \(b = 3.0\)"):
            measure_from_windows(WeierstrassConfig(k_cut=3000), windows)


class TestClusterWitnesses:
    def test_targets_found(self, partial_measure):
        mu = partial_measure
        results = cluster_witnesses(mu, [0.25, 1.0, 4.0])
        for target, res in results.items():
            assert res.found, res.message
            assert abs(res.rate - target) <= 1e-3 * (1 + target)

    def test_target_zero_reachable_at_tiny_lag(self, partial_measure):
        mu = partial_measure
        grid = np.geomspace(1e-45, 10.0, 3000)
        results = cluster_witnesses(mu, [0.0], search_grid=grid)
        assert results[0.0].found
        assert results[0.0].rate <= 1e-3

    def test_unreachable_target_reported_not_fatal(self, partial_measure):
        mu = partial_measure
        results = cluster_witnesses(
            mu, [1e9], search_grid=np.geomspace(0.5, 5.0, 50)
        )
        assert not results[1e9].found
        assert results[1e9].message

    def test_stalled_bisection_reports_the_last_midpoint(self, monkeypatch):
        monkeypatch.setattr(spectral, "WITNESS_BISECTION_STEPS", 1)
        mu = two_point()
        grid = np.geomspace(1e-3, 1.0, 8)
        rates = np.array([fourier_decay_rate(mu, float(t)) for t in grid])
        i = int(np.flatnonzero((rates[:-1] - 0.05) * (rates[1:] - 0.05) < 0.0)[0])
        t_mid = 0.5 * (grid[i] + grid[i + 1])
        r_mid = fourier_decay_rate(mu, t_mid)
        res = cluster_witnesses(mu, [0.05], search_grid=grid)[0.05]
        assert abs(r_mid - 0.05) > 1e-3 * 1.05  # one step does not reach the target
        assert not res.found
        assert res.message == "bisection stalled after 1 iterations"
        assert (res.t, res.rate, res.error) == (t_mid, r_mid, abs(r_mid - 0.05))

    def test_bisection_tightens_bracket(self):
        mu = two_point()  # rate (1 - cos t)/t, increasing near 0
        results = cluster_witnesses(mu, [0.05], search_grid=np.geomspace(1e-3, 1.0, 8))
        res = results[0.05]
        assert res.found
        assert abs(res.rate - 0.05) <= 1e-3 * 1.05


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=80),
    data=st.data(),
)
def test_array_decay_rate_is_bitwise_the_scalar_loop(weights, data):
    locations = data.draw(st.lists(
        st.floats(1e-6, 1e30), min_size=len(weights), max_size=len(weights)))
    total = 2.0 * math.fsum(weights)
    mu = SpectralMeasure(atoms=tuple((w / total, y) for w, y in zip(weights, locations)))
    grid = np.geomspace(1e-9, 20.0, 4000)  # cluster_witnesses' scan; in chunks past 16 atoms
    rates = fourier_decay_rate(mu, grid)
    assert rates.tobytes() == oracles.decay_rates(mu, grid).tobytes()
    t = float(grid[data.draw(st.integers(0, grid.size - 1))])
    assert type(fourier_decay_rate(mu, t)) is float
    assert fourier_decay_rate(mu, t) == rates[grid == t][0]


def test_array_decay_rate_on_the_readme_measures(partial_measure):
    grid = np.geomspace(1e-9, 20.0, 4000)
    shallow = counterexample_measure(WeierstrassConfig(i_max=1))  # counterexample --i-max 1
    for mu in (shallow, partial_measure):
        assert fourier_decay_rate(mu, grid).tobytes() == oracles.decay_rates(mu, grid).tobytes()
        square = grid[:12].reshape(3, 4)
        assert fourier_decay_rate(mu, square).shape == (3, 4)
    with pytest.raises(InvalidInputError, match="t must be positive, got 0.0"):
        fourier_decay_rate(two_point(), np.array([1.0, 0.0]))


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: WeierstrassConfig(a=1.0), "need 0 < a < 1, got 1.0", id="config-a"),
    pytest.param(lambda: WeierstrassConfig(a=0.5, b=2.0), "need a*b > 1, got 1.0", id="config-ab"),
    pytest.param(lambda: WeierstrassConfig(k_cut=1), "k_cut must be at least 2", id="config-k-cut"),
    pytest.param(lambda: WeierstrassConfig(i_max=0), "i_max must be at least 1", id="config-i-max"),
    pytest.param(lambda: spectral.piecewise_f(
        WeierstrassConfig(), spectral.WitnessIndices((2,), (), ""), 0.0),
        "x must be positive, got 0.0", id="piecewise-f-x"),
    pytest.param(lambda: spectral.measure_from_windows(WeierstrassConfig(a=0.25, b=5.0), [(2, 3)]),
                 "the probability normalization requires a = 1/2", id="measure-a"),
    pytest.param(lambda: cluster_witnesses(two_point(), [-1.0]),
                 "targets must be finite and nonnegative, got -1.0", id="witness-target"),
    pytest.param(lambda: cluster_witnesses(two_point(), [1.0], search_grid=[1.0, -2.0, 0.0]),
                 "t must be positive, got -2.0", id="witness-grid"),
])
def test_bad_arguments_are_named(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()
