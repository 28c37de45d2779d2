"""Stationary kernels from atomic spectral measures.

A finite symmetric measure on the line generates a stationary positive
semi-definite kernel through its Fourier transform.  This module builds
such kernels, evaluates the decay rate ``t -> (1 - mu_hat(t)) / t`` of the
transform near zero, and carries out the lacunary-series construction of
a probability measure whose decay rate oscillates between 0 and +inf as
t -> 0+, so that every value in [0, inf] is a cluster point.  Such a
measure yields a stationary Gaussian process with infinitely many weak
Markov transforms: one per cluster point.

The construction alternates geometric frequency windows (where the
lacunary sum grows without bound) with gaps (where it dies off), choosing
the window edges by integer search.  The index searches are honest but
grow tower-exponentially: with weights (1/2)^k and frequencies 3^k the
i = 2 gap search ends at n_6 = 253744, and the next active window needs a
sum bounded by ``x * 2^-253742`` to exceed 3, provably beyond any floating
budget, so deep searches return the indices found so far and name the
search that stopped.  One evaluator gives the windowed sum for an array of
x: each search scans it over the integers, upwards or downwards, in chunks,
and :func:`piecewise_f` takes it at one x.  The gap scans first drop every x
that a few heavy terms already keep above the threshold, since no term of
the sum is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, InvalidInputError, InvalidMeasureError
from .kernels import Kernel, _count

#: Default integer budget of the witness-index searches.
DEFAULT_INDEX_BUDGET = 10**6

#: Largest budget: the scans step through their integers as doubles, and
#: every integer below 2^53 is one.
MAX_INDEX_BUDGET = 2**53

#: Indices past this cap contribute less than ~1e-60 to any witness sum.
_TERM_CAP = 220

#: Total that the indices past :func:`_effective_cap` may add to a sum.
_CAP_EPS = 1e-12

#: Integers in the first and the largest chunk of the index scans; chunks
#: double in between, so a search that ends early does little extra work.
_FIRST_CHUNK = 32
_SCAN_CHUNK = 8192

#: Terms in the gap scan's lower bound, and the relative margin of the
#: scans' bounds: far above the rounding of a sum of at most _TERM_CAP terms.
_BOUND_TERMS = 4
_BOUND_MARGIN = 1e-9

#: Last k with 0.5**k > 0.0: it is the smallest subnormal, and 0.5**1075 rounds to 0.0.
_LAST_HALF_POWER = 1074

#: Cosines :func:`_over_cosines` holds at a time (512 KiB of doubles).
_FOURIER_COSINES = 2**16

#: Bisection steps :func:`cluster_witnesses` takes per target before it reports a stall.
WITNESS_BISECTION_STEPS = 60


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite symmetric atomic probability measure on the line.

    ``atoms`` is a list of ``(weight, location)`` with positive finite weights
    and nonnegative finite locations.  An atom ``(a, y)`` with ``y > 0`` stands for
    ``a * (delta_y + delta_{-y})`` (effective mass ``2a``); an atom at 0
    carries its own weight.  Effective masses must sum to 1.
    """

    atoms: tuple[tuple[float, float], ...]
    _effective: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        cleaned = []
        for w, y in self.atoms:
            w, y = float(w), float(y)
            if not (math.isfinite(w) and w > 0.0):
                raise InvalidMeasureError(f"atom weight must be positive and finite, got {w}")
            if not (math.isfinite(y) and y >= 0.0):
                raise InvalidMeasureError(
                    f"atom location must be nonnegative and finite, got {y}"
                )
            cleaned.append((w, y))
        object.__setattr__(self, "atoms", tuple(cleaned))
        if abs(self.total_mass - 1.0) > 1e-12:
            raise InvalidMeasureError(
                f"effective masses sum to {self.total_mass}, expected 1"
            )
        masses = np.array([2.0 * w if y > 0.0 else w for w, y in self.atoms])
        locs = np.array([y for _, y in self.atoms])
        masses.flags.writeable = locs.flags.writeable = False
        object.__setattr__(self, "_effective", (masses, locs))

    @property
    def total_mass(self) -> float:
        return sum(2.0 * w if y > 0.0 else w for w, y in self.atoms)

    def effective(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only arrays (effective masses, locations), built once."""
        return self._effective

    def fourier(self, t) -> np.ndarray:
        """Fourier transform ``mu_hat(t) = sum of eff * cos(t * y)``.

        Each entry is its own row sum, so its bits do not depend on how many
        entries one call evaluates (a matrix-vector product's would).
        """
        return _over_cosines(self, t, lambda _, cosines, masses: (cosines * masses).sum(axis=-1))

    def to_list(self) -> list[dict]:
        return [{"weight": w, "location": y} for w, y in self.atoms]


def _over_cosines(mu: SpectralMeasure, t, reduce) -> np.ndarray:
    """``reduce(chunk, cos(chunk x locations), masses)`` over ``t``, shaped as ``t``.

    At most ``_FOURIER_COSINES`` cosines exist at a time, whatever the size of
    ``t``; ``reduce`` gives each entry of the chunk from its own row alone.
    """
    masses, locs = mu.effective()
    t = np.asarray(t, dtype=float)
    step = max(1, _FOURIER_COSINES // locs.size)
    flat, out = t.ravel(), np.empty(t.size)
    for i in range(0, t.size, step):
        chunk = flat[i : i + step]
        out[i : i + step] = reduce(chunk, np.cos(np.multiply.outer(chunk, locs)), masses)
    return out.reshape(t.shape)


def kernel_from_spectral(mu: SpectralMeasure) -> Kernel:
    """Stationary kernel ``K(s, t) = mu_hat(t - s)``; unit variance."""
    return Kernel(cov=lambda s, t: mu.fourier(np.subtract(t, s)), name="spectral")


def fourier_decay_rate(mu: SpectralMeasure, t):
    """Decay rate ``(1 - mu_hat(t)) / t`` of the transform, for t > 0; a float for a scalar t.

    Computed as ``sum of eff * (1 - cos(t y)) / t`` so the result is
    nonnegative by construction.  Each entry is its own vector dot product,
    so its bits do not depend on how many entries one call evaluates.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise InvalidInputError(f"t must be positive, got {t[~(t > 0.0)].flat[0]}")
    if np.any(t == math.inf):
        raise InvalidInputError("t must be finite, got inf")
    out = _over_cosines(mu, t, lambda chunk, cosines, masses: np.matmul(
        (1.0 - cosines)[:, None, :], masses[:, None])[:, 0, 0] / chunk)
    return float(out) if t.ndim == 0 else out


# ---------------------------------------------------------------------------
# Lacunary witness construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeierstrassConfig:
    """Parameters of the lacunary construction: weights a^k, frequencies b^k."""

    a: float = 0.5
    b: float = 3.0
    k_cut: int = 60
    i_max: int = 4

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise InvalidInputError(f"need 0 < a < 1, got {self.a}")
        if self.a * self.b <= 1.0:
            raise InvalidInputError(f"need a*b > 1, got {self.a * self.b}")
        for name, least in (("k_cut", 2), ("i_max", 1)):
            count = _count(getattr(self, name), name, least, f"{name} must be at least {least}")
            object.__setattr__(self, name, count)


@dataclass(frozen=True)
class WitnessIndices:
    """Window edges n_0 < n_1 < ... of the lacunary construction.

    Frequencies ``b^k`` are active (location ``y_k = b^k``) for k in
    ``[n_0, n_1) + [n_2, n_3) + ...`` and silenced (``y_k = 0``) in the
    gaps.  ``stopped`` names the search that passed its budget or is
    provably out of reach within it, such as
    ``n_7 (provably unreachable: sum below 2^-253722.1)``, and is empty when
    every search completed; the recorded windows are valid as far as they go.
    """

    indices: tuple[int, ...]
    windows: tuple[tuple[int, int], ...]
    stopped: str
    config: WeierstrassConfig = field(default_factory=WeierstrassConfig)

    @property
    def complete(self) -> bool:
        return not self.stopped


def _effective_cap(config: WeierstrassConfig, x: float) -> int:
    """Largest index whose term can still move a sum by more than _CAP_EPS.

    A term is bounded by ``2 x a^k``; indices past the cap change any
    witness value by less than _CAP_EPS in total, far below every threshold
    margin used here.
    """
    cap = math.ceil(math.log(2.0 * max(x, 1.0) / _CAP_EPS) / math.log(1.0 / config.a))
    return min(_TERM_CAP, cap)


def _windowed_sum(config: WeierstrassConfig, ks: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``x * sum of a^k (1 - cos(b^k / x)) [k <= x]`` over the indices ks, for each x of xs."""
    terms = 1.0 - np.cos(np.outer(1.0 / xs, config.b**ks))
    if ks.size and xs.size and ks.max() > xs.min():  # else the mask is all ones
        terms *= ks <= xs[:, None]
    return xs * (terms @ config.a**ks)


def _window_indices(windows: Sequence[tuple[int, int]], cap: int) -> np.ndarray:
    """The indices k <= cap of the windows ``[lo, hi)``, ascending, as floats."""
    active = np.zeros(cap + 1, dtype=bool)
    for lo, hi in windows:
        active[lo:hi] = True
    return np.flatnonzero(active).astype(float)


def _first_crossing(
    config: WeierstrassConfig,
    windows: Sequence[tuple[int, int]],
    x_start: int,
    x_stop: int,
    threshold: float,
    upward: bool = False,
) -> int | None:
    """Smallest integer x in [x_start, x_stop] where a windowed lacunary sum crosses threshold.

    The sum is :func:`_windowed_sum` over the windows' indices up to
    ``_effective_cap`` of x_stop, scanned in chunks of ``_FIRST_CHUNK``
    integers doubling up to ``_SCAN_CHUNK``.  Upward, over one open window
    ``[(lo, _TERM_CAP + 1)]``, it is the growth functional f_lo and the first
    sum above threshold counts.  Downward, over closed windows whose indices
    all lie below x_start, it is the gap functional and the first sum below
    threshold counts.  No term is negative, so the ``_BOUND_TERMS`` heaviest
    terms whose phase ``b^k / x`` is at least 1 across a chunk bound the sum
    from below; only the x whose bound is under
    ``threshold * (1 + _BOUND_MARGIN)`` get the full sum.
    """
    ks = _window_indices(windows, _effective_cap(config, float(x_stop)))

    def crossed(start: int, stop: int) -> np.ndarray:
        xs = np.arange(start, stop, dtype=float)
        if upward:
            return np.flatnonzero(_windowed_sum(config, ks, xs) > threshold)
        first = int(np.searchsorted(config.b**ks, xs[-1]))  # phase >= 1 on the whole chunk
        bound = _windowed_sum(config, ks[first:first + _BOUND_TERMS], xs)
        keep = np.flatnonzero(bound < threshold * (1.0 + _BOUND_MARGIN))
        return keep[_windowed_sum(config, ks, xs[keep]) < threshold]

    start, chunk = x_start, _FIRST_CHUNK
    while start <= x_stop:
        stop = min(start + chunk, x_stop + 1)
        hits = crossed(start, stop)
        if hits.size:
            return start + int(hits[0])
        start, chunk = stop, min(2 * chunk, _SCAN_CHUNK)
    return None


def piecewise_f(config: WeierstrassConfig, witness: WitnessIndices, x: float) -> float:
    """``x * sum_{k=2}^{floor(x)} a^k (1 - cos(y_k / x))`` with the constructed y."""
    if not x > 0.0:
        raise InvalidInputError(f"x must be positive, got {x}")
    if x == math.inf:
        raise InvalidInputError("x must be finite, got inf")
    ks = _window_indices(witness.windows, _effective_cap(config, x))
    return float(_windowed_sum(config, ks, np.array([float(x)]))[0])


def weierstrass_indices(
    config: WeierstrassConfig,
    budget: int = DEFAULT_INDEX_BUDGET,
) -> WitnessIndices:
    """Integer search for the alternating window edges.

    ``n_0 = 2``; then alternately
    ``n_{2i+1} = inf{n > n_{2i} : f_{n_{2i}}(n - 1) > i}`` and
    ``n_{2(i+1)} = inf{n > n_{2i+1} : g_windows(n - 1) < 1/i}``
    (``1/0`` read as +inf).  A search that passes ``budget`` or is provably
    unreachable within it ends the construction: the result then holds the
    indices and windows found so far and names that search in ``stopped``.
    """
    budget = _count(budget, "index budget", 1, most=MAX_INDEX_BUDGET)
    indices: list[int] = [2]
    closed_windows: list[tuple[int, int]] = []
    a = config.a

    def stop(stage: str) -> WitnessIndices:
        # An unclosed active window keeps its frequencies up to the cap.
        windows = list(closed_windows)
        if len(indices) % 2 == 1 and indices[-1] <= _TERM_CAP:
            windows.append((indices[-1], _TERM_CAP + 1))
        return WitnessIndices(tuple(indices), tuple(windows), stopped=stage, config=config)

    for i in range(config.i_max + 1):
        lo = indices[-1]
        # Odd index: first n with f_lo(n - 1) > i.  The sum is below
        # x * 2a^lo / (1 - a), so the scan starts where that bound reaches i,
        # and a search whose budget ends before it is provably hopeless.  The
        # verdict is taken in base-2 logs: a^lo underflows to 0 long before
        # the searches grow hopeless (2^-253722 at lo = 253744).
        log2_best = math.log2(budget) + 1.0 + lo * math.log2(a) - math.log2(1.0 - a)
        if i > 0 and log2_best <= math.log2(i):
            return stop(f"n_{2 * i + 1} (provably unreachable: sum below 2^{log2_best:.1f})")
        x_start = max(lo, int(i * (1.0 - a) / (2.0 * a**lo * (1.0 + _BOUND_MARGIN))))
        hit = _first_crossing(config, [(lo, _TERM_CAP + 1)], x_start, budget - 1, i, upward=True)
        if hit is None:
            return stop(f"n_{2 * i + 1}")
        n = hit + 1
        indices.append(n)
        closed_windows.append((lo, n))

        # Even index: first n with the gap functional below 1/i, where 1/0
        # reads as +inf.
        if i == 0:
            indices.append(n + 1)
            continue
        hit = _first_crossing(config, closed_windows, n, budget - 1, 1.0 / i)
        if hit is None:
            return stop(f"n_{2 * (i + 1)}")
        indices.append(hit + 1)

    return WitnessIndices(tuple(indices), tuple(closed_windows), stopped="", config=config)


def _require_half(config: WeierstrassConfig) -> None:
    if config.a != 0.5:
        raise InvalidInputError("the probability normalization requires a = 1/2")


def measure_from_windows(
    config: WeierstrassConfig, windows: Sequence[tuple[int, int]]
) -> SpectralMeasure:
    """Assemble the symmetric probability measure for an active-window set.

    Index k carries weight ``2^-k`` at ``+-b^k`` when active, at 0 when
    silenced; all indices beyond ``k_cut`` are folded into the atom at 0
    so the measure stays a probability measure.
    """
    _require_half(config)

    def location(k: int) -> float:
        try:
            return config.b**k
        except OverflowError:
            raise InvalidInputError(
                f"location b**k of active index k = {k} overflows (b = {config.b})"
            ) from None

    # Past _LAST_HALF_POWER every a^k is 0.0 and adds 0.0 to the mass at 0, the tail's too.
    k_last = min(config.k_cut, _LAST_HALF_POWER)
    active = set(_window_indices(windows, k_last).tolist())
    zero_mass = 0.0
    atoms: list[tuple[float, float]] = []
    for k in range(2, k_last + 1):
        w = config.a**k
        if k in active:
            atoms.append((w, location(k)))
        else:
            zero_mass += 2.0 * w
    late = [max(lo, k_last + 1) for lo, hi in windows if max(lo, k_last + 1) < min(hi, config.k_cut + 1)]
    if late:
        location(min(late))  # raises: a*b > 1 makes b > 2, so b^k > 2^1075
    zero_mass += 2.0 * config.a**min(config.k_cut, _LAST_HALF_POWER + 1)  # k_cut may be no float
    atoms.append((zero_mass, 0.0))
    return SpectralMeasure(atoms=tuple(atoms))


def weierstrass_gamma(config: WeierstrassConfig | None = None) -> SpectralMeasure:
    """The fully active lacunary measure (every frequency b^k present)."""
    config = config or WeierstrassConfig()
    return measure_from_windows(config, [(2, config.k_cut + 1)])


def counterexample_measure(
    config: WeierstrassConfig | None = None,
    budget: int = DEFAULT_INDEX_BUDGET,
) -> SpectralMeasure:
    """Measure whose Fourier decay rate has every point of [0, inf] as cluster point.

    Refuses ``a != 1/2`` before any search, as :func:`measure_from_windows`
    would after it.  Raises :class:`BudgetExceededError` when an index
    search stops short; :func:`weierstrass_indices` returns the partial
    windows in that case.
    """
    config = config or WeierstrassConfig()
    _require_half(config)
    witness = weierstrass_indices(config, budget=budget)
    if not witness.complete:
        raise BudgetExceededError(
            f"index budget {budget} exceeded while searching {witness.stopped}"
        )
    return measure_from_windows(config, witness.windows)


@dataclass(frozen=True)
class WitnessResult:
    target: float
    found: bool
    t: float
    rate: float
    error: float
    message: str = ""


def cluster_witnesses(
    mu: SpectralMeasure,
    targets: Sequence[float],
    search_grid=None,
    tol_factor: float = 1e-3,
) -> dict[float, WitnessResult]:
    """Find lags realizing prescribed decay-rate values.

    For each target rate, scans the search grid for a bracketing pair and
    bisects (the decay rate is continuous in t) until the rate is within
    ``tol_factor * (1 + target)``.  Missing brackets are reported in the
    result, not raised.
    """
    if search_grid is None:
        search_grid = np.geomspace(1e-9, 20.0, 4000)
    grid = np.sort(np.asarray(search_grid, dtype=float))
    rates = fourier_decay_rate(mu, grid)
    out: dict[float, WitnessResult] = {}
    for target in targets:
        target = float(target)
        if target < 0.0 or not math.isfinite(target):
            raise InvalidInputError(f"targets must be finite and nonnegative, got {target}")
        tol = tol_factor * (1.0 + target)
        best = int(np.argmin(np.abs(rates - target)))
        crossings = np.flatnonzero((rates[:-1] - target) * (rates[1:] - target) < 0.0)
        message = ""
        if abs(rates[best] - target) <= tol:
            t, r = grid[best], rates[best]
        elif not crossings.size:
            out[target] = WitnessResult(
                target, False, math.nan, math.nan, math.inf,
                message="no bracketing pair on the search grid",
            )
            continue
        else:
            i = crossings[0]
            lo, hi, r_lo = grid[i], grid[i + 1], rates[i]
            t, r = lo, r_lo
            for _ in range(WITNESS_BISECTION_STEPS):
                t = 0.5 * (lo + hi)
                r = fourier_decay_rate(mu, t)
                if abs(r - target) <= tol:
                    break
                if (r_lo - target) * (r - target) < 0.0:
                    hi = t
                else:
                    lo, r_lo = t, r
            else:
                message = f"bisection stalled after {WITNESS_BISECTION_STEPS} iterations"
        t, r = float(t), float(r)
        out[target] = WitnessResult(target, not message, t, r, abs(r - target), message)
    return out
