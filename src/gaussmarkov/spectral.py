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
budget, so deep searches end with :class:`BudgetExceededError` carrying
partial results.  Each search is one chunked scan over the integers that
evaluates the same windowed sum upwards and downwards; the gap scans first
drop every x that a few heavy terms already keep above the threshold, since
no term of the sum is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, InvalidInputError, InvalidMeasureError
from .kernels import Kernel

#: Default integer budget of the witness-index searches.
DEFAULT_INDEX_BUDGET = 10**6

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

#: Bisection steps :func:`cluster_witnesses` takes per target before it reports a stall.
WITNESS_BISECTION_STEPS = 60


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite symmetric atomic probability measure on the line.

    ``atoms`` is a list of ``(weight, location)`` with positive weights and
    nonnegative locations.  An atom ``(a, y)`` with ``y > 0`` stands for
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
            if w <= 0.0:
                raise InvalidMeasureError(f"atom weight must be positive, got {w}")
            if y < 0.0:
                raise InvalidMeasureError(f"atom location must be nonnegative, got {y}")
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
        """Fourier transform ``mu_hat(t) = sum of eff * cos(t * y)``."""
        masses, locs = self.effective()
        t = np.asarray(t, dtype=float)
        return np.cos(np.multiply.outer(t, locs)) @ masses

    def to_list(self) -> list[dict]:
        return [{"weight": w, "location": y} for w, y in self.atoms]

    @classmethod
    def from_list(cls, data: Sequence[dict]) -> "SpectralMeasure":
        return cls(atoms=tuple((d["weight"], d["location"]) for d in data))


def kernel_from_spectral(mu: SpectralMeasure) -> Kernel:
    """Stationary kernel ``K(s, t) = mu_hat(t - s)``; unit variance."""
    return Kernel(
        eval=lambda s, t: float(mu.fourier(t - s)),
        cov=lambda s, t: mu.fourier(np.subtract(t, s)),
        name="spectral",
    )


def fourier_decay_rate(mu: SpectralMeasure, t: float) -> float:
    """Decay rate ``(1 - mu_hat(t)) / t`` of the transform, for t > 0.

    Computed as ``sum of eff * (1 - cos(t y)) / t`` so the result is
    nonnegative by construction.
    """
    if t <= 0.0:
        raise InvalidInputError(f"t must be positive, got {t}")
    masses, locs = mu.effective()
    return float(np.dot(masses, 1.0 - np.cos(t * locs)) / t)


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
        if self.k_cut < 2:
            raise InvalidInputError("k_cut must be at least 2")
        if self.i_max < 1:
            raise InvalidInputError("i_max must be at least 1")


@dataclass(frozen=True)
class WitnessIndices:
    """Window edges n_0 < n_1 < ... of the lacunary construction.

    Frequencies ``b^k`` are active (location ``y_k = b^k``) for k in
    ``[n_0, n_1) + [n_2, n_3) + ...`` and silenced (``y_k = 0``) in the
    gaps.  ``complete`` is False when the searches hit their budget; the
    recorded windows are still valid as far as they go.
    """

    indices: tuple[int, ...]
    windows: tuple[tuple[int, int], ...]
    complete: bool
    config: WeierstrassConfig = field(default_factory=WeierstrassConfig)

    def location(self, k: int) -> float:
        for lo, hi in self.windows:
            if lo <= k < hi:
                return self.config.b**k
        return 0.0

    def y_map(self, k_max: int | None = None) -> dict[int, float]:
        k_max = self.config.k_cut if k_max is None else k_max
        return {k: self.location(k) for k in range(2, k_max + 1)}


def _effective_cap(config: WeierstrassConfig, x: float) -> int:
    """Largest index whose term can still move a sum by more than _CAP_EPS.

    A term is bounded by ``2 x a^k``; indices past the cap change any
    witness value by less than _CAP_EPS in total, far below every threshold
    margin used here.
    """
    cap = math.ceil(math.log(2.0 * max(x, 1.0) / _CAP_EPS) / math.log(1.0 / config.a))
    return min(_TERM_CAP, cap)


def lacunary_sum(config: WeierstrassConfig, x: float, k_from: int, k_to: int) -> float:
    """``x * sum_{k=k_from}^{k_to} a^k (1 - cos(b^k / x))``.

    Terms beyond :func:`_effective_cap` are dropped; the omission is below
    1e-12 for any x within the search budget.
    """
    if x <= 0.0:
        raise InvalidInputError(f"x must be positive, got {x}")
    k_to = min(k_to, _effective_cap(config, x))
    if k_to < k_from:
        return 0.0
    total = 0.0
    a, b = config.a, config.b
    ak = a**k_from
    bk = b**k_from
    for _ in range(k_from, k_to + 1):
        total += ak * (1.0 - math.cos(bk / x))
        ak *= a
        bk *= b
    return x * total


def f_witness(config: WeierstrassConfig, n: int, x: float) -> float:
    """Growth functional ``x * sum_{k=n}^{floor(x)} a^k (1 - cos(b^k / x))``."""
    return lacunary_sum(config, x, n, int(math.floor(x)))


def _first_crossing(
    config: WeierstrassConfig,
    windows: Sequence[tuple[int, int | None]],
    x_start: int,
    x_stop: int,
    threshold: float,
) -> int | None:
    """Smallest integer x in [x_start, x_stop] where a windowed lacunary sum crosses threshold.

    The sum is ``x * sum of a^k (1 - cos(b^k / x))`` over the windows'
    indices k <= x, capped at ``_effective_cap`` of x_stop, scanned in
    chunks of ``_FIRST_CHUNK`` integers doubling up to ``_SCAN_CHUNK``.

    One open window ``[(lo, None)]`` is the growth functional f_lo of
    :func:`f_witness`, crossing upwards (first x with a sum above
    threshold).  The terms past ``_effective_cap`` of x that the scan keeps
    add less than 1e-12, but it rounds each phase ``b^k / x`` otherwise
    than f_witness (power and reciprocal against running product and
    division): a term can differ by up to ``min(2, (k + 2) 2^-52 b^k / x)``
    of its weight ``x a^k``, all of it once the phase nears 2^52.  The sum
    is below ``x * 2 a^lo / (1 - a)``, so the scan starts where that bound
    reaches the threshold.

    Closed windows are the gap functional, crossing downwards (first x with
    a sum below threshold); their indices all lie below x_start, so the
    ``k <= x`` mask keeps every term.  No term is negative, so the
    ``_BOUND_TERMS`` heaviest terms whose phase ``b^k / x`` is at least 1
    across a chunk bound the sum from below; only the x whose bound is
    under ``threshold * (1 + _BOUND_MARGIN)`` get the full sum.
    """
    a, b = config.a, config.b
    cap = _effective_cap(config, float(x_stop))
    upward = windows[-1][1] is None
    if upward:
        k_from = windows[-1][0]
        windows = [(k_from, cap + 1)]
        x_start = max(
            x_start,
            int(threshold * (1.0 - a) / (2.0 * a**k_from * (1.0 + _BOUND_MARGIN))),
        )
    ks = np.concatenate(
        [np.arange(lo, min(hi - 1, cap) + 1) for lo, hi in windows]
    ).astype(float)
    weights = a**ks
    freqs = b**ks  # ascending

    def crossed(start: int, stop: int) -> np.ndarray:
        xs = np.arange(start, stop, dtype=float)
        keep = np.arange(xs.size)
        if not upward:
            first = int(np.searchsorted(freqs, xs[-1]))  # phase >= 1 on the whole chunk
            heavy = slice(first, first + _BOUND_TERMS)
            bound = xs * ((1.0 - np.cos(np.outer(1.0 / xs, freqs[heavy]))) @ weights[heavy])
            keep = np.flatnonzero(bound < threshold * (1.0 + _BOUND_MARGIN))
            xs = xs[keep]
        terms = (1.0 - np.cos(np.outer(1.0 / xs, freqs))) * (ks <= xs[:, None])
        vals = xs * (terms @ weights)
        return keep[vals > threshold if upward else vals < threshold]

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
    if x <= 0.0:
        raise InvalidInputError(f"x must be positive, got {x}")
    top = min(int(math.floor(x)), _TERM_CAP)
    total = 0.0
    for lo, hi in witness.windows:
        if lo > top:
            break
        total += lacunary_sum(config, x, lo, min(hi - 1, top))
    return total


def weierstrass_indices(
    config: WeierstrassConfig,
    budget: int = DEFAULT_INDEX_BUDGET,
) -> WitnessIndices:
    """Integer search for the alternating window edges.

    ``n_0 = 2``; then alternately
    ``n_{2i+1} = inf{n > n_{2i} : f_{n_{2i}}(n - 1) > i}`` and
    ``n_{2(i+1)} = inf{n > n_{2i+1} : g_windows(n - 1) < 1/i}``
    (``1/0`` read as +inf).  Raises :class:`BudgetExceededError` with
    partial results when a search passes ``budget`` or is provably
    unreachable within it.
    """
    if budget < 1:
        raise InvalidInputError(f"index budget must be at least 1, got {budget}")
    indices: list[int] = [2]
    closed_windows: list[tuple[int, int]] = []

    def fail(stage: str) -> BudgetExceededError:
        # An unclosed active window keeps its frequencies up to the cap.
        windows = list(closed_windows)
        if len(indices) % 2 == 1 and indices[-1] <= _TERM_CAP:
            windows.append((indices[-1], _TERM_CAP + 1))
        return BudgetExceededError(
            f"index budget {budget} exceeded while searching {stage} "
            f"(found {indices})",
            indices=indices,
            windows=windows,
            partial_measure=None,
        )

    for i in range(config.i_max + 1):
        lo = indices[-1]
        # Odd index: first n with f_lo(n - 1) > i.  The sum is capped by
        # x * 2 * sum_{k>=lo} a^k, so some searches are provably hopeless.
        # The bound is taken in base-2 logs: a^lo underflows to 0 long before
        # the searches grow hopeless (2^-253722 at lo = 253744).
        log2_best = (
            math.log2(budget) + 1.0 + lo * math.log2(config.a) - math.log2(1.0 - config.a)
        )
        if i > 0 and log2_best <= math.log2(i):
            raise fail(f"n_{2 * i + 1} (provably unreachable: sum below 2^{log2_best:.1f})")
        hit = _first_crossing(config, [(lo, None)], lo, budget - 1, float(i))
        if hit is None:
            raise fail(f"n_{2 * i + 1}")
        n = hit + 1
        indices.append(n)
        closed_windows.append((lo, n))

        # Even index: first n with the gap functional below 1/i.
        threshold = math.inf if i == 0 else 1.0 / i
        n_odd = indices[-1]
        if threshold is math.inf:
            indices.append(n_odd + 1)
            continue
        hit = _first_crossing(config, closed_windows, n_odd, budget - 1, threshold)
        if hit is None:
            raise fail(f"n_{2 * (i + 1)}")
        indices.append(hit + 1)

    return WitnessIndices(
        indices=tuple(indices),
        windows=tuple(closed_windows),
        complete=True,
        config=config,
    )


def measure_from_windows(
    config: WeierstrassConfig, windows: Sequence[tuple[int, int]]
) -> SpectralMeasure:
    """Assemble the symmetric probability measure for an active-window set.

    Index k carries weight ``2^-k`` at ``+-b^k`` when active, at 0 when
    silenced; all indices beyond ``k_cut`` are folded into the atom at 0
    so the measure stays a probability measure.
    """
    if config.a != 0.5:
        raise InvalidInputError("the probability normalization requires a = 1/2")
    zero_mass = 0.0
    atoms: list[tuple[float, float]] = []
    for k in range(2, config.k_cut + 1):
        w = config.a**k
        active = any(lo <= k < hi for lo, hi in windows)
        if active:
            atoms.append((w, config.b**k))
        else:
            zero_mass += 2.0 * w
    zero_mass += 2.0 * config.a**config.k_cut  # tail beyond the truncation
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

    Propagates :class:`BudgetExceededError` from the index search with the
    measure built from the partial windows attached as ``partial_measure``.
    """
    config = config or WeierstrassConfig()
    try:
        witness = weierstrass_indices(config, budget=budget)
    except BudgetExceededError as err:
        err.partial_measure = measure_from_windows(config, err.windows)
        raise
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
    grid = np.asarray(search_grid, dtype=float)
    if np.any(grid <= 0.0):
        raise InvalidInputError("search grid must be positive")
    grid = np.sort(grid)
    rates = np.array([fourier_decay_rate(mu, float(t)) for t in grid])
    out: dict[float, WitnessResult] = {}
    for target in targets:
        target = float(target)
        if target < 0.0 or not math.isfinite(target):
            raise InvalidInputError(f"targets must be finite and nonnegative, got {target}")
        tol = tol_factor * (1.0 + target)
        best = int(np.argmin(np.abs(rates - target)))
        if abs(rates[best] - target) <= tol:
            t, r = float(grid[best]), float(rates[best])
            out[target] = WitnessResult(target, True, t, r, abs(r - target))
            continue
        crossings = np.flatnonzero((rates[:-1] - target) * (rates[1:] - target) < 0.0)
        if not crossings.size:
            out[target] = WitnessResult(
                target, False, math.nan, math.nan, math.inf,
                message="no bracketing pair on the search grid",
            )
            continue
        i = crossings[0]
        lo, hi, r_lo, r_hi = grid[i], grid[i + 1], rates[i], rates[i + 1]
        t_mid, r_mid = lo, r_lo
        for _ in range(WITNESS_BISECTION_STEPS):
            t_mid = 0.5 * (lo + hi)
            r_mid = fourier_decay_rate(mu, t_mid)
            if abs(r_mid - target) <= tol:
                break
            if (r_lo - target) * (r_mid - target) < 0.0:
                hi, r_hi = t_mid, r_mid
            else:
                lo, r_lo = t_mid, r_mid
        if abs(r_mid - target) <= tol:
            out[target] = WitnessResult(target, True, float(t_mid), float(r_mid),
                                        abs(r_mid - target))
        else:
            out[target] = WitnessResult(
                target, False, float(t_mid), float(r_mid), abs(r_mid - target),
                message=f"bisection stalled after {WITNESS_BISECTION_STEPS} iterations",
            )
    return out
