"""Markov transforms of Gaussian laws.

Builds the canonical Markov targets ``exp(-integral of alpha)``, the laws
"made Markov" at a finite set of times, the mimicking covariance that
matches one-dimensional marginals and decorrelation rate, and the
convergence experiments that track partition-composed laws toward their
Markov limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import gaussian, kernels
from .errors import InvalidInputError, SingularMarginalError
from .gaussian import GaussianVector, TransportPlan
from .kernels import (
    Kernel,
    RateFunction,
    _as_strictly_increasing,
    _at_points,
    _sorted_unique,
    rate_kernel,
)

#: Point pairs per power-of-two stride that :func:`tightness_bound_check` probes.
TIGHTNESS_PAIRS_PER_STRIDE = 32


@dataclass(frozen=True)
class Partition:
    """Strictly increasing finite time sequence spanning an interval."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).ravel()
        if pts.size < 2:
            raise InvalidInputError("a partition needs at least two points")
        if not np.all(np.diff(pts) > 0.0):
            raise InvalidInputError("partition points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, s: float, t: float, n_intervals: int) -> "Partition":
        if n_intervals < 1:
            raise InvalidInputError("need at least one interval")
        return cls(points=np.linspace(s, t, n_intervals + 1))

    @classmethod
    def dyadic(cls, s: float, t: float, level: int) -> "Partition":
        """Uniform partition with mesh ``(t - s) * 2**-level``."""
        return cls.uniform(s, t, 2**level)

    @property
    def start(self) -> float:
        return float(self.points[0])

    @property
    def end(self) -> float:
        return float(self.points[-1])

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.points)))


@dataclass(frozen=True)
class AdmissibleSequence:
    """Generator of time sets ``R_n = step(n) * Z intersect [-w(n), w(n)]``.

    Admissibility (inf to -inf, sup to +inf, mesh to 0) is sanity-checked
    on the first ``check_first`` generated sets.
    """

    step_at: Callable[[int], float]
    halfwidth_at: Callable[[int], float]
    check_first: int = 4

    def __post_init__(self):
        steps = [self.step_at(n) for n in range(1, self.check_first + 1)]
        widths = [self.halfwidth_at(n) for n in range(1, self.check_first + 1)]
        if not all(math.isfinite(v) and v > 0.0 for v in steps + widths):
            raise InvalidInputError(
                f"steps and half-widths must be positive and finite, "
                f"got steps {steps} and half-widths {widths}"
            )
        if len(steps) >= 2:
            if any(b > a + 1e-15 for a, b in zip(steps, steps[1:])) or steps[-1] >= steps[0]:
                raise InvalidInputError("steps must decrease toward zero")
            if any(b < a - 1e-15 for a, b in zip(widths, widths[1:])):
                raise InvalidInputError("half-widths must not shrink")

    @classmethod
    def geometric(cls, ratio: float = 0.5, first_step: float = 1.0) -> "AdmissibleSequence":
        if not 0.0 < ratio < 1.0:
            raise InvalidInputError("ratio must be in (0, 1)")
        return cls(
            step_at=lambda n: first_step * ratio**n,
            halfwidth_at=lambda n: float(n),
        )

    @classmethod
    def from_steps(cls, steps: Sequence[float], halfwidths: Sequence[float] | None = None):
        steps = [float(s) for s in steps]
        if halfwidths is None:
            halfwidths = [float(n) for n in range(1, len(steps) + 1)]
        halfwidths = [float(w) for w in halfwidths]
        if len(halfwidths) != len(steps):
            raise InvalidInputError("need one half-width per step")

        def step_at(n: int) -> float:
            return steps[min(n, len(steps)) - 1]

        def halfwidth_at(n: int) -> float:
            return halfwidths[min(n, len(halfwidths)) - 1]

        return cls(step_at=step_at, halfwidth_at=halfwidth_at, check_first=len(steps))

    def time_set(self, n: int) -> np.ndarray:
        step = self.step_at(n)
        width = self.halfwidth_at(n)
        k_max = int(math.floor(width / step))
        return step * np.arange(-k_max, k_max + 1, dtype=float)

    def sets(self, n_max: int) -> Iterable[np.ndarray]:
        for n in range(1, n_max + 1):
            yield self.time_set(n)


# ---------------------------------------------------------------------------
# Partition-composed laws and laws made Markov at a set of times
# ---------------------------------------------------------------------------


def pair_law(kernel: Kernel, s: float, t: float) -> TransportPlan:
    """Two-time joint law of the kernel as a 1+1 transport plan."""
    return partition_law(kernel, Partition(points=[s, t]))


def _chain(kernel: Kernel, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-step covariances ``K(p_i, p_{i+1})`` and variances ``K(p_i, p_i)`` over sorted points.

    Makes the checks of every consecutive :func:`pair_law` at once: points
    in the domain, positive variances, and each two-time covariance PSD to
    the :class:`GaussianVector` bound.  Callers multiply ``K(p_0, p_1)`` by
    ``K(p_i, p_{i+1}) / K(p_i, p_i)`` left to right, as :func:`gaussian.compose` does.
    """
    kernel.require_in_domain(points)
    steps = kernel.cov(points[:-1], points[1:])
    var = kernel.cov(points, points)
    if np.any(var <= 0.0):
        raise SingularMarginalError(f"kernel singular at t={points[np.argmax(var <= 0.0)]}")
    _require_psd_pairs(var[:-1], var[1:], steps, points)
    return steps, var


def _require_psd_pairs(a: np.ndarray, b: np.ndarray, cross: np.ndarray, times) -> None:
    """Rejects the first two-time covariance ``[[a, cross], [cross, b]]`` below the
    :class:`GaussianVector` PSD bound, naming the earlier time of its pair."""
    bad = 0.5 * (a + b) - np.hypot(0.5 * (a - b), cross) < -kernels.TOL_PSD * np.maximum(a, b)
    if np.any(bad):
        raise InvalidInputError(f"two-time covariance not PSD at t={times[np.argmax(bad)]}")


def partition_law(kernel: Kernel, partition: Partition) -> TransportPlan:
    """Two-time law at the partition endpoints, transitioning through its points.

    Equals composing the kernel's consecutive :func:`pair_law` plans: the
    correlation is the product of the one-step correlations while the
    endpoint marginals stay those of the kernel.  One running product over
    the partition, O(n) in its points.
    """
    steps, var = _chain(kernel, partition.points)
    cross = np.cumprod(np.concatenate([steps[:1], steps[1:] / var[1:-1]]))[-1]
    return TransportPlan.from_blocks(
        cov_left=[[var[0]]],
        cross=[[cross]],
        cov_right=[[var[-1]]],
        mean_left=[kernel.mean(partition.start)],
        mean_right=[kernel.mean(partition.end)],
        times=[partition.start, partition.end],
    )


def made_markov_law(kernel: Kernel, split_times, query_times) -> GaussianVector:
    """Finite-dimensional law of the kernel's process made Markov at ``split_times``.

    Equals the law obtained by concatenating the kernel's joint laws over
    the blocks of ``query_times + split_times`` cut at each split time and
    projecting back onto ``query_times``: between two query times the
    covariance telescopes through every split time lying strictly between
    them.  With two query times this is exactly
    ``partition_law`` over ``{s, t} + (splits inside (s, t))``.

    One running product per query over the splits after it: O(q m)
    multiplications and O(q + m) kernel evaluations for q queries and m
    splits, besides the kernel's own covariances between unsplit queries.
    Those pairs and each query's first split are evaluated in one kernel
    call each, and the loop over queries keeps only the running product,
    in one buffer of m entries: O(q^2 + m) memory.
    """
    splits = _sorted_unique(split_times)
    queries = _as_strictly_increasing(query_times)
    kernel.require_in_domain(splits)
    _, var = _chain(kernel, queries)
    # Only splits strictly inside the query range separate two queries.
    splits = splits[(splits > queries[0]) & (splits < queries[-1])]
    steps, split_var = _chain(kernel, splits)
    factors = steps / split_var[:-1]
    after = np.searchsorted(splits, queries, side="right")  # first split after each query
    before = np.searchsorted(splits, queries, side="left") - 1  # last split before it
    n = queries.size
    last = np.zeros(n)  # K(r_before, q) / K(r_before, r_before)
    has = before >= 0
    lasts = kernel.cov(splits[before[has]], queries[has])  # K(r_before, q)
    _require_psd_pairs(split_var[before[has]], var[has], lasts, splits[before[has]])
    last[has] = lasts / split_var[before[has]]
    rows = np.arange(n)
    j0 = np.maximum(rows + 1, np.searchsorted(before, after))  # first query past the next split
    # Pairs i < j < j0[i] have no split between them: the kernel's own covariance.
    counts = j0 - rows - 1
    pi = np.repeat(rows, counts)
    pj = pi + 1 + np.arange(pi.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cov = np.zeros((n, n))
    cov[pi, pj] = kernel.cov(queries[pi], queries[pj])
    split_rows = np.flatnonzero(j0 < n)
    firsts = kernel.cov(queries[split_rows], splits[after[split_rows]])  # K(q_i, r_after)
    _require_psd_pairs(var[split_rows], split_var[after[split_rows]], firsts, queries[split_rows])
    run = np.empty(splits.size)
    for i, first in zip(split_rows.tolist(), firsts.tolist()):
        a, j = int(after[i]), int(j0[i])
        row = run[a:]  # run[k] = K(q_i, r_a) * factors[a] * ... * factors[k - 1]
        row[0] = first
        row[1:] = factors[a:]
        np.cumprod(row, out=row)
        cov[i, j:] = run[before[j:]] * last[j:]
    cov = cov + cov.T
    np.fill_diagonal(cov, var)
    mean = np.array([kernel.mean(float(t)) for t in queries])
    return GaussianVector(times=queries, mean=mean, cov=cov)


def made_markov_law_by_blocks(kernel: Kernel, split_times, query_times) -> GaussianVector:
    """Reference path for :func:`made_markov_law` via explicit block gluing.

    Cuts ``queries + splits`` into blocks at each split time (consecutive
    blocks overlap in exactly that split time), keeps the kernel's own
    joint law inside every block, glues block after block with
    :func:`gaussian.concatenate` so that past and future are independent
    given each split time, and finally projects onto the query times.
    Quadratic in the total number of points; used to cross-validate
    :func:`made_markov_law`.
    """
    splits = _sorted_unique(split_times)
    queries = _as_strictly_increasing(query_times)
    kernel.require_in_domain(splits)
    # Splits outside the query range do not change the projected law.
    relevant = splits[(splits > queries[0]) & (splits < queries[-1])]
    all_pts = _sorted_unique(np.concatenate([queries, relevant]))
    cut_idx = [int(np.searchsorted(all_pts, r)) for r in relevant]
    blocks = []
    start = 0
    for ci in cut_idx:
        blocks.append(all_pts[start : ci + 1])
        start = ci
    blocks.append(all_pts[start:])

    glued = joint_law(kernel, blocks[0])
    for block_pts in blocks[1:]:
        right_plan = TransportPlan(
            joint=joint_law(kernel, block_pts),
            left_dim=1,
            right_dim=block_pts.size - 1,
        )
        left_plan = TransportPlan(joint=glued, left_dim=glued.dim - 1, right_dim=1)
        glued = gaussian.concatenate([left_plan, right_plan])

    keep = np.searchsorted(glued.times, queries)
    return glued.project(keep)


def joint_law(kernel: Kernel, grid) -> GaussianVector:
    """Kernel's own finite-dimensional law on a grid."""
    pts = np.asarray(grid, dtype=float).ravel()
    return GaussianVector(
        times=pts,
        mean=np.array([kernel.mean(float(t)) for t in pts]),
        cov=kernels.gram(kernel, pts),
    )


def mimic_kernel(kernel: Kernel, alpha: RateFunction) -> Kernel:
    """Covariance of the mimicking process.

    ``K'(s, t) = sigma(s) sigma(t) R(s, t)`` with ``sigma(t) = sqrt(K(t, t))``
    and ``R = rate_kernel(alpha)``, with the mean function unchanged.  Every
    rate takes this formula: ``rate_kernel(inf)`` is the white-noise kernel,
    so the infinite rate gives independent coordinates with matching
    variances.  The diagonal is preserved exactly, a point of zero variance
    gets zero covariance, a negative variance raises
    :class:`SingularMarginalError`, and the result is Markov on every grid.
    """
    base = rate_kernel(alpha, domain=kernel.domain)

    def sigma(t: float) -> float:
        v = kernel.variance(t)
        if v < 0.0:
            raise SingularMarginalError(
                f"kernel '{kernel.name}' has negative variance {v} at t={t}"
            )
        return math.sqrt(v)

    def k(s: float, t: float) -> float:
        if s == t:
            return kernel.eval(t, t)
        return sigma(s) * sigma(t) * base.eval(s, t)

    def cov(s, t):
        std_s, std_t = _at_points(sigma, s, t)
        (var_t,) = _at_points(kernel.variance, t)
        return np.where(np.equal(s, t), var_t, std_s * std_t * base.cov(s, t))

    return Kernel(
        eval=k, mean=kernel.mean, cov=cov, domain=kernel.domain,
        name=f"mimic({kernel.name})",
    )


# ---------------------------------------------------------------------------
# Convergence experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    index: float  # mesh (local experiment) or n (global experiment)
    distance: float
    correlation: float
    target_correlation: float


def _convergence_rows(laws, target: Kernel, times) -> list[ConvergenceRow]:
    """One row per ``(index, law)``: the law's distance to the target law on
    ``times`` and its correlation between the first and last time."""
    target_law = joint_law(target, times)
    tgt_corr = kernels.correlation(target, float(times[0]), float(times[-1]))
    rows = []
    for index, law in laws:
        corr = float(law.cov[0, -1]) / math.sqrt(float(law.cov[0, 0]) * float(law.cov[-1, -1]))
        rows.append(ConvergenceRow(
            index=index,
            distance=gaussian.gaussian_distance(law, target_law),
            correlation=corr,
            target_correlation=tgt_corr,
        ))
    return rows


def local_convergence_experiment(
    kernel: Kernel,
    target: Kernel,
    s: float,
    t: float,
    partitions: Sequence[Partition],
) -> list[ConvergenceRow]:
    """Distances of partition-composed two-time laws to a target law.

    One row per partition, sorted by decreasing mesh, so the last row is
    the finest.  Partitions must span ``[s, t]``.
    """
    if not partitions:
        raise InvalidInputError("need at least one partition")
    for p in partitions:
        if abs(p.start - s) > 1e-12 or abs(p.end - t) > 1e-12:
            raise InvalidInputError(f"partition [{p.start}, {p.end}] does not span [{s}, {t}]")
    laws = ((p.mesh, partition_law(kernel, p).joint)
            for p in sorted(partitions, key=lambda q: -q.mesh))
    return _convergence_rows(laws, target, [s, t])


def global_convergence_experiment(
    kernel: Kernel,
    target: Kernel,
    adm: AdmissibleSequence,
    query_times,
    n_max: int,
) -> list[ConvergenceRow]:
    """Distances of laws made Markov at ``R_n`` to the target law on a query set."""
    queries = np.asarray(query_times, dtype=float).ravel()
    if queries.size < 2:
        raise InvalidInputError("need at least two query times")
    if n_max < 1:
        raise InvalidInputError(f"n_max must be at least 1, got {n_max}")
    laws = ((float(n), made_markov_law(kernel, time_set, queries))
            for n, time_set in enumerate(adm.sets(n_max), start=1))
    return _convergence_rows(laws, target, queries)


@dataclass(frozen=True)
class TightnessReport:
    m_empirical: float
    per_partition: tuple[float, ...]
    passed: bool


def tightness_bound_check(
    kernel: Kernel,
    alpha: RateFunction,
    a: float,
    b: float,
    partitions: Sequence[Partition],
) -> TightnessReport:
    """Empirical Lipschitz bound ``(1 - corr_n(s, t)) <= M |s - t|``.

    For each partition the law made Markov at its points is probed on
    consecutive and strided point pairs; the statistic is the largest
    ratio ``(1 - corr_n(s, t)) / |s - t|``.  Passes when the per-partition
    maxima show no growth trend across partitions (bounded M exists).
    """
    if not partitions:
        raise InvalidInputError("need at least one partition")
    maxima = []
    for part in sorted(partitions, key=lambda q: -q.mesh):
        pts = part.points
        if pts[0] < a - 1e-12 or pts[-1] > b + 1e-12:
            raise InvalidInputError(f"partition leaves [{a}, {b}]")
        steps, var = _chain(kernel, pts)
        corr_steps = steps / np.sqrt(var[:-1] * var[1:])
        if np.any(corr_steps <= 0.0):
            raise SingularMarginalError("nonpositive one-step correlation")
        log_prefix = np.concatenate([[0.0], np.cumsum(np.log(corr_steps))])
        n = pts.size
        i, j = np.array([
            (start, start + d)
            for d in (2**k for k in range((n - 1).bit_length()))
            for start in range(0, n - d, max(1, (n - d) // TIGHTNESS_PAIRS_PER_STRIDE))
        ]).T
        ratios = (1.0 - np.exp(log_prefix[j] - log_prefix[i])) / (pts[j] - pts[i])
        maxima.append(max(0.0, float(np.max(ratios))))
    growing = False
    if len(maxima) >= 3:
        tail = maxima[-3:]
        growing = tail[0] < tail[1] < tail[2] and maxima[-1] > 1.25 * maxima[0] + 1e-9
    return TightnessReport(
        m_empirical=float(max(maxima)),
        per_partition=tuple(maxima),
        passed=not growing,
    )
