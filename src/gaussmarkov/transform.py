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
from typing import Iterator, Sequence

import numpy as np

from . import gaussian, kernels
from .errors import InvalidInputError, NotPsdError, SingularMarginalError
from .gaussian import GaussianVector, TransportPlan
from .kernels import (
    Kernel,
    RateFunction,
    _as_strictly_increasing,
    _at_points,
    _below_psd,
    _count,
    _require_at_most,
    _sorted_unique,
    rate_kernel,
)

#: Point pairs per power-of-two stride that :func:`tightness_bound_check` probes.
TIGHTNESS_PAIRS_PER_STRIDE = 32

#: Most intervals a :meth:`Partition.uniform` may have, and most points an
#: :class:`AdmissibleSequence` set may have: 128 MiB of points.
MAX_PARTITION_INTERVALS = 2**24


@dataclass(frozen=True)
class Partition:
    """Strictly increasing finite time sequence spanning an interval."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_strictly_increasing(self.points)
        if pts.size < 2:
            raise InvalidInputError("a partition needs at least two points")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, s: float, t: float, n_intervals: int) -> "Partition":
        n_intervals = _count(n_intervals, "n_intervals", 1, "need at least one interval",
                             MAX_PARTITION_INTERVALS)
        return cls(points=np.linspace(s, t, n_intervals + 1))

    @classmethod
    def dyadic(cls, s: float, t: float, level: int) -> "Partition":
        """Uniform partition with mesh ``(t - s) * 2**-level``; the level is bounded first."""
        level = _count(level, "level", most=MAX_PARTITION_INTERVALS.bit_length() - 1)
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


def _require_set_size(n: int, step: float, width: float) -> None:
    """Refuses ``R_n`` past the cap, counting its points as ``time_set`` makes them,
    2 floor(w / step) + 1, in floats: an overflowed ratio stays inf."""
    points = 2.0 * math.modf(width / step)[1] + 1.0
    _require_at_most(points, MAX_PARTITION_INTERVALS, f"time set R_{n} of {points:.4g} points")


@dataclass(frozen=True)
class AdmissibleSequence:
    """Time sets ``R_n = steps[n-1] * Z intersect [-w, w]``, ``w = halfwidths[n-1]``.

    Admissibility (inf to -inf, sup to +inf, mesh to 0) and the size of
    every set, at most ``MAX_PARTITION_INTERVALS`` points, are checked at
    construction.  There is no set past the last.
    """

    steps: tuple[float, ...]
    halfwidths: tuple[float, ...]

    def __post_init__(self):
        steps, widths = tuple(map(float, self.steps)), tuple(map(float, self.halfwidths))
        if len(widths) != len(steps):
            raise InvalidInputError("need one half-width per step")
        for name, values in (("step", steps), ("half-width", widths)):
            for n, v in enumerate(values, start=1):
                if not (math.isfinite(v) and v > 0.0):
                    raise InvalidInputError(f"{name} {n} must be positive and finite, got {v}")
        if len(steps) >= 2:
            if any(b > a + 1e-15 for a, b in zip(steps, steps[1:])) or steps[-1] >= steps[0]:
                raise InvalidInputError("steps must decrease toward zero")
            if any(b < a - 1e-15 for a, b in zip(widths, widths[1:])):
                raise InvalidInputError("half-widths must not shrink")
        for n, (step, width) in enumerate(zip(steps, widths), start=1):
            _require_set_size(n, step, width)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "halfwidths", widths)

    @classmethod
    def geometric(cls, n_sets: int, ratio: float = 0.5, first_step: float = 1.0):
        """``n_sets`` sets with steps ``first_step * ratio**n`` and half-widths ``n``.

        The first set that fails, by a step that is not positive and finite or
        by its size, is refused before any later step is made.
        """
        if not 0.0 < ratio < 1.0:
            raise InvalidInputError("ratio must be in (0, 1)")
        steps = []
        for n in range(1, _count(n_sets, "n_sets", 1) + 1):
            steps.append(first_step * ratio**n)
            if not 0.0 < steps[-1] < math.inf:
                break  # named by the constructor
            _require_set_size(n, steps[-1], n)
        return cls.from_steps(steps)

    @classmethod
    def from_steps(cls, steps: Sequence[float], halfwidths: Sequence[float] | None = None):
        """The given steps, with half-widths ``1, 2, ...`` unless given."""
        return cls(steps, range(1, len(steps) + 1) if halfwidths is None else halfwidths)

    def time_set(self, n: int) -> np.ndarray:
        n = _count(n, "set index n", 1, most=len(self.steps))
        k_max = int(math.floor(self.halfwidths[n - 1] / self.steps[n - 1]))
        return self.steps[n - 1] * np.arange(-k_max, k_max + 1, dtype=float)

    def sets(self, n_max: int) -> Iterator[np.ndarray]:
        """``R_1 .. R_{n_max}``, one at a time; an ``n_max`` past the last set raises at once."""
        n_max = _count(n_max, "n_max", 1, most=len(self.steps))
        return map(self.time_set, range(1, n_max + 1))


# ---------------------------------------------------------------------------
# Partition-composed laws and laws made Markov at a set of times
# ---------------------------------------------------------------------------


def pair_law(kernel: Kernel, s: float, t: float) -> TransportPlan:
    """Two-time joint law of the kernel as a 1+1 transport plan."""
    return partition_law(kernel, Partition(points=[s, t]))


def _chain(kernel: Kernel, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-step covariances ``K(p_i, p_{i+1})`` and variances ``K(p_i, p_i)`` over sorted points.

    Evaluates both in two kernel calls, on points the caller has checked
    are in the domain, and makes the checks of every consecutive
    :func:`pair_law` at once.  Callers multiply ``K(p_0, p_1)`` by
    ``K(p_i, p_{i+1}) / K(p_i, p_i)`` left to right, as :func:`gaussian.compose` does.
    """
    steps = kernel.cov(points[:-1], points[1:])
    var = kernel.cov(points, points)
    _require_positive(points, var)
    _require_psd_pairs(var[:-1], var[1:], steps, points)
    return steps, var


def _require_positive(points: np.ndarray, var: np.ndarray) -> None:
    """Rejects the first point whose variance is not positive."""
    singular = var <= 0.0
    if singular.any():
        raise SingularMarginalError(f"kernel singular at t={points[singular.argmax()]}")


def _require_psd_pairs(a: np.ndarray, b: np.ndarray, cross: np.ndarray, times) -> None:
    """Raises :class:`NotPsdError` at the first two-time covariance ``[[a, cross], [cross, b]]``
    whose smallest eigenvalue is :func:`kernels._below_psd`, naming the earlier time of its pair."""
    bad = _below_psd(0.5 * (a + b) - np.hypot(0.5 * (a - b), cross), np.maximum(a, b))
    if bad.any():
        raise NotPsdError(f"two-time covariance not PSD at t={times[bad.argmax()]}")


def partition_law(kernel: Kernel, partition: Partition) -> TransportPlan:
    """Two-time law at the partition endpoints, transitioning through its points.

    Equals composing the kernel's consecutive :func:`pair_law` plans: the
    correlation is the product of the one-step correlations while the
    endpoint marginals stay those of the kernel.  One running product over
    the partition, O(n) in its points.  Its times increase and its covariance
    is exactly symmetric as built, so :meth:`GaussianVector._built` checks the rest.
    """
    kernel.require_in_domain(partition.points)
    steps, var = _chain(kernel, partition.points)
    cross = np.cumprod(np.concatenate([steps[:1], steps[1:] / var[1:-1]]))[-1]
    ends = partition.points[[0, -1]]
    mean = np.asarray([kernel.mean(t) for t in ends.tolist()], dtype=float).ravel()
    cov = np.array([[var[0], cross], [cross, var[-1]]])
    gaussian._require_fields(ends, mean, cov)
    return TransportPlan(GaussianVector._built(ends, mean, cov), 1, 1)


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
    splits, besides the kernel's own covariances between unsplit queries, in
    three kernel calls: the query variances, then two on the splits
    (:func:`_made_markov_cov`).  The loop over queries keeps only the
    running product, in one buffer of m entries: O(q^2 + m) memory.  It checks
    what the law uses: positive variances, the two-time covariances that
    enter a product, and the law's own PSD certificate.
    """
    return next(_made_markov_laws(kernel, [split_times], query_times))


def _made_markov_laws(kernel: Kernel, split_sets, query_times) -> Iterator[GaussianVector]:
    """:func:`made_markov_law` at each split set in turn, on the same query times.

    The queries are validated and their variances checked once, after the
    first set's domain check; their means are taken and checked with the
    first law.  Each law's covariance is exactly symmetric as built, so
    :meth:`GaussianVector._built` checks only that it is finite, within the
    size bound and PSD, with the messages of ``GaussianVector``.  Each set's law
    is built in full, in two kernel calls and O(q^2 + m) memory, before the
    next set is drawn, so the sweep holds one set at a time and raises the
    first error that :func:`made_markov_law` meets set after set.
    """
    queries = _as_strictly_increasing(query_times)
    var = mean = None
    for splits in split_sets:
        splits = _sorted_unique(splits)
        kernel.require_in_domain(splits)
        if var is None:
            kernel.require_in_domain(queries)
            var = kernel.cov(queries, queries)
            _require_positive(queries, var)
        # Only splits strictly inside the query range separate two queries.
        splits = splits[splits.searchsorted(queries[0], side="right"):
                        splits.searchsorted(queries[-1], side="left")]
        cov = _made_markov_cov(kernel, splits, queries, var)
        if mean is None:
            mean = np.asarray([kernel.mean(float(t)) for t in queries], dtype=float).ravel()
            gaussian._require_fields(queries, mean, cov)
        yield GaussianVector._built(queries, mean.copy(), cov)


def _made_markov_cov(kernel: Kernel, splits: np.ndarray, queries: np.ndarray,
                     var: np.ndarray) -> np.ndarray:
    """Covariance at the queries made Markov at sorted splits inside their range.

    ``var`` holds the queries' variances.  Two kernel calls: the split
    variances together with every query-split value and every unsplit
    query pair, then the splits' one-step covariances.  The checks follow
    in :func:`made_markov_law`'s order: the split chain, as in :func:`_chain`,
    then each query with its neighbouring splits.
    """
    n, m = queries.size, splits.size
    rows = np.arange(n)
    after = splits.searchsorted(queries, side="right")  # first split after each query
    before = splits.searchsorted(queries, side="left") - 1  # last split before it
    # First query past the next split; past query i itself, as before[i] < after[i].
    j0 = before.searchsorted(after)
    # Queries h0: have a split before them, queries :s1 one after them.
    h0, s1 = int(before.searchsorted(0)), int(j0.searchsorted(n))
    # Pairs i < j < j0[i] have no split between them: the kernel's own covariance.
    pi, pj = ((rows[:, None] < rows) & (rows < j0[:, None])).nonzero()
    # (r_before, q) and (q, r_after) pairs
    k = n - h0 + s1
    near = np.concatenate([splits, splits[before[h0:]], queries[:s1], queries[pi]])
    values = kernel.cov(near, np.concatenate([splits, queries[h0:], splits[after[:s1]], queries[pj]]))
    near = near[m : m + k].copy()  # the earlier time of each pair; frees the m splits' copy
    split_var, cross = values[:m], values[m : m + k]
    steps = kernel.cov(splits[:-1], splits[1:])
    _require_positive(splits, split_var)
    _require_psd_pairs(split_var[:-1], split_var[1:], steps, splits)
    var_before = split_var[before[h0:]]
    _require_psd_pairs(np.concatenate([var_before, var[:s1]]),
                       np.concatenate([var[h0:], split_var[after[:s1]]]), cross, near)
    last = cross[: n - h0] / var_before  # K(r_before, q) / K(r_before, r_before), queries h0:
    cov = np.zeros((n, n))
    cov[pi, pj] = values[m + k :]
    # factors[k] = K(r_{k-1}, r_k) / K(r_{k-1}, r_{k-1}); each row sets its own first entry
    factors = np.empty(m)
    np.divide(steps, split_var[:-1], out=factors[1:])
    run = np.empty(m)
    for i, (first, a, j) in enumerate(zip(cross[n - h0 :].tolist(), after[:s1].tolist(),
                                          j0[:s1].tolist())):
        factors[a] = first  # rows come in order of a: no later row reads factors[a]
        # run[k] = K(q_i, r_a) * factors[a + 1] * ... * factors[k]
        factors[a:].cumprod(out=run[a:])
        np.multiply(run[before[j:]], last[j - h0 :], out=cov[i, j:])
    cov = cov + cov.T
    cov.flat[:: n + 1] = var
    return cov


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
    # Each block runs from one cut to the next, both included.
    cuts = [0, *np.searchsorted(all_pts, relevant).tolist(), all_pts.size - 1]
    blocks = [all_pts[a : b + 1] for a, b in zip(cuts, cuts[1:])]

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
    The base variance is taken once per distinct time, and a Gram allocates
    two n-by-n arrays: ``sigma(s) sigma(t)``, turned into the result in
    place, and ``R``'s.
    """
    base = rate_kernel(alpha, domain=kernel.domain)

    def variance(t: float) -> float:
        v = kernel.variance(t)
        if v < 0.0:
            raise SingularMarginalError(
                f"kernel '{kernel.name}' has negative variance {v} at t={t}"
            )
        return v

    # np.sqrt is math.sqrt bit for bit: both round the square root correctly.
    def cov(s, t):
        ((var_s, var_t),) = _at_points((variance,), s, t)
        out = np.asarray(np.sqrt(var_s) * np.sqrt(var_t))
        out *= base.cov(s, t)
        np.copyto(out, var_t, where=np.equal(s, t))
        return out

    return Kernel(mean=kernel.mean, cov=cov, domain=kernel.domain, name=f"mimic({kernel.name})")


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
    """Distances of laws made Markov at ``R_n`` to the target law on a query set.

    The laws come from one sweep over the sets, bit for bit those of
    :func:`made_markov_law` at each ``R_n``.
    """
    queries = np.asarray(query_times, dtype=float).ravel()
    if queries.size < 2:
        raise InvalidInputError("need at least two query times")
    laws = enumerate(_made_markov_laws(kernel, adm.sets(n_max), queries), start=1)
    return _convergence_rows(((float(n), law) for n, law in laws), target, queries)


@dataclass(frozen=True)
class TightnessReport:
    m_empirical: float
    per_partition: tuple[float, ...]
    passed: bool


def tightness_bound_check(
    kernel: Kernel,
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
    if not a < b:
        raise InvalidInputError(f"need a < b, got [{a}, {b}]")
    if not partitions:
        raise InvalidInputError("need at least one partition")
    maxima = []
    for part in sorted(partitions, key=lambda q: -q.mesh):
        pts = part.points
        if pts[0] < a - 1e-12 or pts[-1] > b + 1e-12:
            raise InvalidInputError(f"partition leaves [{a}, {b}]")
        kernel.require_in_domain(pts)
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
