"""Trajectory generation and empirical validation.

Two independent routes to the same Gaussian law: direct sampling
(Cholesky factor of the Gram matrix, or exact Markov transitions for the
``exp(-integral alpha)`` family) and Euler-Maruyama integration of the
mimicking SDE

    dZ = [m'(t) + (sigma'(t)/sigma(t) - alpha(t)) (Z - m(t))] dt
         + sigma(t) sqrt(2 alpha(t)) dB,

which is the Ito expansion of ``Z = m(t) + sigma(t) Ztilde`` with
``dZtilde = -alpha Ztilde dt + sqrt(2 alpha) dB``.  Agreement of the two
empirical covariances, and of both with the analytic mimicking kernel,
is the quantitative replacement for a picture of overlaid trajectories.

Randomness comes from counter-based Philox streams keyed by (seed,
stream name); path generation is vectorized across paths inside each
stream, so results are reproducible bit for bit regardless of scheduling.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import transform
from .errors import InvalidInputError, InvalidSdeError
from .gaussian import GaussianVector, _psd_factor
from .kernels import (Kernel, RateFunction, _as_strictly_increasing, _count, _require_at_most,
                      rate_kernel)
from .serialize import write_csv

#: Finite-difference step of the mean/std derivatives.
FD_STEP = 1e-6

#: Most Euler-Maruyama substeps over a grid: a coefficient table of 32 MB.
MAX_EM_SUBSTEPS = 10**6

#: Most path values (paths times grid points) a comparison draws per route:
#: a batch of 128 MiB.
MAX_PATH_VALUES = 2**24

#: Most Euler-Maruyama normals (paths times substeps): 16 s at 16 ns a draw (2-vCPU VM).
MAX_EM_DRAWS = 10**9


def _stream(seed: int, name: str) -> np.random.Generator:
    seed = _count(seed, "seed")
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, tag])))


@dataclass(frozen=True)
class TrajectoryBatch:
    """Sampled paths on a common time grid."""

    times: np.ndarray
    paths: np.ndarray  # (n_paths, n_times)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        paths = np.atleast_2d(np.asarray(self.paths, dtype=float))
        if paths.shape[0] < 1 or paths.shape[1] != times.size:
            raise InvalidInputError(
                f"paths shape {paths.shape} does not match {times.size} times"
            )
        if not np.all(np.isfinite(paths)):
            raise InvalidInputError("paths contain non-finite entries")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "paths", paths)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    def to_csv(self, path) -> None:
        """One row per path; header holds the grid times."""
        write_csv(path, self.times.tolist(), self.paths.tolist())


@dataclass(frozen=True)
class SdeSpec:
    """Scalar linear SDE with time-dependent coefficients,

        dX = [offset(t) + slope(t) (X - center(t))] dt + diffusion(t) dB.

    Every coefficient is a scalar function of t alone.
    """

    offset: Callable[[float], float]
    slope: Callable[[float], float]
    center: Callable[[float], float]
    diffusion: Callable[[float], float]
    initial_mean: float
    initial_var: float
    step: float

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise InvalidInputError(f"step must be positive and finite, got {self.step}")
        if not math.isfinite(self.initial_mean):
            raise InvalidInputError(f"initial_mean must be finite, got {self.initial_mean}")
        if not (math.isfinite(self.initial_var) and self.initial_var >= 0.0):
            raise InvalidInputError(
                f"initial_var must be nonnegative and finite, got {self.initial_var}"
            )


def cholesky_sample(law: GaussianVector, n_paths: int, seed: int) -> TrajectoryBatch:
    """Exact sampling of a finite-dimensional Gaussian law.

    A full-rank covariance is sampled through the Cholesky factor that
    :func:`gaussian._psd_factor` certifies it with.  A singular one (the
    constant kernel's, or a mimicking law with ``alpha = 0``) has none, and
    is factored as ``V diag(sqrt(lambda))`` from its eigen decomposition:
    eigenvalues at or below ``n 2^-52 lambda_max`` are rounding and become 0,
    so the paths lie in the covariance's range to rounding.
    """
    n_paths = _count(n_paths, "n_paths", 1, "need at least one path", MAX_PATH_VALUES)
    factor = _psd_factor(law.cov)
    if factor is None:
        lam, vecs = np.linalg.eigh(law.cov)
        lam[lam <= law.dim * 2.0**-52 * lam[-1]] = 0.0
        factor = vecs * np.sqrt(lam)
    gen = _stream(seed, "cholesky-sampler")
    paths = gen.standard_normal((n_paths, law.dim)) @ factor.T
    paths += law.mean
    return TrajectoryBatch(times=law.times, paths=paths)


def euler_maruyama(
    spec: SdeSpec, t_grid, n_paths: int, seed: int
) -> TrajectoryBatch:
    """Fixed-step Euler-Maruyama recursion recorded at the grid times.

    ``spec.step`` must divide every grid gap (within 1e-8 relative);
    internal substeps are taken between recorded times.  The coefficients
    are evaluated once per substep before any path is drawn, and a negative
    diffusion aborts with the offending t.  The paths then advance in place,
    one Philox draw per path and substep up to the last substep with a
    nonzero noise scale.  The generator is local to the call, so the
    undrawn tail of its stream is never observed: every drawn normal keeps
    its place, and leaving out a zero term changes no path value (bar an
    exact -0.0), so an ``alpha == 0`` run costs what an ODE costs.
    """
    n_paths = _count(n_paths, "n_paths", 1, "need at least one path", MAX_PATH_VALUES)
    grid = _as_strictly_increasing(t_grid)
    substeps = float(grid[-1] - grid[0]) / spec.step
    _require_at_most(substeps, MAX_EM_SUBSTEPS,
                     f"step {spec.step} takes {substeps:.4g} substeps over [{grid[0]}, {grid[-1]}]")
    _require_at_most(n_paths * substeps, MAX_EM_DRAWS, f"{n_paths} paths of {substeps:.4g} "
                     f"substeps take {n_paths * substeps:.4g} normals")
    gaps = []
    for a, b in zip(grid[:-1], grid[1:]):
        gap = b - a
        n_sub = max(1, round(gap / spec.step))
        if abs(n_sub * spec.step - gap) > 1e-8 * max(1.0, gap):
            raise InvalidInputError(
                f"step {spec.step} does not divide grid gap {gap} at t={a}"
            )
        gaps.append((a, n_sub, gap / n_sub))
    # One row per substep: drift offset, slope and center, and the noise
    # scale diffusion * sqrt(h).
    coeffs = np.empty((sum(n_sub for _, n_sub, _ in gaps), 4))
    row = 0
    for a, n_sub, h in gaps:
        sqrt_h = math.sqrt(h)
        t = a
        for _ in range(n_sub):
            d = spec.diffusion(t)
            if d < 0.0:
                raise InvalidSdeError(f"negative diffusion {d} at t={t}")
            coeffs[row] = (spec.offset(t), spec.slope(t), spec.center(t), d * sqrt_h)
            row += 1
            t += h
    # A zero scale before the last noisy substep still draws, so that every
    # later normal keeps its place in the stream.
    noisy = np.flatnonzero(coeffs[:, 3])
    n_draws = int(noisy[-1]) + 1 if noisy.size else 0

    gen = _stream(seed, "euler-maruyama")
    x = spec.initial_mean + math.sqrt(spec.initial_var) * gen.standard_normal(n_paths)
    recorded = np.empty((n_paths, grid.size))
    recorded[:, 0] = x
    drift = np.empty(n_paths)
    noise = np.empty(n_paths)
    row = 0
    for gi, (_, n_sub, h) in enumerate(gaps, start=1):
        for off, slope, center, scale in coeffs[row : row + n_sub].tolist():
            np.subtract(x, center, out=drift)
            drift *= slope
            drift += off
            drift *= h
            x += drift
            if row < n_draws:
                gen.standard_normal(out=noise)
                noise *= scale
                x += noise
            row += 1
        recorded[:, gi] = x
    return TrajectoryBatch(times=grid, paths=recorded)


def ou_exact(alpha: RateFunction, t_grid, n_paths: int, seed: int) -> TrajectoryBatch:
    """Exact-in-law sampling of the unit-variance Markov family.

    Uses the Markov transition: correlation over a step is
    ``exp(-integral of alpha)``, one ``cov`` call for every step, so there is
    no discretization bias and the cost is linear in the grid size.  The
    infinite rate falls back to independent unit Gaussians.
    """
    n_paths = _count(n_paths, "n_paths", 1, "need at least one path", MAX_PATH_VALUES)
    grid = _as_strictly_increasing(t_grid)
    gen = _stream(seed, "ou-exact")
    if alpha.is_infinite:
        return TrajectoryBatch(times=grid, paths=gen.standard_normal((n_paths, grid.size)))
    rhos = []
    if grid.size > 1:  # one time has no step, and a rate kernel needs a nonempty domain
        rhos = rate_kernel(alpha, domain=(grid[0], grid[-1])).cov(grid[:-1], grid[1:]).tolist()
    x = gen.standard_normal(n_paths)
    out = np.empty((n_paths, grid.size))
    out[:, 0] = x
    for gi, rho in enumerate(rhos, start=1):
        x = rho * x + math.sqrt(max(0.0, 1.0 - rho * rho)) * gen.standard_normal(n_paths)
        out[:, gi] = x
    return TrajectoryBatch(times=grid, paths=out)


@dataclass(frozen=True)
class EmpiricalMoments:
    """Sample mean/covariance with per-entry standard errors."""

    law: GaussianVector
    mean_se: np.ndarray
    cov_se: np.ndarray
    n_paths: int

    def to_dict(self) -> dict:
        return {
            **self.law.to_dict(),
            "mean_se": self.mean_se.tolist(),
            "cov_se": self.cov_se.tolist(),
            "n_paths": self.n_paths,
        }


def empirical_covariance(batch: TrajectoryBatch) -> EmpiricalMoments:
    """Sample moments of a batch; Gaussian asymptotic standard errors."""
    if batch.n_paths < 2:
        raise InvalidInputError("need at least two paths to estimate moments")
    n = batch.n_paths
    mean = batch.paths.mean(axis=0)
    centered = batch.paths - mean[None, :]
    # GaussianVector stores the covariance symmetrized
    law = GaussianVector(times=batch.times, mean=mean, cov=centered.T @ centered / (n - 1))
    var = np.diag(law.cov)
    cov_se = np.sqrt((np.outer(var, var) + law.cov**2) / n)
    mean_se = np.sqrt(np.maximum(var, 0.0) / n)
    return EmpiricalMoments(law=law, mean_se=mean_se, cov_se=cov_se, n_paths=n)


def _derivative(f: Callable[[float], float], t: float) -> float:
    return (f(t + FD_STEP) - f(t - FD_STEP)) / (2.0 * FD_STEP)


def mimicking_sde(
    kernel: Kernel,
    alpha: RateFunction,
    t0: float,
    step: float,
) -> SdeSpec:
    """SDE whose solution has the mimicking law of the kernel's process.

    Built from the mean function m, standard deviation sigma and rate
    alpha; their derivatives are central finite differences.  The
    initial law is ``N(m(t0), sigma(t0)^2)``.
    """
    if alpha.is_infinite:
        raise InvalidInputError("the SDE form requires a finite rate")
    m = kernel.mean
    sigma = kernel.std
    def slope(t: float) -> float:
        return _derivative(sigma, t) / sigma(t) - alpha(t)

    def diffusion(t: float) -> float:
        a = alpha(t)
        if a < 0.0:
            raise InvalidSdeError(f"negative rate {a} at t={t}")
        return sigma(t) * math.sqrt(2.0 * a)

    return SdeSpec(
        offset=lambda t: _derivative(m, t),
        slope=slope,
        center=m,
        diffusion=diffusion,
        initial_mean=m(t0),
        initial_var=kernel.variance(t0),
        step=step,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Covariance agreement between the SDE route and the Gaussian route.

    Carries the two batches it compared; the summary holds only their moments.
    """

    max_cov_discrepancy: float
    max_sde_vs_analytic: float
    max_gauss_vs_analytic: float
    sde_moments: EmpiricalMoments
    gauss_moments: EmpiricalMoments
    analytic: GaussianVector
    sde_batch: TrajectoryBatch
    gauss_batch: TrajectoryBatch

    def rows_to_csv(self, path) -> None:
        """One row per entry of the upper triangle: both routes, the analytic value and the SE."""
        sde, gauss = self.sde_moments, self.gauss_moments
        se_combined = np.sqrt(sde.cov_se**2 + gauss.cov_se**2)
        times = self.analytic.times
        i, j = np.triu_indices(times.size)
        columns = (times[i], times[j], sde.law.cov[i, j], gauss.law.cov[i, j],
                   self.analytic.cov[i, j], se_combined[i, j])
        write_csv(path, ["t_i", "t_j", "cov_sde", "cov_gauss", "cov_analytic", "se_combined"],
                  np.column_stack(columns).tolist())

    def summary_dict(self) -> dict:
        return {
            "max_cov_discrepancy": self.max_cov_discrepancy,
            "max_sde_vs_analytic": self.max_sde_vs_analytic,
            "max_gauss_vs_analytic": self.max_gauss_vs_analytic,
            "sde": self.sde_moments.to_dict(),
            "gauss": self.gauss_moments.to_dict(),
            "analytic": self.analytic.to_dict(),
        }


def figure_comparison(
    kernel: Kernel,
    alpha: RateFunction,
    t_grid,
    n_paths: int,
    seed: int,
    step: float = 1e-3,
    gaussian_route: str = "exact",
) -> ComparisonReport:
    """Simulate the mimicking process along both routes and compare covariances.

    The SDE route integrates the mimicking SDE by Euler-Maruyama; the
    Gaussian route samples the mimicking law exactly (Markov transitions,
    or a Cholesky factor when ``gaussian_route="cholesky"``), then both
    empirical covariances are compared entrywise with each other and with
    the analytic mimicking kernel.
    """
    grid = np.asarray(t_grid, dtype=float).ravel()
    if grid.size < 2:
        raise InvalidInputError("need at least two grid times")
    n_paths = _count(n_paths, "n_paths", 2, "need at least two paths to estimate moments, got {}",
                     MAX_PATH_VALUES)
    _require_at_most(n_paths * grid.size, MAX_PATH_VALUES, f"{n_paths} paths over "
                     f"{grid.size} grid points take {n_paths * grid.size} values")
    if gaussian_route not in ("exact", "cholesky"):
        raise InvalidInputError(f"unknown gaussian_route {gaussian_route!r}")
    mimic = transform.mimic_kernel(kernel, alpha)
    analytic = transform.joint_law(mimic, grid)

    spec = mimicking_sde(kernel, alpha, t0=float(grid[0]), step=step)
    sde_batch = euler_maruyama(spec, grid, n_paths, seed)

    if gaussian_route == "exact":
        # The report keeps both batches, so scale the base paths in place.
        paths = ou_exact(alpha, grid, n_paths, seed + 1).paths
        paths *= np.array([kernel.std(float(t)) for t in grid])
        paths += np.array([kernel.mean(float(t)) for t in grid])
        gauss_batch = TrajectoryBatch(times=grid, paths=paths)
    else:
        gauss_batch = cholesky_sample(analytic, n_paths, seed + 1)

    sde_m = empirical_covariance(sde_batch)
    gauss_m = empirical_covariance(gauss_batch)
    return ComparisonReport(
        max_cov_discrepancy=float(np.max(np.abs(sde_m.law.cov - gauss_m.law.cov))),
        max_sde_vs_analytic=float(np.max(np.abs(sde_m.law.cov - analytic.cov))),
        max_gauss_vs_analytic=float(np.max(np.abs(gauss_m.law.cov - analytic.cov))),
        sde_moments=sde_m,
        gauss_moments=gauss_m,
        analytic=analytic,
        sde_batch=sde_batch,
        gauss_batch=gauss_batch,
    )
