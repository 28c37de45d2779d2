"""Exact finite-dimensional Gaussian algebra.

Conditioning, concatenation and composition of Gaussian transport plans,
the Markov criterion for Gaussian laws, and the sup-norm convergence
metric used by every experiment downstream.

Everything here is plain matrix algebra: a chain of transport plans with
matching marginals glues into a joint Gaussian whose cross blocks are
telescoping products ``S_{i,i+1} S_{i+1,i+1}^{-1} ... S_{j-1,j}``; a joint
law is Markov exactly when each block's cross covariance with the past
factors through the marginal of the block just before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ChainMismatchError,
    InvalidInputError,
    NotPsdError,
    SingularMarginalError,
)
from .kernels import (_as_strictly_increasing, _below_psd, _checkable, _count, _require_finite,
                      _symmetric)

#: Condition-number guard for marginal covariance inversion.
COND_LIMIT = 1e12

#: Entrywise tolerance when matching chained marginals.
MARGINAL_MATCH_TOL = 1e-10

#: Residual threshold of the Markov criterion, relative to max diagonal.
MARKOV_RESIDUAL_TOL = 1e-8


def _require_fields(times: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> None:
    """Matching shapes, then finite ``times`` and ``mean``."""
    n = times.size
    if mean.shape != (n,) or cov.shape != (n, n):
        raise InvalidInputError(
            f"shape mismatch: {n} times, mean {mean.shape}, cov {cov.shape}"
        )
    _require_finite("times", times)
    _require_finite("mean", mean)


def _psd_factor(cov: np.ndarray) -> np.ndarray | None:
    """PSD certificate of a symmetric ``cov``: its Cholesky factor when it has one, else
    None, or :class:`NotPsdError` when ``eigvalsh`` finds it :func:`kernels._below_psd`."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    scale = float(cov.diagonal().max())
    min_eig = float(np.linalg.eigvalsh(cov)[0])
    if _below_psd(min_eig, max(scale, 0.0)):
        raise NotPsdError(f"covariance not PSD: min eigenvalue {min_eig}, scale {scale}")
    return None


@dataclass(frozen=True)
class GaussianVector:
    """Finite-dimensional Gaussian law on an ordered time grid.

    ``times`` must be strictly increasing, ``times`` and ``mean`` finite, and ``cov``
    pass :func:`kernels._symmetric`, whose result is stored in a copy of its own, and
    :func:`_psd_factor`.  No factor is kept.

    ``transform``'s partition laws and laws made Markov (one or a sweep) come
    from :meth:`_built` instead, which makes only the checks their building
    does not guarantee: :func:`kernels._checkable` and the PSD certificate.
    Their times and mean are checked once per law or sweep.
    """

    times: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        times = _as_strictly_increasing(self.times)
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = np.array(self.cov, dtype=float)
        _require_fields(times, mean, cov)
        cov = _symmetric(cov, "cov")
        _psd_factor(cov)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def _built(cls, times: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> "GaussianVector":
        """A partition law or a made-Markov law, from float arrays whose ``times``
        increase and have passed :func:`_require_fields` with ``mean`` and an exactly
        symmetric ``cov``: the checks of ``__post_init__`` but the symmetry test."""
        _checkable(cov, "cov")
        _psd_factor(cov)
        law = object.__new__(cls)
        object.__setattr__(law, "times", times)
        object.__setattr__(law, "mean", mean)
        object.__setattr__(law, "cov", cov)
        return law

    @property
    def dim(self) -> int:
        return self.times.size

    def project(self, indices) -> "GaussianVector":
        """The law at coordinates ``indices``; a negative one counts from the end, as in numpy."""
        idx = [_count(i, "index", -self.dim, most=self.dim - 1) for i in indices]
        return GaussianVector(
            times=self.times[idx],
            mean=self.mean[idx],
            cov=self.cov[np.ix_(idx, idx)],
        )

    def to_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "mean": self.mean.tolist(),
            "cov": self.cov.tolist(),
        }


@dataclass(frozen=True)
class TransportPlan:
    """Joint Gaussian law split into a left and a right marginal block."""

    joint: GaussianVector
    left_dim: int
    right_dim: int

    def __post_init__(self):
        for name in ("left_dim", "right_dim"):
            dim = _count(getattr(self, name), name, 1, "block dimensions must be positive",
                         self.joint.dim)
            object.__setattr__(self, name, dim)
        if self.left_dim + self.right_dim != self.joint.dim:
            raise InvalidInputError(
                f"blocks {self.left_dim}+{self.right_dim} != joint dim {self.joint.dim}"
            )

    @classmethod
    def from_blocks(
        cls,
        cov_left,
        cross,
        cov_right,
        mean_left=None,
        mean_right=None,
        times=None,
    ) -> "TransportPlan":
        """Build a plan from marginal covariances and the cross block."""
        cov_left = np.atleast_2d(np.asarray(cov_left, dtype=float))
        cov_right = np.atleast_2d(np.asarray(cov_right, dtype=float))
        m, n = cov_left.shape[0], cov_right.shape[0]
        if cov_left.shape != (m, m) or cov_right.shape != (n, n):
            raise InvalidInputError(
                f"marginal covariances must be square, got {cov_left.shape} and {cov_right.shape}"
            )
        cross = np.asarray(cross, dtype=float).reshape(m, n)
        mean_left = np.zeros(m) if mean_left is None else np.asarray(mean_left, dtype=float).ravel()
        mean_right = np.zeros(n) if mean_right is None else np.asarray(mean_right, dtype=float).ravel()
        cov = np.empty((m + n, m + n))
        cov[:m, :m], cov[:m, m:], cov[m:, :m], cov[m:, m:] = cov_left, cross, cross.T, cov_right
        if times is None:
            times = np.arange(m + n, dtype=float)
        joint = GaussianVector(
            times=times, mean=np.concatenate([mean_left, mean_right]), cov=cov
        )
        return cls(joint=joint, left_dim=m, right_dim=n)

    @property
    def cov_left(self) -> np.ndarray:
        return self.joint.cov[: self.left_dim, : self.left_dim]

    @property
    def cov_right(self) -> np.ndarray:
        return self.joint.cov[self.left_dim :, self.left_dim :]

    @property
    def cross(self) -> np.ndarray:
        return self.joint.cov[: self.left_dim, self.left_dim :]

    @property
    def mean_left(self) -> np.ndarray:
        return self.joint.mean[: self.left_dim]

    @property
    def mean_right(self) -> np.ndarray:
        return self.joint.mean[self.left_dim :]

    @property
    def times_left(self) -> np.ndarray:
        return self.joint.times[: self.left_dim]

    @property
    def times_right(self) -> np.ndarray:
        return self.joint.times[self.left_dim :]


@dataclass(frozen=True)
class ConditionalLaw:
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class MarkovReport:
    max_residual: float
    is_markov: bool
    #: Blocks ``(i, k)`` with the largest residual; None with fewer than three blocks.
    worst_pair: tuple[int, int] | None = None


def solve_spd(mat: np.ndarray, rhs: np.ndarray, what: str = "marginal") -> np.ndarray:
    """Solve ``mat @ x = rhs`` for symmetric positive-definite ``mat``.

    Raises :class:`SingularMarginalError` once the condition number reaches
    ``COND_LIMIT``; below that bound an LU solve is as accurate as Cholesky.
    It asks whether ``mat`` can be inverted, not whether it is a covariance
    (:func:`kernels._symmetric`), so it symmetrizes whatever it is given.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if eigs[0] <= 0.0 or eigs[-1] / eigs[0] >= COND_LIMIT:
        raise SingularMarginalError(
            f"{what} covariance singular or ill-conditioned "
            f"(eigenvalues in [{eigs[0]:.3e}, {eigs[-1]:.3e}])"
        )
    return np.linalg.solve(mat, rhs)


def condition(plan: TransportPlan, x) -> ConditionalLaw:
    """Law of the right block given the left block equals ``x``.

    Mean ``m_r + S_cross^T S_left^{-1} (x - m_l)`` and covariance
    ``S_right - S_cross^T S_left^{-1} S_cross``.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != plan.left_dim:
        raise InvalidInputError(
            f"conditioning point has dim {x.size}, expected {plan.left_dim}"
        )
    _require_finite("conditioning point", x)
    solved = solve_spd(plan.cov_left, np.column_stack([plan.cross, (x - plan.mean_left)[:, None]]),
                       what="left marginal")
    solved_cross = solved[:, : plan.right_dim]
    solved_x = solved[:, plan.right_dim]
    mean = plan.mean_right + plan.cross.T @ solved_x
    cov = plan.cov_right - plan.cross.T @ solved_cross
    return ConditionalLaw(mean=mean, cov=0.5 * (cov + cov.T))


def _check_chained(plans: Sequence[TransportPlan]) -> None:
    if len(plans) == 0:
        raise InvalidInputError("need at least one transport plan")
    for a, b in zip(plans, plans[1:]):
        if a.right_dim != b.left_dim:
            raise ChainMismatchError(
                f"dim mismatch: right block {a.right_dim} vs left block {b.left_dim}"
            )
        for name, u, v in (
            ("times", a.times_right, b.times_left),
            ("mean", a.mean_right, b.mean_left),
            ("cov", a.cov_right, b.cov_left),
        ):
            if float(np.max(np.abs(u - v))) > MARGINAL_MATCH_TOL:
                raise ChainMismatchError(
                    f"chained marginal {name} differ by more than {MARGINAL_MATCH_TOL}"
                )


def _transitions(plans: Sequence[TransportPlan]) -> list[np.ndarray]:
    """``S_{j,j}^{-1} S_{j,j+1}`` for every plan after the first."""
    return [solve_spd(p.cov_left, p.cross, what="intermediate marginal") for p in plans[1:]]


def concatenate(plans: Sequence[TransportPlan]) -> GaussianVector:
    """Glue chained plans into their joint Gaussian law.

    Block (i, j) of the result is the telescoping product
    ``S_{i,i+1} S_{i+1,i+1}^{-1} ... S_{j-1,j}``; diagonal blocks are the
    marginal covariances.  Conditionally on any middle block, the blocks
    before and after it are independent.
    """
    _check_chained(plans)
    covs = [p.cov_left for p in plans] + [plans[-1].cov_right]
    offsets = np.concatenate([[0], np.cumsum([c.shape[0] for c in covs])])
    total = int(offsets[-1])
    cov = np.zeros((total, total))
    mean = np.concatenate([p.mean_left for p in plans] + [plans[-1].mean_right])
    times = np.concatenate([p.times_left for p in plans] + [plans[-1].times_right])

    for i, c in enumerate(covs):
        sl = slice(offsets[i], offsets[i + 1])
        cov[sl, sl] = c

    # Row by row, extend the cross block one step at a time:
    # A_{i,j+1} = A_{i,j} S_{j,j}^{-1} S_{j,j+1}.
    p = len(covs)
    steps = _transitions(plans)
    for i in range(p - 1):
        block = plans[i].cross
        cov[offsets[i] : offsets[i + 1], offsets[i + 1] : offsets[i + 2]] = block
        cov[offsets[i + 1] : offsets[i + 2], offsets[i] : offsets[i + 1]] = block.T
        for j in range(i + 1, p - 1):
            block = block @ steps[j - 1]
            cov[offsets[i] : offsets[i + 1], offsets[j + 1] : offsets[j + 2]] = block
            cov[offsets[j + 1] : offsets[j + 2], offsets[i] : offsets[i + 1]] = block.T

    return GaussianVector(times=times, mean=mean, cov=cov)


def compose(plans: Sequence[TransportPlan]) -> TransportPlan:
    """Outer-marginal projection of a chain: the Gaussian Chapman-Kolmogorov product."""
    _check_chained(plans)
    if len(plans) == 1:
        return plans[0]
    first, last = plans[0], plans[-1]
    cross = first.cross
    for step in _transitions(plans):
        cross = cross @ step
    return TransportPlan.from_blocks(
        cov_left=first.cov_left,
        cross=cross,
        cov_right=last.cov_right,
        mean_left=first.mean_left,
        mean_right=last.mean_right,
        times=np.concatenate([first.times_left, last.times_right]),
    )


def _block_slices(dim: int, block_dims: Sequence[int] | None) -> list[slice]:
    dims = [1] * dim if block_dims is None else [_count(d, "block dim", 1, most=dim)
                                                 for d in block_dims]
    if sum(dims) != dim:
        raise InvalidInputError(f"block dims {dims} do not partition dim {dim}")
    offsets = np.concatenate([[0], np.cumsum(dims)])
    return [slice(int(a), int(b)) for a, b in zip(offsets, offsets[1:])]


def markov_check(
    joint: GaussianVector,
    block_dims: Sequence[int] | None = None,
) -> MarkovReport:
    """Test the Markov factorization of a joint Gaussian law.

    A Gaussian chain is Markov exactly when each block is independent of
    the earlier ones given the block before it (block-tridiagonal
    precision; Rue & Held, 2005), so for blocks ``i < k - 1`` the residual
    is ``max |S_ik - S_{i,k-1} S_{k-1,k-1}^{-1} S_{k-1,k}|``.  The law is
    Markov when the largest residual stays below ``MARKOV_RESIDUAL_TOL * max(diagonal)``.
    """
    slices = _block_slices(joint.dim, block_dims)
    cov = joint.cov
    scale = float(np.max(np.diag(cov)))
    worst, pair = 0.0, None
    if len(slices) >= 3:
        # resid[r, k - 2]: largest residual of coordinate r against block k
        if len(slices) == joint.dim:
            mid = np.diag(cov)[1:-1]
            if np.any(mid <= 0.0):
                raise SingularMarginalError("diagonal block covariance singular")
            resid = np.triu(np.abs(cov[:, 2:] - cov[:, 1:-1] * (np.diag(cov, 1)[1:] / mid)))
        else:
            resid = np.zeros((joint.dim, len(slices) - 2))
            for k in range(2, len(slices)):
                prev, cur = slices[k - 1], slices[k]
                step = solve_spd(cov[prev, prev], cov[prev, cur], what="diagonal block")
                past = slice(0, prev.start)
                resid[past, k - 2] = np.max(np.abs(cov[past, cur] - cov[past, prev] @ step), axis=1)
        row, col = np.unravel_index(int(np.argmax(resid)), resid.shape)
        worst = float(resid[row, col])
        block = int(np.searchsorted([s.start for s in slices], row, side="right")) - 1
        pair = (block, int(col) + 2)
    return MarkovReport(
        max_residual=worst,
        is_markov=worst < MARKOV_RESIDUAL_TOL * max(scale, 1e-300),
        worst_pair=pair,
    )


def gaussian_distance(a: GaussianVector, b: GaussianVector) -> float:
    """Sup-norm distance ``max(|mean_a - mean_b|_inf, |cov_a - cov_b|_inf)``.

    Convergence of Gaussian laws is equivalent to convergence of means and
    covariances, so this is the convergence metric used everywhere.
    """
    if a.dim != b.dim:
        raise InvalidInputError(f"dimension mismatch {a.dim} vs {b.dim}")
    if float(abs(a.times - b.times).max()) > 1e-12:
        raise InvalidInputError("laws live on different time grids")
    return max(float(abs(a.mean - b.mean).max()), float(abs(a.cov - b.cov).max()))
