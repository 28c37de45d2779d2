"""Covariance kernels and decorrelation-rate diagnostics.

A :class:`Kernel` bundles a symmetric positive semi-definite covariance
function ``K(s, t)``, one broadcasting formula that also gives its scalar
values, with a mean function and a validity domain.  Kernels are
immutable values; every operation in this module is pure and safe to call
concurrently.

The central diagnostic is the instantaneous decorrelation rate

    alpha(t) = lim_{h -> 0+} (1 - corr(t, t+h)) / h,

estimated here along explicit h-sequences since the limit may fail to
exist (see :mod:`gaussmarkov.spectral` for a kernel whose rate oscillates).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidRateError,
    SingularMarginalError,
    UnsupportedDiagnosticError,
)

#: PSD slack relative to the largest diagonal entry of a Gram matrix.
TOL_PSD = 1e-10

#: Largest entry whose double, ``x + x``, is finite.
_HALF_MAX = np.finfo(float).max / 2

#: Smallest admissible h when estimating the decorrelation rate.
DEFAULT_H_MIN = 1e-8

#: Relative agreement needed between trailing rate values to call it converged.
RATE_REL_TOL = 1e-3

#: Rate value past which an increasing sequence is declared divergent.
RATE_DIVERGENCE_THRESHOLD = 1e6

#: Largest ``grid_density`` of the uniform diagnostic, whose lattice arrays then take 32 MiB.
MAX_LATTICE_DENSITY = 2048

#: Absolute tolerance of the package quadrature, for rates and noise integrals.
INTEGRAL_ABS_TOL = 1e-10

#: Integrand evaluations one integral may take before the integrand is rejected.
MAX_RATE_EVALS = 100_000

#: Integrand size past which a noise integral's infinite end is cut off.
NOISE_TAIL_TOL = 1e-14

#: Most distinct (s, t) pairs that one quadrature run of a noise-integral ``cov`` takes.
NOISE_PAIR_CHUNK = 2**8


def _zero_mean(t: float) -> float:
    return 0.0


def _stale(derived: Callable | None, source: Callable) -> bool:
    """Whether ``derived`` is missing or was derived from another callable than ``source``."""
    return derived is None or getattr(derived, "derived_from", source) is not source


@dataclass(frozen=True)
class Kernel:
    """A covariance function ``cov`` with a mean (default zero), a domain and a name.

    ``cov(s, t)``, required and the only field the library reads, is ``K(s, t)``
    elementwise on broadcast arrays, exactly symmetric, each entry rounded alone
    whatever the batch; a scalar function enters through :meth:`from_scalar`.
    ``eval(s, t)`` is ``float(cov(s, t))``, derived again when ``cov`` changes; a
    given ``eval`` over the same ``cov`` is kept, as a call counter wraps it.
    """

    eval: Callable[[float, float], float] | None = None
    mean: Callable[[float], float] = _zero_mean
    cov: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    domain: tuple[float, float] = (-math.inf, math.inf)
    name: str = "kernel"

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise InvalidInputError(f"empty kernel domain {self.domain}")
        if self.cov is None:
            raise InvalidInputError("a kernel needs a cov; see Kernel.from_scalar")
        if _stale(self.eval, self.cov):
            array = self.cov

            def eval(s, t):
                return float(array(s, t))

            eval.derived_from = array
            object.__setattr__(self, "eval", eval)

    @classmethod
    def from_scalar(cls, scalar: Callable[[float, float], float], **fields) -> "Kernel":
        """A kernel whose ``cov`` calls the symmetric ``scalar(s, t)`` once per entry."""
        def cov(s, t):
            s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
            vals = [scalar(a, b) for a, b in zip(s.flat, t.flat)]
            return np.array(vals, dtype=float).reshape(s.shape)

        return cls(cov=cov, **fields)

    def variance(self, t: float) -> float:
        return float(self.cov(t, t))

    def std(self, t: float) -> float:
        v = self.variance(t)
        if v <= 0.0:
            raise SingularMarginalError(f"kernel '{self.name}' is singular at t={t}")
        return math.sqrt(v)

    def require_in_domain(self, times) -> None:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        lo, hi = self.domain
        outside = times[~((lo <= times) & (times <= hi))]
        if outside.size:
            raise InvalidInputError(
                f"time {outside[0]} outside domain {self.domain} of kernel '{self.name}'"
            )


@dataclass(frozen=True)
class RateFunction:
    """Nonnegative decorrelation rate: exactly one of a callable ``func``, a
    constant ``const`` and the infinite marker ``is_infinite=True``.

    The infinite rate is explicit instead of a float sentinel, so it can
    never leak into matrices.  A constant rate has no ``func``: ``alpha(t)``
    and :func:`rate_kernel`'s exact shortcut read the one ``const``.
    """

    func: Callable[[float], float] | None = None
    is_infinite: bool = False
    const: float | None = None

    def __post_init__(self):
        if self.is_infinite and self.func is not None:
            raise InvalidInputError("the infinite rate takes no func")
        if self.const is not None:
            if self.is_infinite or self.func is not None:
                raise InvalidInputError("a constant rate takes no func and no infinite marker")
            if not (math.isfinite(self.const) and self.const >= 0.0):
                raise InvalidInputError(
                    f"rate must be nonnegative and finite (the infinite rate is 'inf'), got {self.const}"
                )
            object.__setattr__(self, "const", float(self.const))
        elif not (self.is_infinite or callable(self.func)):
            raise InvalidInputError(f"a finite rate needs a callable func, got {self.func!r}")

    @classmethod
    def constant(cls, value: float) -> "RateFunction":
        return cls(const=value)

    @classmethod
    def infinite(cls) -> "RateFunction":
        return cls(is_infinite=True)

    @classmethod
    def from_callable(cls, f: Callable[[float], float]) -> "RateFunction":
        return cls(func=f)

    def __call__(self, t: float) -> float:
        if self.is_infinite:
            raise UnsupportedDiagnosticError("rate is the infinite marker")
        return self.const if self.const is not None else float(self.func(t))


@dataclass(frozen=True)
class PsdReport:
    min_eigenvalue: float
    passed: bool


@dataclass(frozen=True)
class AlphaEstimate:
    """Result of a decorrelation-rate limit estimate along an h-sequence."""

    value: float
    is_infinite: bool
    converged: bool
    samples: tuple[float, ...] = field(default=(), repr=False)

    def as_rate(self) -> RateFunction:
        if self.is_infinite:
            return RateFunction.infinite()
        return RateFunction.constant(self.value)


def _sorted_unique(values) -> np.ndarray:
    """Distinct entries in ascending order, as ``np.unique`` gives them without NaNs.

    Sorts and masks repeats the way numpy's own ``_unique1d`` does, without
    its masked-array check, whose first call imports ``numpy.ma`` (12-20 ms).
    """
    x = np.sort(np.asarray(values, dtype=float).ravel())
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _require_no_nan(points: np.ndarray) -> None:
    """Rejects a NaN among points sorted by :func:`_sorted_unique`, which puts NaNs last."""
    if points.size and math.isnan(points[-1]):
        raise InvalidInputError(f"time {points[-1]} is not a number")


def _at_points(funcs: Sequence[Callable[[float], float]], *args) -> list[list]:
    """Each function at every entry of each argument: one list per function.

    The distinct points are found once; each function is called once per
    point in ascending order, the first at every point before the second
    at any.  Each value comes back shaped as its argument.
    """
    arrays = [np.asarray(a, dtype=float) for a in args]
    points = _sorted_unique(np.concatenate([a.ravel() for a in arrays]))
    _require_no_nan(points)
    where = [np.searchsorted(points, a) for a in arrays]
    tables = (np.array([f(p) for p in points], dtype=float) for f in funcs)
    return [[values[i] for i in where] for values in tables]


def _as_strictly_increasing(grid) -> np.ndarray:
    try:
        arr = np.asarray(grid, dtype=float).ravel()
    except (TypeError, ValueError):  # a ragged list, text or another object
        raise InvalidInputError("grid must be a list of numbers") from None
    if arr.size < 1:
        raise InvalidInputError("grid must contain at least one time")
    if arr.size > 1 and not (arr[1:] > arr[:-1]).all():
        raise InvalidInputError("grid must be strictly increasing")
    return arr


def _require_at_most(count, cap, what: str) -> None:
    """Refuses ``what`` unless ``count <= cap``, so an inf or NaN count is refused too."""
    if not count <= cap:
        raise InvalidInputError(f"{what}, above the cap of {cap}")


def _shown(value, most_bits: float = math.inf) -> str:
    """A refused value as messages show it: a real number by ``str``, anything else by
    ``repr``.  An integer past ``most_bits``, or past Python's digit limit, is shown by
    its size instead, and another value holding one past that limit by its type."""
    try:
        if not (isinstance(value, numbers.Integral) and int(value).bit_length() > most_bits):
            return str(value) if isinstance(value, numbers.Real) else repr(value)
    except ValueError:  # digits past the limit, of the value or of one inside it
        if not isinstance(value, numbers.Integral):
            return f"a {type(value).__name__} holding an integer too long to print"
    return f"{'a negative' if value < 0 else 'an'} integer of {int(value).bit_length()} bits"


def _count(value, what: str, least: int | None = 0, below: str | None = None,
           most: int | None = None) -> int:
    """``value`` as an int: the one rule for every count and its bounds (None: no
    bound).  A Python or numpy integer passes, and so does a float of integral
    value.  Below ``least``, NaN and -inf are refused with ``below``, whose ``{}``
    stands for the value, by default ``{what} must be at least {least}, got {}``
    (``a nonnegative integer`` for 0); above ``most``, +inf too, with ``{what}
    must be at most {most}``; a bool, a fraction or a non-number with ``{what}
    must be an integer``."""
    rule = "a nonnegative integer" if least == 0 else "an integer"
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if least is not None and not value >= least:
            bound = rule if least == 0 else f"at least {least}"
            below = below or f"{what} must be {bound}, got {{}}"
            raise InvalidInputError(below.format(_shown(value, 64)))
        if most is not None and value > most:
            raise InvalidInputError(f"{what} must be at most {most}, got {_shown(value, 64)}")
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise InvalidInputError(f"{what} must be {rule}, got {_shown(value)}")


def gram(kernel: Kernel, grid) -> np.ndarray:
    """Gram matrix ``[K(t_i, t_j)]`` over an ordered grid; every entry must be finite.

    Memory per call, in n-by-n arrays of doubles alive at once: one for the rate
    kernels (white noise included), whose covariance is made in the result, and
    for a matrix kernel beside its table; two for ``constant``, mimicking and
    spectral kernels (the latter plus at most 1 MiB of cosines); three for ``fbm``
    and five for ``fbm_log``, whose formulas combine whole arrays; 6.25 for a
    noise integral, whose pairs one sort makes distinct, plus the quadrature of
    ``NOISE_PAIR_CHUNK`` pairs (3 MiB for ``sqrt_exp``, 4 MiB a pair if it takes
    all ``MAX_RATE_EVALS``); for a transformed kernel, the larger of its base
    kernel's count and three.  The finiteness check adds n-by-n booleans.
    """
    pts = _as_strictly_increasing(grid)
    kernel.require_in_domain(pts)
    mat = np.asarray(kernel.cov(pts[:, None], pts[None, :]), dtype=float)
    if not np.isfinite(mat).all():
        i, j = np.argwhere(~np.isfinite(mat))[0]
        at = (float(pts[i]), float(pts[j]))
        raise InvalidInputError(f"kernel '{kernel.name}' is {mat[i, j]} at (s, t) = {at}")
    return mat


def _require_finite(what: str, value: np.ndarray) -> None:
    finite = np.isfinite(value)
    if not finite.all():
        raise InvalidInputError(f"{what} must be finite, got {value[~finite][0]}")


def _checkable(mat: np.ndarray, what: str) -> float:
    """``max |mat|``, after refusing a ``mat`` that is not finite or has an entry
    past ``_HALF_MAX``, where ``0.5 * (x + y)`` could overflow."""
    top = max(float(mat.max()), -float(mat.min()))
    if not top <= _HALF_MAX:  # NaN compares false, and propagates through max and min
        _require_finite(what, mat)
        raise InvalidInputError(f"{what} entries too large to check, up to {top}")
    return top


def _symmetric(mat: np.ndarray, what: str) -> np.ndarray:
    """A :func:`_checkable` square ``mat`` itself when it is exactly symmetric, else
    its symmetric part; an asymmetry above ``1e-12 * max(1, max |mat|)`` is refused."""
    top = _checkable(mat, what)
    if np.array_equal(mat, mat.T):
        return mat
    asym = float((mat - mat.T).max())  # x - y is exactly -(y - x): the max is max |mat - mat.T|
    if asym > 1e-12 * max(1.0, top):
        raise InvalidInputError(f"{what} entries not symmetric (max deviation {asym})")
    return 0.5 * (mat + mat.T)


def _below_psd(min_eig, scale):
    """Whether eigenvalues fall below the PSD bound of a nonnegative ``scale``; NaN does not."""
    return min_eig < -TOL_PSD * scale


def psd_check(kernel: Kernel, grid) -> PsdReport:
    """Check positive semi-definiteness of the Gram matrix on a grid, which must pass
    :func:`_symmetric`: it passes unless :func:`_below_psd` at ``max(diagonal)``.  Memory: the
    Gram's (see :func:`gram`), then the Gram, n-by-n booleans for the symmetry test and
    LAPACK's copy, and one more n-by-n array for a Gram symmetric only to rounding."""
    mat = gram(kernel, grid)
    sym = _symmetric(mat, f"kernel '{kernel.name}' has Gram")
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    scale = max(float(mat.diagonal().max()), 0.0)
    return PsdReport(min_eigenvalue=min_eig, passed=not _below_psd(min_eig, scale))


def correlation(kernel: Kernel, s, t):
    """Correlation ``K(s, t) / sqrt(K(s, s) K(t, t))``, elementwise; two floats give a float."""
    vs, vt = np.asarray(kernel.cov(s, s)), np.asarray(kernel.cov(t, t))
    if (singular := (vs <= 0.0) | (vt <= 0.0)).any():
        at_s, at_t = (np.broadcast_to(x, singular.shape)[singular][0] for x in (s, t))
        raise SingularMarginalError(f"kernel '{kernel.name}' has nonpositive variance "
                                    f"at s={at_s} or t={at_t}")
    rho = kernel.cov(s, t) / np.sqrt(vs * vt)
    return float(rho) if np.ndim(rho) == 0 else rho


def decay_rate(kernel: Kernel, t, h):
    """Finite-h decay rate ``(1 - c(t, t+h)) / h``, elementwise; two floats give a float."""
    if (nonpositive := np.asarray(h) <= 0.0).any():
        raise InvalidInputError(f"h must be positive, got {np.asarray(h)[nonpositive][0]}")
    kernel.require_in_domain(np.append(t, t + h))
    return (1.0 - correlation(kernel, t, t + h)) / h


def estimate_alpha(
    kernel: Kernel,
    t: float,
    h_sequence: Sequence[float],
    h_min: float = DEFAULT_H_MIN,
) -> AlphaEstimate:
    """Estimate the instantaneous decorrelation rate at time ``t``.

    Evaluates :func:`decay_rate` along a strictly decreasing h-sequence, in
    one call.  Converged when the last three values agree within
    ``RATE_REL_TOL * (1 + |last|)``.  Returns the infinite marker when the
    values are increasing and the last one exceeds ``RATE_DIVERGENCE_THRESHOLD``.
    """
    hs = np.asarray(list(h_sequence), dtype=float)
    if hs.size < 3:
        raise InvalidInputError("h_sequence needs at least three values")
    if not np.all(np.diff(hs) < 0.0):
        raise InvalidInputError("h_sequence must be strictly decreasing")
    if hs[-1] < h_min:
        raise InvalidInputError(f"h_sequence goes below the floor h_min={h_min}")
    vals = tuple(decay_rate(kernel, t, hs).tolist())
    a, b, c = vals[-3:]
    if a < b < c and c > RATE_DIVERGENCE_THRESHOLD:
        return AlphaEstimate(value=math.inf, is_infinite=True, converged=True, samples=vals)
    converged = max(a, b, c) - min(a, b, c) <= RATE_REL_TOL * (1.0 + abs(c))
    return AlphaEstimate(value=c, is_infinite=False, converged=converged, samples=vals)


def uniform_convergence_diagnostic(
    kernel: Kernel,
    alpha: RateFunction,
    s: float,
    t: float,
    h_star: float,
    grid_density: int,
) -> float:
    """Largest deviation ``|decay_rate(v, h) - alpha(v)|`` on a (v, h) lattice.

    ``h = h_star j / grid_density`` for j = 1 ... grid_density, clipped to
    ``(t - s)(1 - 1e-12)``, by ``v = linspace(s, t - h, grid_density)``, in one
    :func:`decay_rate` call; NaN deviations are skipped.  Finite rates only.
    """
    if alpha.is_infinite:
        raise UnsupportedDiagnosticError(
            "uniform convergence diagnostic requires a finite rate"
        )
    if not s < t:
        raise InvalidInputError("need s < t")
    grid_density = _count(grid_density, "grid_density", 2, "grid_density must be at least 2",
                          MAX_LATTICE_DENSITY)
    hs = h_star * np.arange(1, grid_density + 1) / grid_density
    hs[hs >= t - s] = (t - s) * (1.0 - 1e-12)
    v = np.linspace(s, t - hs, grid_density)  # column j is the v-grid of hs[j]
    rates = decay_rate(kernel, v, hs)
    ((alphas,),) = _at_points((alpha,), v)
    return float(np.fmax.reduce(np.abs(rates - alphas), axis=None, initial=0.0))


def transform_kernel(
    kernel: Kernel,
    scale: Callable[[float], float],
    time_change: Callable[[float], float],
    domain: tuple[float, float] | None = None,
) -> Kernel:
    """Rescaled, time-changed kernel ``scale(s) scale(t) K(phi(s), phi(t))``.

    ``time_change`` must map the new domain into ``kernel.domain`` and be
    strictly increasing; ``scale`` must never vanish.
    """
    new_domain = kernel.domain if domain is None else tuple(domain)
    lo, hi = new_domain
    for endpoint in (lo, hi):
        if not math.isfinite(endpoint):
            continue
        try:
            image = time_change(endpoint)
        except (ValueError, OverflowError):
            continue  # boundary of an open interval; interior evaluations decide
        if not kernel.domain[0] <= image <= kernel.domain[1]:
            raise InvalidInputError(
                f"time change maps {endpoint} to {image}, outside {kernel.domain}"
            )

    name = f"transformed({kernel.name})"

    def defined(f: Callable[[float], float], what: str) -> Callable[[float], float]:
        def at(t: float) -> float:
            try:
                return f(t)
            except OverflowError as exc:
                raise InvalidInputError(f"kernel {name!r}: {what} overflows at t = {t}") from exc
            except (ArithmeticError, ValueError) as exc:
                raise InvalidInputError(f"kernel {name!r}: {what} is undefined at t = {t}") from exc

        return at

    scale_at, phi = defined(scale, "scale"), defined(time_change, "time change")

    def nonzero_scale(t: float) -> float:
        u = scale_at(t)
        if u == 0.0:
            raise InvalidInputError(f"scale vanishes at {t}")
        return u

    def new_cov(s, t):
        (u, v), (phi_s, phi_t) = _at_points((nonzero_scale, phi), s, t)
        base = kernel.cov(phi_s, phi_t)  # first: its temporaries are gone before u * v
        return u * v * base

    def new_mean(t: float) -> float:
        return scale_at(t) * kernel.mean(phi(t))

    return Kernel(mean=new_mean, cov=new_cov, domain=new_domain, name=name)


# ---------------------------------------------------------------------------
# Built-in kernel families
# ---------------------------------------------------------------------------


def fbm(hurst: float) -> Kernel:
    """Fractional Brownian motion kernel on (0, inf).

    ``K(s, t) = (|t|^{2H} + |s|^{2H} - |t-s|^{2H}) / 2`` with Hurst
    parameter ``H`` in (0, 1).  ``cov`` is within ``4 eps S`` of ``K``, ``S``
    the sum of its terms' sizes, and 1 - correlation within ``4 eps (1 + S / (st)^H)``.
    """
    if not 0.0 < hurst < 1.0:
        raise InvalidInputError(f"Hurst parameter must lie in (0, 1), got {hurst}")
    two_h = 2.0 * hurst

    # Python's operators: two floats take libm's pow, arrays numpy's loops.
    def cov(s, t):
        return 0.5 * (abs(t) ** two_h + abs(s) ** two_h - abs(t - s) ** two_h)

    return Kernel(cov=cov, domain=(0.0, math.inf), name=f"fbm(H={hurst})")


def fbm_log(hurst: float) -> Kernel:
    """Stationary profile of fractional Brownian motion in log time.

    ``K(s, t) = Ktilde(t - s)`` with
    ``Ktilde(x) = (e^{2Hx} + e^{-2Hx} - |e^x - e^{-x}|^{2H}) / 2``;
    rescaling by ``t^H`` and the time change ``ln(s)/2`` recovers the
    fBm kernel (see :func:`transform_kernel`).  Unit variance.  ``cov`` and
    1 - correlation are within ``4 eps S`` and ``4 eps (1 + S)`` of their values,
    ``S = (e^{2Hx} + e^{-2Hx} + 4H cosh x |2 sinh x|^{2H-1}) / 2`` at ``x = t - s``.
    """
    if not 0.0 < hurst < 1.0:
        raise InvalidInputError(f"Hurst parameter must lie in (0, 1), got {hurst}")
    two_h = 2.0 * hurst

    def profile(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (
            np.exp(two_h * x)
            + np.exp(-two_h * x)
            - np.abs(np.exp(x) - np.exp(-x)) ** two_h
        )

    return Kernel(cov=lambda s, t: profile(np.subtract(t, s)), name=f"fbm_log(H={hurst})")


def constant() -> Kernel:
    """Completely correlated process: ``K(s, t) = 1`` everywhere."""
    return Kernel(cov=lambda s, t: np.ones_like(np.subtract(t, s, dtype=float)), name="constant")


def white_noise() -> Kernel:
    """Independent unit Gaussians: identity Gram matrix on any grid."""
    return Kernel(
        cov=lambda s, t: np.where(np.subtract(t, s, dtype=float) == 0.0, 1.0, 0.0),
        name="white_noise",
    )


# ---------------------------------------------------------------------------
# The Markov kernel exp(-integral of alpha)
# ---------------------------------------------------------------------------

# 7-point Kronrod extension of the 4-point Gauss-Lobatto rule on [-1, 1]
# (Gander & Gautschi 2000).  Both rules sample the ends of a piece, so a
# jump inside it always moves ``K7 - L4``: no rate value goes unseen.
_GK_NODES = np.array([
    -1.0, -math.sqrt(2 / 3), -1 / math.sqrt(5), 0.0, 1 / math.sqrt(5), math.sqrt(2 / 3), 1.0,
])[:, None]
_KRONROD_WEIGHTS = np.array([11 / 210, 72 / 245, 125 / 294, 16 / 35, 125 / 294, 72 / 245, 11 / 210])
_ERROR_WEIGHTS = _KRONROD_WEIGHTS - np.array([1 / 6, 0.0, 5 / 6, 0.0, 5 / 6, 0.0, 1 / 6])

#: Error estimates within this relative distance of their piece's integral are rounding.
_ROUNDOFF = 50 * np.finfo(float).eps

#: Panel edges' offsets from the anchor: widths 1, 1, 2, 4, ... up to the float range.
_PANEL_OFFSETS = np.concatenate([[0.0], 2.0 ** np.arange(1024)])


def _value_or_nan(func: Callable[..., float], *args) -> float:
    try:
        return func(*args)
    except (ArithmeticError, ValueError):
        return math.nan


def _integrate(func, lo: np.ndarray, hi: np.ndarray,
               integrand: Callable[[int], str] | None = None) -> np.ndarray:
    """``integral of func`` over each ``[lo_i, hi_i]``, by bisecting a Gauss-Kronrod pair.

    ``func(u)`` is a rate, nonnegative and failing with :class:`InvalidRateError`,
    unless ``integrand(i)`` names it: then it is ``func(u, i)`` over interval ``i``,
    of free sign, failing with :class:`InvalidInputError`.  A piece is kept once
    ``|K7 - L4|`` is within ``INTEGRAL_ABS_TOL`` or within rounding of its value.
    The tolerance is the same for every piece, so a jump in ``func`` is bisected
    down to a piece short enough to meet it.  Each round evaluates ``func`` at
    every node of every open piece in one pass; an integral's kept pieces are
    summed in ascending order, so it depends on its own interval alone.
    """
    name = integrand or (lambda i: "rate")
    error = InvalidRateError if integrand is None else InvalidInputError
    out = np.zeros(lo.size)
    owner = np.flatnonzero(hi > lo)
    a, b = lo[owner], hi[owner]
    evals = np.zeros(lo.size, dtype=np.int64)
    kept = []
    while owner.size:
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        nodes = mid + half * _GK_NODES
        args = [nodes.ravel().tolist()]
        if integrand is not None:  # nodes are row-major: each row runs over the open pieces
            args.append(owner.tolist() * nodes.shape[0])
        try:
            f = np.fromiter(map(func, *args), float, nodes.size)
        except (ArithmeticError, ValueError):  # reported below as not finite where it fails
            f = np.array([_value_or_nan(func, *x) for x in zip(*args)])
        f = f.reshape(nodes.shape)
        bad = ~np.isfinite(f) | ((f < -1e-12) & (integrand is None))
        if bad.any():
            j, i = np.unravel_index(np.argmax(bad), f.shape)
            kind = "negative" if f[j, i] < 0.0 else "not finite"
            raise error(
                f"{name(owner[i])} is {kind} at t={nodes[j, i]}: {f[j, i]}, integrating over "
                f"[{lo[owner[i]]}, {hi[owner[i]]}]"
            )
        kron = half * sum(w * row for w, row in zip(_KRONROD_WEIGHTS, f))
        err = np.abs(half * sum(w * row for w, row in zip(_ERROR_WEIGHTS, f)))
        done = (err <= INTEGRAL_ABS_TOL) | (err <= _ROUNDOFF * np.abs(kron))
        kept.append((owner[done], a[done], kron[done]))
        evals += nodes.shape[0] * np.bincount(owner, minlength=lo.size)
        owner, a, b, mid = owner[~done], a[~done], b[~done], mid[~done]
        stuck = (evals[owner] > MAX_RATE_EVALS) | (mid <= a) | (mid >= b)
        if stuck.any():
            i = owner[np.argmax(stuck)]
            raise error(
                f"{name(i)} is not integrable to {INTEGRAL_ABS_TOL} over [{lo[i]}, {hi[i]}] "
                f"within {MAX_RATE_EVALS} evaluations"
            )
        owner, a, b = np.tile(owner, 2), np.concatenate([a, mid]), np.concatenate([mid, b])
    if kept:
        owners, starts, values = (np.concatenate(parts) for parts in zip(*kept))
        order = np.lexsort((starts, owners))
        np.add.at(out, owners[order], values[order])
    return out


def _antiderivative(rate: RateFunction, domain: tuple[float, float]) -> Callable:
    """``A(t) = integral of rate from c to t`` at every entry of an array of times.

    The anchor ``c`` depends on the domain alone: 0 inside an open domain
    containing it, else the midpoint of a finite domain, else the finite end
    moved one unit inward.  Fixed panels of widths 1, 1, 2, 4, ... run from
    ``c`` both ways, so ``A(t)`` is the memoized sum of the whole panels
    between ``c`` and ``t`` plus the rest of the way to ``t``.  Every value
    is a function of ``t`` alone, whatever was asked before or alongside it,
    so the memos need no lock.
    """
    lo, hi = domain
    if lo < 0.0 < hi:
        c = 0.0
    elif math.isfinite(lo) and math.isfinite(hi):
        c = 0.5 * (lo + hi)
    else:
        c = lo + 1.0 if math.isfinite(lo) else hi - 1.0
    # per side of c: k -> sum of the first k whole panels, filled in order of k
    panel_sums: dict[float, dict[int, float]] = {1.0: {0: 0.0}, -1.0: {0: 0.0}}
    memo: dict[float, float] = {}

    def between(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _integrate(rate.func, np.minimum(x, y), np.maximum(x, y))

    def values(times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        new = _sorted_unique([p for p in times.ravel().tolist() if p not in memo])
        _require_no_nan(new)
        for sign in (1.0, -1.0):
            t = new[new >= c] if sign > 0.0 else new[new < c]
            if not t.size:
                continue
            edges = c + sign * _PANEL_OFFSETS
            k = np.searchsorted(sign * edges, sign * t, side="right") - 1
            sums = panel_sums[sign]
            done = len(sums)
            if done <= k.max():
                ends = edges[done - 1 : k.max() + 1]
                for j, w in enumerate(between(ends[:-1], ends[1:]).tolist(), start=done):
                    sums[j] = sums[j - 1] + w
            whole = np.array([sums[j] for j in k.tolist()])
            memo.update(zip(t.tolist(), (sign * (whole + between(edges[k], t))).tolist()))
        return np.array([memo[p] for p in times.ravel().tolist()]).reshape(times.shape)

    return values


def rate_kernel(
    alpha: RateFunction,
    domain: tuple[float, float] = (-math.inf, math.inf),
) -> Kernel:
    """Markov kernel ``K(s, t) = exp(-integral of alpha from s to t)``.

    ``alpha`` must be nonnegative and integrable on compact subsets of
    ``domain``; the infinite marker yields the white-noise kernel.  Unit
    variance on the diagonal: two equal floats return 1.0 before any numpy
    call, and equal array entries give ``exp(-0) = 1``.  ``cov`` is within
    ``4 eps K S`` of ``K``, and 1 - correlation within ``4 eps (1 + K S)``, with
    ``S = 1 + c |t - s|`` for a constant rate ``c`` and ``1 + |A(s)| + |A(t)|``
    for ``1 + t``, ``A(t) = integral of alpha from the anchor to t``.
    """
    if alpha.is_infinite:
        return Kernel(cov=white_noise().cov, domain=domain, name="rate_kernel(inf)")
    if alpha.const is not None:
        c = alpha.const
        name = f"rate_kernel(const={c})"

        def integral(s, t):
            x = np.subtract(t, s, dtype=float)
            x *= c
            return x
    else:
        antider = _antiderivative(alpha, domain)
        name = "rate_kernel"

        def integral(s, t):
            return antider(t) - antider(s)

    # ``integral`` is signed and new: it is turned into the kernel in place,
    # so a Gram allocates one n-by-n array.  |c x| is c |x| exactly.
    def cov(s, t):
        if isinstance(s, float) and isinstance(t, float) and s == t:
            return 1.0
        x = np.asarray(integral(s, t))
        np.abs(x, out=x)
        np.negative(x, out=x)
        return np.exp(x, out=x)

    return Kernel(cov=cov, domain=domain, name=name)


def exponential_rate(alpha, domain: tuple[float, float] = (-math.inf, math.inf)) -> Kernel:
    """Markov kernel ``exp(-integral of alpha)``; accepts a constant or a rate."""
    if not isinstance(alpha, RateFunction):
        alpha = RateFunction.constant(float(alpha))
    return rate_kernel(alpha, domain=domain)


def noise_integral(k: Callable[[float, float], float], interval: tuple[float, float]) -> Kernel:
    """White-noise integral kernel ``K(s, t) = integral over J of k(s, u) k(t, u) du``.

    One ``cov`` call integrates its distinct pairs ``(min(s, t), max(s, t))`` by
    :func:`rate_kernel`'s quadrature in shared rounds, in runs of 1, 2, 4, ...
    up to ``NOISE_PAIR_CHUNK`` pairs, so an integrand that fails on the first
    pair costs one pair's evaluations.  ``k`` is called on floats once per node
    and pair; each value is its own pair's integral, so the kernel is exactly
    symmetric.  An infinite end is cut off, per pair, where the integrand falls
    below ``NOISE_TAIL_TOL``; one that is not finite or does not converge raises
    :class:`InvalidInputError` naming the interval.
    """
    lo, hi = interval
    if not lo < hi:
        raise InvalidInputError(f"empty integration interval {interval}")

    def truncated(s: float, t: float, u: float) -> float:
        """Doubles ``u`` until the integrand is negligible at ``u`` and ``2u``; returns ``2u``."""
        for _ in range(200):
            if all(abs(k(s, v) * k(t, v)) < NOISE_TAIL_TOL for v in (u, 2 * u)):
                return 2 * u
            u *= 2.0
        raise InvalidInputError(
            f"noise-integral integrand does not decay on {interval} at ({s}, {t})"
        )

    def window(s: float, t: float) -> tuple[float, float]:
        upper = hi if math.isfinite(hi) else truncated(s, t, max(1.0, lo + 1.0))
        return (lo if math.isfinite(lo) else truncated(s, t, min(-1.0, hi - 1.0))), upper

    def cov(s, t):
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        a, b = np.where(first := s <= t, s, t).ravel(), np.where(first, t, s).ravel()
        order = np.lexsort((b, a))  # distinct pairs as _sorted_unique finds distinct times
        a, b = a[order], b[order]
        new = np.ones(a.shape, dtype=bool)
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        where = np.empty_like(order)
        where[order] = np.cumsum(new) - 1
        a, b = a[new], b[new]
        values, c, size = np.empty(a.size), 0, 1
        while c < a.size:
            x, y = a[c : c + size].tolist(), b[c : c + size].tolist()
            ends = np.array([window(p, q) for p, q in zip(x, y)])
            values[c : c + size] = _integrate(
                lambda u, i: k(x[i], u) * k(y[i], u), ends[:, 0], ends[:, 1],
                integrand=lambda i: f"noise-integral integrand k({x[i]}, u) k({y[i]}, u)",
            )
            c, size = c + size, min(2 * size, NOISE_PAIR_CHUNK)
        return values[where].reshape(s.shape)

    return Kernel(cov=cov, name="noise_integral")


def matrix_kernel(grid, matrix, name: str = "matrix") -> Kernel:
    """Kernel defined by table lookup on a fixed grid (diagnostic helper).  A table not exactly
    symmetric, NaNs counted equal, is stored as :func:`_symmetric` leaves it."""
    pts = _as_strictly_increasing(grid)
    try:
        mat = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError):  # a ragged table, text or another object
        raise InvalidInputError("matrix is not a square table of numbers") from None
    if mat.shape != (pts.size, pts.size):
        raise InvalidInputError("matrix shape does not match grid length")
    if not np.array_equal(mat, mat.T, equal_nan=True):  # gram names a symmetric table's NaN
        mat = _symmetric(mat, "matrix")

    def index(times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        i = np.minimum(np.searchsorted(pts, times), pts.size - 1)
        if (off := pts[i] != times).any():
            raise InvalidInputError(f"time {float(times[off][0])} not on the kernel grid")
        return i

    return Kernel(cov=lambda s, t: mat[index(s), index(t)],
                  domain=(float(pts[0]), float(pts[-1])), name=name)
