"""Slow reference paths that the library's fast ones are checked against.

``lacunary_sum`` and ``f_witness`` are scalar running-product oracles of
``gaussmarkov.spectral._windowed_sum``.  They round each phase ``b^k / x``
otherwise than the library (running product and division against power and
reciprocal): a term of weight ``x * a^k`` can differ by up to
``min(2, (k + 2) 2^-52 b^k / x)`` of it, all once ``b^k / x`` nears 2^52.

``made_markov_law_rows`` builds ``gaussmarkov.transform.made_markov_law`` one
query row at a time, with the same arithmetic, so the two agree bit for bit
wherever the kernel's ``cov`` rounds each entry alone, whatever the batch.
``global_convergence_rows`` builds each row of
``gaussmarkov.transform.global_convergence_experiment`` from that row loop, one
split set at a time.

The ``*_eval`` builders are the scalar formulas the built-in kernel families
stated beside their ``cov`` before ``Kernel.eval`` became ``cov`` at a scalar
pair: Python's ``abs``, ``**`` and ``math.exp`` on two floats.

``rate_cov``, ``mimic_cov``, ``spectral_fourier`` and ``psd_check_symmetrized``
are the whole-array forms that the library's in-place and chunked ones must
match bit for bit: ``np.exp(-integral)``, ``sigma(s) sigma(t) R(s, t)`` with
``np.where`` for the diagonal, one cosine per atom and entry at once, and a
Gram always symmetrized before ``eigvalsh``.

``rate_spec_function``, ``scale_from_spec`` and ``time_change_from_spec`` are
the three spec parsers that ``gaussmarkov.serialize._function`` replaced, one
per kind, each with its own copy of the forms it shares with the others.
``decay_rates`` is ``gaussmarkov.spectral.fourier_decay_rate`` one scalar
``np.dot`` at a time.
"""

import math

import numpy as np

from gaussmarkov.errors import InvalidInputError
from gaussmarkov.gaussian import GaussianVector, gaussian_distance
from gaussmarkov.kernels import (
    TOL_PSD,
    PsdReport,
    RateFunction,
    _antiderivative,
    _as_strictly_increasing,
    _sorted_unique,
    correlation,
    gram,
)
from gaussmarkov.spectral import WeierstrassConfig, _effective_cap
from gaussmarkov.transform import ConvergenceRow, _chain, _require_positive, joint_law


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


def made_markov_law_rows(kernel, split_times, query_times) -> GaussianVector:
    """``made_markov_law`` with two kernel calls, a concatenate and a cumprod per query row."""
    splits = _sorted_unique(split_times)
    queries = _as_strictly_increasing(query_times)
    kernel.require_in_domain(splits)
    kernel.require_in_domain(queries)
    var = kernel.cov(queries, queries)
    _require_positive(queries, var)
    # Only splits strictly inside the query range separate two queries.
    splits = splits[(splits > queries[0]) & (splits < queries[-1])]
    steps, split_var = _chain(kernel, splits)
    factors = steps / split_var[:-1]
    after = np.searchsorted(splits, queries, side="right")  # first split after each query
    before = np.searchsorted(splits, queries, side="left") - 1  # last split before it
    n = queries.size
    last = np.zeros(n)  # K(r_before, q) / K(r_before, r_before)
    has = before >= 0
    last[has] = kernel.cov(splits[before[has]], queries[has]) / split_var[before[has]]
    cov = np.zeros((n, n))
    for i in range(n):
        j0 = max(i + 1, int(np.searchsorted(before, after[i])))  # first query past the next split
        cov[i, i + 1 : j0] = kernel.cov(queries[i : i + 1], queries[i + 1 : j0])
        if j0 < n:
            first = kernel.cov(queries[i : i + 1], splits[after[i] : after[i] + 1])
            run = np.cumprod(np.concatenate([first, factors[after[i] :]]))
            cov[i, j0:] = run[before[j0:] - after[i]] * last[j0:]
    cov = cov + cov.T
    np.fill_diagonal(cov, var)
    mean = np.array([kernel.mean(float(t)) for t in queries])
    return GaussianVector(times=queries, mean=mean, cov=cov)


def global_convergence_rows(kernel, target, adm, query_times, n_max) -> list:
    """``global_convergence_experiment`` with one ``made_markov_law_rows`` law per split set."""
    target_law = joint_law(target, query_times)
    tgt_corr = correlation(target, float(query_times[0]), float(query_times[-1]))
    rows = []
    for n in range(1, n_max + 1):
        law = made_markov_law_rows(kernel, adm.time_set(n), query_times)
        rows.append(ConvergenceRow(
            index=float(n),
            distance=gaussian_distance(law, target_law),
            correlation=float(law.cov[0, -1]) / math.sqrt(float(law.cov[0, 0] * law.cov[-1, -1])),
            target_correlation=tgt_corr,
        ))
    return rows


def fbm_eval(hurst: float):
    two_h = 2.0 * hurst

    def k(s, t):
        return 0.5 * (abs(t) ** two_h + abs(s) ** two_h - abs(t - s) ** two_h)

    return k


def fbm_log_eval(hurst: float):
    two_h = 2.0 * hurst

    def k(s, t):
        x = np.asarray(t - s, dtype=float)
        return float(0.5 * (np.exp(two_h * x) + np.exp(-two_h * x)
                            - np.abs(np.exp(x) - np.exp(-x)) ** two_h))

    return k


def constant_eval(s, t):
    return 1.0


def white_noise_eval(s, t):
    return 1.0 if s == t else 0.0


def rate_eval(alpha, domain=(-math.inf, math.inf)):
    """``exp(-|A(t) - A(s)|)`` by ``math.exp``; 1.0 on the diagonal without integrating."""
    if alpha.is_infinite:
        return white_noise_eval
    if alpha.const is not None:
        c = alpha.const
        return lambda s, t: math.exp(-c * abs(t - s))
    antider = _antiderivative(alpha, domain)

    def k(s, t):
        if s == t:
            return 1.0
        a_s, a_t = antider([s, t]).tolist()
        return math.exp(-abs(a_t - a_s))

    return k


def spectral_eval(mu):
    return lambda s, t: float(mu.fourier(t - s))


def transformed_eval(base_eval, scale, time_change):
    return lambda s, t: scale(s) * scale(t) * base_eval(time_change(s), time_change(t))


def mimic_eval(base_eval, alpha, domain=(-math.inf, math.inf)):
    """``sigma(s) sigma(t) R(s, t)``, and the base kernel's own variance on the diagonal."""
    rate = rate_eval(alpha, domain)

    def k(s, t):
        if s == t:
            return base_eval(t, t)
        return math.sqrt(base_eval(s, s)) * math.sqrt(base_eval(t, t)) * rate(s, t)

    return k


def rate_cov(alpha, domain=(-math.inf, math.inf)):
    """``np.exp(-|integral of alpha from s to t|)`` over broadcast arrays, each step a new array."""
    if alpha.is_infinite:
        return lambda s, t: np.where(np.subtract(t, s, dtype=float) == 0.0, 1.0, 0.0)
    if alpha.const is not None:
        c = alpha.const
        return lambda s, t: np.exp(-(c * np.abs(np.subtract(t, s, dtype=float))))
    antider = _antiderivative(alpha, domain)
    return lambda s, t: np.exp(-np.abs(antider(t) - antider(s)))


def mimic_cov(base_eval, alpha, domain=(-math.inf, math.inf)):
    """``sigma(s) sigma(t) R(s, t)`` by ``math.sqrt`` per entry, and the base variance on the diagonal."""
    rate = rate_cov(alpha, domain)

    def at(f, a):
        a = np.asarray(a, dtype=float)
        return np.array([f(p) for p in a.ravel().tolist()]).reshape(a.shape)

    def cov(s, t):
        std_s = at(lambda p: math.sqrt(base_eval(p, p)), s)
        std_t = at(lambda p: math.sqrt(base_eval(p, p)), t)
        var_t = at(lambda p: base_eval(p, p), t)
        return np.where(np.equal(s, t), var_t, std_s * std_t * rate(s, t))

    return cov


def spectral_fourier(mu, t):
    """``mu_hat(t)`` with every cosine of every entry in one array."""
    masses, locs = mu.effective()
    return (np.cos(np.multiply.outer(np.asarray(t, dtype=float), locs)) * masses).sum(axis=-1)


def psd_check_symmetrized(kernel, grid) -> PsdReport:
    """The PSD check on ``0.5 * (G + G.T)``, whether or not the Gram ``G`` is symmetric."""
    mat = gram(kernel, grid)
    sym = 0.5 * (mat + mat.T)
    if not np.isfinite(sym).all():
        raise InvalidInputError(
            f"kernel '{kernel.name}' has Gram entries too large to check, "
            f"up to {float(np.abs(mat).max())}"
        )
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    scale = float(np.max(np.diag(mat)))
    return PsdReport(min_eigenvalue=min_eig, passed=min_eig >= -TOL_PSD * max(scale, 0.0))


def _form(spec, what: str):
    if not isinstance(spec, dict):
        raise InvalidInputError(f"{what} spec must be an object, got {spec!r}")
    return spec.get("form")


def rate_spec_function(spec) -> RateFunction:
    """The object forms of ``gaussmarkov.serialize.rate_from_spec``."""
    if not isinstance(spec, dict):
        raise InvalidInputError(f"cannot parse rate spec {spec!r}")
    form = spec.get("form")
    if form == "constant":
        return RateFunction.constant(float(spec["value"]))
    if form == "infinite":
        return RateFunction.infinite()
    if form == "linear":
        a = float(spec.get("slope", 1.0))
        b = float(spec.get("intercept", 0.0))
        return RateFunction.from_callable(lambda t: a * t + b)
    if form == "power":
        c = float(spec.get("coeff", 1.0))
        p = float(spec.get("exponent", 1.0))
        return RateFunction.from_callable(lambda t: c * math.pow(t, p))
    raise InvalidInputError(f"unknown rate form {form!r}")


def scale_from_spec(spec):
    form = _form(spec, "scale")
    if form == "constant":
        c = float(spec["value"])
        return lambda t: c
    if form == "power":
        c = float(spec.get("coeff", 1.0))
        p = float(spec.get("exponent", 1.0))
        return lambda t: c * math.pow(t, p)
    if form == "exp":
        c = float(spec.get("coeff", 1.0))
        r = float(spec.get("rate", 1.0))
        return lambda t: c * math.exp(r * t)
    raise InvalidInputError(f"unknown scale form {form!r}")


def time_change_from_spec(spec):
    form = _form(spec, "time-change")
    if form == "affine":
        a = float(spec.get("slope", 1.0))
        b = float(spec.get("intercept", 0.0))
        if a <= 0.0:
            raise InvalidInputError("affine time change must have positive slope")
        return lambda t: a * t + b
    if form == "log":
        a = float(spec.get("coeff", 1.0))
        b = float(spec.get("intercept", 0.0))
        if a <= 0.0:
            raise InvalidInputError("log time change must have positive coefficient")
        return lambda t: a * math.log(t) + b
    if form == "exp":
        c = float(spec.get("coeff", 1.0))
        r = float(spec.get("rate", 1.0))
        if c * r <= 0.0:
            raise InvalidInputError("exp time change must be increasing")
        return lambda t: c * math.exp(r * t)
    raise InvalidInputError(f"unknown time-change form {form!r}")


def decay_rates(mu, grid) -> np.ndarray:
    """``(1 - mu_hat(t)) / t`` at each time of ``grid``, one ``np.dot`` per time."""
    masses, locs = mu.effective()
    return np.array([float(np.dot(masses, 1.0 - np.cos(t * locs)) / t) for t in map(float, grid)])
