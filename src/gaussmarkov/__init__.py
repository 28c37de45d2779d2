"""Markov transforms and mimicking processes of Gaussian processes.

Only the exception types load with the package.  Every other public name
loads its submodule on first use (PEP 562): ``gaussmarkov.fbm`` imports
``gaussmarkov.kernels``, ``gaussmarkov.spectral`` imports that module, and
``from gaussmarkov import *`` imports all of them.  A name is looked up in
its submodule on every access and never cached here, so ``gaussmarkov.X``
is always the submodule's current ``X``.
"""

import importlib

from .errors import (
    BudgetExceededError,
    ChainMismatchError,
    GaussMarkovError,
    InvalidInputError,
    InvalidMeasureError,
    InvalidRateError,
    InvalidSdeError,
    NotPsdError,
    SingularMarginalError,
    UnsupportedDiagnosticError,
)

_SUBMODULES = ("cli", "gaussian", "kernels", "serialize", "simulate", "spectral", "transform")

#: Per submodule, the public names the package re-exports from it.
_EXPORTS = {
    "gaussian": (
        "GaussianVector", "TransportPlan", "compose", "concatenate", "condition",
        "gaussian_distance", "markov_check",
    ),
    "kernels": (
        "Kernel", "RateFunction", "constant", "correlation", "decay_rate", "estimate_alpha",
        "exponential_rate", "fbm", "fbm_log", "gram", "noise_integral", "psd_check",
        "rate_kernel", "transform_kernel", "uniform_convergence_diagnostic", "white_noise",
    ),
    "simulate": (
        "SdeSpec", "TrajectoryBatch", "cholesky_sample", "empirical_covariance",
        "euler_maruyama", "figure_comparison", "mimicking_sde", "ou_exact",
    ),
    "spectral": (
        "SpectralMeasure", "WeierstrassConfig", "cluster_witnesses", "counterexample_measure",
        "fourier_decay_rate", "kernel_from_spectral", "weierstrass_indices",
    ),
    "transform": (
        "AdmissibleSequence", "Partition", "global_convergence_experiment", "joint_law",
        "local_convergence_experiment", "made_markov_law", "mimic_kernel", "pair_law",
        "partition_law", "tightness_bound_check",
    ),
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "BudgetExceededError", "ChainMismatchError", "GaussMarkovError", "InvalidInputError",
    "InvalidMeasureError", "InvalidRateError", "InvalidSdeError", "NotPsdError",
    "SingularMarginalError", "UnsupportedDiagnosticError", *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_SUBMODULES})
