"""Markov transforms and mimicking processes of Gaussian processes."""

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
from .gaussian import (
    GaussianVector,
    TransportPlan,
    compose,
    concatenate,
    condition,
    gaussian_distance,
    markov_check,
)
from .kernels import (
    Kernel,
    RateFunction,
    constant,
    correlation,
    decay_rate,
    estimate_alpha,
    exponential_rate,
    fbm,
    fbm_log,
    gram,
    noise_integral,
    psd_check,
    rate_kernel,
    transform_kernel,
    uniform_convergence_diagnostic,
    white_noise,
)
from .simulate import (
    SdeSpec,
    TrajectoryBatch,
    cholesky_sample,
    empirical_covariance,
    euler_maruyama,
    figure_comparison,
    mimicking_sde,
    ou_exact,
)
from .spectral import (
    SpectralMeasure,
    WeierstrassConfig,
    cluster_witnesses,
    counterexample_measure,
    fourier_decay_rate,
    kernel_from_spectral,
    weierstrass_indices,
)
from .transform import (
    AdmissibleSequence,
    Partition,
    global_convergence_experiment,
    joint_law,
    local_convergence_experiment,
    made_markov_law,
    mimic_kernel,
    pair_law,
    partition_law,
    tightness_bound_check,
)

__version__ = "0.1.0"
