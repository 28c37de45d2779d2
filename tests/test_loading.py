"""What loads when: the package namespace and each CLI command import only what they use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gaussmarkov
from gaussmarkov import errors, gaussian, kernels, simulate, spectral, transform

#: Every name the package exports, by the submodule that defines it.
EXPORTS = {
    errors: (
        "BudgetExceededError", "ChainMismatchError", "GaussMarkovError", "InvalidInputError",
        "InvalidMeasureError", "InvalidRateError", "InvalidSdeError", "NotPsdError",
        "SingularMarginalError", "UnsupportedDiagnosticError",
    ),
    gaussian: (
        "GaussianVector", "TransportPlan", "compose", "concatenate", "condition",
        "gaussian_distance", "markov_check",
    ),
    kernels: (
        "Kernel", "RateFunction", "constant", "correlation", "decay_rate", "estimate_alpha",
        "exponential_rate", "fbm", "fbm_log", "gram", "noise_integral", "psd_check",
        "rate_kernel", "transform_kernel", "uniform_convergence_diagnostic", "white_noise",
    ),
    simulate: (
        "SdeSpec", "TrajectoryBatch", "cholesky_sample", "empirical_covariance",
        "euler_maruyama", "figure_comparison", "mimicking_sde", "ou_exact",
    ),
    spectral: (
        "SpectralMeasure", "WeierstrassConfig", "cluster_witnesses", "counterexample_measure",
        "fourier_decay_rate", "kernel_from_spectral", "weierstrass_indices",
    ),
    transform: (
        "AdmissibleSequence", "Partition", "global_convergence_experiment", "joint_law",
        "local_convergence_experiment", "made_markov_law", "mimic_kernel", "pair_law",
        "partition_law", "tightness_bound_check",
    ),
}


def _loaded_after(code: str) -> set[str]:
    """Submodules of the package that a fresh interpreter holds after running ``code``."""
    code += (
        "\nimport sys"
        "\nprint(__import__('json').dumps("
        "[m.split('.')[1] for m in sys.modules if m.startswith('gaussmarkov.')]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gaussmarkov.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_every_export_is_the_submodules_object():
    star = {}
    exec("from gaussmarkov import *", star)
    for module, names in EXPORTS.items():
        for name in names:
            imported = {}
            exec(f"from gaussmarkov import {name}", imported)
            obj = getattr(module, name)
            assert getattr(gaussmarkov, name) is obj
            assert imported[name] is obj
            assert star[name] is obj
    assert sorted(gaussmarkov.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert set(gaussmarkov.__all__) <= set(dir(gaussmarkov))


def test_an_export_is_the_submodules_current_attribute(monkeypatch):
    monkeypatch.setattr(kernels, "fbm", lambda hurst: hurst)
    assert gaussmarkov.fbm(0.25) == 0.25


def test_import_loads_no_numerical_submodule():
    assert _loaded_after("import gaussmarkov") == {"errors"}
    assert "kernels" in _loaded_after("import gaussmarkov\ngaussmarkov.kernels.fbm(0.5)")


def test_commands_load_only_their_modules(tmp_path):
    run = "from gaussmarkov import cli\nassert cli.main({argv!r}) == 0"
    psd = ["psd-check", "--kernel", '{"type": "fbm", "hurst": 0.5}', "--grid", "1:3:3",
           "--out", str(tmp_path)]
    assert _loaded_after(run.format(argv=psd)) == {"cli", "errors", "gaussian", "kernels",
                                                   "serialize"}
    counterexample = ["counterexample", "--i-max", "1", "--out", str(tmp_path)]
    assert not {"simulate", "transform"} & _loaded_after(run.format(argv=counterexample))


def test_spectral_kernel_spec_loads_spectral_on_demand():
    code = (
        "import sys\n"
        "from gaussmarkov import serialize\n"
        "assert 'gaussmarkov.spectral' not in sys.modules\n"
        "serialize.kernel_from_spec({'type': 'spectral', 'atoms': [{'weight': 1, 'location': 0}]})"
    )
    assert "spectral" in _loaded_after(code)
