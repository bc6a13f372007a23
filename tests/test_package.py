import inspect
import os
import subprocess
import sys
from pathlib import Path

import rkspectral

# The package's public surface.  A name added here is a deliberate
# extension of the API; one that only tests need belongs in tests/oracles.py.
PUBLIC_NAMES = [
    "ButcherTableau",
    "ConvergenceFailureError",
    "ConvergenceReport",
    "DomainEscapeError",
    "Nonlinearity",
    "NumericalBlowupError",
    "ProblemSpec",
    "SingularResolventError",
    "SolverConfig",
    "SpectralGrid",
    "StabilityReport",
    "State",
    "StepStats",
    "UnreliableReferenceError",
    "apply_A",
    "apply_exp_tA",
    "base_norm",
    "check_a_stability",
    "conserved_quantities",
    "convergence_study",
    "dirichlet_compatibility_study",
    "dyadic_h_list",
    "gauss_legendre",
    "get_problem",
    "integrate",
    "list_problems",
    "make_nonlinearity",
    "nls_two_mode_state",
    "quadrature_order",
    "random_band_state",
    "resolve_tableau",
    "rough_decay_state",
    "schrodinger_grid",
    "smoothness_probe",
    "sobolev_norm",
    "stability_function",
    "stability_growth",
    "step",
    "tangent_convergence_study",
    "tangent_step",
    "wave_band_state",
    "wave_grid",
]


def test_public_surface_is_pinned():
    # submodules become attributes when imported, so they are left out
    names = sorted(
        name for name, value in vars(rkspectral).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC_NAMES


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    code = (
        "import rkspectral.cli, sys; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    )
    src = Path(rkspectral.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
