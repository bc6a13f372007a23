import argparse
import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import rkspectral
from rkspectral import cli

# The package's public surface.  A name added here is a deliberate
# extension of the API; one that only tests need belongs in tests/oracles.py.
PUBLIC_NAMES = [
    "ButcherTableau",
    "ConservationReport",
    "ConvergenceFailureError",
    "ConvergenceReport",
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
    "conservation_run",
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
    "smoothness_probe",
    "sobolev_norm",
    "stability_function",
    "stability_growth",
    "step",
    "tangent_convergence_study",
    "tangent_step",
    "wave_band_state",
]

# The package's settable values: the defaulted parameters of the public
# functions, the defaulted fields and method parameters of the public
# dataclasses, every ``SolverConfig`` field, and the CLI flags.  A name
# added here is a new knob.
SETTABLE_VALUES = [
    "--debug-checks",
    "--list-problems",
    "--out",
    "ButcherTableau.label",
    "ProblemSpec.dealias",
    "ProblemSpec.name",
    "SolverConfig.debug_checks",
    "SolverConfig.fp_tol",
    "SolverConfig.h",
    "rough_decay_state(exponent)",
    "wave_band_state(u_amps)",
    "wave_band_state(v_amps)",
]

# The public attributes (fields, methods and properties) of the public
# classes other than the exceptions.  A name added here is new API.
PUBLIC_ATTRIBUTES = {
    "ButcherTableau": ["a", "b", "c", "from_json", "label", "p", "s", "to_json"],
    "ConservationReport": ["early_steps", "max_iterations", "rows", "stage_iterations",
                           "summary_dict", "write_csv"],
    "ConvergenceReport": ["T", "errors", "fitted_order", "flagged", "fp_tol", "h_list",
                          "problem", "reference", "stage_iterations", "stats", "summary_dict",
                          "tableau", "write_csv"],
    "Nonlinearity": ["name", "potential", "tangent", "value"],
    "ProblemSpec": ["dealias", "grid", "name", "nonlinearity"],
    "SolverConfig": ["debug_checks", "fp_tol", "h"],
    "SpectralGrid": ["bc", "components", "equation", "modes", "n", "transform_array",
                     "weights"],
    "StabilityReport": ["a_eigenvalues", "a_invertible", "a_stable", "rk1_ok", "rk1_worst",
                        "rk2_ok"],
    "State": ["coeffs", "grid"],
    "StepStats": ["contraction_estimate", "final_residual", "iterations"],
}


def defaulted(name, fn):
    return [
        f"{name}({p.name})" for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty
    ]


def cli_flags(monkeypatch):
    """The option strings the CLI declares, recorded while it builds its parser."""
    flags = []
    add_argument = argparse.ArgumentParser.add_argument

    def recording(self, *names, **kwargs):
        flags.extend(n for n in names if n.startswith("--") and n != "--help")
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
    assert cli.main(["run", "--list-problems"]) == 0
    return flags


def test_settable_values_are_pinned(monkeypatch, capsys):
    values = cli_flags(monkeypatch)
    for name in PUBLIC_NAMES:
        obj = getattr(rkspectral, name)
        if inspect.isfunction(obj):
            values += defaulted(name, obj)
        elif dataclasses.is_dataclass(obj):
            values += [
                f"{name}.{f.name}" for f in dataclasses.fields(obj)
                if name == "SolverConfig" or f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING
            ]
            for method, fn in vars(obj).items():
                fn = getattr(fn, "__func__", fn)  # a static or class method's function
                if not method.startswith("_") and inspect.isfunction(fn):
                    values += defaulted(f"{name}.{method}", fn)
    assert sorted(values) == SETTABLE_VALUES
    assert len(SETTABLE_VALUES) == 12


def test_public_surface_is_pinned():
    # submodules become attributes when imported, so they are left out
    names = sorted(
        name for name, value in vars(rkspectral).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 41


def test_public_class_attributes_are_pinned():
    attributes = {}
    for name in PUBLIC_NAMES:
        cls = getattr(rkspectral, name)
        if inspect.isclass(cls) and not issubclass(cls, Exception):
            fields = {f.name for f in dataclasses.fields(cls)}
            attributes[name] = sorted(fields | {a for a in vars(cls) if not a.startswith("_")})
    assert attributes == PUBLIC_ATTRIBUTES


# The private library names the CLI may use: the input rules it checks
# before any run, and the CSV writer its runners share with the reports.
CLI_PRIVATE_NAMES = ["_check_divides", "_check_growth_step", "_check_ladder", "_check_stencil",
                     "_check_steps", "_write_csv"]


def test_cli_private_library_names_are_pinned():
    # a run's work goes through public harness and stepper functions
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    layers = ("harness", "stepper")
    private = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in layers:
            private.update(alias.name for alias in node.names if alias.name.startswith("_"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in layers and node.attr.startswith("_")):
            private.add(node.attr)
    assert sorted(private) == CLI_PRIVATE_NAMES


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
