"""Batch experiment front end.

Usage:  rkspectral run <config.json> [--out DIR] [--debug-checks]
        rkspectral run --list-problems

The config selects one experiment and its parameters, resolved once into
the inputs its runner takes; every run writes a CSV of the measured
quantities plus a JSON summary echoing the fully resolved configuration,
so an artifact directory alone reproduces the run.  The process exits 0
when the experiment's verdict passes and nonzero on solver failure, bad
configuration, or a missed target.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import harness
from .errors import (ConvergenceFailureError, InputError, NumericalBlowupError,
                     UnreliableReferenceError)
from .problems import get_problem, list_problems, make_nonlinearity
from .spectral import SpectralGrid, State, base_norm
from .stepper import SolverConfig, _check_steps, step, tangent_step
from .tableau import resolve_tableau

# The experiments that read --debug-checks; elsewhere the flag is an error.
_DEBUG_CHECKED = ("conservation",)

_ORDER_WINDOW = 0.3

# Config keys every experiment reads beside its defaults and extra keys.
_COMMON_KEYS = ("experiment", "out", "debug_checks")

# The JSON types of the config keys that have no default.
_KEY_TYPES = {"experiment": str, "out": str, "debug_checks": bool, "h_list": list,
              "nonlinearity": str, "dealias": bool}

# Numeric config keys that must be finite and positive.
_POSITIVE_KEYS = ("T", "fp_tol", "eps")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _resolve(experiment, cfg) -> dict:
    """The one place where config values become objects: the runner's inputs
    ``t``, ``h_list``, ``solver``, ``grid``, ``problem`` and ``u0``.  Raise
    ValueError (or KeyError, for an unknown name) naming the first config
    key whose value is out of range, or the library's InputError."""
    for key in _POSITIVE_KEYS:
        if key in cfg and not 0 < cfg[key] <= sys.float_info.max:  # a huge int is not finite
            raise InputError(key, f"{key} must be finite and positive, got {cfg[key]!r}")
    if cfg.get("eps", 1.0) < sys.float_info.min:  # the tangent check divides by 2 eps
        raise InputError("eps", f"eps must be a positive normal float, got {cfg['eps']!r}")
    for key in {"steps", "n_steps"} & cfg.keys():
        _check_steps(key, cfg[key])
    if cfg.get("seed", 0) < 0:
        raise ValueError(f"config key 'seed' must be at least 0, got {cfg['seed']!r}")
    for h in cfg.get("h_values", ()):
        if not _is_number(h):
            raise ValueError(f"config key 'h_values' must hold numbers, got {h!r}")
        harness._check_growth_step(h)
    if cfg.get("initial_data", "standard") not in ("standard", "random", "rough"):
        raise ValueError(f"config key 'initial_data' must be standard, random or rough, "
                         f"got {cfg['initial_data']!r}")
    try:
        t = resolve_tableau(cfg["tableau"])
    except (ValueError, OSError) as exc:
        raise ValueError(f"config key 'tableau': {exc}") from exc
    inputs = {"t": t}
    if "h_max" in cfg:  # an order study, which fits to a ladder of step sizes
        if "h_list" in cfg:
            if not all(_is_number(h) for h in cfg["h_list"]):
                raise ValueError(f"config key 'h_list' must hold numbers, got {cfg['h_list']!r}")
            hs = cfg["h_list"]
        else:  # a derived ladder's steps divide T when h_max does, unless they overflow it
            hs = harness.dyadic_h_list(cfg["h_max"], int(cfg["levels"]))
            harness._check_divides(cfg["T"], hs[0], "h_max")
        inputs["h_list"] = harness._check_ladder(cfg["T"], hs, cfg["fp_tol"], t.p)
    if experiment in ("conservation", "tangent-check"):
        inputs["solver"] = SolverConfig(cfg["h"], cfg["fp_tol"], cfg["debug_checks"])
    if experiment == "smoothness":
        harness._check_stencil(cfg["h"], cfg["q"], cfg["levels"])
    if experiment == "stability" and cfg["grid"] not in ("schrodinger", "wave"):
        raise ValueError(f"config key 'grid' must be one of ['schrodinger', 'wave'], "
                         f"got {cfg['grid']!r}")
    try:
        if experiment == "stability":
            inputs["grid"] = SpectralGrid(cfg["grid"], "periodic", cfg["n"])
        else:
            problem = get_problem(cfg.get("problem", "wave-dirichlet-compatible"), cfg["n"])
            if "problem" in cfg:  # the data's modes must be on the grid
                inputs["u0"] = _initial_state(problem, cfg)
    except ValueError as exc:
        raise ValueError(f"config key 'n': {exc}") from exc
    if "problem" in cfg:
        if "nonlinearity" in cfg:
            try:
                nonlinearity = make_nonlinearity(problem.grid.equation, cfg["nonlinearity"])
            except ValueError as exc:
                raise ValueError(f"config key 'nonlinearity': {exc}") from exc
            problem = dataclasses.replace(problem, nonlinearity=nonlinearity,
                                          name=f"{cfg['problem']}[{cfg['nonlinearity']}]")
        if "dealias" in cfg:
            problem = dataclasses.replace(problem, dealias=cfg["dealias"])
        inputs["problem"] = problem
    return inputs


def _initial_state(problem, cfg) -> State:
    kind = cfg["initial_data"]
    if kind == "random":
        rng = np.random.default_rng(int(cfg["seed"]))
        return harness.random_band_state(problem.grid, rng)
    if kind == "rough":
        return harness.rough_decay_state(problem.grid)
    if problem.grid.equation == "schrodinger":
        return harness.nls_two_mode_state(problem.grid)
    return harness.wave_band_state(problem.grid)


def _report_order_verdict(report, declared_p):
    ok = abs(report.fitted_order - declared_p) <= _ORDER_WINDOW
    return ok, (
        f"fitted_order={report.fitted_order:.3f} target p={declared_p} "
        f"{'PASS' if ok else 'FAIL'}"
    )


def _run_convergence(cfg, out_dir, t, h_list, problem, u0):
    report = harness.convergence_study(
        problem, t, u0, float(cfg["T"]), h_list, fp_tol=float(cfg["fp_tol"])
    )
    report.write_csv(out_dir / "convergence.csv")
    ok, verdict = _report_order_verdict(report, t.p)
    return report.summary_dict(), ok, verdict


def _run_conservation(cfg, out_dir, t, solver, problem, u0):
    report = harness.conservation_run(problem, t, u0, solver, int(cfg["steps"]))
    report.write_csv(out_dir / "conservation.csv")
    result = report.summary_dict()
    if problem.grid.equation == "schrodinger":
        # Only NLS conserves "mass"; the wave system's is the displacement's
        # squared L2 norm, which the wave equation does not conserve.
        mass_drift = max(row[4] for row in report.rows)
        ok = mass_drift <= 1e-9
        verdict = f"relative mass drift {mass_drift:.2e} {'PASS' if ok else 'FAIL'}"
        result["mass_drift_rel"] = mass_drift
        window = len(report.rows)  # the mass verdict reads every step
    else:
        early, final = result["energy_dev_early_max"], result["energy_dev_final"]
        ok = final <= 2 * early if early > 0 else final == 0
        verdict = (
            f"energy deviation final={final:.2e} early_max={early:.2e} "
            f"{'PASS (no drift)' if ok else 'FAIL'}"
        )
        window = report.early_steps  # the final deviation is held against these steps
    result["verdict_window"] = {"steps": window, "time": window * solver.h}
    return result, ok, verdict


def _run_stability(cfg, out_dir, t, grid):
    h_values = [float(h) for h in cfg["h_values"]]
    growths = harness.stability_growth(t, grid, h_values, int(cfg["n_steps"]))
    rows = []
    worst, argmax = 0.0, None
    for h, (amp, mode) in zip(h_values, growths):
        deviation = abs(amp - 1.0)
        if argmax is None or deviation > worst:
            argmax = {"h": h, "mode": mode}
        worst = max(worst, deviation)
        rows.append([repr(h), repr(amp)])
    harness._write_csv(out_dir / "stability.csv", ["h", "amplification"], rows)
    if cfg["grid"] == "schrodinger":
        ok = worst <= 1e-13
        verdict = f"max |amplification - 1| = {worst:.2e} {'PASS' if ok else 'FAIL'}"
    else:
        ok = True
        verdict = f"max amplification deviation {worst:.2e} (wave secular growth expected)"
    return {"max_deviation": worst, "argmax": argmax}, ok, verdict


def _run_smoothness(cfg, out_dir, t, problem, u0):
    results = harness.smoothness_probe(
        problem, t, u0, float(cfg["h"]), int(cfg["q"]), levels=int(cfg["levels"]),
        fp_tol=float(cfg["fp_tol"]),
    )
    harness._write_csv(
        out_dir / "smoothness.csv",
        ["h_base", "normalized_difference"],
        [[repr(h), repr(v)] for h, v in results],
    )
    growth = results[-1][1] / results[0][1] if results[0][1] > 0 else math.inf
    verdict = (
        f"q={cfg['q']} difference norms {'bounded' if growth < 2 else 'growing'} "
        f"(last/first = {growth:.3g})"
    )
    return {"values": [v for _, v in results], "growth_ratio": growth}, True, verdict


def _run_dirichlet_compat(cfg, out_dir, t, h_list):
    rep_c, rep_i = harness.dirichlet_compatibility_study(
        h_list, T=float(cfg["T"]), n=int(cfg["n"]), t=t, fp_tol=float(cfg["fp_tol"])
    )
    rep_c.write_csv(out_dir / "dirichlet_compatible.csv")
    rep_i.write_csv(out_dir / "dirichlet_incompatible.csv")
    ok = _report_order_verdict(rep_c, t.p)[0] and rep_i.fitted_order <= t.p - 0.5
    verdict = (
        f"compatible order {rep_c.fitted_order:.3f}, incompatible order "
        f"{rep_i.fitted_order:.3f} {'PASS' if ok else 'FAIL'}"
    )
    result = {"compatible": rep_c.summary_dict(), "incompatible": rep_i.summary_dict()}
    return result, ok, verdict


def _run_tangent_check(cfg, out_dir, t, h_list, solver, problem, u0):
    rng = np.random.default_rng(int(cfg["seed"]))
    v0 = harness.random_band_state(problem.grid, rng)
    eps = float(cfg["eps"])
    _, v1, _ = tangent_step(problem, t, u0, v0, solver)
    plus, _ = step(problem, t, u0 + eps * v0, solver)
    minus, _ = step(problem, t, u0 + (-eps) * v0, solver)
    fd = (1.0 / (2 * eps)) * (plus - minus)
    rel_err = base_norm(fd - v1) / max(base_norm(v1), 1e-300)

    report = harness.tangent_convergence_study(
        problem, t, u0, v0, float(cfg["T"]), h_list, fp_tol=float(cfg["fp_tol"])
    )
    report.write_csv(out_dir / "tangent_convergence.csv")
    ok_fd = rel_err <= 1e-5
    ok_order, order_verdict = _report_order_verdict(report, t.p)
    ok = ok_fd and ok_order
    verdict = (
        f"tangent vs central differences rel err {rel_err:.2e} "
        f"({'PASS' if ok_fd else 'FAIL'}); extended-system {order_verdict}"
    )
    return {"fd_rel_err": rel_err, "study": report.summary_dict()}, ok, verdict


# Per experiment: its defaults, the config keys it reads beside them, and
# its runner ``run(cfg, out_dir, **inputs) -> (result, ok, verdict)``, which
# takes the inputs ``_resolve`` built and writes the experiment's CSVs.
_EXPERIMENT_TABLE = {
    "convergence": (
        {"problem": "nls-cubic-periodic", "tableau": "gl:1", "n": 64, "T": 0.5,
         "h_max": 0.02, "levels": 5, "fp_tol": 1e-13, "seed": 0,
         "initial_data": "standard"},
        ("h_list", "nonlinearity", "dealias"),
        _run_convergence,
    ),
    "conservation": (
        {"problem": "nls-cubic-periodic", "tableau": "gl:1", "n": 64, "h": 5e-3,
         "steps": 2000, "fp_tol": 1e-13, "seed": 0, "initial_data": "standard"},
        ("nonlinearity", "dealias"),
        _run_conservation,
    ),
    "stability": (
        {"tableau": "gl:1", "grid": "schrodinger", "n": 256,
         "h_values": [1e-3, 1e-2, 1e-1, 1.0], "n_steps": 10, "seed": 0},
        (),
        _run_stability,
    ),
    "smoothness": (
        {"problem": "nls-linear-periodic", "tableau": "gl:2", "n": 64, "h": 0.05,
         "q": 2, "levels": 4, "fp_tol": 1e-13, "seed": 0, "initial_data": "standard"},
        ("nonlinearity", "dealias"),
        _run_smoothness,
    ),
    "dirichlet-compat": (
        {"tableau": "gl:1", "n": 256, "T": 0.4, "h_max": 0.08, "levels": 5,
         "fp_tol": 1e-13},
        ("h_list",),
        _run_dirichlet_compat,
    ),
    "tangent-check": (
        {"problem": "nls-cubic-periodic", "tableau": "gl:1", "n": 32, "T": 0.5,
         "h": 0.01, "eps": 1e-5, "h_max": 0.02, "levels": 5, "fp_tol": 1e-13,
         "seed": 0, "initial_data": "standard"},
        ("h_list", "nonlinearity", "dealias"),
        _run_tangent_check,
    ),
}


def run_config(config_path, out_dir=None, debug_checks=False) -> int:
    path = Path(config_path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        return _fail(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        return _fail(f"config {path} is not valid JSON (line {exc.lineno}, col {exc.colno})")
    except ValueError as exc:  # bytes that are not UTF-8, or an integer int() will not convert
        return _fail(f"config {path} is not valid JSON ({exc})")
    if not isinstance(raw, dict):
        return _fail(f"config {path} must be a JSON object, got {type(raw).__name__}")

    experiment = raw.get("experiment")
    if not isinstance(experiment, str) or experiment not in _EXPERIMENT_TABLE:
        return _fail(
            f"unknown experiment {experiment!r}; choose one of {list(_EXPERIMENT_TABLE)}"
        )
    defaults, extra_keys, runner = _EXPERIMENT_TABLE[experiment]

    valid = sorted({*defaults, *_COMMON_KEYS, *extra_keys})
    for key, value in raw.items():
        if key not in valid:
            close = difflib.get_close_matches(key, valid, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else f"; valid keys: {valid}"
            return _fail(f"unknown config key {key!r} for the {experiment} experiment{hint}")
        # A value must have its default's JSON type (or the one _KEY_TYPES
        # gives a key without a default), an int standing in for a float.
        want = type(defaults[key]) if key in defaults else _KEY_TYPES[key]
        if type(value) not in ((float, int) if want is float else (want,)):
            return _fail(f"config key {key!r} must be {want.__name__}, "
                         f"got {type(value).__name__} {value!r}")

    cfg = {**defaults, **raw}
    cfg["debug_checks"] = bool(debug_checks or cfg.get("debug_checks", False))
    if cfg["debug_checks"] and experiment not in _DEBUG_CHECKED:
        return _fail(
            f"--debug-checks (config key debug_checks) does not apply to the {experiment} "
            f"experiment; only {', '.join(_DEBUG_CHECKED)} reads it"
        )
    try:
        inputs = _resolve(experiment, cfg)
    except KeyError as exc:
        return _fail(f"{exc.args[0]}")
    except InputError as exc:  # a library parameter, named by the config key that set it
        key = exc.name
        if key == "h_list" and "h_list" not in cfg:  # too short, or T/h overflows
            key = "levels"
        return _fail(f"config key {key!r}: {exc}")
    except ValueError as exc:
        return _fail(str(exc))
    target = Path(out_dir) if out_dir else Path(cfg.get("out", "."))
    created = [d for d in (target, *target.parents) if not d.exists()]
    target.mkdir(parents=True, exist_ok=True)

    try:
        result, ok, verdict = runner(cfg, target, **inputs)
        harness.write_summary_json(
            target / f"{experiment.replace('-', '_')}_summary.json",
            {"config": cfg, "result": result, "pass": ok},
        )
    except (ValueError, OSError) as exc:
        message = str(exc)
    except (ConvergenceFailureError, NumericalBlowupError, UnreliableReferenceError) as exc:
        message = f"solver failure: {exc}"
    else:
        print(f"{experiment}: {verdict}")
        return 0 if ok else 1
    # A failed run leaves behind no directory it made, unless it wrote into it.
    for directory in created:
        try:
            directory.rmdir()
        except OSError:
            break
    return _fail(message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rkspectral", description="Spectral implicit Runge-Kutta experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute an experiment config")
    run_parser.add_argument("config", nargs="?", help="path to a JSON experiment config")
    run_parser.add_argument("--out", default=None, help="output directory for artifacts")
    run_parser.add_argument(
        "--debug-checks", action="store_true",
        help="enable per-step cross-validation of the update forms",
    )
    run_parser.add_argument(
        "--list-problems", action="store_true", help="print the problem catalogue and exit"
    )
    args = parser.parse_args(argv)
    if args.list_problems:
        print("\n".join(list_problems()))
        return 0
    if args.config is None:
        run_parser.error("the following arguments are required: config")
    return run_config(args.config, args.out, args.debug_checks)


if __name__ == "__main__":
    sys.exit(main())
