"""Batch experiment front end.

Usage:  rkspectral run <config.json> [--out DIR]
        rkspectral run --list-problems

The config selects one experiment and its parameters, resolved once into
the inputs its runner takes; every run writes a CSV of the measured
quantities plus a JSON summary echoing the fully resolved configuration,
so an artifact directory alone reproduces the run.  The process exits 0
when the experiment's verdict passes and nonzero on solver failure, bad
configuration, or a missed target.

A config's keys are ``experiment`` and that experiment's defaults; the
output directory is ``--out`` alone (default ``.``), and an order study's
ladder is the dyadic one from ``h_max`` and ``levels`` (a ladder of other
steps is a library call).  The CLI checks the config's JSON shape and the
values no library function reads (``seed``, ``initial_data`` and
``grid``); every other value reaches the library as JSON gave it, and the
library function that takes it checks it before any step.  Every number,
the CLI's ``seed`` included, goes through the library's number rules, so
no bool reads as a number and no fraction as a count.  A rejected value
exits 2 with one line naming the config key that set it.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import harness
from .errors import (ConvergenceFailureError, InputError, NumericalBlowupError,
                     UnreliableReferenceError, _count)
from .problems import get_problem, list_problems
from .spectral import SpectralGrid, State, base_norm
from .stepper import SolverConfig, step, tangent_step
from .tableau import resolve_tableau

_ORDER_WINDOW = 0.3

# The tangent check's central-difference step: at h_max, seeds 0-12, 1e-5 reads
# 3.6e-12 .. 3.1e-11 (rule 1e-5), 1e-4 up to 9.6e-11 and 1e-6 up to 2.6e-10.
_FD_EPS = 1e-5


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _resolve(experiment, cfg) -> dict:
    """The one place where config values become objects: the runner's inputs
    ``t``, ``h_list`` (the dyadic ladder from ``h_max`` and ``levels``),
    ``solver`` (``conservation``'s), ``grid``, ``problem``, ``u0`` and
    ``v0``, the tangent check's direction.  The run's one generator,
    ``default_rng(seed)``, draws ``random`` data first and ``v0`` next.
    Only the values no library function reads are checked here (``seed``,
    through the library's count rule, ``initial_data`` and ``grid``); the
    library checks every other value, the grid size ``n`` and the elements
    of ``h_values`` included, when the run calls it.  Raise ValueError (or
    KeyError, for an unknown name) naming the config key at fault, or the
    library's InputError."""
    if "seed" in cfg and _count("seed", cfg["seed"]) < 0:
        raise ValueError(f"config key 'seed' must be at least 0, got {cfg['seed']!r}")
    if cfg.get("initial_data", "standard") not in ("standard", "random", "rough"):
        raise ValueError(f"config key 'initial_data' must be standard, random or rough, "
                         f"got {cfg['initial_data']!r}")
    try:
        t = resolve_tableau(cfg["tableau"])
    except (ValueError, OSError) as exc:
        raise ValueError(f"config key 'tableau': {exc}") from exc
    inputs = {"t": t}
    if "h_max" in cfg:  # an order study fits to the dyadic ladder from h_max
        # its steps divide T when h_max does, unless they overflow it
        inputs["h_list"] = harness.dyadic_h_list(cfg["h_max"], cfg["levels"])
        harness._check_divides(cfg["T"], inputs["h_list"][:1], "h_max")
    if experiment == "conservation":
        inputs["solver"] = SolverConfig(cfg["h"], cfg["fp_tol"])
    if experiment == "stability":
        if cfg["grid"] not in ("schrodinger", "wave"):
            raise ValueError(f"config key 'grid' must be one of ['schrodinger', 'wave'], "
                             f"got {cfg['grid']!r}")
        inputs["grid"] = SpectralGrid(cfg["grid"], "periodic", cfg["n"])
    elif "problem" in cfg:
        problem = inputs["problem"] = get_problem(cfg["problem"], cfg["n"])
        rng = np.random.default_rng(cfg["seed"])
        inputs["u0"] = _initial_state(problem, cfg["initial_data"], rng)
        if experiment == "tangent-check":
            inputs["v0"] = harness.random_band_state(problem.grid, rng)
    return inputs


def _initial_state(problem, kind, rng) -> State:
    if kind == "random":
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
    report = harness.convergence_study(problem, t, u0, cfg["T"], h_list, fp_tol=cfg["fp_tol"])
    report.write_csv(out_dir / "convergence.csv")
    ok, verdict = _report_order_verdict(report, t.p)
    return report.summary_dict(), ok, verdict


def _run_conservation(cfg, out_dir, t, solver, problem, u0):
    report = harness.conservation_run(problem, t, u0, solver, cfg["steps"])
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
    growths = harness.stability_growth(t, grid, cfg["h_values"], cfg["n_steps"])
    rows = []
    worst, argmax = 0.0, None
    for h, (amp, mode) in zip(map(float, cfg["h_values"]), growths):
        deviation = abs(amp - 1.0)
        if argmax is None or deviation > worst:
            argmax = {"h": h, "mode": mode}
        worst = max(worst, deviation)
        rows.append([h, amp])
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
        problem, t, u0, cfg["h"], cfg["q"], levels=cfg["levels"], fp_tol=cfg["fp_tol"]
    )
    harness._write_csv(
        out_dir / "smoothness.csv",
        ["h_base", "normalized_difference"],
        results,
    )
    growth = results[-1][1] / results[0][1] if results[0][1] > 0 else math.inf
    verdict = (
        f"q={cfg['q']} difference norms {'bounded' if growth < 2 else 'growing'} "
        f"(last/first = {growth:.3g})"
    )
    return {"values": [v for _, v in results], "growth_ratio": growth}, True, verdict


def _run_dirichlet_compat(cfg, out_dir, t, h_list):
    rep_c, rep_i = harness.dirichlet_compatibility_study(
        h_list, T=cfg["T"], n=cfg["n"], t=t, fp_tol=cfg["fp_tol"]
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


def _run_tangent_check(cfg, out_dir, t, h_list, problem, u0, v0):
    report = harness.tangent_convergence_study(
        problem, t, u0, v0, cfg["T"], h_list, fp_tol=cfg["fp_tol"]
    )
    solver = SolverConfig(h_list[0], cfg["fp_tol"])
    _, v1, _ = tangent_step(problem, t, u0, v0, solver)
    plus, _ = step(problem, t, u0 + _FD_EPS * v0, solver)
    minus, _ = step(problem, t, u0 + (-_FD_EPS) * v0, solver)
    fd = (1.0 / (2 * _FD_EPS)) * (plus - minus)
    rel_err = base_norm(fd - v1) / max(base_norm(v1), 1e-300)
    report.write_csv(out_dir / "tangent_convergence.csv")
    ok_fd = rel_err <= 1e-5
    ok_order, order_verdict = _report_order_verdict(report, t.p)
    ok = ok_fd and ok_order
    verdict = (
        f"tangent vs central differences rel err {rel_err:.2e} "
        f"({'PASS' if ok_fd else 'FAIL'}); extended-system {order_verdict}"
    )
    return {"fd_rel_err": rel_err, "study": report.summary_dict()}, ok, verdict


# Per experiment: its defaults, which are its config keys beside
# ``experiment``, and its runner ``run(cfg, out_dir, **inputs) -> (result,
# ok, verdict)``, which takes the inputs ``_resolve`` built and writes the
# experiment's CSVs.
_EXPERIMENT_TABLE = {
    "convergence": (
        {"problem": "nls-cubic-periodic", "tableau": "gl:1", "n": 64, "T": 0.5,
         "h_max": 0.02, "levels": 5, "fp_tol": 1e-13, "seed": 0,
         "initial_data": "standard"},
        _run_convergence,
    ),
    "conservation": (
        {"problem": "nls-cubic-periodic", "tableau": "gl:1", "n": 64, "h": 5e-3,
         "steps": 2000, "fp_tol": 1e-13, "seed": 0, "initial_data": "standard"},
        _run_conservation,
    ),
    "stability": (
        {"tableau": "gl:1", "grid": "schrodinger", "n": 256,
         "h_values": [1e-3, 1e-2, 1e-1, 1.0], "n_steps": 10, "seed": 0},
        _run_stability,
    ),
    "smoothness": (
        {"problem": "nls-linear-periodic", "tableau": "gl:2", "n": 64, "h": 0.05,
         "q": 2, "levels": 4, "fp_tol": 1e-13, "seed": 0, "initial_data": "standard"},
        _run_smoothness,
    ),
    "dirichlet-compat": (
        {"tableau": "gl:1", "n": 256, "T": 0.4, "h_max": 0.08, "levels": 5,
         "fp_tol": 1e-13},
        _run_dirichlet_compat,
    ),
    "tangent-check": (
        {"problem": "nls-cubic-periodic", "tableau": "gl:1", "n": 32, "T": 0.5,
         "h_max": 0.02, "levels": 5, "fp_tol": 1e-13, "seed": 0,
         "initial_data": "standard"},
        _run_tangent_check,
    ),
}


def run_config(config_path, out_dir=None) -> int:
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
    defaults, runner = _EXPERIMENT_TABLE[experiment]

    valid = sorted({"experiment", *defaults})
    for key, value in raw.items():
        if key == "experiment":
            continue
        if key not in defaults:
            close = difflib.get_close_matches(key, valid, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else f"; valid keys: {valid}"
            return _fail(f"unknown config key {key!r} for the {experiment} experiment{hint}")
        # A value must have its default's JSON type, an int standing in for a float.
        want = type(defaults[key])
        if type(value) not in ((float, int) if want is float else (want,)):
            return _fail(f"config key {key!r} must be {want.__name__}, "
                         f"got {type(value).__name__} {value!r}")

    cfg = {**defaults, **raw}
    target = Path(out_dir or ".")
    created = [d for d in (target, *target.parents) if not d.exists()]
    try:
        inputs = _resolve(experiment, cfg)
        target.mkdir(parents=True, exist_ok=True)
        result, ok, verdict = runner(cfg, target, **inputs)
        harness.write_summary_json(
            target / f"{experiment.replace('-', '_')}_summary.json",
            {"config": cfg, "result": result, "pass": ok},
        )
    except KeyError as exc:
        message = f"{exc.args[0]}"
    except InputError as exc:  # a library parameter, named by the config key that set it
        # h_max's own rule ran in _resolve, so a fault of dyadic_h_list(h_max, levels) is levels'
        key = "levels" if exc.name == "h_list" else exc.name
        message = f"config key {key!r}: {exc}"
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
        "--list-problems", action="store_true", help="print the problem catalogue and exit"
    )
    args = parser.parse_args(argv)
    if args.list_problems:
        print("\n".join(list_problems()))
        return 0
    if args.config is None:
        run_parser.error("the following arguments are required: config")
    return run_config(args.config, args.out)
