"""Batch experiment front end.

Usage:  rkspectral run <config.json> [--out DIR] [--threads N] [--debug-checks]

The config selects one experiment and its parameters; every run writes
a CSV of the measured quantities plus a JSON summary echoing the fully
resolved configuration, so an artifact directory alone reproduces the
run.  The process exits 0 when the experiment's verdict passes and
nonzero on solver failure, bad configuration, or a missed target.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import harness
from .errors import ConvergenceFailureError, NumericalBlowupError, UnreliableReferenceError
from .problems import ProblemSpec, get_problem, list_problems, make_nonlinearity
from .spectral import State, base_norm, schrodinger_grid, wave_grid
from .stepper import SolverConfig, integrate, step, tangent_step
from .tableau import resolve_tableau

EXPERIMENTS = (
    "convergence",
    "conservation",
    "stability",
    "smoothness",
    "dirichlet-compat",
    "tangent-check",
)

_ORDER_WINDOW = 0.3


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _resolve_problem(cfg) -> ProblemSpec:
    """Catalogue lookup with optional nonlinearity/dealias overrides."""
    problem = get_problem(cfg["problem"], cfg["n"])
    if cfg.get("nonlinearity") is not None:
        problem = ProblemSpec(
            problem.kind,
            problem.grid,
            make_nonlinearity(problem.kind, cfg["nonlinearity"]),
            problem.dealias,
            problem.scale_bound,
            name=f"{cfg['problem']}[{cfg['nonlinearity']}]",
        )
    if cfg.get("dealias") is not None:
        problem = ProblemSpec(
            problem.kind, problem.grid, problem.nonlinearity, bool(cfg["dealias"]),
            problem.scale_bound, problem.name,
        )
    return problem


def _resolve_h_list(cfg) -> list[float]:
    if "h_list" in cfg:
        hs = [float(h) for h in cfg["h_list"]]
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ValueError("h_list must be strictly decreasing")
        return hs
    return harness.dyadic_h_list(float(cfg["h_max"]), int(cfg["levels"]))


def _initial_state(problem, cfg) -> State:
    kind = cfg["initial_data"]
    if kind == "random":
        rng = np.random.default_rng(int(cfg["seed"]))
        return harness.random_band_state(problem.grid, rng)
    if kind == "rough":
        return harness.rough_decay_state(problem.grid)
    if kind != "standard":
        raise ValueError(f"unknown initial_data {kind!r} (standard, random, rough)")
    if problem.kind == "nls":
        return harness.nls_two_mode_state(problem.grid)
    return harness.wave_band_state(problem.grid)


def _materialize(cfg_in: dict, defaults: dict) -> dict:
    cfg = dict(defaults)
    cfg.update(cfg_in)
    return cfg


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _report_order_verdict(report, declared_p):
    ok = abs(report.fitted_order - declared_p) <= _ORDER_WINDOW
    return ok, (
        f"fitted_order={report.fitted_order:.3f} target p={declared_p} "
        f"{'PASS' if ok else 'FAIL'}"
    )


def _run_convergence(cfg, out_dir, threads):
    problem = _resolve_problem(cfg)
    t = resolve_tableau(cfg["tableau"])
    h_list = _resolve_h_list(cfg)
    u0 = _initial_state(problem, cfg)
    report = harness.convergence_study(
        problem, t, u0, float(cfg["T"]), h_list, fp_tol=float(cfg["fp_tol"]), workers=threads
    )
    report.write_csv(out_dir / "convergence.csv")
    ok, verdict = _report_order_verdict(report, t.p)
    summary = {"config": cfg, "result": report.summary_dict(), "pass": ok}
    harness.write_summary_json(out_dir / "convergence_summary.json", summary)
    return ok, verdict


def _run_conservation(cfg, out_dir, threads):
    problem = _resolve_problem(cfg)
    t = resolve_tableau(cfg["tableau"])
    u0 = _initial_state(problem, cfg)
    h = float(cfg["h"])
    steps = int(cfg["steps"])
    solver = SolverConfig(h=h, fp_tol=float(cfg["fp_tol"]), debug_checks=cfg["debug_checks"])
    rows = []
    q0 = harness.conserved_quantities(problem, u0)

    def observer(index, state, stats):
        q = harness.conserved_quantities(problem, state)
        mass_drift = abs(q["mass"] - q0["mass"]) / max(abs(q0["mass"]), 1e-300)
        energy_dev = abs(q["energy"] - q0["energy"])
        rows.append(
            [index + 1, (index + 1) * h, repr(q["mass"]), repr(q["energy"]),
             repr(mass_drift), repr(energy_dev)]
        )

    integrate(problem, t, u0, solver, steps, observer)
    _write_csv(
        out_dir / "conservation.csv",
        ["step", "time", "mass", "energy", "mass_drift_rel", "energy_dev"],
        rows,
    )
    mass_drift = max(float(r[4]) for r in rows)
    early = max(float(r[5]) for r in rows[: max(1, steps // 10)])
    final = float(rows[-1][5])
    if problem.kind == "nls":
        ok = mass_drift <= 1e-9
        verdict = f"relative mass drift {mass_drift:.2e} {'PASS' if ok else 'FAIL'}"
    else:
        ok = final <= 2 * early if early > 0 else final == 0
        verdict = (
            f"energy deviation final={final:.2e} early_max={early:.2e} "
            f"{'PASS (no drift)' if ok else 'FAIL'}"
        )
    summary = {
        "config": cfg,
        "result": {"mass_drift_rel": mass_drift, "energy_dev_final": final,
                   "energy_dev_early_max": early},
        "pass": ok,
    }
    harness.write_summary_json(out_dir / "conservation_summary.json", summary)
    return ok, verdict


def _run_stability(cfg, out_dir, threads):
    t = resolve_tableau(cfg["tableau"])
    if cfg["grid"] == "schrodinger":
        grid = schrodinger_grid(cfg["n"])
    elif cfg["grid"] == "wave":
        grid = wave_grid(cfg["n"])
    else:
        raise ValueError(f"unknown grid kind {cfg['grid']!r}")
    n_steps = int(cfg["n_steps"])
    rows = []
    worst = 0.0
    for h in cfg["h_values"]:
        amp = harness.stability_growth(t, grid, float(h), n_steps)
        worst = max(worst, abs(amp - 1.0))
        rows.append([repr(float(h)), repr(amp)])
    _write_csv(out_dir / "stability.csv", ["h", "amplification"], rows)
    if cfg["grid"] == "schrodinger":
        ok = worst <= 1e-13
        verdict = f"max |amplification - 1| = {worst:.2e} {'PASS' if ok else 'FAIL'}"
    else:
        ok = True
        verdict = f"max amplification deviation {worst:.2e} (wave secular growth expected)"
    summary = {"config": cfg, "result": {"max_deviation": worst}, "pass": ok}
    harness.write_summary_json(out_dir / "stability_summary.json", summary)
    return ok, verdict


def _run_smoothness(cfg, out_dir, threads):
    problem = _resolve_problem(cfg)
    t = resolve_tableau(cfg["tableau"])
    u0 = _initial_state(problem, cfg)
    results = harness.smoothness_probe(
        problem, t, u0, float(cfg["h"]), int(cfg["q"]), levels=int(cfg["levels"]),
        fp_tol=float(cfg["fp_tol"]),
    )
    _write_csv(
        out_dir / "smoothness.csv",
        ["h_base", "normalized_difference"],
        [[repr(h), repr(v)] for h, v in results],
    )
    growth = results[-1][1] / results[0][1] if results[0][1] > 0 else math.inf
    verdict = (
        f"q={cfg['q']} difference norms {'bounded' if growth < 2 else 'growing'} "
        f"(last/first = {growth:.3g})"
    )
    summary = {"config": cfg, "result": {"values": [v for _, v in results],
                                         "growth_ratio": growth}, "pass": True}
    harness.write_summary_json(out_dir / "smoothness_summary.json", summary)
    return True, verdict


def _run_dirichlet_compat(cfg, out_dir, threads):
    t = resolve_tableau(cfg["tableau"])
    h_list = _resolve_h_list(cfg)
    rep_c, rep_i = harness.dirichlet_compatibility_study(
        h_list, T=float(cfg["T"]), n=int(cfg["n"]), t=t, fp_tol=float(cfg["fp_tol"]),
        workers=threads,
    )
    rep_c.write_csv(out_dir / "dirichlet_compatible.csv")
    rep_i.write_csv(out_dir / "dirichlet_incompatible.csv")
    ok_full = abs(rep_c.fitted_order - t.p) <= _ORDER_WINDOW
    ok_reduced = rep_i.fitted_order <= t.p - 0.5
    ok = ok_full and ok_reduced
    verdict = (
        f"compatible order {rep_c.fitted_order:.3f}, incompatible order "
        f"{rep_i.fitted_order:.3f} {'PASS' if ok else 'FAIL'}"
    )
    summary = {
        "config": cfg,
        "result": {"compatible": rep_c.summary_dict(), "incompatible": rep_i.summary_dict()},
        "pass": ok,
    }
    harness.write_summary_json(out_dir / "dirichlet_compat_summary.json", summary)
    return ok, verdict


def _run_tangent_check(cfg, out_dir, threads):
    problem = _resolve_problem(cfg)
    t = resolve_tableau(cfg["tableau"])
    u0 = _initial_state(problem, cfg)
    rng = np.random.default_rng(int(cfg["seed"]))
    v0 = harness.random_band_state(problem.grid, rng)
    h = float(cfg["h"])
    eps = float(cfg["eps"])
    solver = SolverConfig(h=h, fp_tol=float(cfg["fp_tol"]))
    _, v1, _ = tangent_step(problem, t, u0, v0, solver)
    plus, _ = step(problem, t, u0 + eps * v0, solver)
    minus, _ = step(problem, t, u0 + (-eps) * v0, solver)
    fd = (1.0 / (2 * eps)) * (plus - minus)
    rel_err = base_norm(fd - v1) / max(base_norm(v1), 1e-300)

    report = harness.tangent_convergence_study(
        problem, t, u0, v0, float(cfg["T"]), _resolve_h_list(cfg), fp_tol=float(cfg["fp_tol"]),
        workers=threads,
    )
    report.write_csv(out_dir / "tangent_convergence.csv")
    ok_fd = rel_err <= 1e-5
    ok_order, order_verdict = _report_order_verdict(report, t.p)
    ok = ok_fd and ok_order
    verdict = (
        f"tangent vs central differences rel err {rel_err:.2e} "
        f"({'PASS' if ok_fd else 'FAIL'}); extended-system {order_verdict}"
    )
    summary = {
        "config": cfg,
        "result": {"fd_rel_err": rel_err, "study": report.summary_dict()},
        "pass": ok,
    }
    harness.write_summary_json(out_dir / "tangent_check_summary.json", summary)
    return ok, verdict


_DEFAULTS = {
    "convergence": {
        "problem": "nls-cubic-periodic", "tableau": "gl:1", "n": 64, "T": 0.5,
        "h_max": 0.02, "levels": 5, "fp_tol": 1e-13, "seed": 0,
        "initial_data": "standard",
    },
    "conservation": {
        "problem": "nls-cubic-periodic", "tableau": "gl:1", "n": 64, "h": 5e-3,
        "steps": 2000, "fp_tol": 1e-13, "seed": 0, "initial_data": "standard",
    },
    "stability": {
        "tableau": "gl:1", "grid": "schrodinger", "n": 256,
        "h_values": [1e-3, 1e-2, 1e-1, 1.0], "n_steps": 10, "seed": 0,
    },
    "smoothness": {
        "problem": "nls-linear-periodic", "tableau": "gl:2", "n": 64, "h": 0.05,
        "q": 2, "levels": 4, "fp_tol": 1e-13, "seed": 0, "initial_data": "standard",
    },
    "dirichlet-compat": {
        "tableau": "gl:1", "n": 256, "T": 0.4, "h_max": 0.08, "levels": 5,
        "fp_tol": 1e-13, "seed": 0,
    },
    "tangent-check": {
        "problem": "nls-cubic-periodic", "tableau": "gl:1", "n": 32, "T": 0.5,
        "h": 0.01, "eps": 1e-5, "h_max": 0.02, "levels": 5, "fp_tol": 1e-13,
        "seed": 0, "initial_data": "standard",
    },
}

_RUNNERS = {
    "convergence": _run_convergence,
    "conservation": _run_conservation,
    "stability": _run_stability,
    "smoothness": _run_smoothness,
    "dirichlet-compat": _run_dirichlet_compat,
    "tangent-check": _run_tangent_check,
}


def run_config(config_path, out_dir=None, threads=1, debug_checks=False) -> int:
    if threads < 1:
        return _fail(f"--threads must be at least 1, got {threads}")
    path = Path(config_path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        return _fail(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        return _fail(f"config {path} is not valid JSON (line {exc.lineno}, col {exc.colno})")

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        return _fail(f"unknown experiment {experiment!r}; choose one of {list(EXPERIMENTS)}")

    cfg = _materialize(raw, _DEFAULTS[experiment])
    cfg["debug_checks"] = bool(debug_checks or cfg.get("debug_checks", False))
    target = Path(out_dir) if out_dir else Path(cfg.get("out", "."))
    target.mkdir(parents=True, exist_ok=True)

    try:
        ok, verdict = _RUNNERS[experiment](cfg, target, threads)
    except KeyError as exc:
        return _fail(f"{exc.args[0]}")
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    except (ConvergenceFailureError, NumericalBlowupError, UnreliableReferenceError) as exc:
        return _fail(f"solver failure: {exc}")

    print(f"{experiment}: {verdict}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rkspectral", description="Spectral implicit Runge-Kutta experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute an experiment config")
    run_parser.add_argument("config", help="path to a JSON experiment config")
    run_parser.add_argument("--out", default=None, help="output directory for artifacts")
    run_parser.add_argument("--threads", type=int, default=1, help="parallel study workers")
    run_parser.add_argument(
        "--debug-checks", action="store_true",
        help="enable per-step cross-validation of the update forms",
    )
    run_parser.add_argument(
        "--list-problems", action="store_true", help="print the problem catalogue and exit"
    )
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.list_problems:
            print("\n".join(list_problems()))
            return 0
        return run_config(args.config, args.out, args.threads, args.debug_checks)
    return 2


if __name__ == "__main__":
    sys.exit(main())
