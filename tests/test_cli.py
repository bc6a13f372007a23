import builtins
import collections
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkspectral import cli, errors, harness, spectral, stepper, tableau
from rkspectral.cli import main, run_config
from rkspectral.spectral import State
from rkspectral.stepper import _flow
from rkspectral.tableau import gauss_legendre, resolve_tableau


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.mark.parametrize("experiment", ["frobnicate", ["convergence"]])
def test_unknown_experiment_rejected(tmp_path, capsys, experiment):
    cfg = write_config(tmp_path, {"experiment": experiment})
    assert run_config(cfg, tmp_path / "out") == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": "convergence",,}', encoding="utf-8")
    assert run_config(path, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "line" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts integers of any length")
def test_integer_of_too_many_digits_rejected(tmp_path, capsys):
    # json reads an integer through int(), which refuses more than 4,300 digits
    path = tmp_path / "huge.json"
    path.write_text('{"experiment": "stability", "n": 1' + "0" * 5000 + "}", encoding="utf-8")
    out = tmp_path / "out"
    assert run_config(path, out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path} is not valid JSON (Exceeds the limit")
    assert err.count("\n") == 1
    assert not out.exists()


def test_config_that_is_not_utf8_rejected(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"experiment": "stability", "tableau": "\u00e9"}'.encode("latin-1"))
    out = tmp_path / "out"
    assert run_config(path, out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path} is not valid JSON ('utf-8' codec can't decode")
    assert err.count("\n") == 1
    assert not out.exists()


def test_config_that_is_not_an_object_rejected(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text('["convergence"]', encoding="utf-8")
    out = tmp_path / "out"
    assert run_config(path, out) == 2
    assert "must be a JSON object, got list" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_names_closest_valid_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "convergence", "h_mx": 0.01})
    out = tmp_path / "out"
    assert run_config(cfg, out) == 2
    err = capsys.readouterr().err
    assert "unknown config key 'h_mx' for the convergence experiment" in err
    assert "did you mean 'h_max'?" in err
    assert not out.exists()


def test_key_of_another_experiment_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "convergence", "h_values": [0.1]})
    out = tmp_path / "out"
    assert run_config(cfg, out) == 2
    err = capsys.readouterr().err
    assert "unknown config key 'h_values' for the convergence experiment" in err
    assert "'h_max'" in err  # the valid keys are listed
    assert not out.exists()


def test_missing_file_rejected(tmp_path, capsys):
    assert run_config(tmp_path / "nope.json", tmp_path / "out") == 2


def test_unknown_problem_lists_catalogue(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "convergence", "problem": "foo"})
    assert run_config(cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "nls-cubic-periodic" in err


def test_stability_run_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "stability", "tableau": "gl:2"})
    out = tmp_path / "out"
    assert run_config(cfg, out) == 0
    assert "PASS" in capsys.readouterr().out
    rows = (out / "stability.csv").read_text(encoding="utf-8").strip().splitlines()
    assert rows[0] == "h,amplification"
    assert len(rows) == 5
    summary = json.loads((out / "stability_summary.json").read_text(encoding="utf-8"))
    assert summary["pass"] is True
    assert summary["config"]["n"] == 256  # defaults materialized


def test_stability_summary_names_the_maximizing_point(tmp_path, capsys):
    # the wave's k = 0 block grows like n h, so the largest h sets the maximum
    cfg = write_config(tmp_path, {"experiment": "stability", "grid": "wave", "n": 16,
                                  "h_values": [0.1, 0.5, 0.2]})
    out = tmp_path / "out"
    assert run_config(cfg, out) == 0
    result = json.loads((out / "stability_summary.json").read_text(encoding="utf-8"))["result"]
    assert result["argmax"] == {"h": 0.5, "mode": 0}
    rows = (out / "stability.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert result["max_deviation"] == max(float(row.split(",")[1]) - 1.0 for row in rows)


def test_empty_stability_sweep_passes_with_no_argmax(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "stability", "h_values": []})
    out = tmp_path / "out"
    assert run_config(cfg, out) == 0
    assert capsys.readouterr().out == "stability: max |amplification - 1| = 0.00e+00 PASS\n"
    assert (out / "stability.csv").read_bytes() == b"h,amplification\r\n"
    summary = json.loads((out / "stability_summary.json").read_text(encoding="utf-8"))
    assert summary["result"] == {"argmax": None, "max_deviation": 0.0}
    assert summary["pass"] is True


def test_stability_sweep_is_one_library_call(tmp_path, capsys, monkeypatch):
    calls, growth = [], harness.stability_growth

    def recording(t, grid, h_values, n_steps):
        calls.append((list(h_values), n_steps))
        return growth(t, grid, h_values, n_steps)

    monkeypatch.setattr(harness, "stability_growth", recording)
    payload = {"experiment": "stability", "grid": "wave", "n": 16, "n_steps": 3,
               "h_values": [0.1, 1, 0.2]}
    assert run_config(write_config(tmp_path, payload), tmp_path / "out") == 0
    assert calls == [([0.1, 1, 0.2], 3)]  # the JSON numbers, which the library checks
    with open(tmp_path / "out" / "stability.csv", newline="", encoding="utf-8") as fh:
        assert [row[0] for row in csv.reader(fh)][1:] == ["0.1", "1.0", "0.2"]


def test_negative_stability_step_error_is_unchanged(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "stability", "h_values": [0.1, -1.0]})
    out = tmp_path / "out"
    assert run_config(cfg, out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: config key 'h_values': h must be finite and nonnegative, got -1.0\n")
    assert not out.exists()


def write_singular_tableau(tmp_path):
    # a = [[0, -1], [1, 0]]: singular where h k^2 = 1 (Schrodinger), h k = 1 (wave)
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"s": 2, "a": [[0, -1], [1, 0]], "b": [0.5, 0.5],
                                "c": [-1, 1], "p": 1}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("grid, h_values, mode, h", [("schrodinger", [0.5, 1.0], 1, 1.0),
                                                     ("wave", [0.1, 0.25], 4, 0.25)])
def test_singular_stage_block_exits_2(tmp_path, capsys, grid, h_values, mode, h):
    payload = {"experiment": "stability", "tableau": write_singular_tableau(tmp_path),
               "grid": grid, "n": 8, "h_values": h_values}
    out = tmp_path / "out" / "run"
    assert run_config(write_config(tmp_path, payload), out) == 2
    assert f"singular stage block at mode {mode} for h = {h!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_failed_run_keeps_an_existing_out_dir(tmp_path, capsys):
    payload = {"experiment": "stability", "tableau": write_singular_tableau(tmp_path),
               "n": 8, "h_values": [1.0]}
    out = tmp_path / "out"
    out.mkdir()
    assert run_config(write_config(tmp_path, payload), out) == 2
    assert out.is_dir()


def test_small_convergence_run_and_determinism(tmp_path, capsys):
    payload = {
        "experiment": "convergence",
        "problem": "nls-cubic-periodic",
        "tableau": "gl:1",
        "n": 32,
        "T": 0.25,
        "h_max": 0.025,
        "levels": 3,
        "initial_data": "random",
        "seed": 42,
    }
    cfg = write_config(tmp_path, payload)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run_config(cfg, out1) == 0
    assert run_config(cfg, out2) == 0
    csv1 = (out1 / "convergence.csv").read_bytes()
    csv2 = (out2 / "convergence.csv").read_bytes()
    assert csv1 == csv2
    summary = json.loads((out1 / "convergence_summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["seed"] == 42
    assert summary["config"]["fp_tol"] == 1e-13
    assert abs(summary["result"]["fitted_order"] - 2.0) <= 0.3


def test_custom_tableau_path(tmp_path, capsys):
    tableau_path = tmp_path / "tableau.json"
    tableau_path.write_text(gauss_legendre(1).to_json(), encoding="utf-8")
    payload = {
        "experiment": "convergence",
        "problem": "nls-cubic-periodic",
        "tableau": str(tableau_path),
        "n": 32,
        "T": 0.25,
        "h_max": 0.025,
        "levels": 3,
    }
    cfg = write_config(tmp_path, payload)
    assert run_config(cfg, tmp_path / "out") == 0


def test_smoothness_run(tmp_path, capsys):
    payload = {
        "experiment": "smoothness",
        "n": 128,
        "initial_data": "rough",
        "levels": 3,
    }
    cfg = write_config(tmp_path, payload)
    assert run_config(cfg, tmp_path / "out") == 0
    out = capsys.readouterr().out
    assert "growing" in out


def test_zeroth_order_smoothness_writes_every_level(tmp_path, capsys):
    payload = {"experiment": "smoothness", "n": 16, "levels": 3, "q": 0}
    out = tmp_path / "out"
    assert run_config(write_config(tmp_path, payload), out) == 0
    rows = (out / "smoothness.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.05, 0.025, 0.0125]


@pytest.mark.parametrize("h", [0.1, 1e308])
def test_stability_growth_that_is_not_finite_exits_2(tmp_path, capsys, h):
    payload = {"experiment": "stability", "grid": "wave", "n": 16, "n_steps": 10**20,
               "h_values": [h]}
    out = tmp_path / "out"
    assert run_config(write_config(tmp_path, payload), out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: stability growth over n_steps={10**20} steps "
                                   f"of h={h!r} is not finite (overflow encountered in ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_main_entry_list_problems(capsys, tmp_path):
    cfg = write_config(tmp_path, {"experiment": "stability"})
    assert main(["run", str(cfg), "--list-problems"]) == 0
    assert "wave-neumann" in capsys.readouterr().out


def test_list_problems_needs_no_config_path(capsys):
    assert main(["run", "--list-problems"]) == 0
    assert "wave-neumann" in capsys.readouterr().out


def test_run_without_config_path_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
    assert "the following arguments are required: config" in capsys.readouterr().err


def test_threads_flag_is_an_argparse_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "stability"})
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg), "--out", str(out), "--threads", "2"])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, key",
    [({"experiment": "convergence", "n": "abc"}, "n"),
     ({"experiment": "stability", "h_values": 0.1}, "h_values"),
     ({"experiment": "stability", "n_steps": True}, "n_steps")],
)
def test_wrong_typed_value_rejected_before_any_work(tmp_path, capsys, payload, key):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run_config(cfg, out) == 2
    assert f"config key {key!r} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, key",
    [({"experiment": "stability", "n": -4}, "n"),
     ({"experiment": "convergence", "levels": 1}, "levels"),
     ({"experiment": "convergence", "tableau": "gl:9"}, "tableau"),
     ({"experiment": "convergence", "h_max": -0.02}, "h_max"),
     ({"experiment": "conservation", "h": 0}, "h"),
     ({"experiment": "conservation", "steps": 0}, "steps"),
     ({"experiment": "stability", "n_steps": -1}, "n_steps"),
     ({"experiment": "convergence", "n": 5}, "n"),
     ({"experiment": "dirichlet-compat", "n": 0}, "n"),
     ({"experiment": "smoothness", "q": 5}, "q"),
     ({"experiment": "smoothness", "levels": 0}, "levels"),
     ({"experiment": "stability", "h_values": [0.1, -1.0]}, "h_values"),
     ({"experiment": "stability", "grid": "heat"}, "grid"),
     ({"experiment": "convergence", "initial_data": "smooth"}, "initial_data"),
     # a derived ladder whose smallest step is subnormal, or underflows to 0
     ({"experiment": "convergence", "levels": 1025}, "levels"),
     ({"experiment": "convergence", "h_max": 1e-300, "levels": 100}, "levels"),
     # h_max divides T, but T/h overflows at the ladder's smallest step
     ({"experiment": "convergence", "T": 1000, "levels": 1015}, "levels"),
     # a smoothness stencil spacing whose q-th power underflows, or overflows
     ({"experiment": "smoothness", "n": 16, "levels": 600}, "levels"),
     ({"experiment": "smoothness", "n": 16, "levels": 1100}, "levels"),
     ({"experiment": "smoothness", "n": 16, "levels": 1100, "q": 0}, "levels"),
     ({"experiment": "smoothness", "n": 16, "h": 1e300, "q": 4}, "h"),
     ({"experiment": "convergence", "initial_data": "random", "seed": -1}, "seed"),
     ({"experiment": "tangent-check", "seed": -1}, "seed"),
     ({"experiment": "convergence", "T": -1}, "T"),
     # JSON integers too large for a float: not finite
     ({"experiment": "stability", "h_values": [10**400]}, "h_values"),
     ({"experiment": "convergence", "T": 10**400}, "T"),
     ({"experiment": "convergence", "h_max": 10**400}, "h_max"),
     ({"experiment": "conservation", "h": 10**400}, "h"),
     ({"experiment": "smoothness", "h": 10**400}, "h"),
     # step counts and grid sizes above their rules' bounds (messages below)
     ({"experiment": "stability", "n_steps": int(sys.float_info.max) + 1}, "n_steps"),
     ({"experiment": "conservation", "steps": 10**400}, "steps"),
     ({"experiment": "stability", "n": 2**20 + 2}, "n"),
     ({"experiment": "convergence", "n": 10**400}, "n"),
     ({"experiment": "dirichlet-compat", "n": 10**400}, "n"),
     # a grid too small for the standard data's modes
     ({"experiment": "conservation", "problem": "wave-cubic-periodic", "n": 4}, "n"),
     ({"experiment": "convergence", "problem": "wave-neumann", "n": 2}, "n"),
     # a stage tolerance too loose for the run's finest step
     ({"experiment": "conservation", "problem": "wave-cubic-periodic", "n": 16, "h": 0.01,
       "steps": 3, "fp_tol": 1e308}, "fp_tol"),
     ({"experiment": "conservation", "fp_tol": 1e-8}, "fp_tol"),
     ({"experiment": "smoothness", "fp_tol": 1e308}, "fp_tol")],
)
def test_out_of_range_value_rejected_before_any_work(tmp_path, capsys, payload, key):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run_config(cfg, out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"config key {key!r}" in err
    if key == "h_max":
        assert "h_list" not in err  # the dyadic ladder it implies is not blamed
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, message",
    [({"experiment": "stability", "n_steps": 10**400},
      f"config key 'n_steps': n_steps must be at least 0 and at most {sys.float_info.max!r}, "),
     ({"experiment": "conservation", "steps": int(sys.float_info.max) + 1},
      "config key 'steps': steps must be at least 1 and at most 1048576, got 1797693"),
     ({"experiment": "stability", "n": 10**400},
      "config key 'n': grid size n must be at most 1048576, got 1000"),
     ({"experiment": "convergence", "n": 2**20 + 2},
      "config key 'n': grid size n must be at most 1048576, got 1048578\n")],
)
def test_size_errors_state_their_bound(tmp_path, capsys, payload, message):
    out = tmp_path / "out"
    assert run_config(write_config(tmp_path, payload), out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["convergence", "tangent-check", "dirichlet-compat"])
# T = 1e308 overflows T / h: that is past the step bound, not a step fault
@pytest.mark.parametrize("key, value", [("T", 1e100), ("h_max", 1e-300), ("T", 1e308)])
def test_study_step_count_is_bounded(tmp_path, capsys, experiment, key, value):
    # T / h has no other upper bound: without this one the study runs for ever
    payload = {"experiment": experiment, key: value}
    out = tmp_path / "out"
    start = time.perf_counter()
    assert run_config(write_config(tmp_path, payload), out) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'h_max': T/h must be at most 1048576; ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_run_step_count_is_bounded(tmp_path, capsys, monkeypatch):
    # the bound an order study's T/h has: without it 10**20 steps run for ever
    monkeypatch.setattr(harness, "_flow", lambda *args: pytest.fail("the run was not rejected"))
    payload = {"experiment": "conservation", "n": 16, "steps": 10**20}
    out = tmp_path / "out"
    start = time.perf_counter()
    assert run_config(write_config(tmp_path, payload), out) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == ("error: config key 'steps': steps must be at least 1 and "
                                       f"at most 1048576, got {10**20}\n")
    assert not out.exists()


def test_output_directory_without_the_flag_is_the_working_directory(tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"experiment": "stability", "n": 16, "h_values": [0.1]})
    assert main(["run", str(cfg)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "stability.csv", "stability_summary.json"]


def test_dirichlet_compat_on_a_grid_too_small_for_its_data_exits_2(tmp_path, capsys):
    payload = {"experiment": "dirichlet-compat", "n": 2, "T": 0.2, "h_max": 0.1, "levels": 2}
    out = tmp_path / "out"
    assert run_config(write_config(tmp_path, payload), out) == 2
    assert capsys.readouterr().err == (
        "error: config key 'n': the dirichlet grid of n=2 lacks mode 3 of the initial data\n")
    assert not out.exists()


def test_dirichlet_compat_rejects_a_seed(tmp_path, capsys):
    # the study's data are fixed: nothing reads a seed
    cfg = write_config(tmp_path, {"experiment": "dirichlet-compat", "seed": 0})
    out = tmp_path / "out"
    assert run_config(cfg, out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config key 'seed' for the dirichlet-compat experiment")
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, message",
    [({"experiment": "convergence", "T": 0.5, "h_max": 0.03}, "T/h must be a positive integer"),
     ({"experiment": "tangent-check", "T": 0.45}, "T/h must be a positive integer"),
     ({"experiment": "convergence", "tableau": "gl:2", "fp_tol": 1e-6}, "fp_tol=1e-06 too loose")],
)
def test_order_study_checks_run_before_any_work(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run_config(cfg, out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [("s", None, "s must be an integer, got None"), ("a", {"x": 1}, "tableau JSON key 'a'"),
     # a declared count that is not an integer, which int() would have read
     ("s", "1", "s must be an integer, got '1'"), ("p", 2.9, "p must be an integer, got 2.9"),
     ("p", True, "p must be an integer, got True")],
)
def test_malformed_tableau_file_rejected_before_any_work(tmp_path, capsys, key, value,
                                                         message):
    doc = {"s": 1, "a": [[0.5]], "b": [1], "c": [0.5], "p": 2, key: value}
    tableau_path = tmp_path / "t.json"
    tableau_path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = write_config(tmp_path, {"experiment": "stability", "n": 16, "h_values": [0.1],
                                  "tableau": str(tableau_path)})
    out = tmp_path / "out"
    assert run_config(cfg, out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key 'tableau': {message}") and err.count("\n") == 1
    assert not out.exists()


def test_int_accepted_for_float_default(tmp_path, capsys):
    payload = {"experiment": "convergence", "n": 16, "T": 1, "h_max": 0.05, "levels": 3}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run_config(cfg, out) == 0
    summary = json.loads((out / "convergence_summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["T"] == 1


SMALL_CONFIGS = {
    "convergence": {"n": 32, "T": 0.25, "h_max": 0.025, "levels": 3},
    "conservation": {"n": 16, "h": 0.01, "steps": 20},
    "stability": {"n": 16, "h_values": [0.1]},
    "smoothness": {"n": 32, "levels": 3},
    "dirichlet-compat": {"n": 64, "T": 0.2, "h_max": 0.05, "levels": 3},
    "tangent-check": {"n": 16, "T": 0.25, "h_max": 0.025, "levels": 3},
}


@pytest.mark.parametrize("experiment", list(SMALL_CONFIGS))
def test_every_experiment_writes_one_summary_agreeing_with_exit_code(
    tmp_path, capsys, experiment
):
    cfg = write_config(tmp_path, {"experiment": experiment, **SMALL_CONFIGS[experiment]})
    out = tmp_path / "out"
    code = run_config(cfg, out)
    assert code in (0, 1)
    name = f"{experiment.replace('-', '_')}_summary.json"
    assert [p.name for p in out.glob("*_summary.json")] == [name]
    summary = json.loads((out / name).read_text(encoding="utf-8"))
    assert sorted(summary) == ["config", "pass", "result"]
    assert summary["pass"] is (code == 0)
    assert summary["config"]["experiment"] == experiment
    studies = {"convergence": [summary["result"]],
               "tangent-check": [summary["result"].get("study")],
               "dirichlet-compat": [summary["result"].get("compatible"),
                                    summary["result"].get("incompatible")]}
    for study in studies.get(experiment, []):
        counts = study["stage_iterations"]
        assert sorted(counts) == ["ladder", "reference"]
        assert all(type(c) is int and c > 0 for c in counts.values())
        rungs = study["reference"]["rungs"]
        assert rungs and all(sorted(r) == ["discrepancy", "h_ref", "required"] for r in rungs)
        assert rungs[-1]["required"] == study["reference"]["required"]


def test_tangent_check_reference_costs_under_half_the_ladder(tmp_path, capsys):
    # the CLI defaults (gl:1, reference gl:3): the walk from h_max stops at
    # its second rung, 670 reference against 1,582 ladder iterations
    out = tmp_path / "out"
    assert run_config(write_config(tmp_path, {"experiment": "tangent-check"}), out) == 0
    study = json.loads((out / "tangent_check_summary.json").read_text(encoding="utf-8"))
    counts = study["result"]["study"]["stage_iterations"]
    assert counts["reference"] <= 0.5 * counts["ladder"]


def spy_on_tangent_study(monkeypatch):
    """Record the (u0, v0) each tangent study of the runs that follow gets."""
    seen, study = [], harness.tangent_convergence_study

    def spying(p, t, u0, v0, *args, **kwargs):
        seen.append((u0, v0))
        return study(p, t, u0, v0, *args, **kwargs)

    monkeypatch.setattr(harness, "tangent_convergence_study", spying)
    return seen


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_data_and_tangent_direction_are_two_draws_of_one_generator(
    tmp_path, capsys, monkeypatch, seed
):
    # u0 is the generator's first draw and v0 its second, so the check
    # probes the step in a direction other than the radial one
    seen = spy_on_tangent_study(monkeypatch)
    payload = {"experiment": "tangent-check", "initial_data": "random", "seed": seed}
    assert run_config(write_config(tmp_path, payload), tmp_path / "out") == 0
    [(u0, v0)] = seen
    rng = np.random.default_rng(seed)
    first = harness.random_band_state(u0.grid, rng)
    second = harness.random_band_state(u0.grid, rng)
    assert np.array_equal(u0.coeffs, first.coeffs)
    assert np.array_equal(v0.coeffs, second.coeffs)
    assert not np.array_equal(v0.coeffs, u0.coeffs)


@pytest.mark.parametrize("kind", ["standard", "rough"])
@pytest.mark.parametrize("seed", [0, 3])
def test_tangent_direction_of_drawless_data_is_the_first_draw(
    tmp_path, capsys, monkeypatch, kind, seed
):
    seen = spy_on_tangent_study(monkeypatch)
    payload = {"experiment": "tangent-check", "initial_data": kind, "seed": seed,
               **SMALL_CONFIGS["tangent-check"]}
    assert run_config(write_config(tmp_path, payload), tmp_path / "out") in (0, 1)
    [(u0, v0)] = seen
    first = harness.random_band_state(u0.grid, np.random.default_rng(seed))
    assert np.array_equal(v0.coeffs, first.coeffs)


@pytest.mark.parametrize("experiment", ["convergence", "smoothness", "dirichlet-compat",
                                        "tangent-check"])
def test_near_one_contraction_warns_at_the_runner(tmp_path, capsys, monkeypatch, experiment):
    # a study's or the probe's warning names a line of the CLI, not of the
    # harness; the probe runs a nonlinear problem, whose steps iterate
    monkeypatch.setattr(stepper, "_CONTRACTION_WARN", 0.0)
    payload = {"experiment": experiment, **SMALL_CONFIGS[experiment]}
    if experiment == "smoothness":
        payload["problem"] = "nls-cubic-periodic"
    cfg = write_config(tmp_path, payload)
    with pytest.warns(UserWarning, match="near 1") as record:
        assert run_config(cfg, tmp_path / "out") in (0, 1)
    assert {warning.filename for warning in record} == {cli.__file__}


@pytest.mark.parametrize("experiment", list(SMALL_CONFIGS))
def test_each_run_resolves_the_tableau_once(tmp_path, capsys, monkeypatch, experiment):
    calls = []

    def counting_resolve_tableau(spec):
        calls.append(spec)
        return resolve_tableau(spec)

    monkeypatch.setattr(cli, "resolve_tableau", counting_resolve_tableau)
    cfg = write_config(tmp_path, {"experiment": experiment, **SMALL_CONFIGS[experiment]})
    assert run_config(cfg, tmp_path / "out") in (0, 1)
    assert calls == ["gl:1" if experiment != "smoothness" else "gl:2"]


@pytest.mark.parametrize("experiment", list(SMALL_CONFIGS))
def test_each_run_reads_a_tableau_file_once(tmp_path, capsys, monkeypatch, experiment):
    tableau_path = tmp_path / "tableau.json"
    tableau_path.write_text(gauss_legendre(1).to_json(), encoding="utf-8")
    opens = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(tableau_path):
            opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    payload = {"experiment": experiment, **SMALL_CONFIGS[experiment],
               "tableau": str(tableau_path)}
    assert run_config(write_config(tmp_path, payload), tmp_path / "out") in (0, 1)
    assert len(opens) == 1


# The number-rule calls of each run, by parameter: once per library call
# that takes the value (per element of a list value), so dirichlet-compat
# checks its ladder, T and n in each of its two studies, and an order
# study's reference tableau checks its own s and p.  The T/h rule of the
# ladder the CLI derives from h_max checks T too.  h and fp_tol are not
# counted: every SolverConfig a study builds for its runs checks them.
RULE_CALLS = {
    "convergence": {"seed": 1, "s": 2, "p": 2, "h_max": 1, "levels": 1, "T": 2, "n": 1,
                    "h_list": 3},
    "conservation": {"seed": 1, "s": 1, "p": 1, "n": 1, "steps": 1},
    "stability": {"seed": 1, "s": 1, "p": 1, "n": 1, "h_values": 1, "n_steps": 1},
    "smoothness": {"seed": 1, "s": 1, "p": 1, "n": 1, "q": 1, "levels": 1},
    "dirichlet-compat": {"s": 3, "p": 3, "h_max": 1, "levels": 1, "T": 3, "n": 2, "h_list": 6},
    "tangent-check": {"seed": 1, "s": 2, "p": 2, "h_max": 1, "levels": 1, "T": 2, "n": 1,
                      "h_list": 3},
}


@pytest.mark.parametrize("experiment", list(SMALL_CONFIGS))
def test_each_input_rule_runs_once_per_library_call(tmp_path, capsys, monkeypatch, experiment):
    calls = collections.Counter()

    def spy(rule):
        def counting(name, *args):
            calls[name] += 1
            return rule(name, *args)
        return counting

    for rule in ("_real", "_count"):  # every binding, the CLI's imports included
        for module in (cli, harness, spectral, stepper, tableau):
            if hasattr(module, rule):
                monkeypatch.setattr(module, rule, spy(getattr(errors, rule)))
    cfg = write_config(tmp_path, {"experiment": experiment, **SMALL_CONFIGS[experiment]})
    assert run_config(cfg, tmp_path / "out") in (0, 1)
    del calls["h"], calls["fp_tol"]
    assert calls == RULE_CALLS[experiment]


@pytest.mark.parametrize("experiment", list(cli._EXPERIMENT_TABLE))
def test_debug_checks_flag_is_an_argparse_error(tmp_path, capsys, experiment):
    # the check of each update against its direct form is a test oracle, not a flag
    cfg = write_config(tmp_path, {"experiment": experiment})
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg), "--out", str(out), "--debug-checks"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --debug-checks" in capsys.readouterr().err
    assert not out.exists()


# Keys a config no longer takes, with the experiments that took them.  The
# direct-form check of each update is a test oracle; a problem is its
# catalogue entry (ProblemSpec builds one outside it); a ladder is dyadic,
# from h_max and levels (another is a library call); the output directory
# is --out alone; and the tangent check's difference steps run at h_max,
# by the fixed perturbation cli._FD_EPS.  The eps values are the ones
# its rule once rejected: not finite, subnormal, and so large that a
# perturbed step blew up.
RETIRED_KEYS = [
    *((experiment, "debug_checks", True) for experiment in cli._EXPERIMENT_TABLE),
    *((experiment, key, value)
      for key, value in (("nonlinearity", "cubic_plus_const:0.5"), ("dealias", False))
      for experiment in ("convergence", "conservation", "smoothness", "tangent-check")),
    *((experiment, "h_list", [0.02, 0.01])
      for experiment in ("convergence", "tangent-check", "dirichlet-compat")),
    *((experiment, "out", "elsewhere") for experiment in cli._EXPERIMENT_TABLE),
    pytest.param("tangent-check", "eps", 10**400, id="tangent-check-eps-10**400"),
    *(("tangent-check", "eps", value) for value in (5e-324, 1e308, 1e-5)),
    ("tangent-check", "h", 0.01),
]


@pytest.mark.parametrize("experiment, key, value", RETIRED_KEYS)
def test_retired_config_keys_are_unknown(tmp_path, capsys, monkeypatch, experiment, key,
                                         value):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"experiment": experiment, key: value})
    assert run_config(cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown config key {key!r} for the {experiment} ")
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["config.json"]  # no out dir, here or elsewhere


def test_conservation_summary_reports_stage_iterations(tmp_path, capsys, monkeypatch):
    histories = []

    def recording_flow(*args):
        final, history = _flow(*args)
        histories.append(history)
        return final, history

    monkeypatch.setattr(harness, "_flow", recording_flow)
    payload = {"experiment": "conservation", "n": 16, "h": 0.01, "steps": 20}
    out = tmp_path / "out"
    assert run_config(write_config(tmp_path, payload), out) == 0
    result = json.loads((out / "conservation_summary.json").read_text(encoding="utf-8"))["result"]
    [history] = histories
    assert result["stage_iterations"] == sum(stats.iterations for stats in history)
    assert result["max_iterations"] == max(stats.iterations for stats in history)
    assert result["max_iterations"] < result["stage_iterations"]
    header = (out / "conservation.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "step,time,mass,energy,mass_drift_rel,energy_dev"


@pytest.mark.parametrize("steps", [1, 15, 16, 17, 33])
@pytest.mark.parametrize(
    "problem", ["nls-cubic-periodic", "wave-dirichlet-compatible", "wave-neumann"]
)
def test_chunked_observer_writes_the_per_step_csv(tmp_path, capsys, monkeypatch, problem, steps):
    # full chunks of 16 states, and the final partial chunk, give the bytes
    # of an evaluation one state at a time
    assert harness._OBSERVER_CHUNK == 16
    payload = {"experiment": "conservation", "problem": problem, "n": 16, "h": 0.01,
               "steps": steps}
    cfg = write_config(tmp_path, payload)
    outputs = []
    for chunk in (16, 1):
        monkeypatch.setattr(harness, "_OBSERVER_CHUNK", chunk)
        out = tmp_path / f"chunk{chunk}"
        code = run_config(cfg, out)
        outputs.append((code, (out / "conservation.csv").read_bytes(),
                        (out / "conservation_summary.json").read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count(b"\n") == steps + 1


@pytest.mark.parametrize(
    "problem, dtype",
    [("wave-dirichlet-compatible", np.float64), ("wave-neumann", np.float64),
     ("nls-cubic-periodic", np.complex128), ("wave-cubic-periodic", np.complex128)],
)
def test_conservation_transforms_real_wave_rows_in_float64(tmp_path, capsys, monkeypatch,
                                                           problem, dtype):
    # the initial state, a chunk of 16 steps and a final partial chunk of 4
    seen = []
    inverse = harness.inverse_transform_array

    def spy(grid, coeffs):
        seen.append(coeffs.dtype)
        return inverse(grid, coeffs)

    monkeypatch.setattr(harness, "inverse_transform_array", spy)
    payload = {"experiment": "conservation", "problem": problem, "n": 16, "h": 0.01,
               "steps": 20}
    # a short wave run may read as drift (exit 1); it still writes every row
    assert run_config(write_config(tmp_path, payload), tmp_path / "out") in (0, 1)
    assert seen == [np.dtype(dtype)] * 3


@pytest.mark.parametrize("problem", ["wave-dirichlet-compatible", "wave-neumann"])
def test_real_wave_conservation_matches_complex_arithmetic_bitwise(tmp_path, capsys,
                                                                   monkeypatch, problem):
    # the float64 flow and observer write the bytes of the complex ones; at
    # h = 0.1 a last-bit difference in B reaches the CSV's mass and energy
    payload = {"experiment": "conservation", "problem": problem, "n": 16, "h": 0.1,
               "steps": 20}
    cfg = write_config(tmp_path, payload)
    outputs = []
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(stepper, "_real_data", lambda grid, x: False)
            monkeypatch.setattr(harness, "_real_data", lambda grid, x: False)
        out = tmp_path / f"forced{forced}"
        code = run_config(cfg, out)
        outputs.append((code, (out / "conservation.csv").read_bytes(),
                        (out / "conservation_summary.json").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "problem, steps",
    [("nls-cubic-periodic", 20), ("wave-dirichlet-compatible", 25), ("wave-cubic-periodic", 7)],
)
def test_conservation_summary_explains_the_verdict(tmp_path, capsys, problem, steps):
    payload = {"experiment": "conservation", "problem": problem, "n": 16, "h": 0.01,
               "steps": steps}
    out = tmp_path / "out"
    code = run_config(write_config(tmp_path, payload), out)
    summary = json.loads((out / "conservation_summary.json").read_text(encoding="utf-8"))
    with open(out / "conservation.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert code == (0 if summary["pass"] else 1)  # a short wave run may read as drift
    result = summary["result"]
    devs = [float(row["energy_dev"]) for row in rows]
    assert len(devs) == steps
    tenths = [devs[j * steps // 10:(j + 1) * steps // 10] for j in range(10)]
    assert result["energy_dev_tenths"] == [max(part) if part else None for part in tenths]
    assert max(d for d in result["energy_dev_tenths"] if d is not None) == max(devs)
    window = result["verdict_window"]
    if problem.startswith("nls"):
        # the mass verdict reads every step
        assert window["steps"] == steps
        assert result["mass_drift_rel"] == max(float(row["mass_drift_rel"]) for row in rows)
    else:
        # the wave's "mass" (the displacement's squared L2 norm) is not conserved
        assert "mass_drift_rel" not in result
        assert window["steps"] == max(1, steps // 10)
        assert result["energy_dev_early_max"] == max(devs[: window["steps"]])
    assert window["time"] == float(rows[window["steps"] - 1]["time"])
    assert result["energy_dev_final"] == devs[-1]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_blowup_in_a_run_exits_2_and_leaves_nothing(tmp_path, capsys, monkeypatch):
    def huge(problem, kind, rng):
        coeffs = np.zeros((problem.grid.components, problem.grid.n), dtype=complex)
        coeffs[0, 1] = 1e160
        return State(problem.grid, coeffs)

    monkeypatch.setattr(cli, "_initial_state", huge)
    payload = {"experiment": "conservation", "n": 16, "h": 0.01, "steps": 20}
    out = tmp_path / "out"
    assert run_config(write_config(tmp_path, payload), out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: solver failure: non-finite stage residual")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_python_dash_m_runs_from_a_checkout(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    cfg = write_config(tmp_path, {"experiment": "stability", "n": 16, "h_values": [0.1]})
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "rkspectral", "run", str(cfg), "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("stability: max |amplification - 1|")
    assert (tmp_path / "out" / "stability.csv").exists()


# Cheap valid configs, one per experiment, that the fuzz property below
# breaks one key at a time; convergence draws random data, so its seed is read,
# and conservation runs a wave on the complex periodic path.
FUZZ_BASES = {
    "convergence": {"n": 16, "T": 0.1, "h_max": 0.025, "levels": 2, "initial_data": "random"},
    "conservation": {"problem": "wave-cubic-periodic", "n": 16, "h": 0.01, "steps": 3},
    "stability": {"n": 16, "h_values": [0.1], "n_steps": 2},
    "smoothness": {"n": 16, "levels": 2},
    "dirichlet-compat": {"n": 16, "T": 0.1, "h_max": 0.025, "levels": 2},
    "tangent-check": {"n": 16, "T": 0.1, "h_max": 0.025, "levels": 2},
}
# Out-of-range and wrong-typed JSON values; no large valid size, which is
# slow rather than wrong.  Python's json writes and reads NaN and Infinity.
FUZZ_VALUES = [10**400, -10**400, int(sys.float_info.max) + 1, 1e308, -1e308, 5e-324, 0,
               -1, -0.0, 2, 4, math.nan, math.inf, -math.inf, True, False, None, "", ".",
               "\x00", "gl:9", "random", "wave", "cubic_plus_const:inf", [], [0.1],
               [10**400], ["x"], [math.nan], {}, {"a": 1}]


@pytest.mark.parametrize("experiment", list(FUZZ_BASES))
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_config_value_exits_with_a_verdict_or_a_keyed_error(experiment, data):
    # the draws are few enough that the search tries every (key, value) pair
    defaults, _ = cli._EXPERIMENT_TABLE[experiment]
    keys = sorted({"experiment", *defaults})
    key = data.draw(st.sampled_from([*keys, "unknown_key"]), label="key")
    value = data.draw(st.sampled_from(FUZZ_VALUES), label="value")
    payload = {"experiment": experiment, **FUZZ_BASES[experiment], key: value}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_config(write_config(Path(tmp), payload), out)
        if code == 2:
            # one error line, naming a key the experiment reads (or the unknown one)
            lines = stderr.getvalue().splitlines()
            assert stdout.getvalue() == "" and len(lines) == 1, lines
            assert lines[0].startswith("error: ")
            named = [k for k in (*keys, "unknown_key")
                     if re.search(rf"(?<![\w-]){re.escape(k)}(?![\w-])", lines[0])]
            assert named, lines[0]
            assert not out.exists()
        else:
            assert code in (0, 1)
            assert stderr.getvalue() == ""
            assert stdout.getvalue().startswith(f"{experiment}: ")
            assert stdout.getvalue().count("\n") == 1
