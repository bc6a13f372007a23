import json

import pytest

from rkspectral.cli import main, run_config
from rkspectral.tableau import gauss_legendre


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_unknown_experiment_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "frobnicate"})
    assert run_config(cfg, tmp_path / "out") == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": "convergence",,}', encoding="utf-8")
    assert run_config(path, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "line" in err


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


def test_nonlinearity_override(tmp_path, capsys):
    payload = {
        "experiment": "conservation",
        "problem": "wave-cubic-periodic",
        "nonlinearity": "cubic_plus_const:0.5",
        "n": 16,
        "h": 0.01,
        "steps": 20,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert run_config(cfg, out) in (0, 1)  # verdict may flag drift; run must complete
    summary = json.loads((out / "conservation_summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["nonlinearity"] == "cubic_plus_const:0.5"


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


def test_main_entry_list_problems(capsys, tmp_path):
    cfg = write_config(tmp_path, {"experiment": "stability"})
    assert main(["run", str(cfg), "--list-problems"]) == 0
    assert "wave-neumann" in capsys.readouterr().out


def test_tangent_check_threads_do_not_change_csv(tmp_path, capsys):
    payload = {
        "experiment": "tangent-check",
        "n": 16,
        "T": 0.25,
        "h_max": 0.025,
        "levels": 3,
    }
    cfg = write_config(tmp_path, payload)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["run", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["run", str(cfg), "--out", str(out2), "--threads", "2"]) == 0
    csv1 = (out1 / "tangent_convergence.csv").read_bytes()
    csv2 = (out2 / "tangent_convergence.csv").read_bytes()
    assert csv1 == csv2


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, {"experiment": "stability", "tableau": "gl:2"})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--threads", threads]) == 2
    assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()
