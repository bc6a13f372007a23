"""Correctness gate for the CSVs of one CLI run.

Every run must exit 0 with ``"pass": true`` in its summary and write
well-formed CSVs: the expected number of rows, finite numbers, and
converged stage solves (``max_residual <= fp_tol``).  Where the values
of this seed were recorded (``recorded.json``, see ``record.py``) the
CSV numbers must also match them within these tolerances:

* step sizes, step counts and step indices: exactly;
* study errors (``error_Y0``): within the study's own reference gate,
  ``max(1e-3 * min recorded error, 50 * fp_tol)``.  The reference is
  only trusted to that gap, so a correct change may move errors by it;
* mass and energy: within 1e-9 relative, the CLI's own mass-drift gate;
* stability amplification: within 1e-12 relative, the package's
  A-stability tolerance; it is a closed-form per-mode product;
* smoothness differences: within ``2**q * 50 * fp_tol / eps**q`` with
  ``eps = h_base / (q + 1)``: the q-th difference stencil (coefficient
  sum 2**q) of step outputs each trusted to the harness's round-off
  floor of 50 * fp_tol, divided by the stencil spacing to the q-th.

Solver diagnostics (mean iterations, residuals, contraction) are not
compared with the recorded values: a legitimate solver change moves
them.  Whether the CSV bytes equal the recorded ones is reported as a
field, not enforced.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

_SAMPLED_ROWS = 50


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _parse(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    return rows[0], rows[1:]


def fingerprint(data: bytes) -> dict:
    """What ``recorded.json`` keeps of one CSV: its hash and sampled rows."""
    header, rows = _parse(data)
    stride = max(1, math.ceil(len(rows) / _SAMPLED_ROWS))
    picks = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})
    return {
        "sha256": sha256(data),
        "header": header,
        "n_rows": len(rows),
        "rows": {str(i): rows[i] for i in picks},
    }


def _expected_rows(name: str, cfg: dict) -> int:
    if name in ("convergence.csv", "tangent_convergence.csv"):
        return len(cfg["h_list"]) if "h_list" in cfg else int(cfg["levels"])
    if name == "conservation.csv":
        return int(cfg["steps"])
    if name == "stability.csv":
        return len(cfg["h_values"])
    return int(cfg["levels"])  # smoothness


def _tolerances(name: str, cfg: dict, recorded_rows: dict):
    """Column -> tolerance(row, recorded value); 0 means exact, None skips."""
    fp_tol = float(cfg["fp_tol"]) if "fp_tol" in cfg else None
    if name in ("convergence.csv", "tangent_convergence.csv"):
        min_err = min(float(r[2]) for r in recorded_rows.values())
        gate = max(1e-3 * min_err, 50 * fp_tol)
        return {"h": 0, "steps": 0, "error_Y0": lambda row, rec: gate}
    if name == "conservation.csv":
        rel = lambda row, rec: 1e-9 * max(1.0, abs(rec))  # noqa: E731
        return {"step": 0, "time": 0, "mass": rel, "energy": rel}
    if name == "stability.csv":
        return {"h": 0, "amplification": lambda row, rec: 1e-12 * max(1.0, abs(rec))}
    q = int(cfg["q"])

    def smooth(row, rec):
        eps = float(row[0]) / (q + 1)
        return 2**q * 50 * fp_tol / eps**q

    return {"h_base": 0, "normalized_difference": smooth}


def check_csv(name: str, data: bytes, cfg: dict, recorded: dict | None) -> list[str]:
    """Problems found in one CSV; empty when it passes."""
    problems = []
    header, rows = _parse(data)
    expected = _expected_rows(name, cfg)
    if len(rows) != expected:
        problems.append(f"{name}: {len(rows)} rows, expected {expected}")
    for i, row in enumerate(rows):
        if len(row) != len(header) or not all(math.isfinite(float(x)) for x in row):
            problems.append(f"{name}: row {i} malformed or not finite")
            break
    if "max_residual" in header:
        col = header.index("max_residual")
        worst = max(float(r[col]) for r in rows)
        if worst > float(cfg["fp_tol"]):
            problems.append(f"{name}: stage residual {worst:g} above fp_tol")
    if recorded is None or problems:
        return problems
    if header != recorded["header"] or len(rows) != recorded["n_rows"]:
        return problems + [f"{name}: header or row count differs from the recording"]
    tolerances = _tolerances(name, cfg, recorded["rows"])
    mismatches = []
    for key, rec_row in sorted(recorded["rows"].items(), key=lambda item: int(item[0])):
        row = rows[int(key)]
        for col, col_name in enumerate(header):
            tol = tolerances.get(col_name)
            if tol is None:
                continue
            got, want = float(row[col]), float(rec_row[col])
            bound = 0.0 if tol == 0 else tol(row, want)
            if abs(got - want) > bound:
                mismatches.append(
                    f"{name}: row {key} {col_name}={got!r} differs from recorded "
                    f"{want!r} by more than {bound:.3g}"
                )
    if len(mismatches) > 3:
        mismatches[3:] = [f"{name}: {len(mismatches) - 3} more values differ from the recording"]
    return problems + mismatches
