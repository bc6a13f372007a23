"""rkspectral benchmark: closed-loop CLI runs with one client.

Usage (from the repository root):

    python3 rkbench/run.py --workload {order,trajectory,h-scan} --seed N \
        --seconds S --trace {0,1}

One iteration of a workload runs its CLI configs (see ``workloads.py``)
one after another, each as ``rkspectral run <config>`` in a fresh
process with the default single thread, so nothing else contends for
the cores.  Iterations repeat until ``--seconds`` have passed.  Before
the loop, one warm-up process and ``SETUP_PROBES`` measured processes
only import the package, so ``setup_s`` has enough samples.

``--trace 0`` reports the end-to-end metrics of untraced iterations,
in speed-normalized seconds (see ``child.py``; raw seconds are printed
beside them):

* ``wall_s``: per iteration, the summed time from each call of
  ``cli.run_config`` to its return; median over iterations;
* ``setup_s``: process start until just before ``run_config`` (the
  interpreter and the numpy, scipy and package imports); median over
  every process of the run;
* ``cpu_s``: user + system CPU of the iteration's ``run_config`` calls;
* ``peak_rss_mb``: the largest peak RSS among the iteration's processes;
* ``pass_frac``: CLI runs that passed every check over runs attempted
  (1 - fail_frac; the failure fraction itself is printed beside it).

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (``tracer.py``), plus
``trace.wall_s`` and ``trace.overhead_s``, the traced minus the
untraced median ``wall_s``.

Every CLI run is checked (``checks.py``): exit 0, ``"pass": true``,
well-formed CSVs matching the values recorded at the defining commit,
CSV bytes identical across the iterations of the run and with tracing
on and off.  Counts named in ``tracer.EXACT_COUNTS`` must repeat
exactly across traced iterations.  The last line of standard output is
the JSON result; the lines before it give quartiles, sample counts and
the recorded fields.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".rkbench"
RECORDED = HERE / "recorded.json"
CHILD = HERE / "child.py"

SETUP_PROBES = 4
# Every run must end within 180 s; no iteration starts that is
# predicted to end after this.
HARD_LIMIT_S = 168.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


def _clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def spawn(config, out_dir, result_path, run_id, spans_path=None, timeout=HARD_LIMIT_S):
    """Run child.py once; returns (result dict or None, stdout, problems)."""
    args = [sys.executable, str(CHILD), str(ROOT), str(config), str(out_dir),
            str(result_path), str(_clock_ns()), str(run_id)]
    if spans_path is not None:
        args.append(str(spans_path))
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "", [f"run {run_id} timed out after {timeout:.0f} s"]
    if proc.returncode != 0 or not Path(result_path).is_file():
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return None, stdout, [f"run {run_id} crashed (exit {proc.returncode}): {tail[0]}"]
    result = json.loads(Path(result_path).read_text())
    Path(result_path).unlink()
    return result, stdout, []


class Workload:
    def __init__(self, name: str, seed: int):
        self.configs = workloads.configs(name, seed)
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_paths = []
        for k, cfg in enumerate(self.configs):
            path = self.work / f"config{k}.json"
            path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
            self.config_paths.append(path)
        recorded = json.loads(RECORDED.read_text()) if RECORDED.is_file() else {}
        self.recorded = recorded.get(name, {}).get(str(seed))
        self.first_csvs: dict = {}  # (config index, csv name) -> bytes of iteration 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fields = {"recorded_identical": None, "repeat_identical": None,
                       "trace_identical": None}
        self.run_id = 0

    def _note(self, field, same):
        self.fields[field] = same if self.fields[field] is None else self.fields[field] and same

    def cli_run(self, k: int, traced: bool, deadline: float) -> dict | None:
        """One CLI run of config k, checked; returns its measurements."""
        self.run_id += 1
        run_dir = self.work / f"run{self.run_id}"
        run_dir.mkdir()
        spans = self.work / f"spans{self.run_id}.npz" if traced else None
        result, stdout, problems = spawn(
            self.config_paths[k], run_dir, self.work / f"result{self.run_id}.json",
            self.run_id, spans, deadline - time.monotonic())
        self.attempted += 1
        if result is not None:
            problems += self._check(k, run_dir, result, stdout, traced)
        if result is not None and traced and not problems:
            result["totals"] = tracer.layer_totals(spans)
        if spans is not None and spans.exists():
            os.replace(spans, self.work / "spans_last.npz")
        shutil.rmtree(self.work / "last_run", ignore_errors=True)
        run_dir.rename(self.work / "last_run")
        if problems:
            self.failed += 1
            self.problems += problems
            return None
        return result

    def _check(self, k, run_dir, result, stdout, traced) -> list[str]:
        experiment = self.configs[k]["experiment"]
        problems = []
        if result["exit_code"] != 0:
            problems.append(f"{experiment}: exit code {result['exit_code']}")
        summary_path = run_dir / f"{experiment.replace('-', '_')}_summary.json"
        if not summary_path.is_file():
            return problems + [f"{experiment}: no summary JSON"]
        summary = json.loads(summary_path.read_text())
        if summary.get("pass") is not True or "FAIL" in stdout:
            problems.append(f"{experiment}: verdict not PASS: {stdout.strip()}")
        for name in workloads.csv_names(experiment):
            path = run_dir / name
            if not path.is_file():
                problems.append(f"{experiment}: missing {name}")
                continue
            data = path.read_bytes()
            recorded = (self.recorded or {}).get(f"{k}/{name}")
            problems += checks.check_csv(name, data, summary["config"], recorded)
            if recorded is not None:
                self._note("recorded_identical", checks.sha256(data) == recorded["sha256"])
            first = self.first_csvs.setdefault((k, name), data)
            if first is not data:
                field = "trace_identical" if traced else "repeat_identical"
                self._note(field, first == data)
                if first != data:
                    problems.append(f"{name}: CSV bytes differ from the first iteration"
                                    + (" with tracing on" if traced else ""))
        return problems

    def iteration(self, traced: bool, deadline: float) -> dict | None:
        runs = [self.cli_run(k, traced, deadline) for k in range(len(self.configs))]
        if any(r is None for r in runs):
            return None
        out = {name: sum(r[name] for r in runs)
               for name in ("wall_s", "cpu_s", "wall_raw_s", "cpu_raw_s")}
        out["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
        out["speed_factor"] = statistics.fmean(r["speed_factor"] for r in runs)
        out["setup"] = [r["setup_s"] for r in runs]
        if traced:
            totals = {}
            for r in runs:
                totals = tracer.add_totals(totals, r["totals"])
            out["layers"] = tracer.finalize(totals)
        return out

    def setup_probes(self) -> list[float]:
        samples = []
        for i in range(SETUP_PROBES + 1):
            self.run_id += 1
            result, _, problems = spawn("-", self.work, self.work / f"probe{i}.json",
                                        self.run_id)
            if problems:
                self.problems += problems
            elif i > 0:  # the first probe warms the page and bytecode caches
                samples.append(result["setup_s"])
        return samples


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _line(name, values, unit):
    q1, q3 = _quartiles(values)
    return (f"{name}: median {statistics.median(values):.6g} {unit} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    w = Workload(workload, seed)
    setup = [] if trace else w.setup_probes()
    plain, traced = [], []
    tried = {False: 0, True: 0}  # iterations attempted, by traced or not
    last = {False: None, True: None}  # duration of the latest one
    while True:
        kind = trace and tried[True] < tried[False]
        if tried[False] and (tried[True] or not trace) and time.monotonic() - start >= seconds:
            break
        # tracing has cost 10-30% of an untraced iteration
        guess = last[kind] or (1.3 * last[False] if last[False] else 0.0)
        if tried[False] and time.monotonic() + 1.1 * guess > deadline:
            break
        t0 = time.monotonic()
        it = w.iteration(kind, deadline)
        last[kind] = time.monotonic() - t0
        tried[kind] += 1
        if it is not None:
            (traced if kind else plain).append(it)
            setup += it["setup"]

    lines = [f"workload {workload} seed {seed}: {len(plain)} untraced and "
             f"{len(traced)} traced iterations, {w.attempted} CLI runs, {w.failed} failed"]
    metrics = {}
    if plain:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            values = [it[name] for it in plain]
            lines.append(_line(name, values, END_TO_END[name]))
            metrics[name] = statistics.median(values)
        for name in ("wall_raw_s", "cpu_raw_s", "speed_factor"):
            lines.append(_line(name, [it[name] for it in plain], "" if "factor" in name else "s"))
    if setup:
        lines.append(_line("setup_s", setup, "s"))
        metrics["setup_s"] = statistics.median(setup)
    fail_frac = w.failed / max(w.attempted, 1)
    metrics["pass_frac"] = 1.0 - fail_frac
    lines.append(f"pass_frac: {metrics['pass_frac']:.6g} (fail_frac {fail_frac:.6g})")

    counts_repeat = True
    layer_metrics = {}
    if traced:
        for name in tracer.PER_LAYER:
            if name in traced[0]["layers"]:
                layer_metrics[name] = statistics.median(it["layers"][name] for it in traced)
        layer_metrics["trace.wall_s"] = statistics.median(it["wall_s"] for it in traced)
        for name in tracer.EXACT_COUNTS:
            values = {it["layers"][name] for it in traced}
            if len(values) > 1:
                counts_repeat = False
                w.problems.append(f"{name} differs across traced iterations: {sorted(values)}")
        if plain:
            layer_metrics["trace.overhead_s"] = layer_metrics["trace.wall_s"] - metrics["wall_s"]
        for name, value in layer_metrics.items():
            lines.append(f"{name}: {value:.6g} {tracer.PER_LAYER[name][0]}")
    fields = dict(w.fields, counts_repeat=counts_repeat if len(traced) > 1 else None)
    lines.append("fields: " + json.dumps(fields, sort_keys=True))
    lines.append("environment: " + json.dumps(environment(), sort_keys=True))
    lines += [f"problem: {p}" for p in w.problems[:20]]

    wanted = list(tracer.PER_LAYER) if trace else list(END_TO_END)
    available = layer_metrics if trace else metrics
    units = {name: unit for name, (unit, _) in tracer.PER_LAYER.items()} if trace else END_TO_END
    correct = (w.failed == 0 and not w.problems and all(n in available for n in wanted))
    result = {
        "correct": correct,
        "attempted": max(w.attempted, 1),
        "failed": w.failed if w.attempted else 1,
        "metrics": {n: {"value": available[n], "unit": units[n]}
                    for n in wanted if n in available},
    }
    report = {"lines": lines, "result": result, "fields": fields,
              "plain": plain, "traced": traced, "setup": setup}
    (w.work / "report.json").write_text(json.dumps(report, indent=1, default=str))
    return {"lines": lines, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "rkspectral" / "cli.py").is_file():
        print(f"error: no rkspectral sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
