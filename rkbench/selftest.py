"""Self-test of the benchmark: exact repeats and the expected trace shape.

Usage (from the repository root):

    python3 rkbench/selftest.py [--workload order trajectory h-scan] [--seed N]

For each workload it makes two traced runs of the same seed (each one
untraced and one traced iteration) and fails (exit 1) when

* either run reports a failed or incorrect CLI run (this includes CSVs
  that differ with tracing on and off);
* a count in ``tracer.EXACT_COUNTS`` differs between the two runs: the
  CLI runs single-threaded in a fixed reduction order, so they repeat;
* the trace loses the workload's shape: on ``order`` the reference
  steps take at least 0.9 of the study time; on ``trajectory`` and
  ``h-scan`` there are no reference steps; on ``trajectory`` the
  step-matrix hit ratio is above 0.99; on ``h-scan`` the stability and
  smoothness probes take most of the traced wall time.
"""

from __future__ import annotations

import argparse
import sys

import run
import tracer
import workloads


def _shape_problems(workload: str, m: dict) -> list[str]:
    problems = []
    if workload == "order":
        if m["harness.reference_s"] < 0.9 * m["harness.study_s"]:
            problems.append("reference phase below 0.9 of the study time")
    elif m["harness.reference_s"] != 0 or m["harness.reference_steps"] != 0:
        problems.append("reference steps outside the order workload")
    if workload == "trajectory" and m["spectral.matrix_hit_ratio"] <= 0.99:
        problems.append("step-matrix hit ratio not above 0.99")
    # self times partition the traced run_config spans, so they sum to its raw time
    traced_s = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    if workload == "h-scan" and m["harness.probe_s"] <= 0.5 * traced_s:
        problems.append("probes are not most of the wall time")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    failures = []
    for workload in args.workload:
        results = [run.run(workload, args.seed, 0, trace=True)["result"] for _ in range(2)]
        for i, result in enumerate(results):
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload}: run {i} incorrect")
        metrics = [{k: v["value"] for k, v in r["metrics"].items()} for r in results]
        if not all(metrics):
            continue
        for name in tracer.EXACT_COUNTS:
            if metrics[0][name] != metrics[1][name]:
                failures.append(f"{workload}: {name} {metrics[0][name]} != {metrics[1][name]}")
        failures += [f"{workload}: {p}" for p in _shape_problems(workload, metrics[0])]
        counts = ", ".join(f"{n}={metrics[0][n]}" for n in tracer.EXACT_COUNTS)
        print(f"{workload}: {counts}", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
