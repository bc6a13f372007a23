"""Record the CSV values the correctness gate compares against.

Usage (from the repository root):

    python3 rkbench/record.py --seeds 0-12 [--workload order ...]

Runs every config of each workload once per seed, untraced, and merges
the CSV fingerprints (hash, header, sampled rows; see
``checks.fingerprint``) into ``rkbench/recorded.json``.  Run it only on
a commit whose outputs are trusted: the recording is the reference a
later change is checked against.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
import run
import workloads


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload: str, seed: int) -> dict:
    out = {}
    work = run.WORK / "record"
    for k, cfg in enumerate(workloads.configs(workload, seed)):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = work / "config.json"
        config.write_text(json.dumps(cfg))
        result, stdout, problems = run.spawn(config, work, work / "result.json", k)
        if problems or result["exit_code"] != 0:
            raise SystemExit(f"{workload} seed {seed} config {k} failed: {problems or stdout}")
        for name in workloads.csv_names(cfg["experiment"]):
            out[f"{k}/{name}"] = checks.fingerprint((work / name).read_bytes())
        print(f"{workload} seed {seed} config {k}: {stdout.strip()}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record CSV values for the benchmark gate")
    parser.add_argument("--seeds", default="0", help="seed or inclusive range, e.g. 0-12")
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    data = json.loads(run.RECORDED.read_text()) if run.RECORDED.is_file() else {}
    for workload in args.workload:
        for seed in _seed_range(args.seeds):
            data.setdefault(workload, {})[str(seed)] = record(workload, seed)
            run.RECORDED.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
