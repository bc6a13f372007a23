"""Workload definitions: the CLI configs one workload iteration runs.

Each workload is a fixed sequence of ``rkspectral run <config>`` calls.
Seed 0 reproduces the acceptance-criteria inputs (standard initial
data, the log-spaced stability ladder).  Any other seed switches the
order and smoothness studies to ``initial_data: random`` with that
config ``seed`` (which the CLI also uses to draw the tangent direction),
jitters the stability step sizes, and scales the conservation step
sizes by up to 2% (see the comment there), so the same seed always
yields the same configs.
"""

from __future__ import annotations

import random

WORKLOADS = ("order", "trajectory", "h-scan")

# Number of step sizes in the h-scan stability sweep, log-spaced on [1e-4, 1].
H_SCAN_POINTS = 400
_H_MIN_EXP, _H_MAX_EXP = -4.0, 0.0


def _seeded(cfg: dict, seed: int) -> dict:
    if seed == 0:
        return cfg
    return {**cfg, "initial_data": "random", "seed": seed}


def _h_scan_values(seed: int) -> list[float]:
    """Log-spaced step sizes; nonzero seeds shift each point within its cell."""
    step = (_H_MAX_EXP - _H_MIN_EXP) / (H_SCAN_POINTS - 1)
    rng = random.Random(seed)
    values = []
    for i in range(H_SCAN_POINTS):
        jitter = 0.0 if seed == 0 else rng.uniform(-0.4, 0.4)
        exponent = min(max(_H_MIN_EXP + (i + jitter) * step, _H_MIN_EXP), _H_MAX_EXP)
        values.append(10.0**exponent)
    return values


def configs(workload: str, seed: int) -> list[dict]:
    """The CLI configs of one iteration of ``workload`` at ``seed``."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if workload == "order":
        return [
            # acceptance criterion 6: gl:2 full order on cubic NLS
            _seeded(
                {"experiment": "convergence", "problem": "nls-cubic-periodic",
                 "tableau": "gl:2", "n": 64, "T": 0.5, "h_max": 0.02, "levels": 5,
                 "fp_tol": 1e-13, "seed": 0},
                seed,
            ),
            # acceptance criterion 9: tangent check with the CLI defaults
            _seeded({"experiment": "tangent-check"}, seed),
        ]
    if workload == "trajectory":
        # Both runs keep the standard data for every seed; a nonzero seed
        # scales each run's step size by a factor in [0.98, 1.02] instead.
        # With random data the NLS run's stage iterations depend on the
        # data's amplitude (wall_s spread 13% over seeds 1-5, against 2%),
        # and the wave run's no-drift verdict (final <= 2 x early maximum)
        # fails for seeds 4, 11, 15, 17 and 20 of 1-20.
        rng = random.Random(seed)
        scale = [1.0 if seed == 0 else rng.uniform(0.98, 1.02) for _ in range(2)]
        return [
            # acceptance criterion 8: mass conservation, 2000 gl:1 steps
            {"experiment": "conservation", "problem": "nls-cubic-periodic",
             "tableau": "gl:1", "n": 64, "h": 5e-3 * scale[0], "steps": 2000,
             "fp_tol": 1e-13, "seed": seed},
            # two-component DST-I case: energy without drift at n=256
            {"experiment": "conservation", "problem": "wave-dirichlet-compatible",
             "tableau": "gl:1", "n": 256, "h": 5e-3 * scale[1], "steps": 2000,
             "fp_tol": 1e-13, "seed": seed},
        ]
    if workload == "h-scan":
        return [
            {"experiment": "stability", "grid": "wave", "n": 1024, "tableau": "gl:3",
             "n_steps": 10, "h_values": _h_scan_values(seed), "seed": seed},
            _seeded({"experiment": "smoothness", "n": 512, "q": 4}, seed),
            _seeded({"experiment": "smoothness", "n": 1024, "q": 4}, seed),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose one of {list(WORKLOADS)}")


def csv_names(experiment: str) -> list[str]:
    """The CSV artifacts the CLI writes for an experiment."""
    return {
        "convergence": ["convergence.csv"],
        "tangent-check": ["tangent_convergence.csv"],
        "conservation": ["conservation.csv"],
        "stability": ["stability.csv"],
        "smoothness": ["smoothness.csv"],
    }[experiment]

