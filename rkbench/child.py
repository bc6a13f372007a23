"""One benchmark run: a fresh interpreter that executes one CLI config.

Usage: python3 child.py ROOT CONFIG OUT_DIR RESULT_JSON T0_NS RUN_ID [SPANS_NPZ]

A CONFIG of ``-`` only sets up (imports) and reports the set-up time.
``T0_NS`` is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so set-up covers interpreter start-up and the
numpy, scipy and ``rkspectral`` imports.  The run time is taken from
the call of ``cli.run_config`` to its return; CPU time over the same
interval (all threads); peak RSS is the process's.  With ``SPANS_NPZ``
the run is traced and its spans are written there at exit.

Speed sampling.  The machine this benchmark was defined on runs its
cores at a speed that drifts by up to 2x over seconds to minutes (other
tenants; the same fixed loop took 9 to 17 ms).  So the process samples
its own core's speed: every ``SAMPLE_PERIOD_S`` a SIGALRM handler times
two fixed kernels, a pure-Python loop and, once numpy is imported,
small FFTs, DST-I transforms and batched 4x4 and 6x6 inverses like the
ones the package runs.  Each interval is reported twice: raw, and
speed-normalized, i.e. with the handler's own time removed and scaled
by the mean over the samples inside it of (reference kernel time /
kernel time).  Normalized seconds are seconds at the speed where the
kernels take their reference times, their usual times on the defining
machine.  Set-up is normalized by the Python kernel alone, the run by
the sum of both: under contention the numpy work slows more than the
Python loop, and the sum tracked the package's slowdowns best
(run-to-run CV 4% against 9% for the loop alone and 21% raw).  The
handler costs about 2% of the run; in a traced run that share also
falls inside whichever span is open.
"""

import json
import resource
import signal
import sys
import time

SAMPLE_PERIOD_S = 0.1
PY_REF_S = 0.4e-3  # usual kernel times on the defining machine
NUMPY_REF_S = 1.2e-3

_samples = []  # (start, Python kernel time, numpy kernel time or None)
_numpy_data = None  # kernel inputs, set once numpy is imported


def _py_kernel():
    acc = 0.0
    for i in range(4000):
        acc += (i * 1.000001) % 7.0
    return acc


def _numpy_kernel(np, dst, x, small, large):
    for _ in range(8):
        y = np.fft.ifft(x, axis=-1) * 256
        np.fft.fft(y * np.abs(y) ** 2, axis=-1)
        np.linalg.inv(small)
        dst(x.real, type=1, axis=-1)
    np.linalg.inv(large)


def _sample(signum, frame):
    t0 = time.monotonic()
    _py_kernel()
    t1 = time.monotonic()
    if _numpy_data is None:
        _samples.append((t0, t1 - t0, None))
        return
    _numpy_kernel(*_numpy_data)
    _samples.append((t0, t1 - t0, time.monotonic() - t1))


def _enable_numpy_kernel():
    global _numpy_data
    import numpy as np
    from scipy.fft import dst

    rng = np.random.default_rng(0)
    _numpy_data = (np, dst, rng.standard_normal((2, 256)) + 0j,
                   rng.standard_normal((64, 4, 4)), rng.standard_normal((256, 6, 6)))


def _normalized(start, end, with_numpy):
    """(raw seconds, seconds spent sampling, speed factor) of [start, end)."""
    inside = [(p, n) for t, p, n in _samples if start <= t < end]
    spent = sum(p + (n or 0.0) for p, n in inside)
    if with_numpy:
        ratios = [(PY_REF_S + NUMPY_REF_S) / (p + n) for p, n in inside if n is not None]
    else:
        ratios = [PY_REF_S / p for p, _ in inside]
    factor = sum(ratios) / len(ratios) if ratios else 1.0
    return end - start, spent, factor


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    root, config, out_dir, result_path, t0_ns, run_id = argv[:6]
    spans_path = argv[6] if len(argv) > 6 else None
    signal.signal(signal.SIGALRM, _sample)
    signal.siginterrupt(signal.SIGALRM, False)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    sys.path.insert(0, f"{root}/src")
    from rkspectral import cli

    tracer = None
    if spans_path:
        import tracer as tracing  # this script's directory is on sys.path

        tracer = tracing.install(int(run_id))
    ready = time.monotonic()
    raw, spent, factor = _normalized(int(t0_ns) * 1e-9, ready, with_numpy=False)
    _enable_numpy_kernel()
    result = {"setup_raw_s": raw, "setup_s": (raw - spent) * factor}
    if config != "-":
        cpu0 = _cpu_s()
        start = time.monotonic()
        code = cli.run_config(config, out_dir)
        done = time.monotonic()
        cpu = _cpu_s() - cpu0
        raw, spent, factor = _normalized(start, done, with_numpy=True)
        result.update({
            "exit_code": code,
            "wall_raw_s": raw,
            "wall_s": (raw - spent) * factor,
            "cpu_raw_s": cpu,
            "cpu_s": (cpu - spent) * factor,
            "speed_factor": factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    if tracer is not None:
        tracer.save(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
