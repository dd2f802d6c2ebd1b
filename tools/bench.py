"""Write one BENCH_<n>.json: the end-to-end numbers a performance change quotes.

The file holds:

- ``meta``: nproc, the Python and numpy versions and the git sha of the
  checkout;
- ``catalog``: each of the 18 catalog runs at ``--size``, with its
  iterations, wall seconds (fastest of ``REPEAT`` solves), ms per iteration,
  relative error, status, ``digest``, ``kernel_ms`` and ``peak_mem_mb``;
- ``sweep``: ``deblur-uniform-tv``, ``mri`` and ``inpaint`` at 1x, 2x and 4x
  ``--size`` (128, 256 and 512 by default), with the same fields;
  iterations and ms per iteration are reported apart, since algorithmic
  changes trade one for the other;
- ``perfbench``: the final JSON line of ``perfbench/run.py --trace 0`` and
  ``--trace 1`` on each of its four workloads, at its default seed and run
  length, and its ``kernel_ms``.  The file is written either way, but the
  tool exits 1 and names each ``perfbench`` run that reports
  ``"correct": false`` on stderr.

Wall times are raw.  ``kernel_ms`` is the median time of ``perfbench``'s
fixed reference kernel (``SpeedProbe.kernel``), timed before the first solve
and after each one (for a ``perfbench`` entry: before and after its
subprocess): it tracks the host's speed while the run was timed, so
``wall_s / kernel_ms`` compares across ``BENCH_<n>.json`` files where
``wall_s`` alone moves with the shared host, as does a raw ``--trace 1``
per-layer time over its entry's ``kernel_ms``.  ``peak_mem_mb`` is the
``tracemalloc`` peak of one more, untimed solve (built outside tracing).
``digest`` is the first 16 hex digits of the sha256 of the estimate's bytes,
so two files show which runs changed bits.

Solves run one at a time in this process, and the ``perfbench`` runs one at
a time in subprocesses, so nothing else of this tool competes for a core.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/bench.py          # writes the next free BENCH_<n>.json
    PYTHONPATH=src python3 tools/bench.py --size 16 --no-perfbench --out /tmp/bench.json
"""

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from ballast import build_experiment, experiment_names, run_experiment
from microbench import git_sha

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 3  # solves per run; the fastest gives the wall time
SWEEP = ("deblur-uniform-tv", "mri", "inpaint")  # one run per problem family
WORKLOADS = ("deblur-tv", "deblur-syn-256", "mri", "inpaint-256")
KERNEL_CALLS = 3  # reference kernel timings before the first solve and after each


def load_speed_probe():
    """``perfbench/run.py``'s ``SpeedProbe``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SpeedProbe


def kernel_times(probe):
    """``KERNEL_CALLS`` wall times of the reference kernel, in seconds."""
    times = []
    for _ in range(KERNEL_CALLS):
        t0 = time.perf_counter()
        probe.kernel()
        times.append(time.perf_counter() - t0)
    return times


def peak_mem_mb(name, size):
    """``tracemalloc`` peak MiB of one solve, built outside tracing."""
    setup = build_experiment(name, size=size)
    tracemalloc.start()
    try:
        run_experiment(setup)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def timed_run(name, size, probe):
    """Iterations, fastest wall s, ms/iter, relative error, status, the
    estimate's digest, the reference kernel's median ms and the peak traced
    MiB of one run."""
    best = float("inf")
    kernel = kernel_times(probe)
    for _ in range(REPEAT):
        setup = build_experiment(name, size=size)
        t0 = time.perf_counter()
        report = run_experiment(setup)
        best = min(best, time.perf_counter() - t0)
        kernel += kernel_times(probe)
    return {
        "iterations": report.iterations,
        "wall_s": round(best, 4),
        "ms_per_iter": round(1e3 * best / report.iterations, 4),
        "rel_error": report.relative_error,
        "status": report.status,
        "digest": hashlib.sha256(report.estimate.tobytes()).hexdigest()[:16],
        "kernel_ms": round(1e3 * statistics.median(kernel), 4),
        "peak_mem_mb": round(peak_mem_mb(name, size), 4),
    }


def perfbench(workload, trace, probe):
    """The final JSON line of one ``perfbench/run.py`` run, with the reference
    kernel's median ms over its timings before and after the run."""
    kernel = kernel_times(probe)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: ran, but some solve failed its checks
        raise RuntimeError(f"perfbench {workload} --trace {trace} failed:\n{proc.stderr}")
    kernel += kernel_times(probe)
    return {**json.loads(proc.stdout.splitlines()[-1]),
            "kernel_ms": round(1e3 * statistics.median(kernel), 4)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=128,
                        help="catalog image side and sweep base (default 128; at least 16)")
    parser.add_argument("--no-perfbench", action="store_true",
                        help="skip the perfbench runs (about 3 minutes)")
    parser.add_argument("--out", type=Path, help="output file (default: next free BENCH_<n>.json)")
    args = parser.parse_args(argv)
    if args.size < 16:
        parser.error("--size must be >= 16")
    if args.out is not None and not args.out.parent.is_dir():
        parser.error(f"--out: no directory {args.out.parent}")
    out = args.out
    if out is None:
        n = next(n for n in itertools.count(1) if not (ROOT / f"BENCH_{n}.json").exists())
        out = ROOT / f"BENCH_{n}.json"
    probe = load_speed_probe()()
    bench = {
        "meta": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "git_sha": git_sha(), "repeat": REPEAT,
                 "size": args.size},
        "catalog": {name: timed_run(name, args.size, probe) for name in experiment_names()},
        "sweep": {name: {str(size): timed_run(name, size, probe)
                         for size in (args.size, 2 * args.size, 4 * args.size)}
                  for name in SWEEP},
        "perfbench": {} if args.no_perfbench else {
            f"{workload} --trace {trace}": perfbench(workload, trace, probe)
            for workload in WORKLOADS for trace in (0, 1)},
    }
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(out)
    failed = [key for key, entry in bench["perfbench"].items() if not entry["correct"]]
    for key in failed:
        print(f"perfbench {key}: a solve failed its checks", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
