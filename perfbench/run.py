"""Time to a checked C-SALSA solution on four catalog workloads.

Run from the repository root:

    python3 perfbench/run.py --workload deblur-tv --seed 0 --seconds 20 --trace 0

One process drives a closed loop: one client, one solve at a time, and one
OpenBLAS thread (numpy's FFTs and ufuncs are single-threaded anyway).
``--seed`` picks the workload's catalog instances (noise and mask draws).
A run first solves the first instance once, untimed, to fill numpy's FFT
plan cache; with ``--trace 0`` that solve and its build run under
``tracemalloc`` for ``peak_mem_mb``.  Then, for about ``--seconds``, it goes
round-robin over the instances:

- ``--trace 0``: several timed ``build_experiment`` calls of the instance
  (``setup_s`` is their median), then one timed ``run_experiment``; prints
  the end-to-end metrics;
- ``--trace 1``: one untraced solve, then a traced build and solve of the
  same instance (see ``layers.py``), which must reproduce the untraced
  iterations and relative error exactly; prints the per-layer metrics and
  the tracing overhead.

``ms_per_iter`` is the median over timed solves of wall time per iteration;
``iterations`` and ``rel_error`` are means over the instances (each repeats
exactly); ``solve_s = ms_per_iter * iterations / 1000``, the median solve
time when every instance stops at the same iteration.  ``cpu_s`` is built
the same way from process CPU time, so it counts every thread.  With
``--trace 0`` every timed build and solve is scaled to a reference host
speed by a fixed kernel timed just before and after it (``SpeedProbe``);
the unscaled medians are printed on the ``# meta`` line as ``raw_*``.

Every solve is checked (see ``problems``).  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every solve passed its checks.
"""

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

# One OpenBLAS thread, set before numpy loads it.  With the default two on
# this 2-core host, the second thread spins through every BLAS call (cpu_s
# read 2x solve_s) and the solve slows by up to 2x whenever anything else
# wants a core; with one, run-to-run spread roughly halves.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Each timed solve is preceded by this many timed builds of its instance, so
# the setup_s median samples the machine over the whole run, not one burst.
BUILDS_PER_SOLVE = 7

# The shared 2-core host changes speed by 30% and more for seconds to minutes
# at a time, so raw times of one run depend on when it ran.  A fixed
# reference kernel (SpeedProbe) is timed before and after every timed solve,
# and each timed build and solve is scaled by REFERENCE_KERNEL_S / (the
# kernel's mean time around it): the time it would take at the host speed
# where the kernel takes REFERENCE_KERNEL_S, which is about the kernel's
# typical mean time on the 2-core reference host (Intel Xeon, Python 3.11.7,
# numpy 2.4.6).
REFERENCE_KERNEL_S = 0.0090


@dataclass(frozen=True)
class Workload:
    experiment: str
    size: int
    # Catalog instances (noise and mask draws) per run, solved round-robin.
    # deblur-tv's stop test fires anywhere from 119 to 296 iterations
    # depending on the noise draw (catalog seeds 0-63), so one instance would
    # make its iteration count differ by up to 2.5x between benchmark seeds.
    # The others vary by a few iterations; three draws each average out the
    # 1-4% that their relative errors move between draws.
    instances: int
    # Quality floor: a solve whose relative error exceeds this fails.  About
    # 1.25x the worst value seen over catalog seeds 0-29 (0-63 for deblur-tv).
    max_rel_error: float

    def instance_seeds(self, seed):
        return [seed * self.instances + j for j in range(self.instances)]


WORKLOADS = {
    "deblur-tv": Workload("deblur-uniform-tv", 128, instances=16, max_rel_error=0.072),
    "deblur-syn-256": Workload("deblur-uniform-syn", 256, instances=3, max_rel_error=0.08),
    "mri": Workload("mri", 128, instances=3, max_rel_error=0.0125),
    "inpaint-256": Workload("inpaint", 256, instances=3, max_rel_error=0.06),
}

END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "iterations": "count",
    "ms_per_iter": "ms",
    "cpu_s": "s",
    "rel_error": "fraction",
    "peak_mem_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (args.seconds > 0):
        parser.error("--seconds must be positive")
    return args


def problems(report, workload, reference=None):
    """Reasons a finished solve counts as failed; empty when it passed."""
    found = []
    if report.status != "converged":
        found.append(f"status {report.status}")
    if not report.final_constraint_norm <= 1.01 * report.epsilon:
        found.append(
            f"constraint {report.final_constraint_norm:.6g} > 1.01 * eps {report.epsilon:.6g}")
    if not np.all(np.isfinite(report.estimate)):
        found.append("non-finite estimate")
    if not report.relative_error <= workload.max_rel_error:
        found.append(f"rel_error {report.relative_error:.6g} > {workload.max_rel_error}")
    if reference is not None and reference != (report.iterations, report.relative_error):
        found.append(
            f"(iterations, rel_error) = {(report.iterations, report.relative_error)} "
            f"differs from the instance's first solve {reference}")
    return found


class Bench:
    """Solves, checks and the reference result of each instance in one run."""

    def __init__(self, workload, seed):
        import ballast

        self.ballast = ballast
        self.workload = workload
        self.seeds = workload.instance_seeds(seed)
        self.attempted = 0
        self.failures = []
        self.reference = {}  # instance seed -> (iterations, rel_error) of its first solve

    def build(self, seed):
        w = self.workload
        return self.ballast.build_experiment(w.experiment, size=w.size, seed=seed)

    def solve(self, seed, setup, run=None):
        """One checked solve; returns (report or None, wall s, cpu s)."""
        run = run or (lambda: self.ballast.run_experiment(setup))
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            report = run()
        except self.ballast.DivergenceError as err:
            self.failures.append(f"seed {seed}: diverged: {err}")
            return None, math.nan, math.nan
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        found = problems(report, self.workload, self.reference.get(seed))
        self.reference.setdefault(seed, (report.iterations, report.relative_error))
        if found:
            self.failures.append(f"seed {seed}: " + "; ".join(found))
            return None, wall, cpu
        return report, wall, cpu

    def memory_pass(self):
        """Build and solve the first instance under tracemalloc; peak MiB."""
        tracemalloc.start()
        try:
            self.solve(self.seeds[0], self.build(self.seeds[0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def closed_loop(self, seconds, one_solve):
        """Call ``one_solve(seed)`` for each instance, in rounds, for about ``seconds``.

        Only whole rounds run, so every instance is solved equally often and
        traced counts repeat exactly.  At least one round runs; no round
        starts that would likely end past ``seconds``.
        """
        start, rounds = time.perf_counter(), 0
        while True:
            for s in self.seeds:
                one_solve(s)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds:
                return

    def instance_means(self):
        """Mean iterations and rel_error over the instances (each is deterministic)."""
        if not self.reference:
            return math.nan, math.nan
        its, errs = zip(*self.reference.values())
        return statistics.fmean(its), statistics.fmean(errs)


def per_iteration(samples):
    """Median wall and CPU seconds per iteration over (wall, cpu, iterations) samples.

    Per-iteration times do not depend on which instance a solve came from,
    so their median stays robust when the instances stop at different
    iteration counts.
    """
    if not samples:
        return math.nan, math.nan
    return (statistics.median(w / k for w, _, k in samples),
            statistics.median(c / k for _, c, k in samples))


class SpeedProbe:
    """A fixed numpy kernel whose mean time tracks the host's current speed.

    Like a solver iteration it mixes 2-D FFTs, a TV-like finite-difference
    pass and an 8 MiB elementwise stream; it calls no BLAS, so OpenBLAS
    threading does not move it.  Its inputs are fixed, whatever the seed.
    Each sample runs the kernel for a fixed share of the time since the last
    sample and reports the mean call time, which weighs the host's slow
    spells (seconds long) as a solve's wall time does.
    """

    SHARE = 0.05
    MIN_SECONDS = 0.1

    def __init__(self):
        rng = np.random.default_rng(0)
        self.image = rng.standard_normal((256, 256))
        self.stream = rng.standard_normal(2**20)
        self.out = np.empty_like(self.stream)
        self.kernel()  # fills numpy's FFT plan cache

    def kernel(self):
        spectrum = np.fft.fft2(self.image)
        np.fft.ifft2(spectrum * spectrum.conj())
        d = np.diff(self.image, axis=0)
        np.sqrt(d * d + 1.0).sum()
        np.multiply(self.stream, 1.0001, out=self.out)
        np.add(self.out, self.stream, out=self.out)
        np.abs(self.out).sum()

    def sample(self, since_last):
        """Mean kernel time over SHARE * ``since_last`` seconds (at least MIN_SECONDS)."""
        budget = max(self.MIN_SECONDS, self.SHARE * since_last)
        calls, t0 = 0, time.perf_counter()
        while True:
            self.kernel()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= budget:
                return elapsed / calls


def end_to_end(bench, seconds):
    peak_mb = bench.memory_pass()
    probe = SpeedProbe()
    kernel_times = [probe.sample(0.0)]
    # Each entry is (raw value, value scaled to the reference host speed).
    build_times, timed = [], []

    def one_solve(s):
        t0 = time.perf_counter()
        builds = []
        for _ in range(BUILDS_PER_SOLVE):
            t1 = time.perf_counter()
            setup = bench.build(s)
            builds.append(time.perf_counter() - t1)
        report, wall, cpu = bench.solve(s, setup)
        kernel_times.append(probe.sample(time.perf_counter() - t0))
        scale = REFERENCE_KERNEL_S / statistics.fmean(kernel_times[-2:])
        build_times.extend((b, b * scale) for b in builds)
        if report is not None:
            timed.append(((wall, cpu, report.iterations),
                          (wall * scale, cpu * scale, report.iterations)))

    bench.closed_loop(seconds, one_solve)
    raw_wall_it, raw_cpu_it = per_iteration([raw for raw, _ in timed])
    wall_it, cpu_it = per_iteration([scaled for _, scaled in timed])
    iterations, rel_error = bench.instance_means()
    values = {
        "solve_s": wall_it * iterations,
        "setup_s": statistics.median(scaled for _, scaled in build_times),
        "iterations": iterations,
        "ms_per_iter": 1000.0 * wall_it,
        "cpu_s": cpu_it * iterations,
        "rel_error": rel_error,
        "peak_mem_mb": peak_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    extra = {
        "timed_solves": len(timed),
        "setup_builds": len(build_times),
        "cpu_over_wall": cpu_it / wall_it,
        "kernel_ms_by_sample": [round(1000.0 * k, 4) for k in kernel_times],
        "raw_ms_per_iter_by_solve": [round(1000.0 * w / k, 4) for (w, _, k), _ in timed],
        "raw_solve_s": raw_wall_it * iterations,
        "raw_setup_s": statistics.median(raw for raw, _ in build_times),
        "raw_ms_per_iter": 1000.0 * raw_wall_it,
        "raw_cpu_s": raw_cpu_it * iterations,
        "iterations_by_instance": {s: ref[0] for s, ref in sorted(bench.reference.items())},
    }
    return metrics, extra


def useful_iterations(report):
    """First iteration whose MSE is within 1% of the final MSE."""
    final = report.history[-1].mse
    return next(rec.k for rec in report.history if rec.mse <= 1.01 * final)


def per_layer(bench, seconds):
    import layers

    setups = {s: bench.build(s) for s in bench.seeds}
    bench.solve(bench.seeds[0], setups[bench.seeds[0]])  # warm-up, untimed
    tracer = layers.Tracer()
    untraced, traced, useful = [], [], []

    def one_solve(s):
        report, wall, cpu = bench.solve(s, setups[s])
        if report is not None:
            untraced.append((wall, cpu, report.iterations))
        setup = layers.trace_setup(tracer.call("harness.build", bench.build, s), tracer)
        with layers.module_patches(tracer):
            report, wall, cpu = bench.solve(
                s, setup, lambda: tracer.call("solver", bench.ballast.run_experiment, setup))
        if report is not None:
            traced.append((wall, cpu, report.iterations))
            useful.append(useful_iterations(report))

    bench.closed_loop(seconds, one_solve)
    iterations = sum(k for _, _, k in traced)
    if not iterations:
        return {}, {}
    metrics, self_sum_error = layers.layer_metrics(tracer, iterations)
    metrics["solver.useful_iter_frac"] = (sum(useful) / iterations, "fraction")
    (untraced_it, untraced_cpu_it), traced_it = per_iteration(untraced), per_iteration(traced)[0]
    metrics["trace.overhead"] = (traced_it / untraced_it - 1.0, "fraction")
    extra = {
        "timed_solves": len(untraced),
        "cpu_over_wall": untraced_cpu_it / untraced_it,
        "traced_solves": len(traced),
        "untraced_ms_per_iter": 1000.0 * untraced_it,
        "traced_ms_per_iter": 1000.0 * traced_it,
        "spans": len(tracer.names),
        "self_time_sum_minus_solve_s": self_sum_error,
    }
    return metrics, extra


def git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ballast" / "__init__.py").is_file():
        print(f"error: {SRC / 'ballast'} not found; run from a ballast checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed)
    if args.trace:
        metrics, extra = per_layer(bench, args.seconds)
    else:
        metrics, extra = end_to_end(bench, args.seconds)

    meta = {
        "workload": args.workload,
        "experiment": workload.experiment,
        "size": workload.size,
        "seed": args.seed,
        "instance_seeds": bench.seeds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads_env": {v: os.environ.get(v, "unset")
                        for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": git_commit(ROOT),
        **extra,
    }
    correct = not bench.failures
    failed = len(bench.failures)
    print("# meta " + json.dumps(meta))
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}")
    print(f"{'failed_frac':45s} {failed / bench.attempted:.6g} fraction"
          f" ({failed} of {bench.attempted} solves)")
    for failure in bench.failures:
        print("FAILED " + failure)
    print("verdict: " + ("correct" if correct else "INCORRECT"))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
