"""Replay the acceptance gate's per-run checks over noise seeds.

``tests/test_acceptance.py`` runs the catalog at seed 0 only, so a change
judged there can pass by the luck of one noise draw.  This tool runs, for
each catalog run and each seed ``0 .. N-1``, the gate's own criterion
function for that run at ``--size``, with the instance built at that seed:
criteria 5, 6 and 7 for ``mri``, ``inpaint`` and ``squares``, and criterion
8, restricted to the one run, for each deblurring run.  The criteria are
loaded from the test file by path and run unchanged, so every bound (the
iteration bounds, criterion 8's ``_REFERENCE_ITERATIONS``) is stated there
alone; a seed fails a run when its criterion fails or its solve diverges.

Per run it prints the iteration range over the seeds against the run's
iteration bound (read from its criterion's source), the most objective
increases after iteration 10 in any seed (criterion 8's ``1e-12`` test) and
the failing seeds.  It exits 1 if any seed fails.  Ten seeds of the 18 runs
at 128^2 take a few minutes on a 2-core host.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/seeds.py --seeds 10
    PYTHONPATH=src python3 tools/seeds.py --seeds 16 --runs deblur-iq-lo-ana mri
"""

import argparse
import contextlib
import importlib.util
import inspect
import io
import re
import sys
from pathlib import Path

import numpy as np

from ballast import DivergenceError
from ballast.harness import build_experiment, experiment_names, run_experiment

ACCEPTANCE = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"


def load_acceptance(path=ACCEPTANCE):
    """The acceptance test module, loaded from ``path`` with its directory
    on ``sys.path`` for its ``conftest`` import."""
    sys.path.insert(0, str(path.parent))
    try:
        spec = importlib.util.spec_from_file_location("seed_replay_acceptance", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(path.parent))
    return module


def run_checks(acceptance):
    """Catalog run name -> ``(criterion function, the run's iteration bound,
    the one-entry ``_REFERENCE_ITERATIONS`` that restricts criterion 8 to the
    run, or None)``."""
    checks = {}
    for name, fn in vars(acceptance).items():
        if not name.startswith("test_criterion_"):
            continue
        source = inspect.getsource(fn)
        limit = re.search(r"report\.iterations <= (\d+)( \* reference)?", source)
        if limit is None:
            continue
        for run in re.findall(r'build_experiment\("([\w-]+)"\)', source):
            checks[run] = (fn, int(limit.group(1)), None)
        if limit.group(2):
            for key, reference in acceptance._REFERENCE_ITERATIONS.items():
                checks["deblur-{}-{}".format(*key)] = (fn, int(limit.group(1)) * reference,
                                                       {key: reference})
    return checks


def increases_after_10(report):
    """Objective increases after iteration 10, by criterion 8's test."""
    tail = np.array([rec.objective for rec in report.history])[10:]
    return int(np.sum(tail[1:] > tail[:-1] * (1 + 1e-12)))


def replay(acceptance, check, size, seed):
    """Run one criterion at ``size`` and ``seed``: ``(passed, reports)``."""
    fn, _, references = check
    reports = []

    def seeded_build(name, **knobs):
        return build_experiment(name, **{"size": size, "seed": seed, **knobs})

    def recorded_run(setup):
        reports.append(run_experiment(setup))
        return reports[-1]

    acceptance.build_experiment = seeded_build
    acceptance.run_experiment = recorded_run
    if references is not None:
        acceptance._REFERENCE_ITERATIONS = references
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            fn()
    except (AssertionError, DivergenceError):
        return False, reports
    return True, reports


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True, help="replay seeds 0 .. N-1")
    parser.add_argument("--size", type=int, default=128, help="image side (default 128)")
    parser.add_argument("--runs", nargs="+", metavar="RUN",
                        help="catalog runs (default: all 18)")
    args = parser.parse_args(argv)
    names = args.runs or experiment_names()
    if args.seeds < 1 or args.size < 16:
        parser.error("--seeds must be positive and --size >= 16")
    unknown = sorted(set(names) - set(experiment_names()))
    if unknown:
        parser.error(f"not catalog runs: {', '.join(unknown)}")
    acceptance = load_acceptance()
    checks = run_checks(acceptance)
    failed_any = False
    for name in names:
        if name not in checks:
            print(f"{name}: no per-run criterion")
            continue
        iterations, increases, failing = [], 0, []
        for seed in range(args.seeds):
            passed, reports = replay(acceptance, checks[name], args.size, seed)
            iterations += [report.iterations for report in reports]
            increases = max([increases] + [increases_after_10(r) for r in reports])
            if not passed:
                failing.append(seed)
        failed_any = failed_any or bool(failing)
        span = f"{min(iterations)}-{max(iterations)}" if iterations else "none"
        print(f"{name}: iterations {span} "
              f"(bound {checks[name][1]}), most increases after 10: {increases}, "
              f"failing seeds: {' '.join(map(str, failing)) or 'none'}")
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())
