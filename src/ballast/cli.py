"""Command-line front end: run catalog experiments and the self-check suite.

Each run prints one line, to stderr when it failed.  The exit code is the
worst run's: 0 converged (or finished feasible), 1 exhausted its budget while
infeasible, 2 usage, configuration or memory error or outputs that cannot be
written, 3 divergence.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import harness, pnm
from .solver import FEASIBILITY_SLACK, DivergenceError

__all__ = ["main", "parse_config", "write_run_outputs", "ConfigError"]

_ENV_OUT = "BALLAST_OUT"

_CONFIG_KEYS = {
    "experiment": str,
    "name": str,
    **{knob: kind for knob, (kind, _) in harness.RUN_KNOBS.items()},
}


class ConfigError(ValueError):
    pass


def parse_config(path):
    """Read a flat ``key = value`` file (# comments, blank lines allowed)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    settings = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} "
                f"(valid: {', '.join(sorted(_CONFIG_KEYS))})"
            )
        if key in settings:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        caster = _CONFIG_KEYS[key]
        try:
            settings[key] = caster(value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: cannot parse {value!r} as {caster.__name__}"
            ) from None
        if key == "name" and (value in ("", ".", "..") or os.path.basename(value) != value):
            raise ConfigError(
                f"{path}:{lineno}: name {value!r} is not a plain directory name")
    if "experiment" not in settings:
        raise ConfigError(f"{path}: missing required key 'experiment'")
    return settings


def _fmt(x):
    return repr(float(x))


# the files a run writes, by their key in summary.json's "files"
_RUN_FILES = {"history": "history.csv", "timing": "timing.csv", "summary": "summary.json",
              "truth": "truth.pgm", "reconstruction": "reconstruction.pgm",
              "degraded": "degraded.pgm", "mask": "mask.pbm"}


def _clear_run_dir(run_dir):
    """Make ``run_dir`` and delete the files an earlier run wrote there, only those."""
    os.makedirs(run_dir, exist_ok=True)
    for fname in set(_RUN_FILES.values()) & set(os.listdir(run_dir)):
        os.remove(os.path.join(run_dir, fname))


def _write_history(run_dir, history):
    """Write ``history.csv`` (one row per iteration record) into ``run_dir``."""
    with open(os.path.join(run_dir, "history.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("k,objective,constraint_norm,primal_residual,mse,relative_change\n")
        for rec in history:
            fh.write(
                f"{rec.k},{_fmt(rec.objective)},{_fmt(rec.constraint_norm)},"
                f"{_fmt(rec.primal_residual)},{_fmt(rec.mse)},{_fmt(rec.relative_change)}\n"
            )


def _write_summary(run_dir, summary):
    """Write ``summary.json`` into ``run_dir``."""
    with open(os.path.join(run_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def write_run_outputs(report, run_dir):
    """Write history.csv, timing.csv, summary.json, and the image files.

    They replace an earlier run's files.  Wall-clock times go only into
    timing.csv, so every other artifact is byte-identical across repeat runs.
    """
    _clear_run_dir(run_dir)
    setup = report.setup
    inst = setup.instance
    paths = dict(_RUN_FILES)

    _write_history(run_dir, report.history)
    with open(os.path.join(run_dir, "timing.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,wall_time_s\n")
        for rec in report.history:
            fh.write(f"{rec.k},{_fmt(rec.wall_time)}\n")

    vmin, vmax = float(np.min(inst.truth)), float(np.max(inst.truth))
    for key, image in (("truth", inst.truth), ("reconstruction", report.estimate),
                       ("degraded", inst.degraded)):
        pnm.write_pgm16(os.path.join(run_dir, paths[key]), pnm.quantize_u16(image, vmin, vmax))

    if inst.operator.mask is None:
        del paths["mask"]
    else:
        pnm.write_pbm(os.path.join(run_dir, paths["mask"]), inst.operator.mask)

    _write_summary(run_dir, {
        "name": setup.name,
        "formulation": setup.formulation,
        "penalty": setup.penalty.kind,
        "status": report.status,
        "partial": False,
        "iterations": report.iterations,
        "epsilon": report.epsilon,
        "sigma": inst.sigma,
        "mu": setup.config.mu,
        "max_iterations": setup.config.max_iterations,
        "seed": inst.seed,
        "final": {
            "objective": report.final_objective,
            "constraint_norm": report.final_constraint_norm,
            "relative_change": report.final_relative_change,
            "mse": report.final_mse,
            "degraded_mse": report.degraded_mse,
            "isnr_db": report.isnr_db,
            "relative_error": report.relative_error,
        },
        "operator_calls": {
            "forward": report.forward_calls,
            "adjoint": report.adjoint_calls,
        },
        "quantization": {"vmin": vmin, "vmax": vmax},
        "files": paths,
    })
    return paths


def _execute_run(spec):
    """Worker for one run: its exit code and its report line."""
    run_name = spec.get("name") or spec["experiment"]
    run_dir = spec["run_dir"]
    try:
        setup = harness.build_experiment(
            spec["experiment"],
            **{knob: spec[knob] for knob in harness.RUN_KNOBS if knob in spec},
        )
        try:
            report = harness.run_experiment(setup)
        except DivergenceError as exc:
            # keep whatever history exists so the blow-up can be inspected
            _clear_run_dir(run_dir)
            _write_history(run_dir, exc.history)
            _write_summary(run_dir, {"name": spec["experiment"], "status": "diverged",
                                     "partial": True, "message": str(exc),
                                     "iterations": len(exc.history)})
            return 3, f"{run_name}: diverged: {exc}"
        write_run_outputs(report, run_dir)
    except ValueError as exc:
        return 2, f"{run_name}: error: {exc}"
    except MemoryError:
        size = f"size {spec['size']}" if "size" in spec else "the default size"
        return 2, f"{run_name}: error: not enough memory for {size}; pass a smaller --size"
    except OSError as exc:
        return 2, f"{run_name}: error: cannot write outputs: {exc}"
    # a converged run is feasible: check_stop converges on this same test
    feasible = report.final_constraint_norm <= (1.0 + FEASIBILITY_SLACK) * report.epsilon
    return 0 if feasible else 1, (
        f"{run_name}: {report.status} after {report.iterations} iterations, "
        f"mse={report.final_mse:.4g}, constraint={report.final_constraint_norm:.4g} "
        f"(epsilon={report.epsilon:.4g}) -> {run_dir}"
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ballast",
        description="Constrained ADMM solvers for imaging inverse problems.",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="run the self-check suite (same as the 'validate' subcommand)",
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run one or more catalog experiments")
    run.add_argument("--experiment", help="catalog experiment name")
    run.add_argument(
        "--config", action="append", default=[], metavar="FILE",
        help="flat key=value config file; repeatable, one run per file",
    )
    for knob, (kind, text) in harness.RUN_KNOBS.items():
        run.add_argument(f"--{knob}", type=kind, help=text)
    run.add_argument("--jobs", type=int, default=1, help="run up to this many configs at once")
    run.add_argument("--out", help=f"output root (default from ${_ENV_OUT} or ./runs)")
    run.add_argument("--overwrite", action="store_true",
                     help="replace the files of a run already in its directory")
    run.add_argument("--list", action="store_true", help="list experiment names and exit")

    sub.add_parser("validate", help="run the self-check suite")
    return parser


def _cmd_validate():
    from .validate import run_suite

    ok, results, elapsed = run_suite()
    for res in results:
        print(res)
    print(f"{'OK' if ok else 'FAILED'} ({len(results)} checks, {elapsed:.1f}s)")
    if elapsed > 60.0:
        print(f"warning: validate suite took {elapsed:.1f}s (budget 60s)",
              file=sys.stderr)
    return 0 if ok else 1


def _worker_count(jobs, runs):
    """Worker processes for ``runs`` configs under ``--jobs jobs``."""
    return max(1, min(jobs, runs, os.cpu_count() or 1))


def _cmd_run(args):
    if args.list:
        for name in harness.experiment_names():
            print(name)
        return 0
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.out == "":
        print("error: --out must not be empty", file=sys.stderr)
        return 2
    specs = []
    for cfg_path in args.config:
        try:
            settings = parse_config(cfg_path)
        except (OSError, ConfigError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        specs.append(settings)
    if args.experiment:
        specs.append({"experiment": args.experiment})
    if not specs:
        print("error: nothing to run; pass --experiment or --config", file=sys.stderr)
        return 2

    overrides = {
        knob: getattr(args, knob)
        for knob in harness.RUN_KNOBS
        if getattr(args, knob) is not None
    }
    out_root = args.out or os.environ.get(_ENV_OUT) or "runs"
    if os.path.exists(out_root) and not os.path.isdir(out_root):
        print(f"error: output root {out_root} is not a directory", file=sys.stderr)
        return 2
    for spec in specs:
        spec.update(overrides)
        spec["experiment"] = harness.canonical_experiment_name(spec["experiment"])
        if spec["experiment"] not in harness.EXPERIMENTS:
            print(
                f"error: unknown experiment {spec['experiment']!r} "
                f"(see 'ballast run --list')",
                file=sys.stderr,
            )
            return 2
        run_name = spec.get("name") or spec["experiment"]
        spec["run_dir"] = os.path.join(out_root, run_name)

    dirs = [spec["run_dir"] for spec in specs]
    if len(set(dirs)) != len(dirs):
        print("error: two runs target the same output directory; set distinct names",
              file=sys.stderr)
        return 2
    if not args.overwrite:
        for d in dirs:
            if os.path.exists(os.path.join(d, "summary.json")):
                print(
                    f"error: {d} already holds a run; pass --overwrite to replace it",
                    file=sys.stderr,
                )
                return 2

    workers = _worker_count(args.jobs, len(specs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_execute_run, specs))
    else:
        outcomes = [_execute_run(spec) for spec in specs]

    worst = 0
    for code, line in outcomes:
        print(line, file=sys.stderr if code >= 2 else sys.stdout)
        worst = max(worst, code)
    return worst


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.validate or args.command == "validate":
        return _cmd_validate()
    if args.command == "run":
        return _cmd_run(args)
    parser.print_usage(sys.stderr)
    print("error: pass a subcommand ('run' or 'validate') or --validate", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
