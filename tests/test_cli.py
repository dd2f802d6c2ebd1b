"""Command-line front end tests, run in-process through cli.main."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ballast import cli, harness, pnm
from ballast.solver import DivergenceError, IterationRecord


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# validate command
# ---------------------------------------------------------------------------

def test_validate_subcommand_passes(capsys):
    assert run_cli("validate") == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == 9
    assert "OK (9 checks" in out


def test_validate_flag_spelling(capsys):
    assert run_cli("--validate") == 0
    assert "OK (9 checks" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli() == 2
    assert "subcommand" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run command basics
# ---------------------------------------------------------------------------

def test_list_prints_all_experiments(capsys):
    assert run_cli("run", "--list") == 0
    names = capsys.readouterr().out.split()
    assert names == harness.experiment_names()
    assert len(names) == 18


def test_unknown_experiment_is_usage_error(capsys):
    assert run_cli("run", "--experiment", "warp-field") == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_nothing_to_run_is_usage_error(capsys):
    assert run_cli("run") == 2
    assert "nothing to run" in capsys.readouterr().err


def test_run_writes_all_outputs(tmp_path, capsys):
    code = run_cli("run", "--experiment", "mri", "--size", "32", "--lines", "8",
                   "--out", str(tmp_path))
    assert code == 0
    run_dir = tmp_path / "mri"
    for fname in ("history.csv", "timing.csv", "summary.json", "truth.pgm",
                  "reconstruction.pgm", "degraded.pgm", "mask.pbm"):
        assert (run_dir / fname).exists(), fname

    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["name"] == "mri"
    assert summary["status"] == "converged"
    assert summary["partial"] is False
    assert summary["final"]["constraint_norm"] <= 1.01 * summary["epsilon"]
    assert summary["operator_calls"]["forward"] > 0
    assert set(summary["files"]) >= {"history", "timing", "summary", "truth",
                                     "reconstruction", "degraded", "mask"}

    header = (run_dir / "history.csv").read_text().splitlines()[0]
    assert header == "k,objective,constraint_norm,primal_residual,mse,relative_change"
    # a converged run shows the value the stop test saw
    assert summary["final"]["relative_change"] <= 3e-4
    mask = pnm.read_pbm(run_dir / "mask.pbm")
    assert mask.shape == (32, 32)
    assert mask[0, 0]
    recon = pnm.read_pgm16(run_dir / "reconstruction.pgm")
    assert recon.shape == (32, 32)
    out = capsys.readouterr().out
    assert "mri: converged" in out


def test_repeat_runs_are_byte_identical_apart_from_timing(tmp_path):
    for sub in ("a", "b"):
        assert run_cli("run", "--experiment", "inpaint", "--size", "32",
                       "--out", str(tmp_path / sub)) == 0
    for fname in ("history.csv", "summary.json", "truth.pgm",
                  "reconstruction.pgm", "degraded.pgm", "mask.pbm"):
        a = (tmp_path / "a" / "inpaint" / fname).read_bytes()
        b = (tmp_path / "b" / "inpaint" / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"


@pytest.mark.parametrize("experiment", ["deblur-uniform-tv", "mri"])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, experiment):
    # norms are numpy reductions, not BLAS calls whose summation order
    # follows the thread count; 128^2 arrays are above OpenBLAS's
    # single-thread cutoff, and mri's observations are complex
    src = str(Path(cli.__file__).resolve().parent.parent)
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "ballast.cli", "run", "--experiment",
                               experiment, "--iterations", "5", "--out", str(tmp_path / threads)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr  # 5 iterations: exhausted, still infeasible
    for fname in ("history.csv", "summary.json"):
        a = (tmp_path / "1" / experiment / fname).read_bytes()
        b = (tmp_path / "2" / experiment / fname).read_bytes()
        assert a == b, f"{fname} differs between 1 and 2 BLAS threads"


@pytest.mark.parametrize(
    "experiment,flag,value,fragment",
    [pytest.param("inpaint", "--size", "0", "'size'", id="--size-0-'size'"),
     pytest.param("inpaint", "--lines", "0", "'lines'", id="--lines-0-'lines'"),
     pytest.param("inpaint", "--kernel", "gaussian", "'kernel'",
                  id="--kernel-gaussian-'kernel'"),
     pytest.param("mri", "--size", "8", "'size'", id="mri---size-8-'size'"),
     pytest.param("inpaint", "--seed", "-1", "'seed'", id="--seed--1-'seed'"),
     pytest.param("inpaint", "--epsilon", "nan", "epsilon", id="--epsilon-nan-epsilon"),
     pytest.param("inpaint", "--epsilon", "inf", "epsilon", id="--epsilon-inf-epsilon"),
     pytest.param("inpaint", "--mu", "inf", "mu", id="--mu-inf-mu"),
     pytest.param("inpaint", "--sigma", "nan", "sigma", id="--sigma-nan-sigma")],
)
def test_out_of_range_or_inapplicable_knob_is_usage_error(tmp_path, capsys, experiment,
                                                           flag, value, fragment):
    code = run_cli("run", "--experiment", experiment, flag, value, "--out", str(tmp_path))
    assert code == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / experiment).exists()


def test_overwrite_guard(tmp_path, capsys):
    args = ("run", "--experiment", "inpaint", "--size", "32",
            "--iterations", "10", "--out", str(tmp_path))
    assert run_cli(*args) in (0, 1)
    assert run_cli(*args) == 2
    assert "--overwrite" in capsys.readouterr().err
    assert run_cli(*args, "--overwrite") in (0, 1)


def _explode(setup, **kwargs):
    raise DivergenceError("non-finite u at iteration 1", history=[])


def test_overwrite_replaces_the_run_files_and_keeps_others(tmp_path, monkeypatch):
    args = ("run", "--experiment", "inpaint", "--size", "16", "--iterations", "5",
            "--out", str(tmp_path))
    assert run_cli(*args) in (0, 1)
    run_dir = tmp_path / "inpaint"
    (run_dir / "notes.txt").write_text("mine\n")
    monkeypatch.setattr(harness, "run_experiment", _explode)
    assert run_cli(*args, "--overwrite") == 3
    # a diverged run leaves its partial history and summary, not the old images
    assert sorted(p.name for p in run_dir.iterdir()) == ["history.csv", "notes.txt",
                                                         "summary.json"]


def test_overwrite_with_a_maskless_run_drops_the_old_mask(tmp_path):
    for experiment in ("inpaint", "deblur-1"):
        (tmp_path / f"{experiment}.conf").write_text(
            f"experiment = {experiment}\nname = same\nsize = 16\niterations = 5\n")
        assert run_cli("run", "--config", str(tmp_path / f"{experiment}.conf"),
                       "--out", str(tmp_path), "--overwrite") in (0, 1)
    summary = json.loads((tmp_path / "same" / "summary.json").read_text())
    assert summary["name"] == "deblur-uniform-tv"
    assert not (tmp_path / "same" / "mask.pbm").exists()


def test_duplicate_output_directories_rejected(tmp_path, capsys):
    cfg = tmp_path / "one.conf"
    cfg.write_text("experiment = inpaint\nsize = 32\n")
    cfg2 = tmp_path / "two.conf"
    cfg2.write_text("experiment = inpaint\nsize = 32\n")
    code = run_cli("run", "--config", str(cfg), "--config", str(cfg2),
                   "--out", str(tmp_path))
    assert code == 2
    assert "same output directory" in capsys.readouterr().err


def test_exhausted_infeasible_run_exits_one(tmp_path, capsys):
    code = run_cli("run", "--experiment", "inpaint", "--size", "32",
                   "--iterations", "5", "--epsilon", "1e-9",
                   "--out", str(tmp_path))
    assert code == 1
    summary = json.loads((tmp_path / "inpaint" / "summary.json").read_text())
    assert summary["status"] == "exhausted"


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_file_drives_run(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "# a small reconstruction\n"
        "experiment = deblur-1   # alias for deblur-uniform-tv\n"
        "name = smoke\n"
        "size = 32\n"
        "seed = 3\n"
        "mu = 0.4\n"
        "iterations = 25\n"
    )
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) in (0, 1)
    summary = json.loads((tmp_path / "smoke" / "summary.json").read_text())
    assert summary["name"] == "deblur-uniform-tv"
    assert summary["formulation"] == "direct"
    assert summary["penalty"] == "tv"
    assert summary["sigma"] == 0.56
    assert summary["mu"] == 0.4
    assert summary["seed"] == 3
    assert summary["max_iterations"] == 25
    # a blur samples no grid, so the run writes no mask
    assert "mask" not in summary["files"]
    assert not (tmp_path / "smoke" / "mask.pbm").exists()


def test_cli_overrides_beat_config(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("experiment = inpaint\nsize = 32\nmu = 1.0\nseed = 3\n")
    assert run_cli("run", "--config", str(cfg), "--mu", "2.5", "--seed", "7",
                   "--iterations", "10", "--out", str(tmp_path)) in (0, 1)
    summary = json.loads((tmp_path / "inpaint" / "summary.json").read_text())
    assert summary["mu"] == 2.5
    assert summary["seed"] == 7


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("experiment = inpaint\nwarp = 3\n", "unknown key"),
        ("experiment = inpaint\nsize = 32\nsize = 64\n", "duplicate key"),
        ("experiment = inpaint\nsize = big\n", "cannot parse"),
        ("size = 32\n", "missing required key"),
        ("experiment inpaint\n", "expected 'key = value'"),
        ("experiment = inpaint\nname = ../escaped\n", "plain directory name"),
    ],
)
def test_config_diagnostics_carry_location(tmp_path, capsys, body, fragment):
    cfg = tmp_path / "bad.conf"
    cfg.write_text(body)
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert "bad.conf" in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.conf"]  # nothing written


def test_config_kernel_key_accepted(tmp_path):
    cfg = tmp_path / "k.conf"
    cfg.write_text("experiment = deblur-1\nsize = 32\nkernel = gaussian\n"
                   "iterations = 10\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) in (0, 1)
    assert (tmp_path / "deblur-uniform-tv" / "summary.json").exists()


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    assert run_cli("run", "--config", str(tmp_path / "absent.conf")) == 2
    assert "absent.conf" in capsys.readouterr().err


def test_non_utf8_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.conf"
    cfg.write_bytes(b"experiment = inpaint\nname = \xff\xfe\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "bad.conf" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.conf"]  # nothing written


# ---------------------------------------------------------------------------
# environment, parallelism, divergence
# ---------------------------------------------------------------------------

def test_output_root_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("BALLAST_OUT", str(tmp_path / "env-root"))
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", "--experiment", "inpaint", "--size", "32") in (0, 1)
    assert (tmp_path / "env-root" / "inpaint" / "summary.json").exists()


def test_parallel_jobs_run_both_configs(tmp_path):
    for idx, name in enumerate(("inpaint", "deblur-1")):
        cfg = tmp_path / f"{idx}.conf"
        cfg.write_text(f"experiment = {name}\nsize = 32\n")
    code = run_cli("run", "--config", str(tmp_path / "0.conf"),
                   "--config", str(tmp_path / "1.conf"),
                   "--jobs", "2", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "inpaint" / "summary.json").exists()
    assert (tmp_path / "deblur-uniform-tv" / "summary.json").exists()


def test_output_root_that_is_a_file_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_solve(setup, **kwargs):
        pytest.fail("a run started although the output root is a file")

    monkeypatch.setattr(harness, "run_experiment", no_solve)
    out = tmp_path / "f"
    out.touch()
    code = run_cli("run", "--experiment", "inpaint", "--size", "16", "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert str(out) in err and "Traceback" not in err


def test_empty_output_root_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_solve(setup, **kwargs):
        pytest.fail("a run started although --out is empty")

    monkeypatch.setattr(harness, "run_experiment", no_solve)
    monkeypatch.chdir(tmp_path)
    code = run_cli("run", "--experiment", "inpaint", "--size", "16", "--out", "")
    assert code == 2
    err = capsys.readouterr().err
    assert "--out" in err and "empty" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_unwritable_run_directory_is_that_runs_error(tmp_path, capsys):
    (tmp_path / "inpaint").touch()  # a file where the run's directory would go
    code = run_cli("run", "--experiment", "inpaint", "--size", "16", "--iterations", "5",
                   "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("inpaint: error: cannot write outputs:")
    assert str(tmp_path / "inpaint") in err


def test_unwritable_diverged_run_directory_is_that_runs_error(tmp_path, capsys,
                                                              monkeypatch):
    (tmp_path / "inpaint").touch()  # a file where the run's directory would go
    monkeypatch.setattr(harness, "run_experiment", _explode)
    code = run_cli("run", "--experiment", "inpaint", "--size", "16", "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("inpaint: error: cannot write outputs:")
    assert str(tmp_path / "inpaint") in err


def test_build_error_names_the_run(tmp_path, capsys):
    (tmp_path / "good.conf").write_text("experiment = inpaint\nname = good\nsize = 32\n")
    (tmp_path / "bad.conf").write_text("experiment = inpaint\nname = bad\nlines = 4\n")
    code = run_cli("run", "--config", str(tmp_path / "good.conf"),
                   "--config", str(tmp_path / "bad.conf"), "--out", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err.startswith("bad: error:")
    assert (tmp_path / "good" / "summary.json").exists()
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    code = run_cli("run", "--experiment", "inpaint", "--size", "32",
                   "--jobs", jobs, "--out", str(tmp_path))
    assert code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "inpaint").exists()


def test_worker_count_is_bounded_by_runs_and_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cli._worker_count(1, 10) == 1
    assert cli._worker_count(3, 10) == 3
    assert cli._worker_count(100, 2) == 2
    assert cli._worker_count(100, 10) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._worker_count(100, 10) == 1


# the run_experiment case builds for real, so it runs at a small size
@pytest.mark.parametrize("stage, size", [("build_experiment", "30000"),
                                         ("run_experiment", "32")])
def test_out_of_memory_exits_two_naming_the_size(stage, size, tmp_path, capsys, monkeypatch):
    def too_large(*args, **kwargs):
        raise MemoryError  # numpy's error for an array it cannot allocate

    monkeypatch.setattr(harness, stage, too_large)
    code = run_cli("run", "--experiment", "deblur-uniform-tv", "--size", size,
                   "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert f"size {size}" in err and "memory" in err and "Traceback" not in err
    assert not (tmp_path / "deblur-uniform-tv").exists()


def test_divergence_exits_three_with_partial_outputs(tmp_path, capsys, monkeypatch):
    records = [
        IterationRecord(k=1, objective=10.0, constraint_norm=5.0,
                        primal_residual=1.0, wall_time=0.01),
        IterationRecord(k=2, objective=8.0, constraint_norm=4.0,
                        primal_residual=0.9, wall_time=0.02),
    ]

    def explode(setup, **kwargs):
        raise DivergenceError("non-finite u at iteration 3", history=records)

    monkeypatch.setattr(harness, "run_experiment", explode)
    code = run_cli("run", "--experiment", "inpaint", "--size", "32",
                   "--out", str(tmp_path))
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    run_dir = tmp_path / "inpaint"
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["status"] == "diverged"
    assert summary["partial"] is True
    assert summary["iterations"] == 2
    lines = (run_dir / "history.csv").read_text().splitlines()
    assert len(lines) == 3  # header + the two surviving records
    assert lines[1].startswith("1,")


def test_diverged_summary_names_the_experiment_not_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "run_experiment", _explode)
    cfg = tmp_path / "boom.conf"
    cfg.write_text("experiment = inpaint\nname = boom\nsize = 32\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 3
    summary = json.loads((tmp_path / "boom" / "summary.json").read_text())
    assert summary["name"] == "inpaint"  # as a finished run's; the run's name is its directory


def test_solve_value_error_exits_two_without_traceback(tmp_path, capsys, monkeypatch):
    def bad_solve(setup, **kwargs):
        raise ValueError("penalty rejected its input")

    monkeypatch.setattr(harness, "run_experiment", bad_solve)
    code = run_cli("run", "--experiment", "inpaint", "--size", "32", "--out", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err == "inpaint: error: penalty rejected its input\n"
    assert not (tmp_path / "inpaint").exists()
