"""Smoke tests for the scripts under tools/."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import time
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_microbench_prints_one_json_line_per_primitive(capsys):
    microbench = load_tool("microbench")
    assert microbench.main(["--sizes", "16", "--repeat", "1"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    names = [line["primitive"] for line in lines]
    assert len(names) == len(set(names)) == 20  # 3 operators x 3 maps + 11
    assert {"tv_prox", "IsotropicTV.prox", "soft_threshold", "project_ball", "haar.analysis", "haar.synthesis",
            "fourier.shifted_normal_inverse", "tv_norm", "l1.evaluate",
            "record.primal", "step.synthesis", "step.analysis"} <= set(names)
    for line in lines:
        assert set(line["min_ms"]) == {"16"} and line["min_ms"]["16"] > 0
        # the tracemalloc peak of one call after the timed batches
        assert set(line["peak_kib"]) == {"16"} and line["peak_kib"]["16"] > 0
        # an operator's lines also give the KiB it keeps once built
        is_operator = line["primitive"].split(".")[0] in {"convolution", "mask", "fourier"}
        assert ("held_kib" in line) == is_operator
        if is_operator:
            assert set(line["held_kib"]) == {"16"} and line["held_kib"]["16"] > 0
        assert line["repeat"] == 1 and line["nproc"] >= 1
        assert line["numpy"] and line["git_sha"]


def test_microbench_times_a_slow_primitive_over_several_calls(monkeypatch):
    # a primitive slower than a whole batch is still timed as a mean of 3
    # calls per batch, not as the fastest of single calls
    microbench = load_tool("microbench")
    monkeypatch.setattr(microbench, "BATCH_MS", 1.0)
    calls = []

    def slow():
        calls.append(None)
        time.sleep(0.003)

    assert microbench.min_ms(slow, repeat=2) >= 3.0
    assert len(calls) == 1 + 2 * 3  # the warm-up, then two batches


def test_bench_writes_catalog_and_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))  # bench imports git_sha from microbench
    bench = load_tool("bench")
    monkeypatch.setattr(bench, "REPEAT", 1)  # one timed solve per run is enough here
    # loading perfbench/run.py for its SpeedProbe sets this; restore it afterwards
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    run = subprocess.run

    def fake_perfbench(argv, **kwargs):  # the eight real perfbench runs take minutes
        if "perfbench" not in " ".join(map(str, argv)):
            return run(argv, **kwargs)
        return subprocess.CompletedProcess(argv, 0, '{"correct": true, "metrics": {}}\n', "")

    monkeypatch.setattr(bench.subprocess, "run", fake_perfbench)
    out = tmp_path / "bench.json"
    assert bench.main(["--size", "16", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    data = json.loads(out.read_text())
    assert data["meta"]["nproc"] >= 1 and data["meta"]["numpy"] and data["meta"]["git_sha"]
    assert len(data["catalog"]) == 18
    assert set(data["sweep"]) == {"deblur-uniform-tv", "mri", "inpaint"}
    for runs in [data["catalog"], *data["sweep"].values()]:
        for run in runs.values():
            assert 1 <= run["iterations"] and run["wall_s"] > 0 and run["ms_per_iter"] > 0
            # the process CPU time of the fastest solve, counting every thread
            assert run["cpu_s"] > 0
            assert run["rel_error"] > 0 and run["status"] in ("converged", "exhausted")
            assert run["kernel_ms"] > 0 and run["peak_mem_mb"] > 0
            for key in ("digest", "history_digest"):
                assert len(run[key]) == 16 and int(run[key], 16) >= 0
    # the same run at the same size gives the same bits wherever it appears
    for key in ("digest", "history_digest"):
        assert (data["catalog"]["deblur-uniform-tv"][key]
                == data["sweep"]["deblur-uniform-tv"]["16"][key])
    # the traced peak grows with the image: a 64^2 solve holds more than a 16^2 one
    sweep = data["sweep"]["deblur-uniform-tv"]
    assert sweep["64"]["peak_mem_mb"] > sweep["16"]["peak_mem_mb"]
    assert all(set(by_size) == {"16", "32", "64"} for by_size in data["sweep"].values())
    # each perfbench entry carries the host speed around its subprocess
    assert len(data["perfbench"]) == 8
    for entry in data["perfbench"].values():
        assert entry["correct"] and entry["kernel_ms"] > 0


def test_bench_rejects_missing_out_directory_before_any_solve(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench = load_tool("bench")

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(bench, "build_experiment", no_solve)
    with pytest.raises(SystemExit) as exc:
        bench.main(["--size", "16", "--no-perfbench",
                    "--out", str(tmp_path / "missing" / "b.json")])
    assert exc.value.code == 2


def test_bench_names_failed_perfbench_runs_and_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    bench = load_tool("bench")
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(bench, "experiment_names", lambda: [])  # no catalog solves
    monkeypatch.setattr(bench, "SWEEP", ())

    def fake_perfbench(argv, **kwargs):  # perfbench exits 1 when a solve fails its checks
        failed = "mri" in argv
        return subprocess.CompletedProcess(
            argv, int(failed), json.dumps({"correct": not failed, "metrics": {}}) + "\n", "")

    monkeypatch.setattr(bench.subprocess, "run", fake_perfbench)
    out = tmp_path / "bench.json"
    assert bench.main(["--size", "16", "--out", str(out)]) == 1
    data = json.loads(out.read_text())  # written all the same
    assert len(data["perfbench"]) == 8
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert "mri --trace 0" in err[0] and "mri --trace 1" in err[1]


def test_seeds_replays_the_gate_per_run_and_exits_one_on_a_failing_seed(monkeypatch, capsys):
    seeds = load_tool("seeds")
    runs = ["deblur-gauss-lo-syn", "mri"]
    code = seeds.main(["--seeds", "2", "--size", "16", "--runs", *runs])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == runs
    # the bounds are criterion 8's 3x its reference count and criterion 5's 300
    assert "(bound 408)" in lines[0] and "(bound 300)" in lines[1]
    assert code == int(any("failing seeds: none" not in line for line in lines))

    # a run past its bound fails its criterion at every seed
    run = seeds.run_experiment
    monkeypatch.setattr(seeds, "run_experiment",
                        lambda setup: dataclasses.replace(run(setup), iterations=10**6))
    assert seeds.main(["--seeds", "2", "--size", "16", "--runs", "mri"]) == 1
    assert capsys.readouterr().out.strip().endswith("failing seeds: 0 1")
