"""Smoke tests for the scripts under tools/."""

import importlib.util
import json
import os
import subprocess
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
    assert len(names) == len(set(names)) == 17  # 3 operators x 3 maps + 8
    assert {"tv_prox", "soft_threshold", "project_ball", "haar.analysis", "haar.synthesis",
            "fourier.shifted_normal_inverse", "tv_norm", "l1.evaluate",
            "record.primal"} <= set(names)
    for line in lines:
        assert set(line["min_ms"]) == {"16"} and line["min_ms"]["16"] > 0
        assert line["repeat"] == 1 and line["nproc"] >= 1
        assert line["numpy"] and line["git_sha"]


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
            assert run["rel_error"] > 0 and run["status"] in ("converged", "exhausted")
            assert run["kernel_ms"] > 0 and run["peak_mem_mb"] > 0
            assert len(run["digest"]) == 16 and int(run["digest"], 16) >= 0
    # the same run at the same size gives the same bits wherever it appears
    assert (data["catalog"]["deblur-uniform-tv"]["digest"]
            == data["sweep"]["deblur-uniform-tv"]["16"]["digest"])
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
