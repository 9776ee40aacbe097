"""Self-test of the benchmark harness at toy sizes (no timing is asserted)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import critevo.solver
from critevo.envelope import critical_exponent
from critevo.operators import parse_operator
from perfbench import run, trace, workload
from perfbench.oracle import oracle_exponent, scaling_lines

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in workload.PER_LAYER]
    assert [m["name"] for m in SPEC["end_to_end"]] == ["op_s", "setup_s", "peak_rss_mb"]


def test_oracle_agrees_with_the_library_exactly():
    rng = np.random.default_rng(5)
    for _ in range(60):
        doc, ell = workload.random_operator_doc(rng)
        op = parse_operator(doc)
        assert critical_exponent(op, ell, op.n).p_c == oracle_exponent(
            scaling_lines(doc, ell), doc["n"])


def test_tracer_restores_patches_and_reports_missing_targets(monkeypatch):
    monkeypatch.setattr(trace, "TIMED", trace.TIMED + [
        ("solver.fused_step", "critevo.solver", "fused_step")])
    original = critevo.solver.grid_norms
    tracer = trace.Tracer()
    with tracer.installed():
        assert critevo.solver.grid_norms is not original
        critevo.solver.grid_norms(np.ones(4), 0.5, 2.0)
    assert critevo.solver.grid_norms is original
    assert critevo.solver.ModePropagator.__init__.__name__ == "__init__"
    assert "solver.fused_step" not in tracer.present
    assert "critevo.solver.fused_step" in tracer.absent
    assert tracer.totals()["solver.grid_norms"]["calls"] == 1


@pytest.mark.parametrize("name, layers", [
    ("analysis", ["envelope.critical_exponent.s", "numpy.linalg.eig.calls",
                  "mu.lipschitz_certificate.s"]),
    ("sweep-1d", ["solver.nonlinear_step.calls", "numpy.fft.calls_per_step",
                  "cli.cmd_sweep.self_s"]),
    ("field-2d", ["residual.weak_residual.s", "numpy.save.s", "numpy.load.s"]),
])
def test_traced_toy_workload(name, layers, tmp_path, monkeypatch):
    for key, value in run.worker_env().items():
        monkeypatch.setenv(key, value)
    monkeypatch.setattr(workload, "startup_probe", lambda code: 1.0)
    wl = workload.WORKLOADS[name](3, tmp_path, workload.SIZES["toy"])
    wl.warmup(tmp_path / "warmup")
    report = workload.measure(wl, tmp_path, 0.0, tmp_path / "spans.npz")
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] > 0
    assert report["absent"] == []
    assert list(report["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
    for layer in layers:
        assert report["per_layer"][layer]["value"] > 0, layer
    assert (tmp_path / "spans.npz").is_file()


def test_run_prints_the_result_line(capsys):
    assert run.main(["--workload", "field-2d", "--seed", "4", "--seconds", "0",
                     "--trace", "0"], size="toy") == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analysis",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
