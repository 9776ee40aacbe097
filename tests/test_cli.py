import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from critevo import cli, decay
from critevo.envelope import critical_exponent
from critevo.operators import EvolutionOperator, damped_wave, fractional_term, sigma_evolution
from critevo.reporting import dumps_json
from critevo.residual import make_test_function
from critevo.solver import Grid, parse_profile

SCHEMA = {"schema_version": 1}


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture()
def op_file(tmp_path):
    return write_json(tmp_path / "op.json", json.loads(dumps_json(damped_wave(1))))


def sim_config(op_file, **over):
    cfg = {
        "schema_version": 1,
        "operator": str(op_file),
        "ell": 0,
        "grid": {"N": 64, "L": 40.0},
        "profile": {"kind": "gaussian", "width": 2.0},
        "dt": 0.1,
        "T": 10.0,
    }
    cfg.update(over)
    return cfg


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "exponent" in capsys.readouterr().out


def test_exponent_flags_and_artifact(op_file, tmp_path):
    cfg = write_json(tmp_path / "exp.json", {**SCHEMA, "operator": str(op_file), "ell": 0})
    out = tmp_path / "e"
    assert cli.main(["exponent", "--config", str(cfg), "--out-dir", str(out)]) == 0
    doc = json.loads((out / "exponent.json").read_text())
    assert doc["kind"] == "exponent"
    assert doc["report"]["p_c"] == "3"
    assert doc["report"]["eta_star"] == "2"
    assert doc["report"]["regime"] == "classical"


def test_unknown_config_key_exit_2(op_file, tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json",
                     {**SCHEMA, "operator": str(op_file), "frobnicate": 1})
    assert cli.main(["exponent", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "frobnicate" in err


def test_config_requires_schema_version(op_file, tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"operator": str(op_file)})
    assert cli.main(["exponent", "--config", str(cfg)]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_out_dir_precedence(op_file, tmp_path, monkeypatch):
    # --out-dir, else the current directory; CRITEVO_OUT is not read
    cfg = write_json(tmp_path / "exp.json", {**SCHEMA, "operator": str(op_file)})
    env_dir, cwd = tmp_path / "env", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.setenv("CRITEVO_OUT", str(env_dir))
    monkeypatch.chdir(cwd)
    assert cli.main(["exponent", "--config", str(cfg)]) == 0
    assert (cwd / "exponent.json").exists()
    flag_dir = tmp_path / "flag"
    assert cli.main(["exponent", "--config", str(cfg), "--out-dir", str(flag_dir)]) == 0
    assert (flag_dir / "exponent.json").exists()
    assert not env_dir.exists()


def test_unwritable_out_dir_exit_2(op_file, tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", {**SCHEMA, "operator": str(op_file)})
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    out = blocker / "sub"
    assert cli.main(["exponent", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "cannot write artifacts" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["exponent"],
    ["exponent", "--config", "exp.json", "--ell", "0"],
], ids=["no-config", "removed-flag"])
def test_config_is_the_only_input(op_file, tmp_path, monkeypatch, capsys, argv):
    write_json(tmp_path / "exp.json", {**SCHEMA, "operator": str(op_file)})
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out-dir", "o"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_operator_file_dimension_override(tmp_path, capsys):
    # "n" evaluates a dimension-free (fractional) operator file at another n
    frac = write_json(tmp_path / "frac.json", json.loads(dumps_json(sigma_evolution(1, 2, 1))))
    cfg = write_json(tmp_path / "exp.json", {**SCHEMA, "operator": str(frac), "n": 3})
    out = tmp_path / "e"
    assert cli.main(["exponent", "--config", str(cfg), "--out-dir", str(out)]) == 0
    want = critical_exponent(sigma_evolution(3, 2, 1), 0, 3)
    assert want.p_c != critical_exponent(sigma_evolution(1, 2, 1), 0, 1).p_c
    assert json.loads((out / "exponent.json").read_text())["report"]["p_c"] == str(want.p_c)
    # a monomial operator's multi-indices fix its dimension
    mono = write_json(tmp_path / "mono.json", json.loads(dumps_json(damped_wave(1))))
    cfg = write_json(tmp_path / "exp.json", {**SCHEMA, "operator": str(mono), "n": 3})
    out = tmp_path / "m"
    assert cli.main(["exponent", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_simulate_artifacts_byte_identical(op_file, tmp_path):
    cfg = write_json(tmp_path / "sim.json",
                     sim_config(op_file, record_fields=True))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(d1)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(d2)]) == 0
    names = sorted(os.listdir(d1))
    assert names == ["fields_initial_layers.npy", "fields_layer_ell.npy",
                     "fields_times.npy", "series.csv", "simulate.json"]
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_simulate_reports_blowup_as_success(tmp_path):
    op1 = write_json(tmp_path / "op1.json",
                     {"schema_version": 1, "m": 1, "n": 1, "levels": {}})
    cfg = write_json(tmp_path / "sim.json", {
        "schema_version": 1, "operator": str(op1), "ell": 0,
        "grid": {"N": 32, "L": 20.0},
        "profile": {"kind": "gaussian", "width": 1.2}, "amplitude": 5.0,
        "dt": 0.01, "T": 2.0,
        "nonlinearity": {"p": 2.0, "mu": {"family": "constant", "value": 1.0}},
    })
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    doc = json.loads((out / "simulate.json").read_text())
    assert doc["report"]["outcome"] == "blowup_detected"
    assert 0.05 < doc["report"]["blowup_time"] < 0.5


def test_simulate_resolves_critical_power(op_file, tmp_path):
    cfg = write_json(tmp_path / "sim.json", sim_config(
        op_file, T=2.0, amplitude=0.01,
        nonlinearity={"p": "critical",
                      "mu": {"family": "iterated_log", "depth": 0, "gamma": 2.0}}))
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    doc = json.loads((out / "simulate.json").read_text())
    assert any("critical exponent 3" in note for note in doc["notes"])


def test_simulate_reports_initial_sign_functional(op_file, tmp_path):
    # damped wave, ell = 0: only the monic top level pairs with the data layer
    grid = Grid(n=1, N=64, L=40.0)
    for zero_mean in (False, True):
        profile = {"kind": "gaussian", "width": 2.0, "zero_mean": zero_mean}
        cfg = write_json(tmp_path / "sim.json",
                         sim_config(op_file, T=1.0, amplitude=0.7, profile=profile))
        out = tmp_path / f"o{zero_mean}"
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "simulate.json").read_text())["report"]
        value = report["initial_sign_functional"]
        assert "initial_sign_functional" not in report["meta"]
        if zero_mean:
            assert value == 0.0
        else:
            mass = 0.7 * float(np.sum(parse_profile(profile).render(grid))) * grid.h
            assert value == pytest.approx(mass, rel=1e-9)
            assert value > 0


def test_residual_on_recorded_run(op_file, tmp_path):
    sim = write_json(tmp_path / "sim.json",
                     sim_config(op_file, record_fields=True))
    run_dir = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(sim), "--out-dir", str(run_dir)]) == 0
    res = write_json(tmp_path / "res.json", {**SCHEMA, "run": str(run_dir)})
    out = tmp_path / "r"
    assert cli.main(["residual", "--config", str(res), "--out-dir", str(out)]) == 0
    doc = json.loads((out / "residual.json").read_text())
    assert doc["report"]["residual"] < 1e-3
    assert any("eta_bar resolved to 2" in n for n in doc["notes"])
    # run directory without recorded fields is a config error
    bare_dir = tmp_path / "bare"
    sim2 = write_json(tmp_path / "sim2.json", sim_config(op_file, T=2.0))
    assert cli.main(["simulate", "--config", str(sim2), "--out-dir", str(bare_dir)]) == 0
    res2 = write_json(tmp_path / "res2.json", {**SCHEMA, "run": str(bare_dir)})
    assert cli.main(["residual", "--config", str(res2), "--out-dir", str(out)]) == 2


def test_test_function_table_defaults_are_the_resolvers():
    # the table checks an inline residual's test function before its run;
    # make_test_function alone resolves it, so the defaults must be its own
    params = inspect.signature(make_test_function).parameters
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    assert {name: key.default for name, key in cli.TEST_FUNCTION.items()} == defaults


def test_recorded_residual_reports_the_resolved_test_function(op_file, tmp_path):
    sim = write_json(tmp_path / "sim.json", sim_config(op_file, T=4.0, record_fields=True))
    run_dir = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(sim), "--out-dir", str(run_dir)]) == 0
    res = write_json(tmp_path / "res.json", {**SCHEMA, "run": str(run_dir)})
    out = tmp_path / "r"
    assert cli.main(["residual", "--config", str(res), "--out-dir", str(out)]) == 0
    doc = json.loads((out / "residual.json").read_text())
    t_end = float(np.load(run_dir / "fields_times.npy")[-1])
    spec = make_test_function(damped_wave(1), 0, Grid(n=1, N=64, L=40.0), t_end)
    assert doc["report"]["test_function"] == json.loads(dumps_json(spec))
    assert doc["notes"] == ["eta_bar resolved to 2",
                            f"test function scale resolved to {spec.scale!r}"]


def test_residual_of_a_nan_field_exits_2(op_file, tmp_path, capsys):
    sim = write_json(tmp_path / "sim.json", sim_config(op_file, T=2.0, record_fields=True))
    run_dir = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(sim), "--out-dir", str(run_dir)]) == 0
    frames = np.load(run_dir / "fields_layer_ell.npy")
    frames[3, 10] = np.nan
    np.save(run_dir / "fields_layer_ell.npy", frames)
    res = write_json(tmp_path / "res.json", {**SCHEMA, "run": str(run_dir)})
    out = tmp_path / "r"
    assert cli.main(["residual", "--config", str(res), "--out-dir", str(out)]) == 2
    assert "NaN" in capsys.readouterr().err
    assert not (out / "residual.json").exists()


@pytest.mark.parametrize("name, corrupt", [
    ("fields_layer_ell.npy", lambda path: path.write_bytes(b"")),
    ("fields_layer_ell.npy", lambda path: path.write_bytes(path.read_bytes()[:1000])),
    ("fields_layer_ell.npy",
     lambda path: np.save(path, np.array([{"t": 0.0}], dtype=object), allow_pickle=True)),
    ("fields_times.npy", lambda path: path.write_bytes(b"not an npy file at all")),
    ("fields_times.npy", lambda path: np.save(path, np.array(3.0))),
], ids=["truncated", "cut", "object-dtype", "garbage", "scalar-times"])
def test_residual_of_a_corrupt_field_file_exits_2(op_file, tmp_path, capsys, name, corrupt):
    sim = write_json(tmp_path / "sim.json", sim_config(op_file, T=2.0, record_fields=True))
    run_dir = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(sim), "--out-dir", str(run_dir)]) == 0
    corrupt(run_dir / name)
    res = write_json(tmp_path / "res.json", {**SCHEMA, "run": str(run_dir)})
    out = tmp_path / "r"
    assert cli.main(["residual", "--config", str(res), "--out-dir", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ell, test_function, bound", [
    (0, {}, 1e-5),
    (1, {"eta_bar": 2, "q_tf": 8}, 1e-3),
])
def test_recorded_residual_equals_the_inline_one(op_file, tmp_path, ell, test_function, bound):
    base = sim_config(op_file, ell=ell, dt=0.05, amplitude=0.3, nonlinearity={
        "p": 3.0, "mu": {"family": "iterated_log", "gamma": 2.0}})
    sim = write_json(tmp_path / "sim.json", {**base, "record_fields": True})
    run_dir = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(sim), "--out-dir", str(run_dir)]) == 0
    # one field stack whatever ell is
    assert sorted(os.listdir(run_dir)) == ["fields_initial_layers.npy", "fields_layer_ell.npy",
                                           "fields_times.npy", "series.csv", "simulate.json"]
    docs = []
    for name, cfg in (("recorded", {**SCHEMA, "run": str(run_dir)}), ("inline", base)):
        res = write_json(tmp_path / f"{name}.json", {**cfg, "test_function": test_function})
        out = tmp_path / name
        assert cli.main(["residual", "--config", str(res), "--out-dir", str(out)]) == 0
        docs.append(json.loads((out / "residual.json").read_text()))
    recorded, inline = docs
    assert recorded["report"] == inline["report"]
    assert recorded["run_outcome"] == inline["run_outcome"] == "completed"
    assert recorded["report"]["residual"] < bound


def test_residual_of_a_complex_field_exits_2(op_file, tmp_path, capsys):
    sim = write_json(tmp_path / "sim.json", sim_config(op_file, T=2.0, record_fields=True))
    run_dir = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(sim), "--out-dir", str(run_dir)]) == 0
    frames = np.load(run_dir / "fields_layer_ell.npy")
    np.save(run_dir / "fields_layer_ell.npy", 1j * frames)
    res = write_json(tmp_path / "res.json", {**SCHEMA, "run": str(run_dir)})
    out = tmp_path / "r"
    assert cli.main(["residual", "--config", str(res), "--out-dir", str(out)]) == 2
    assert "real" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_residual_reports_the_recorded_outcome(tmp_path):
    op1 = write_json(tmp_path / "op1.json",
                     {"schema_version": 1, "m": 1, "n": 1, "levels": {}})
    base = {
        "schema_version": 1, "operator": str(op1), "ell": 0,
        "grid": {"N": 32, "L": 20.0},
        "profile": {"kind": "gaussian", "width": 1.2},
        "dt": 0.01, "T": 2.0, "record_fields": True,
        "nonlinearity": {"p": 2.0, "mu": {"family": "constant", "value": 1.0}},
    }
    for amplitude, want in ((0.01, "completed"), (5.0, "blowup_detected")):
        run_dir = tmp_path / want
        sim = write_json(tmp_path / f"sim_{want}.json", {**base, "amplitude": amplitude})
        assert cli.main(["simulate", "--config", str(sim), "--out-dir", str(run_dir)]) == 0
        recorded = json.loads((run_dir / "simulate.json").read_text())["report"]["outcome"]
        assert recorded == want
        res = write_json(tmp_path / f"res_{want}.json", {
            **SCHEMA, "run": str(run_dir), "test_function": {"eta_bar": 2}})
        out = tmp_path / f"r_{want}"
        assert cli.main(["residual", "--config", str(res), "--out-dir", str(out)]) == 0
        assert json.loads((out / "residual.json").read_text())["run_outcome"] == want


def test_mu_check_flags_mode(tmp_path):
    cfg = write_json(tmp_path / "mu.json", {
        **SCHEMA, "mu": {"family": "iterated_log", "gamma": 2.0, "depth": 1}, "c0": 0.01})
    out = tmp_path / "m"
    assert cli.main(["mu-check", "--config", str(cfg), "--out-dir", str(out)]) == 0
    doc = json.loads((out / "mu_check.json").read_text())
    assert doc["integral"]["classification"] == "convergent"
    cert = doc["certificate"]
    # a = 1/u + 2/(u log u) is 3/e at tau* = e^{-e} and 1 at tau = 0.0557...
    assert cert["constant"] == pytest.approx(2 + 3 / math.e, rel=1e-15)
    assert cert["derivative_bound"] is False and cert["convex"] is True
    assert cert["derivative_bound_up_to"] == pytest.approx(0.05576372571598393, rel=1e-15)


def test_decay_flags_with_explicit_target(op_file, tmp_path):
    cfg = write_json(tmp_path / "decay.json", {
        **SCHEMA, "operator": str(op_file), "ell": 0, "q_list": [2], "targets": {"2": -0.25}})
    out = tmp_path / "d"
    assert cli.main(["decay", "--config", str(cfg), "--out-dir", str(out)]) == 0
    doc = json.loads((out / "decay.json").read_text())
    assert doc["report"]["all_pass"] is True
    entry = doc["report"]["entries"][0]
    assert entry["fit"]["verdict"] == "pass"
    assert abs(entry["fit"]["slope"] + 0.25) < 0.05
    assert list(entry["quadrature"]) == ["panels_per_decade", "nodes",
                                         "last_relative_change", "expm_fallback_nodes"]
    assert entry["quadrature"]["last_relative_change"] <= 1e-8
    assert (out / "decay_curve_q2.csv").read_text().splitlines()[0] == "time,norm"


def test_sweep_isolates_invalid_values(op_file, tmp_path):
    cfg = write_json(tmp_path / "sweep.json", {
        "schema_version": 1, "task": "simulate", "parameter": "grid.N",
        "values": [32, 7],
        "config": sim_config(op_file, T=1.0),
    })
    out = tmp_path / "s"
    assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    doc = json.loads((out / "sweep_index.json").read_text())
    assert doc["n_ok"] == 1
    statuses = [r["status"] for r in doc["runs"]]
    assert statuses == ["ok", "invalid"]
    assert (out / "value_000" / "simulate.json").exists()
    assert not (out / "value_001").exists()
    assert "even integer" in doc["runs"][1]["message"]


def _simulate_sweep(op_file, tmp_path, parameter, values, **over):
    # u_tt + u_t - u_xx = u^2: amplitudes 0.9 and 1.2 blow up, at different steps
    base = sim_config(op_file, **{"grid": {"N": 32, "L": 40.0}, "dt": 0.05, "T": 8.0,
                                  "record_every": 4, "record_fields": True,
                                  "nonlinearity": {"p": 2.0, "mu": {"family": "constant"}},
                                  **over})
    cfg = write_json(tmp_path / "sweep.json", {
        "schema_version": 1, "task": "simulate", "parameter": parameter,
        "values": values, "config": base})
    out = tmp_path / "s"
    assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    return base, out, json.loads((out / "sweep_index.json").read_text())


def _assert_same_as_standalone(task, config, run_dir, tmp_path):
    sub = write_json(tmp_path / f"alone_{run_dir.name}.json", config)
    alone = tmp_path / f"alone_{run_dir.name}"
    assert cli.main([task, "--config", str(sub), "--out-dir", str(alone)]) == 0
    names = sorted(os.listdir(alone))
    assert sorted(os.listdir(run_dir)) == names
    for name in names:
        assert (run_dir / name).read_bytes() == (alone / name).read_bytes(), (run_dir, name)


def test_amplitude_sweep_artifacts_equal_standalone_runs(op_file, tmp_path):
    values = [0.0, 0.3, "big", 0.9, 1.2]
    base, out, doc = _simulate_sweep(op_file, tmp_path, "amplitude", values)
    assert [r["status"] for r in doc["runs"]] == ["ok", "ok", "invalid", "ok", "ok"]
    assert doc["n_ok"] == 4
    assert not (out / "value_002").exists()
    outcomes = [r["summary"]["outcome"] for r in doc["runs"] if r["status"] == "ok"]
    assert outcomes == ["completed", "completed", "blowup_detected", "blowup_detected"]
    assert doc["runs"][3]["summary"]["blowup_time"] != doc["runs"][4]["summary"]["blowup_time"]
    for entry in doc["runs"]:
        if entry["status"] == "ok":
            _assert_same_as_standalone("simulate", {**base, "amplitude": entry["value"]},
                                       out / entry["dir"], tmp_path)


_SERIES_HEADER = {
    0: "time,L1[0],L2[0],Lp[0],Linf[0],xnorm_weighted,xnorm_running_sup",
    1: "time,L1[0],L2[0],Lp[0],Linf[0],L1[1],L2[1],Lp[1],Linf[1],xnorm_weighted,"
       "xnorm_running_sup",
}


@pytest.mark.parametrize("ell", [0, 1])
def test_series_csv_columns_and_rows_are_pinned(op_file, tmp_path, ell):
    # T / dt = 40 steps, each recorded, plus t = 0: 41 rows under the header
    cfg = sim_config(op_file, ell=ell, grid={"N": 32, "L": 40.0}, dt=0.05, T=2.0,
                     amplitude=0.3, nonlinearity={"p": 2.0, "mu": {"family": "constant"}})
    rc, out = _run(tmp_path, "simulate", cfg)
    assert rc == 0
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[0] == _SERIES_HEADER[ell]
    assert len(rows) == 1 + 41


def test_a_blown_up_members_series_stops_at_its_blowup(op_file, tmp_path):
    # 160 steps recorded every 4th: 0.9 blows up at step 112 and 1.2 at step 96,
    # so their last records are steps 108 and 92
    _, out, doc = _simulate_sweep(op_file, tmp_path, "amplitude", [0.0, 0.3, 0.9, 1.2])
    reports = [json.loads((out / r["dir"] / "simulate.json").read_text())["report"]
               for r in doc["runs"]]
    assert [r["outcome"] for r in reports] == ["completed"] * 2 + ["blowup_detected"] * 2
    assert [r["meta"]["steps_taken"] for r in reports] == [160, 160, 112, 96]
    assert [r["n_records"] for r in reports] == [41, 41, 28, 24]
    for entry, report in zip(doc["runs"], reports):
        rows = (out / entry["dir"] / "series.csv").read_text().splitlines()
        assert rows[0] == _SERIES_HEADER[0]
        assert len(rows) == 1 + report["n_records"]
        if report["blowup_time"] is not None:
            assert float(rows[-1].split(",")[0]) < report["blowup_time"]


def _assert_members_same_as_standalone(base, out, doc, tmp_path):
    """Each ok value's directory equals a standalone simulate of its sub-config."""
    for entry in doc["runs"]:
        if entry["status"] == "ok":
            sub = json.loads(json.dumps(base))
            cli._set_path(sub, tuple(entry["parameter"].split(".")), entry["value"])
            _assert_same_as_standalone("simulate", sub, out / entry["dir"], tmp_path)


def test_power_sweep_artifacts_equal_standalone_runs(op_file, tmp_path):
    # "critical" is p_c = 3 here, the same power as the values 3; 0.5 is below 1
    base, out, doc = _simulate_sweep(op_file, tmp_path, "nonlinearity.p",
                                     [2, 3, "critical", 4, 0.5, 3], amplitude=0.6)
    assert [r["status"] for r in doc["runs"]] == ["ok"] * 4 + ["invalid", "ok"]
    outcomes = [r["summary"]["outcome"] for r in doc["runs"] if r["status"] == "ok"]
    assert outcomes == ["blowup_detected"] + ["completed"] * 4
    notes = json.loads((out / "value_002" / "simulate.json").read_text())["notes"]
    assert notes == ["p resolved to the critical exponent 3 = 3.0"]
    _assert_members_same_as_standalone(base, out, doc, tmp_path)


def test_nonlinearity_sweep_mixing_null_with_specs_equals_standalone_runs(op_file, tmp_path):
    # the two linear values step as one batch, the two nonlinear ones as another
    specs = [None, {"p": 2.0, "mu": {"family": "constant"}},
             {"p": 3.0, "mu": {"family": "iterated_log", "gamma": 2.0}}, None]
    base, out, doc = _simulate_sweep(op_file, tmp_path, "nonlinearity", specs, amplitude=1.2)
    assert [r["summary"]["outcome"] for r in doc["runs"]] == [
        "completed", "blowup_detected", "blowup_detected", "completed"]
    recorded = [json.loads((out / r["dir"] / "simulate.json").read_text())["nonlinearity"]
                for r in doc["runs"]]
    assert [nl and nl["p"] for nl in recorded] == [None, 2.0, 3.0, None]
    _assert_members_same_as_standalone(base, out, doc, tmp_path)


def test_record_fields_sweep_artifacts_equal_standalone_runs(op_file, tmp_path):
    base, out, doc = _simulate_sweep(op_file, tmp_path, "record_fields", [True, False, True],
                                     amplitude=0.5)
    assert doc["n_ok"] == 3
    assert (out / "value_000" / "fields_layer_ell.npy").exists()
    assert not (out / "value_001" / "fields_layer_ell.npy").exists()
    _assert_members_same_as_standalone(base, out, doc, tmp_path)


@pytest.mark.parametrize("parameter, values, builds", [
    ("nonlinearity.p", [2, 3, "critical", 4, 0.5], 1),
    ("amplitude", [0.1, 0.3, 0.9], 1),
    ("dt", [0.05, 0.1, 0.05], 2),
])
def test_a_simulate_sweep_builds_one_propagator_per_group(op_file, tmp_path, monkeypatch,
                                                          parameter, values, builds):
    # the values that share a RunConfig step as one batch through one propagator,
    # so a power sweep builds one, not one per value
    from critevo import solver

    init = solver.ModePropagator.__init__
    calls = []

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(solver.ModePropagator, "__init__", counting_init)
    _, _, doc = _simulate_sweep(op_file, tmp_path, parameter, values, T=1.0)
    assert doc["n_ok"] == len(values) - (parameter == "nonlinearity.p")
    assert len(calls) == builds


@pytest.mark.parametrize("amplitude", [1e303, 1e307])
def test_amplitude_past_the_float_range_of_the_norms_exits_2(op_file, tmp_path, capsys,
                                                             amplitude):
    # the blow-up threshold 1e6 * |amplitude| itself leaves the doubles: 1e303 left
    # it infinite, and 1e307 overflowed the first inverse transform
    rc, out = _run(tmp_path, "simulate", sim_config(op_file, T=2.0, amplitude=amplitude))
    assert rc == 2
    assert not out.exists()
    assert f"amplitude {amplitude!r}" in capsys.readouterr().err


_NON_FINITE = re.compile(r"\b(inf|nan)\b")


def _assert_finite_artifacts(out: Path) -> None:
    for path in out.iterdir():
        assert not _NON_FINITE.search(path.read_text()), path


@pytest.mark.parametrize("amplitude", [1e200, -1e200])
def test_an_amplitude_inside_the_float_range_records_finite_norms(op_file, tmp_path,
                                                                  amplitude):
    # the norms scale by max|u| before any power, so a field at 1e206 has a finite
    # L2 norm on the box; the unscaled square overflowed it
    rc, out = _run(tmp_path, "simulate", sim_config(op_file, T=2.0, amplitude=amplitude))
    assert rc == 0
    _assert_finite_artifacts(out)
    report = json.loads((out / "simulate.json").read_text())["report"]
    assert report["outcome"] == "completed"
    assert 0 < report["xnorm_sup"] < math.inf


@pytest.mark.parametrize("task, over", [
    ("simulate", {"p_for_norms": 1e308}),
    ("simulate", {"nonlinearity": {"p": 1e300, "mu": {"family": "constant"}}}),
    # torus decay has no amplitude key: its run takes amplitude 1
    ("decay", {"mode": "torus", "grid": {"N": 32, "L": 40.0}, "window": [1.0, 10.0],
               "q_list": [1e308]}),
], ids=["p_for_norms", "nonlinearity.p", "torus-q_list"])
def test_a_huge_norm_power_records_finite_norms(op_file, tmp_path, task, over):
    # every power is taken of r = |u| / max|u| <= 1, so no norm power leaves the
    # float range: Lp = max|u| (sum r^p h)^(1/p) tends to Linf as p grows
    base = (sim_config(op_file, T=2.0, amplitude=0.5) if task == "simulate"
            else {**SCHEMA, "operator": str(op_file)})
    rc, out = _run(tmp_path, task, {**base, **over})
    assert rc == 0
    _assert_finite_artifacts(out)
    if task == "simulate":
        with open(out / "series.csv") as fp:
            rows = list(csv.DictReader(fp))
        assert all(float(r["Lp[0]"]) == pytest.approx(float(r["Linf[0]"]), rel=1e-15)
                   for r in rows)
    else:
        assert json.loads((out / "decay.json").read_text())["report"]["all_pass"]


def test_torus_decay_checks_the_box_in_its_first_run_before_any_step(tmp_path, capsys,
                                                                     monkeypatch):
    # a box of volume 1e304 puts the norms of a field at the threshold 1e6 *
    # max|profile| past the float range whatever q is: the first run rejects it
    # before it builds its propagator, so no q's run steps
    from critevo import solver

    runs, builds = [], []
    real_run, real_init = solver.run, solver.ModePropagator.__init__
    monkeypatch.setattr(solver, "run", lambda *args: runs.append(1) or real_run(*args))
    monkeypatch.setattr(solver.ModePropagator, "__init__",
                        lambda self, *args: builds.append(1) or real_init(self, *args))
    op_file = write_json(tmp_path / "op.json", json.loads(dumps_json(damped_wave(2))))
    rc, out = _run(tmp_path, "decay", {**SCHEMA, "operator": str(op_file), "mode": "torus",
                                       "grid": {"N": 32, "L": 1e152}, "q_list": [2, 52]})
    assert rc == 2
    assert not out.exists()
    assert runs == [1] and builds == []
    err = capsys.readouterr().err
    assert "out of the float range of the norms on the box of volume 1e+304" in err
    # a decay config has no amplitude key: the message names the box's grid.L
    assert "(grid.L = 1e+152 in n = 2); a smaller grid.L" in err


def test_torus_decay_of_a_high_q_does_not_underflow(op_file, tmp_path):
    # the field decays to ~1e-17 by t = 1e4: its 40th power underflowed the
    # unscaled sum to 0 ("norm values must be positive for a log fit"), and a
    # threshold field's 52nd power overflowed it
    rc, out = _run(tmp_path, "decay", {**SCHEMA, "operator": str(op_file), "mode": "torus",
                                       "grid": {"N": 64, "L": 40.0}, "q_list": [40, 52]})
    assert rc == 0
    entries = json.loads((out / "decay.json").read_text())["report"]["entries"]
    assert [e["fit"]["verdict"] for e in entries] == ["pass", "pass"]
    assert [e["fit"]["slope"] for e in entries] == pytest.approx([-6.730, -6.733], abs=1e-3)


@pytest.mark.parametrize("config", [
    {"window": [1e-3, 1.000000000000001e-3]},
    {"window": [100, 100.00000000000003]},
    {"mode": "torus", "grid": {"N": 32, "L": 40.0}, "window": [1e-300, 1e-299]},
], ids=["whole-space-1e-3", "whole-space-100", "torus-1e-300"])
def test_decay_rejects_a_window_that_determines_no_fit(op_file, tmp_path, capsys, config):
    # the whole-space windows' log(1 + t) agree to rounding, and the torus window's
    # squares underflow: the first two reported slopes -3772 and -0.21 with exit 0,
    # and the third died in polyfit's least squares with exit 1
    rc, out = _run(tmp_path, "decay", {**SCHEMA, "operator": str(op_file), **config})
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "window [" in err and "determines no power fit" in err


@pytest.mark.parametrize("window", [[0, 1e-4], [1e-5, 1e-3]], ids=["before", "at"])
def test_whole_space_decay_rejects_a_window_ending_at_the_time_floor(
        op_file, tmp_path, capsys, monkeypatch, window):
    # whole-space samples start at 1e-3, so no sample lies in [0, 1e-4] (geomspace
    # ran backwards to one) and every sample of [1e-5, 1e-3] sits at 1e-3: the
    # window is rejected, naming the floor, before any curve is computed
    from critevo import decay

    curves = []
    monkeypatch.setattr(decay, "_decay_quadrature", lambda *args: curves.append(1))
    rc, out = _run(tmp_path, "decay", {**SCHEMA, "operator": str(op_file), "window": window})
    assert rc == 2
    assert not out.exists()
    assert curves == []
    err = capsys.readouterr().err
    assert (f"whole-space sample times start at 1e-3, so the window [{float(window[0])}, "
            f"{float(window[1])}] must end after 1e-3") in err


def test_amplitude_sweep_marks_only_the_values_past_the_float_range(op_file, tmp_path):
    # each value is judged alone before the batch, so the others still run
    base, out, doc = _simulate_sweep(op_file, tmp_path, "amplitude", [0.3, 1e303, 0.9])
    assert [r["status"] for r in doc["runs"]] == ["ok", "invalid", "ok"]
    assert "amplitude 1e+303" in doc["runs"][1]["message"]
    assert not (out / "value_001").exists()
    for entry in (doc["runs"][0], doc["runs"][2]):
        _assert_same_as_standalone("simulate", {**base, "amplitude": entry["value"]},
                                   out / entry["dir"], tmp_path)


@pytest.mark.parametrize("task, parameter", [
    ("simulate", "gird.N"), ("simulate", "N"), ("simulate", "gamma"), ("simulate", "p"),
    ("simulate", "grid..N"), ("simulate", "grid."), ("mu-check", "gamma"),
    ("residual-run", "amplitude"),
])
def test_sweep_path_outside_the_task_table_exits_2(bases, tmp_path, capsys, task, parameter):
    # the path is checked against the table the task reads its base config with
    config = {k: v for k, v in bases[task].items() if k != "schema_version"}
    rc, out = _run(tmp_path, "sweep", {**SCHEMA, "task": task.replace("-run", ""),
                                       "parameter": parameter, "values": [1, 2],
                                       "config": config})
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"parameter {parameter!r} is not a dotted path" in err
    assert repr(sorted(cli.RESIDUAL_RUN if task == "residual-run" else cli.TABLES[task])) in err


def test_sweep_of_a_nested_path_writes_standalone_artifacts(op_file, tmp_path):
    base = sim_config(op_file, T=1.0, record_fields=True)
    rc, out = _run(tmp_path / "sweep", "sweep", {
        **SCHEMA, "task": "simulate", "parameter": "profile.width", "values": [1.5, 2.0],
        "config": base})
    assert rc == 0
    doc = json.loads((out / "sweep_index.json").read_text())
    assert [r["status"] for r in doc["runs"]] == ["ok", "ok"]
    for entry in doc["runs"]:
        sub = {**base, "profile": {**base["profile"], "width": entry["value"]}}
        _assert_same_as_standalone("simulate", sub, out / entry["dir"], tmp_path)


def test_n_sweep_of_an_operator_file(tmp_path):
    # "n" is the top-level dimension override, so the operator need not be inline
    frac = write_json(tmp_path / "frac.json", json.loads(dumps_json(sigma_evolution(1, 2, 0))))
    base = {**SCHEMA, "operator": str(frac)}
    rc, out = _run(tmp_path / "sweep", "sweep", {
        **SCHEMA, "task": "exponent", "parameter": "n", "values": [1, 3], "config": base})
    assert rc == 0
    doc = json.loads((out / "sweep_index.json").read_text())
    assert [r["summary"]["p_c"] for r in doc["runs"]] == ["5", "7/3"]
    for entry in doc["runs"]:
        _assert_same_as_standalone("exponent", {**base, "n": entry["value"]},
                                   out / entry["dir"], tmp_path)


def _modules_after(*runs, names=("scipy",), imports="from critevo import cli") -> list[str]:
    """The modules of ``names`` (each with its submodules) a fresh interpreter
    holds after ``imports`` and, for each (task, cfg, out) of ``runs``,
    ``critevo <task>`` on cfg into out, which must exit 0."""
    code = "\n".join(
        ["import sys", imports]
        + [f"assert cli.main([{task!r}, '--config', {str(cfg)!r}, '--out-dir', {str(out)!r}]) == 0"
           for task, cfg, out in runs]
        + ["print(sorted(m for m in sys.modules if any("
           f"m == a or m.startswith(a + '.') for a in {tuple(names)!r})))"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1].replace("'", '"'))


@pytest.mark.parametrize("module, absent", [
    ("critevo.cli", ("scipy",)),
    ("critevo.config", ("numpy",)),
    ("critevo.errors", ("numpy",)),
    ("critevo.envelope", tuple(f"critevo.{m}" for m in ("solver", "decay", "residual", "mu",
                                                         "cli"))),
    ("critevo.cli", ("numpy",)),
    ("critevo.operators", ("numpy",)),
    ("critevo.reporting", ("numpy",)),
    ("critevo.envelope", ("numpy",)),
    ("critevo.mu", ("numpy",)),
], ids=["cli-scipy", "config-numpy", "errors-numpy", "envelope-numerics", "cli-numpy",
        "operators-numpy", "reporting-numpy", "envelope-numpy", "mu-numpy"])
def test_cli_import_leaves_scipy_out(module, absent):
    # each layer loads only what it needs: the package itself imports nothing
    assert _modules_after(names=absent, imports=f"import {module}") == []


def test_mu_check_and_recorded_residual_load_no_scipy(op_file, tmp_path):
    # the recorded-run form; test_m2_tasks_load_no_scipy covers the inline one
    run_dir = tmp_path / "run"
    sim = write_json(tmp_path / "sim.json", sim_config(op_file, T=2.0, record_fields=True))
    assert cli.main(["simulate", "--config", str(sim), "--out-dir", str(run_dir)]) == 0
    mu_cfg = write_json(tmp_path / "mu.json", {
        **SCHEMA, "mu": {"family": "iterated_log", "depth": 1, "gamma": 2.0}})
    res_cfg = write_json(tmp_path / "res.json",
                         {**SCHEMA, "run": str(run_dir), "test_function": {}})
    assert _modules_after(("mu-check", mu_cfg, tmp_path / "m"),
                          ("residual", res_cfg, tmp_path / "r")) == []


def test_a_cold_exponent_loads_no_numpy(tmp_path):
    # the exact layer runs on Fractions: numpy is never imported
    op = json.loads(dumps_json(sigma_evolution(3, 2, 1)))
    cfg = write_json(tmp_path / "exponent.json", {**SCHEMA, "operator": op})
    assert _modules_after(("exponent", cfg, tmp_path / "out"), names=("numpy",)) == []
    assert json.loads((tmp_path / "out" / "exponent.json").read_text())["report"]["p_c"] == str(
        critical_exponent(sigma_evolution(3, 2, 1), 0, 3).p_c)


def test_a_cold_envelope_imports_no_numpy(tmp_path):
    # the samples CSV is built from plain lists, so -X importtime names no numpy
    op = json.loads(dumps_json(sigma_evolution(3, 2, 1)))
    cfg = write_json(tmp_path / "envelope.json", {**SCHEMA, "operator": op})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "critevo.cli", "envelope",
                           "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    assert "critevo.envelope" in proc.stderr
    assert [line for line in proc.stderr.splitlines() if "numpy" in line] == []
    assert (tmp_path / "out" / "envelope_samples.csv").is_file()


_COLD_MU = {
    "constant": {"family": "constant", "value": 2.0},
    "power": {"family": "power", "epsilon": 0.5},
    "iterated_log": {"family": "iterated_log", "depth": 1, "gamma": 2.0},
    "custom_table": {"family": "custom_table", "taus": [0.001, 0.01], "values": [0.0, 1.0]},
}


@pytest.mark.parametrize("family", sorted(_COLD_MU))
def test_a_cold_mu_check_loads_no_solver_layer(tmp_path, family):
    # mu-check runs critevo.mu on Python floats: no numpy (so no numpy.random),
    # and nothing of the solver, decay or residual
    cfg = write_json(tmp_path / "mu.json", {**SCHEMA, "mu": _COLD_MU[family]})
    absent = ("numpy", "critevo.solver", "critevo.decay", "critevo.residual")
    assert _modules_after(("mu-check", cfg, tmp_path / "out"), names=absent) == []
    assert (tmp_path / "out" / "mu_check.json").is_file()


def _task_run(tmp_path, op, task):
    """(subcommand, config file, out dir) of a small ``task`` on ``op``: a
    simulate, an amplitude sweep, an inline residual, or a torus or
    whole-space decay."""
    op_file = write_json(tmp_path / "op.json", json.loads(dumps_json(op)))
    sim = sim_config(op_file, T=2.0)
    cfg = {"simulate": sim,
           "sweep": {**SCHEMA, "task": "simulate", "parameter": "amplitude",
                     "values": [0.5, 1.0], "config": sim},
           "residual": {**sim, "test_function": {}},
           "torus-decay": {**SCHEMA, "operator": str(op_file), "mode": "torus",
                           "grid": {"N": 32, "L": 40.0}, "window": [1.0, 10.0]},
           "whole-space-decay": {**SCHEMA, "operator": str(op_file)}}[task]
    return task.split("-")[-1], write_json(tmp_path / "cfg.json", cfg), tmp_path / "out"


HEAT = EvolutionOperator(m=1, n=1, levels={0: (fractional_term(1, 1.0),)})


@pytest.mark.parametrize("task, op", [
    ("simulate", damped_wave(1)), ("sweep", damped_wave(1)), ("residual", damped_wave(1)),
    ("simulate", HEAT), ("sweep", HEAT), ("residual", HEAT), ("torus-decay", HEAT),
], ids=["simulate", "sweep", "residual", "m1-simulate", "m1-sweep", "m1-residual",
        "m1-torus-decay"])
def test_m2_tasks_load_no_scipy(tmp_path, task, op):
    # an m = 2 propagator is built in closed form, and so is an m = 1 one, whose
    # augmented block is 2x2: a cold run, an amplitude sweep, an inline residual
    # and a torus decay never import scipy
    assert _modules_after(_task_run(tmp_path, op, task)) == []


# d_t^3 u + 3 d_t^2 u + (-Lap) d_t u + (-Lap) u, the third-order operator of the
# solver and decay tests
THIRD_ORDER = EvolutionOperator(m=3, n=2, levels={
    0: (fractional_term(1, 1.0),), 1: (fractional_term(1, 1.0),), 2: (fractional_term(0, 3.0),)})


@pytest.mark.parametrize("task", ["simulate", "sweep", "residual", "torus-decay",
                                  "whole-space-decay"])
def test_m3_tasks_load_no_scipy(tmp_path, task):
    # m = 3 takes exp_blocks' numpy Pade exponential of its 4x4 Van Loan blocks
    # and of its nearly defective decay nodes: no task imports scipy
    name, cfg, out = _task_run(tmp_path, THIRD_ORDER, task)
    assert _modules_after((name, cfg, out)) == []
    if task == "simulate":
        report = json.loads((out / "simulate.json").read_text())["report"]
        assert report["outcome"] == "completed"
    if task == "whole-space-decay":
        report = json.loads((out / "decay.json").read_text())["report"]
        assert report["entries"][0]["quadrature"]["expm_fallback_nodes"] > 0


def test_whole_space_decay_of_an_m2_operator_loads_no_scipy(tmp_path):
    # sigma-evolution (3, 2, 1) has nearly defective nodes, which m = 2 takes in
    # closed form
    op = write_json(tmp_path / "op.json", json.loads(dumps_json(sigma_evolution(3, 2, 1))))
    cfg = write_json(tmp_path / "decay.json", {**SCHEMA, "operator": str(op)})
    out = tmp_path / "d"
    assert _modules_after(("decay", cfg, out)) == []
    report = json.loads((out / "decay.json").read_text())["report"]
    assert report["entries"][0]["quadrature"]["expm_fallback_nodes"] > 0


_OUT_OF_DOMAIN_MU = {"family": "iterated_log", "depth": 1, "gamma": 2.0, "extension_point": 0.5}


def test_amplitude_sweep_rejects_an_out_of_domain_mu_for_every_value(op_file, tmp_path):
    # log(-log tau) <= 0 on [1/e, 0.5]: the mu is invalid whatever the amplitude
    sim = sim_config(op_file, nonlinearity={"p": 2.0, "mu": _OUT_OF_DOMAIN_MU})
    cfg = write_json(tmp_path / "sweep.json", {
        "schema_version": 1, "task": "simulate", "parameter": "amplitude",
        "values": [0.1, 0.2, 0.45, 0.9], "config": sim,
    })
    assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == 0
    runs = json.loads((tmp_path / "s" / "sweep_index.json").read_text())["runs"]
    assert [r["status"] for r in runs] == ["invalid"] * 4
    assert len({r["message"] for r in runs}) == 1
    assert "inner log is <= 0" in runs[0]["message"]


def test_simulate_with_an_out_of_domain_mu_exits_2_and_writes_nothing(op_file, tmp_path,
                                                                         capsys):
    # at amplitude 0.1 no field value reaches 1/e, so no evaluation would notice
    cfg = write_json(tmp_path / "sim.json", sim_config(
        op_file, amplitude=0.1, nonlinearity={"p": 2.0, "mu": _OUT_OF_DOMAIN_MU}))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "inner log is <= 0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_empty_values_exit_2(op_file, tmp_path, capsys):
    cfg = write_json(tmp_path / "sweep.json", {
        "schema_version": 1, "task": "simulate", "parameter": "grid.N",
        "values": [], "config": sim_config(op_file),
    })
    assert cli.main(["sweep", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "s")]) == 2
    assert "non-empty" in capsys.readouterr().err


# --- strict config tables -------------------------------------------------

NAN = float("nan")  # json.dumps writes it as the bare token NaN


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """One valid config per subcommand table, each naming every nested table."""
    root = tmp_path_factory.mktemp("bases")
    op = write_json(root / "op.json", json.loads(dumps_json(damped_wave(1))))
    sim = sim_config(op, T=1.0, amplitude=0.1, nonlinearity={
        "p": 2.0, "mu": {"family": "iterated_log", "gamma": 2.0}})
    run_dir = root / "run"
    cfg = write_json(root / "sim.json", {**sim, "T": 10.0, "record_fields": True})
    assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(run_dir)]) == 0
    return {
        "exponent": {**SCHEMA, "operator": str(op)},
        "envelope": {**SCHEMA, "operator": str(op)},
        "mu-check": {**SCHEMA, "mu": {"family": "iterated_log", "gamma": 2.0}},
        "simulate": sim,
        "decay": {**SCHEMA, "operator": str(op), "mode": "torus",
                  "grid": {"N": 32, "L": 40.0}, "window": [1.0, 10.0]},
        "residual": {**sim, "test_function": {}},
        "residual-run": {**SCHEMA, "run": str(run_dir), "test_function": {}},
        "sweep": {**SCHEMA, "task": "mu-check", "parameter": "p", "values": [2.0],
                  "config": {"mu": {"family": "iterated_log", "gamma": 2.0}}},
    }


def _set(doc: dict, path: tuple[str, ...], value) -> dict:
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return doc


def _run(tmp_path, task: str, cfg: dict) -> tuple[int, Path]:
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / "out"
    path = write_json(tmp_path / "cfg.json", cfg)
    return cli.main([task.replace("-run", ""), "--config", str(path),
                     "--out-dir", str(out)]), out


@pytest.mark.parametrize("extra", [{"cap": 1e300}, {"cap": 100, "p": 200}, {"cap": 1e-200}],
                         ids=["cap=1e300", "cap=100-p=200", "cap=1e-200"])
def test_mu_check_at_extreme_caps_writes_finite_numbers(tmp_path, extra):
    # the certificate evaluates no F: C = p, and the lower end is the larger
    # of 1 at (cap, 0) and p/2 at (cap, cap^-), whatever cap^p is
    code, out = _run(tmp_path, "mu-check", {**SCHEMA, "mu": {"family": "constant"}, **extra})
    assert code == 0
    text = (out / "mu_check.json").read_text()
    assert not any(bad in text for bad in ('"nan"', '"inf"', '"-inf"'))  # jsonify's spellings
    cert = json.loads(text)["certificate"]
    p = extra.get("p", 2.0)
    assert cert["constant"] == p and cert["constant_lower"] == max(1.0, p / 2)
    assert cert["cap"] == extra["cap"]


@pytest.mark.parametrize("mu", [{"family": "constant", "value": 0.0},
                                {"family": "custom_table", "taus": [0.0, 1.0], "values": [0, 0]}],
                         ids=["constant", "custom_table"])
def test_mu_check_with_mu_zero_at_twice_the_cap_exits_2(tmp_path, capsys, mu):
    # (iv) divides by mu(|y| + |z|), which is 0 at 2 cap: no ratio is finite
    code, out = _run(tmp_path, "mu-check", {**SCHEMA, "mu": mu, "c0": 0.5, "cap": 0.5})
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "mu(2 cap) = 0.0" in err and "cap = 0.5" in err


_EXTREME_MU = [(family, extra) for family in sorted(_COLD_MU)
               for extra in ({"cap": 1e300}, {"cap": 1e-300}, {"p": 200}, {"c0": "tau*"},
                             {"levels": "max"})
               if not (family == "constant" and extra == {"c0": "tau*"})]  # tau* = inf
# constant's c0 is unbounded; past 10^0.5 the growth fit's log w raised LinAlgError
_EXTREME_MU.append(("constant", {"c0": 10.0}))


@pytest.mark.parametrize("family, extra", _EXTREME_MU,
                         ids=[f"{f}-{'-'.join(map(str, e.items()))}" for f, e in _EXTREME_MU])
def test_mu_check_at_extreme_configs_exits_0_or_2(tmp_path, capsys, family, extra):
    # mu-check runs on Python floats, which raise where numpy read inf or nan
    # (OverflowError from **, ValueError from math.log): every extreme still
    # ends in an artifact or a clean exit 2, never a traceback
    cfg = {**SCHEMA, "mu": _COLD_MU[family], **extra}
    if extra.get("c0") == "tau*":
        cfg["c0"] = {"power": 1.0, "iterated_log": math.exp(-math.e),
                     "custom_table": 0.01}[family]
    if extra.get("levels") == "max":
        code, _ = _run(tmp_path / "probe", "mu-check", {**cfg, "levels": 10**6})
        assert code == 2
        cfg["levels"] = int(re.search(r"levels must be in \[2, (\d+)\]",
                                      capsys.readouterr().err).group(1))
    code, out = _run(tmp_path, "mu-check", cfg)
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert (out / "mu_check.json").is_file() == (code == 0)
    assert (code == 2) == err.startswith("error: "), err


@pytest.mark.parametrize("depth, gamma, finite", [(0, -300.0, 3), (0, -400.0, 1),
                                                   (1, -700.0, 5)],
                         ids=["depth0-gamma-300", "depth0-gamma-400", "depth1-gamma-700"])
def test_mu_check_past_the_double_range_keeps_its_verdict(tmp_path, depth, gamma, finite):
    # mu grows like a power of log^[depth](-log tau) that leaves the doubles deep in
    # the decades: this exited 3, though gamma <= 1 decides "divergent" and the
    # certificate takes no quadrature.  Each decade sum past the range reads "inf",
    # and the growth line runs through the finite ones (none with fewer than two)
    code, out = _run(tmp_path, "mu-check", {**SCHEMA, "mu": {
        "family": "iterated_log", "depth": depth, "gamma": gamma}})
    assert code == 0
    doc = json.loads((out / "mu_check.json").read_text())
    integral = doc["integral"]
    assert integral["classification"] == "divergent"
    assert integral["growth_label"] == "growing"
    partials = integral["partial_integrals"]
    assert all(0 < v < math.inf for v in partials[:finite])
    assert partials[finite:] == ["inf"] * (8 - finite)
    assert (integral["fitted_slope"] is None) == (finite < 2)
    assert 0 <= integral["quadrature_error"] < math.inf
    assert doc["certificate"]["monotone"] is False and doc["certificate"]["constant"] is None


def test_a_custom_table_ending_at_tau_0_needs_an_extension_point(tmp_path, capsys):
    # its default tau* = taus[-1] = 0 left the default c0 at 0, which the error named
    mu = {"family": "custom_table", "taus": [0.0], "values": [1.0]}
    code, out = _run(tmp_path / "bare", "mu-check", {**SCHEMA, "mu": mu})
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "taus" in err and "extension_point" in err and "c0" not in err
    code, out = _run(tmp_path / "held", "mu-check",
                     {**SCHEMA, "mu": {**mu, "extension_point": 0.5}})
    assert code == 0
    assert "integral: divergent (growing)" in capsys.readouterr().out
    cert = json.loads((out / "mu_check.json").read_text())["certificate"]
    assert (cert["constant_lower"], cert["constant"]) == (1.0, 2.0)


def test_table_walk_bases_are_valid(bases, tmp_path):
    for task, cfg in bases.items():
        assert _run(tmp_path / task, task, cfg)[0] == 0, task


# every artifact has its fixed name, nothing draws random numbers in a run,
# a residual or a certificate, and an inline residual always records its fields
_REMOVED = {"output": "run.json", "seed": 0, "record_fields": True, "output_dir": "out"}
_REMOVED_CASES = [("exponent", "output"), ("simulate", "output"), ("residual-run", "output"),
                  ("simulate", "seed"), ("residual", "seed"), ("residual-run", "seed"),
                  ("residual", "record_fields"), ("exponent", "output_dir"),
                  ("sweep", "output_dir"), ("mu-check", "seed")]


@pytest.mark.parametrize("task,key", _REMOVED_CASES, ids=[f"{t}:{k}" for t, k in _REMOVED_CASES])
def test_removed_key_is_unknown(bases, tmp_path, capsys, task, key):
    rc, out = _run(tmp_path, task, {**bases[task], key: _REMOVED[key]})
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "unknown keys" in err and repr(key) in err


def test_output_dir_in_a_sweep_config_is_invalid(bases, tmp_path):
    cfg = {**bases["sweep"], "config": {**bases["sweep"]["config"], "output_dir": "out"}}
    rc, out = _run(tmp_path, "sweep", cfg)
    assert rc == 0
    run = json.loads((out / "sweep_index.json").read_text())["runs"][0]
    assert run["status"] == "invalid"
    assert "output_dir" in run["message"]
    assert not (out / "value_000").exists()


_TABLE_KEYS = {
    "exponent": ["schema_version", "operator", "ell", "n"],
    "envelope": ["schema_version", "operator", "ell", "n", "samples", "eta_max"],
    "mu-check": ["schema_version", "mu", "c0", "levels", "tol", "p", "cap"],
    "simulate": ["schema_version", "operator", "ell", "n", "grid", "profile",
                 "amplitude", "dt", "T", "nonlinearity", "p_for_norms", "record_every",
                 "record_fields"],
    "decay": ["schema_version", "operator", "ell", "n", "mode", "q_list",
              "window", "width", "targets", "p_c", "n_times", "tol", "grid", "fit_mode"],
    "residual": ["schema_version", "operator", "ell", "n", "grid", "profile",
                 "amplitude", "dt", "T", "nonlinearity", "p_for_norms", "record_every",
                 "test_function"],
    "sweep": ["schema_version", "task", "parameter", "values", "config"],
    "residual-run": ["schema_version", "run", "test_function"],
}


def test_config_tables_are_pinned():
    # every accepted key is one more configuration to test: adding one is a
    # deliberate edit of this list
    tables = {name: list(table) for name, table in cli.TABLES.items()}
    tables["residual-run"] = list(cli.RESIDUAL_RUN)
    assert tables == _TABLE_KEYS


def test_whole_space_decay_rejects_torus_keys(bases, tmp_path, capsys):
    whole = {**SCHEMA, "operator": bases["decay"]["operator"]}
    rc, out = _run(tmp_path / "grid", "decay", {**whole, "grid": {"N": 3, "L": -1}})
    assert rc == 2
    assert not out.exists()
    assert "config.grid" in capsys.readouterr().err
    # neither mode has a time step: torus decay steps once per record
    for mode in ("whole-space", "torus"):
        cfg = {**bases["decay"], "mode": mode, "dt": 0.05}
        rc, out = _run(tmp_path / f"dt-{mode}", "decay", cfg)
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "unknown keys" in err and "'dt'" in err
    assert _run(tmp_path / "torus", "decay", bases["decay"])[0] == 0
    rc, out = _run(tmp_path / "sweep", "sweep", {
        **SCHEMA, "task": "decay", "parameter": "dt", "values": [0.05, 0.1], "config": whole})
    assert rc == 2
    assert not out.exists()


_BAD_TEST_FUNCTIONS = {
    "unknown": {"frobnicate": 1}, "fractional": {"smooth_order": 2.5},
    "q_tf=0": {"q_tf": 0}, "smooth_order=0": {"smooth_order": 0},
    "flat_fraction=0": {"flat_fraction": 0}, "flat_fraction=1.5": {"flat_fraction": 1.5},
    "reg_epsilon<0": {"reg_epsilon": -1e-3}, "eta_bar=0": {"eta_bar": 0},
    "eta_bar<0": {"eta_bar": "-1/2"}, "scale=0": {"scale": 0},
}


@pytest.mark.parametrize("test_function", list(_BAD_TEST_FUNCTIONS.values()),
                         ids=list(_BAD_TEST_FUNCTIONS))
def test_inline_residual_checks_its_test_function_before_the_run(bases, tmp_path, capsys,
                                                                 monkeypatch, test_function):
    def no_run(*args, **kwargs):
        raise AssertionError("the solver ran before the test function was checked")

    monkeypatch.setattr(cli, "run", no_run)
    rc, out = _run(tmp_path, "residual", {**bases["residual"], "test_function": test_function})
    assert rc == 2
    assert not out.exists()
    assert next(iter(test_function)) in capsys.readouterr().err


@pytest.mark.parametrize("task", ["residual", "residual-run"])
@pytest.mark.parametrize("scale", [1e-170, 1e-300])
def test_residual_rejects_a_scale_whose_powers_underflow(bases, tmp_path, capsys, task, scale):
    # d_t^2 psi divides by R^2, which underflows to 0: the residual read NaN
    rc, out = _run(tmp_path, task, {**bases[task], "test_function": {"scale": scale}})
    assert rc == 2
    assert not (out / "residual.json").exists()
    assert f"test_function.scale R = {scale!r} is too small" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["residual", "residual-run"])
@pytest.mark.parametrize("key", ["eta_bar", "reg_epsilon"])
def test_residual_rejects_a_test_function_whose_powers_overflow(bases, tmp_path, capsys, task,
                                                                key):
    # (L/2)^eta_bar and reg_epsilon^2 in Python floats raised OverflowError: exit 1
    rc, out = _run(tmp_path, task, {**bases[task], "test_function": {key: 1e300}})
    assert rc == 2
    assert not (out / "residual.json").exists()
    assert f"test_function.{key} = 1e+300" in capsys.readouterr().err


def test_torus_decay_rejects_n_times(bases, tmp_path, capsys):
    # torus mode fits the solver's recorded times: n_times would change nothing
    rc, out = _run(tmp_path, "decay", {**bases["decay"], "n_times": 10})
    assert rc == 2
    assert not out.exists()
    assert "config.n_times" in capsys.readouterr().err


def _typed_keys():
    """(task, config path, kind) of every key in every subcommand table."""
    tables = {**cli.TABLES, "residual-run": cli.RESIDUAL_RUN}
    nested = {"grid": cli.GRID, "nonlinearity": cli.NONLINEARITY,
              "test_function": cli.TEST_FUNCTION}
    for task, table in tables.items():
        for name, key in table.items():
            yield task, (name,), key.kind
            if name in nested and (task != "decay" or name == "grid"):
                for sub, subkey in nested[name].items():
                    yield task, (name, sub), subkey.kind


_WRONG = {"int": 1.5, "bool": "false", "number": NAN}
_CASES = [(task, path, _WRONG[kind]) for task, path, kind in _typed_keys() if kind in _WRONG]


@pytest.mark.parametrize("task,path,wrong", _CASES,
                         ids=[f"{t}:{'.'.join(p)}" for t, p, _ in _CASES])
def test_wrong_json_type_exit_2(bases, tmp_path, task, path, wrong):
    rc, out = _run(tmp_path, task, _set(bases[task], path, wrong))
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("task,path,value", [
    ("exponent", ("ell",), 1.7),
    ("simulate", ("grid", "N"), 32.9),
    ("simulate", ("record_fields",), "false"),
    ("simulate", ("profile", "zero_mean"), "no"),
    ("mu-check", ("mu", "depth"), 1.9),
    ("mu-check", ("mu", "gamma"), NAN),
    ("simulate", ("amplitude",), NAN),
    ("simulate", ("dt",), 0.3),  # T = 1.0 is not a multiple of it
], ids=["ell", "N", "record_fields", "zero_mean", "depth", "gamma", "amplitude", "T/dt"])
def test_coerced_values_are_rejected(bases, tmp_path, capsys, task, path, value):
    rc, out = _run(tmp_path, task, _set(bases[task], path, value))
    assert rc == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def _fractional_wave(power, coeff=1.0):
    """u_tt + u_t + coeff (-Lap)^power u in one dimension, as inline JSON."""
    return {**SCHEMA, "m": 2, "n": 1, "levels": {
        "0": [{"kind": "fractional_laplacian", "power": power, "coeff": coeff}],
        "1": [{"kind": "fractional_laplacian", "power": 0, "coeff": 1.0}]}}


_BIG = 10**400  # a JSON integer of 401 digits, past the double range


@pytest.mark.parametrize("task, over, key", [
    ("simulate", {"amplitude": _BIG}, "config.amplitude"),
    ("simulate", {"grid": {"N": 2 * _BIG, "L": 40.0}}, "grid.N"),
    ("simulate", {"operator": _fractional_wave(1, coeff=_BIG)}, "term.coeff"),
    ("simulate", {"operator": _fractional_wave(_BIG)}, "term.power"),
    ("exponent", {"operator": _fractional_wave(_BIG)}, "term.power"),
    ("exponent", {"operator": _fractional_wave(str(_BIG))}, "term.power"),
    ("exponent", {"operator": _fractional_wave(f"{_BIG}/3")}, "term.power"),
    ("mu-check", {"mu": {"family": "constant"}, "p": _BIG}, "config.p"),
    ("decay", {"n_times": _BIG}, "config.n_times"),
], ids=["amplitude", "N", "coeff", "power", "exponent-power", "exponent-power-string",
        "exponent-power-ratio", "mu-check-p", "n_times"])
def test_an_integer_past_the_double_range_exits_2(op_file, tmp_path, capsys, task, over, key):
    # each ended in an OverflowError traceback and exit 1
    base = {"simulate": sim_config(op_file, T=1.0), "mu-check": SCHEMA}.get(
        task, {**SCHEMA, "operator": str(op_file)})
    rc, out = _run(tmp_path, task, {**base, **over})
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert key in err and "double range" in err


def test_sweep_records_fractional_N_as_invalid(bases, tmp_path):
    cfg = {**SCHEMA, "task": "simulate", "parameter": "grid.N", "values": [32.9],
           "config": bases["simulate"]}
    rc, out = _run(tmp_path, "sweep", cfg)
    assert rc == 0
    run = json.loads((out / "sweep_index.json").read_text())["runs"][0]
    assert run["status"] == "invalid"
    assert "grid.N must be a JSON integer" in run["message"]
    assert not (out / "value_000").exists()


def test_config_module_imports_no_numerics():
    import ast

    import critevo.config

    tree = ast.parse(Path(critevo.config.__file__).read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    assert not imported & {"numpy", "scipy"}


@pytest.mark.parametrize("task,path,value", [
    ("simulate", ("p_for_norms",), 0),
    ("simulate", ("p_for_norms",), -2),
    ("decay", ("q_list",), [0]),
    ("decay", ("q_list",), []),
    ("decay", ("q_list",), [2, 2.0]),
    ("decay", ("q_list",), [3.0000001, 3.0000002]),  # both would write decay_curve_q3.csv
    ("decay", ("window",), [100, -5]),
    ("decay", ("mode",), "sideways"),
    ("mu-check", ("mu",), {"family": "constant", "value": -1}),
    ("mu-check", ("mu",), {"family": "custom_table", "taus": [0.0, 1.0], "values": [1, -1]}),
    ("mu-check", ("mu",), {"family": ["constant"]}),
], ids=["p_for_norms=0", "p_for_norms<0", "q=0", "q_list=[]", "q_list repeats", "q_list same file",
        "window", "mode", "mu<0", "table_mu<0", "family_list"])
def test_out_of_range_values_are_rejected(bases, tmp_path, capsys, task, path, value):
    rc, out = _run(tmp_path, task, _set(bases[task], path, value))
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert path[-1] in err and "must be" in err  # names the offending key


@pytest.mark.parametrize("key,value,rc", [
    ("tol", 1e-16, 2), ("tol", 1e-15, 0), ("levels", 340, 2), ("levels", 306, 0),
    ("levels", 1, 2), ("levels", 2, 0),
], ids=["tol=1e-16", "tol=1e-15", "levels=340", "levels=306", "levels=1", "levels=2"])
def test_mu_check_tol_and_levels_ranges(tmp_path, capsys, key, value, rc):
    # a decade sum cannot settle below rounding, past levels 306 at c0 = 0.1
    # tau runs below the smallest normal double, and the growth label fits a
    # line through the decade sums, which takes two of them
    cfg = {**SCHEMA, "c0": 0.1, "mu": {"family": "iterated_log", "gamma": 2.0}, key: value}
    code, out = _run(tmp_path, "mu-check", cfg)
    assert code == rc
    if rc == 2:
        assert not out.exists()
        err = capsys.readouterr().err
        assert key in err and "must be" in err
    else:
        assert (out / "mu_check.json").exists()


def test_decay_fit_mode_typo_is_not_a_one_sided_pass(op_file, tmp_path, capsys):
    cfg = {**SCHEMA, "operator": str(op_file), "targets": {"2": -0.1}}
    rc, out = _run(tmp_path / "two", "decay", {**cfg, "fit_mode": "two-sided"})
    assert rc == 0
    assert json.loads((out / "decay.json").read_text())["report"]["all_pass"] is False
    rc, out = _run(tmp_path / "typo", "decay", {**cfg, "fit_mode": "two_sided"})
    assert rc == 2
    assert not out.exists()
    assert "fit_mode" in capsys.readouterr().err


def test_decay_n_times_below_ten_exits_before_the_quadrature(op_file, tmp_path, capsys,
                                                            monkeypatch):
    # the fit needs 10 samples in the window, and every whole-space sample lies in it
    def no_fit(*args, **kwargs):
        raise AssertionError("the decay curve was computed before n_times was checked")

    monkeypatch.setattr(decay, "check_linear_decay_hypothesis", no_fit)
    rc, out = _run(tmp_path, "decay", {**SCHEMA, "operator": str(op_file), "n_times": 9})
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "n_times" in err and "must be" in err


_PAST_THE_BOUND = {
    # 10^300 lies inside the double range, but np.geomspace cannot build that many times
    "n_times=1e300": ("decay", {"n_times": 10**300}, "config.n_times", "in [10, 1000]"),
    "n_times=1001": ("decay", {"n_times": 1001}, "config.n_times", "in [10, 1000]"),
    # 10^11 samples would build their list until memory runs out
    "samples=10001": ("envelope", {"samples": 10_001}, "config.samples", "in [2, 10000]"),
    # 600 overflows C(2o + 1, o), which the residual computes only after its run
    "smooth_order=600": ("residual", {"test_function": {"smooth_order": 600}},
                         "test_function.smooth_order", "in [1, 500]"),
    "recorded-smooth_order=501": ("residual-run", {"test_function": {"smooth_order": 501}},
                                  "test_function.smooth_order", "in [1, 500]"),
    # 2^32 points ended in numpy's _ArrayMemoryError from Grid.axes, exit 1
    "simulate-grid.N=2^32": ("simulate", {"grid": {"N": 2**32, "L": 40.0}},
                             "N^n = 4294967296^1", "at most 2^22"),
    "residual-grid.N=2^32": ("residual", {"grid": {"N": 2**32, "L": 40.0}},
                             "N^n = 4294967296^1", "at most 2^22"),
    "torus-decay-grid.N=2^32": ("decay", {"mode": "torus", "grid": {"N": 2**32, "L": 40.0},
                                          "window": [1.0, 10.0]},
                                "N^n = 4294967296^1", "at most 2^22"),
}


@pytest.mark.parametrize("task, over, key, rule", list(_PAST_THE_BOUND.values()),
                         ids=list(_PAST_THE_BOUND))
def test_a_count_past_its_bound_exits_2_before_any_work(bases, op_file, tmp_path, capsys,
                                                        monkeypatch, task, over, key, rule):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{task} started its work before {key} was checked")

    for module, name in [(decay, "check_linear_decay_hypothesis"), (cli, "envelope_samples"),
                         (cli, "run"), (cli, "make_test_function")]:
        monkeypatch.setattr(module, name, no_work)
    base = {"decay": {**SCHEMA, "operator": str(op_file)}}.get(task, bases[task])
    rc, out = _run(tmp_path, task, {**base, **over})
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert key in err and rule in err


def test_decay_target_for_an_unfitted_q_exits_2(op_file, tmp_path, capsys):
    # a mistyped q must not leave the fitted q on its default target
    cfg = {**SCHEMA, "operator": str(op_file), "p_c": 3.0, "q_list": [2],
           "targets": {"3": -0.1}, "fit_mode": "two-sided"}
    rc, out = _run(tmp_path, "decay", cfg)
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "targets key 3.0 is not in q_list [2.0]" in err


def test_decay_targets_naming_one_q_twice_exit_2(op_file, tmp_path, capsys):
    # "2" and "2.0" parse to the same q: neither target may silently win
    cfg = {**SCHEMA, "operator": str(op_file), "q_list": [2],
           "targets": {"2": -0.25, "2.0": -0.9}}
    rc, out = _run(tmp_path, "decay", cfg)
    assert rc == 2
    assert not out.exists()
    assert "config.targets keys '2' and '2.0' both name q = 2" in capsys.readouterr().err


def test_operator_levels_naming_one_level_twice_exit_2(tmp_path, capsys):
    # "0" and " 0" parse to the same level: neither may silently win
    term = {"kind": "fractional_laplacian", "coeff": 1.0}
    operator = {**SCHEMA, "m": 2, "n": 1, "levels": {
        "0": [{**term, "power": "1"}], " 0": [{**term, "power": "2", "coeff": 5.0}],
        "1": [{**term, "power": "0"}]}}
    rc, out = _run(tmp_path, "exponent", {**SCHEMA, "operator": operator})
    assert rc == 2
    assert not out.exists()
    assert "operator.levels keys '0' and ' 0' name level 0" in capsys.readouterr().err


@pytest.mark.parametrize("task, config", [
    # r_0 = 2e-12 > 0, which the old rounding to power 0 read as degenerate
    ("exponent", {"operator": {**SCHEMA, "m": 2, "n": 1, "levels": {
        "0": [{"kind": "fractional_laplacian", "power": 1e-12, "coeff": 1.0}],
        "1": [{"kind": "fractional_laplacian", "power": "0", "coeff": 1.0}]}}}),
    ("envelope", {"eta_max": 1e-300}),
], ids=["power", "eta_max"])
def test_float_rational_that_is_no_small_fraction_exits_2(bases, tmp_path, capsys, task,
                                                          config):
    rc, out = _run(tmp_path, task, {**bases[task], **config})
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "10**9" in err and '"a/b"' in err and "must be > 0" not in err


_EXTREME = {
    # task, config entries, the key its error names
    "decay-width-small": ("decay", {"width": 1e-200}, "width"),
    "decay-width-large": ("decay", {"width": 1e200}, "width"),
    "decay-tail-symbol": ("decay", {"operator": "sigma", "p_c": 3.0, "width": 1e-100}, "width"),
    # rho^4 overflows at the Fourier cutoff 1e101 before the symbol does
    "decay-radial-weight": ("decay", {"operator": "sigma5", "p_c": 3.0, "width": 1e-100},
                            "width"),
    "torus-decay-symbol": ("decay", {"mode": "torus", "grid": {"N": 64, "L": 1e-160},
                                     "width": 2e-162, "window": [1.0, 10.0]}, "grid.L"),
    "simulate-L-small": ("simulate", {"grid": {"N": 64, "L": 1e-160},
                                      "profile": {"width": 1e-162}}, "profile width"),
    "simulate-L-symbol": ("simulate", {"grid": {"N": 64, "L": 1e-160},
                                       "profile": {"width": 2e-162}}, "grid.L"),
    "simulate-L-large": ("simulate", {"grid": {"N": 64, "L": 1e200},
                                      "profile": {"width": 1e198}}, "profile width"),
    "simulate-2d-cell": ("simulate", {"operator": "2d", "grid": {"N": 64, "L": 1e200},
                                      "profile": {"width": 1e150}}, "box length L"),
}


@pytest.mark.parametrize("case", list(_EXTREME))
def test_extreme_numbers_exit_2_naming_the_key(op_file, tmp_path, capsys, case):
    task, entries, named = _EXTREME[case]
    base = {**SCHEMA, "operator": str(op_file)}
    cfg = {**(sim_config(op_file, T=1.0) if task == "simulate" else base), **entries}
    inline = {"sigma": sigma_evolution(1, 2, 1), "sigma5": sigma_evolution(5, 1, 1),
              "2d": damped_wave(2)}
    if cfg["operator"] in inline:
        cfg["operator"] = json.loads(dumps_json(inline[cfg["operator"]]))
    rc, out = _run(tmp_path, task, cfg)
    assert rc == 2
    assert not out.exists()
    assert named in capsys.readouterr().err


_UNREAD_PROFILE_KEYS = [
    ({"kind": "gaussian", "width": 2.0, "values": [1.0] * 64}, "values"),
    ({"kind": "bump", "width": 2.0, "values": [1.0] * 64}, "values"),
    ({"kind": "custom_table", "values": [1.0] * 64, "width": 2.0}, "width"),
]


@pytest.mark.parametrize("profile,key", _UNREAD_PROFILE_KEYS,
                         ids=[f"{p['kind']}:{k}" for p, k in _UNREAD_PROFILE_KEYS])
def test_profile_key_its_kind_never_reads_exit_2(bases, tmp_path, capsys, profile, key):
    rc, out = _run(tmp_path / "with", "simulate", {**bases["simulate"], "profile": profile})
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "unknown keys in profile" in err and repr(key) in err
    clean = {name: value for name, value in profile.items() if name != key}
    assert _run(tmp_path / "without", "simulate", {**bases["simulate"], "profile": clean})[0] == 0


def test_every_module_is_reached_from_the_cli():
    """No module of the package is an orphan: the CLI imports each, transitively."""
    import ast

    src = Path(cli.__file__).parent
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                todo += [node.module] if node.module else [a.name for a in node.names]
    modules = {path.stem for path in src.glob("*.py")} - {"__init__"}
    assert sorted(modules - reached) == []


# --- self-contained recorded runs ------------------------------------------

def test_residual_ignores_operator_edits_after_the_run(op_file, tmp_path):
    sim = write_json(tmp_path / "sim.json", sim_config(op_file, record_fields=True))
    assert cli.main(["simulate", "--config", str(sim), "--out-dir", str(tmp_path / "run")]) == 0
    res = write_json(tmp_path / "res.json", {**SCHEMA, "run": str(tmp_path / "run")})
    docs = []
    for k in range(2):
        out = tmp_path / f"r{k}"
        assert cli.main(["residual", "--config", str(res), "--out-dir", str(out)]) == 0
        docs.append((out / "residual.json").read_text())
        doc = json.loads(op_file.read_text())
        doc["levels"]["1"][0]["coeff"] = 5.0  # a different damping
        write_json(op_file, doc)
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["report"]["residual"] < 1e-3


def test_config_paths_resolve_against_the_config_file(tmp_path, monkeypatch):
    # "operator" and "run" resolve against the config's directory; --out-dir
    # against the current one
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    write_json(cfg_dir / "op.json", json.loads(dumps_json(damped_wave(1))))
    write_json(cfg_dir / "sim.json", sim_config("op.json", record_fields=True))
    write_json(cfg_dir / "res.json", {**SCHEMA, "run": "run"})
    residuals = []
    for cwd in (cfg_dir, tmp_path / "elsewhere"):
        cwd.mkdir(exist_ok=True)
        monkeypatch.chdir(cwd)
        rel = os.path.relpath(cfg_dir, cwd)
        assert cli.main(["simulate", "--config", os.path.join(rel, "sim.json"),
                         "--out-dir", os.path.join(rel, "run")]) == 0
        assert cli.main(["residual", "--config", os.path.join(rel, "res.json"),
                         "--out-dir", os.path.join(rel, "res")]) == 0
        doc = json.loads((cfg_dir / "res" / "residual.json").read_text())
        residuals.append(doc["report"]["residual"])
    assert residuals[0] == residuals[1]
    assert not (tmp_path / "elsewhere" / "run").exists()


# --- artifact layout --------------------------------------------------------

def _key_paths(doc, prefix: str = "") -> list[str]:
    """Ordered key paths of a JSON document, every list's items collapsed to []."""
    paths = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else key
            paths += [path] + _key_paths(value, path)
    elif isinstance(doc, list):
        for item in doc:
            paths += _key_paths(item, prefix + "[]")
    return list(dict.fromkeys(paths))


_NL = {"p": 2.0, "mu": {"family": "constant"}}
_SIGMA = sigma_evolution(1, 2, 1).to_json()
_LAYOUT_CASES = {
    # case: (task, config for the operator file op, artifact name)
    "exponent": ("exponent", lambda op: {**SCHEMA, "operator": op}, "exponent.json"),
    "envelope": ("envelope", lambda op: {**SCHEMA, "operator": op, "samples": 5},
                 "envelope.json"),
    "mu-constant": ("mu-check", lambda op: {**SCHEMA, "mu": {"family": "constant",
                                                             "value": 2.0}}, "mu_check.json"),
    "mu-power": ("mu-check", lambda op: {**SCHEMA, "mu": {"family": "power", "epsilon": 0.5}},
                 "mu_check.json"),
    "mu-iterated_log": ("mu-check", lambda op: {**SCHEMA, "mu": {
        "family": "iterated_log", "depth": 1, "gamma": 2.0}}, "mu_check.json"),
    "mu-custom_table": ("mu-check", lambda op: {**SCHEMA, "mu": {
        "family": "custom_table", "taus": [0.0, 0.5, 1.0], "values": [0.0, 0.5, 1.0]}},
        "mu_check.json"),
    "mu-extension_point": ("mu-check", lambda op: {**SCHEMA, "mu": {
        "family": "power", "epsilon": 0.5, "extension_point": 0.5}}, "mu_check.json"),
    "simulate": ("simulate", lambda op: sim_config(op, T=1.0, record_fields=True,
                                                   nonlinearity=_NL), "simulate.json"),
    "decay": ("decay", lambda op: {**SCHEMA, "operator": op}, "decay.json"),
    "residual": ("residual", lambda op: {**sim_config(op, T=2.0, nonlinearity=_NL),
                                         "test_function": {}}, "residual.json"),
    # "run" resolves against the config's directory, where the run is recorded
    "residual-run": ("residual", lambda op: {**SCHEMA, "run": "run"}, "residual.json"),
    "sweep": ("sweep", lambda op: {**SCHEMA, "task": "exponent", "parameter": "n",
                                   "values": [1, 2, 0], "config": {"operator": _SIGMA}},
              "sweep_index.json"),
}

_LAYOUTS = {
    "decay": """
        schema_version kind config config.schema_version config.operator notes report
        report.mode report.p_c report.entries report.entries[].q report.entries[].fit
        report.entries[].fit.kind report.entries[].fit.slope report.entries[].fit.intercept
        report.entries[].fit.rms report.entries[].fit.n_samples report.entries[].fit.window
        report.entries[].fit.clean report.entries[].fit.target report.entries[].fit.tol
        report.entries[].fit.verdict report.entries[].quadrature
        report.entries[].quadrature.panels_per_decade report.entries[].quadrature.nodes
        report.entries[].quadrature.last_relative_change
        report.entries[].quadrature.expm_fallback_nodes report.all_pass report.notes
    """,
    "envelope": """
        schema_version kind config config.schema_version config.operator config.samples report
        report.p_c report.p_c_float report.eta_star report.eta_star_float report.active_levels
        report.n report.ell report.regime report.n_validity report.degenerate report.notes
        report.envelope report.envelope.pieces report.envelope.pieces[].slope
        report.envelope.pieces[].intercept report.envelope.pieces[].levels
        report.envelope.breakpoints samples samples[].eta samples[].eta_float samples[].g
        samples[].g_float samples[].h samples[].h_float
    """,
    "exponent": """
        schema_version kind config config.schema_version config.operator report report.p_c
        report.p_c_float report.eta_star report.eta_star_float report.active_levels report.n
        report.ell report.regime report.n_validity report.degenerate report.notes
        report.envelope report.envelope.pieces report.envelope.pieces[].slope
        report.envelope.pieces[].intercept report.envelope.pieces[].levels
        report.envelope.breakpoints
    """,
    "mu-constant": """
        schema_version kind config config.schema_version config.mu config.mu.family
        config.mu.value mu mu.family mu.value c0 integral integral.classification integral.c0
        integral.closed_form_value integral.quadrature_value integral.partial_integrals
        integral.growth_label integral.fitted_slope integral.quadrature_tol
        integral.quadrature_error integral.panels_per_decade certificate certificate.constant
        certificate.constant_lower certificate.monotone certificate.monotone_up_to
        certificate.derivative_bound certificate.derivative_bound_up_to certificate.convex
        certificate.convex_up_to certificate.cap
    """,
    "mu-custom_table": """
        schema_version kind config config.schema_version config.mu config.mu.family
        config.mu.taus config.mu.values mu mu.family mu.taus mu.values c0 integral
        integral.classification integral.c0 integral.closed_form_value integral.quadrature_value
        integral.partial_integrals integral.growth_label integral.fitted_slope
        integral.quadrature_tol integral.quadrature_error integral.panels_per_decade certificate
        certificate.constant certificate.constant_lower certificate.monotone
        certificate.monotone_up_to certificate.derivative_bound
        certificate.derivative_bound_up_to certificate.convex certificate.convex_up_to
        certificate.cap
    """,
    "mu-extension_point": """
        schema_version kind config config.schema_version config.mu config.mu.family
        config.mu.epsilon config.mu.extension_point mu mu.family mu.epsilon mu.extension_point
        c0 integral integral.classification integral.c0 integral.closed_form_value
        integral.quadrature_value integral.partial_integrals integral.growth_label
        integral.fitted_slope integral.quadrature_tol integral.quadrature_error
        integral.panels_per_decade certificate certificate.constant certificate.constant_lower
        certificate.monotone certificate.monotone_up_to certificate.derivative_bound
        certificate.derivative_bound_up_to certificate.convex certificate.convex_up_to
        certificate.cap
    """,
    "mu-iterated_log": """
        schema_version kind config config.schema_version config.mu config.mu.family
        config.mu.depth config.mu.gamma mu mu.family mu.depth mu.gamma c0 integral
        integral.classification integral.c0 integral.closed_form_value integral.quadrature_value
        integral.partial_integrals integral.growth_label integral.fitted_slope
        integral.quadrature_tol integral.quadrature_error integral.panels_per_decade certificate
        certificate.constant certificate.constant_lower certificate.monotone
        certificate.monotone_up_to certificate.derivative_bound
        certificate.derivative_bound_up_to certificate.convex certificate.convex_up_to
        certificate.cap
    """,
    "mu-power": """
        schema_version kind config config.schema_version config.mu config.mu.family
        config.mu.epsilon mu mu.family mu.epsilon c0 integral integral.classification
        integral.c0 integral.closed_form_value integral.quadrature_value
        integral.partial_integrals integral.growth_label integral.fitted_slope
        integral.quadrature_tol integral.quadrature_error integral.panels_per_decade certificate
        certificate.constant certificate.constant_lower certificate.monotone
        certificate.monotone_up_to certificate.derivative_bound
        certificate.derivative_bound_up_to certificate.convex certificate.convex_up_to
        certificate.cap
    """,
    "residual": """
        schema_version kind config config.schema_version config.operator config.ell config.grid
        config.grid.N config.grid.L config.profile config.profile.kind config.profile.width
        config.dt config.T config.nonlinearity config.nonlinearity.p config.nonlinearity.mu
        config.nonlinearity.mu.family config.test_function notes run_outcome run_meta
        run_meta.m run_meta.n run_meta.ell run_meta.N run_meta.L run_meta.dt run_meta.T
        run_meta.amplitude run_meta.steps_taken run_meta.norm_power run_meta.dealias_modes_kept
        run_meta.box_horizon run_meta.box_horizon_caveat run_meta.blowup_factor report
        report.residual report.lhs report.rhs report.data_term report.contributions
        report.contributions.0 report.contributions.1 report.contributions.2 report.floor
        report.test_function report.test_function.eta_bar report.test_function.scale
        report.test_function.q_tf report.test_function.flat_fraction
        report.test_function.smooth_order report.test_function.reg_epsilon
    """,
    "residual-run": """
        schema_version kind config config.schema_version config.run notes run_outcome
        run_meta run_meta.source report report.residual report.lhs report.rhs report.data_term
        report.contributions report.contributions.0 report.contributions.1
        report.contributions.2 report.floor report.test_function report.test_function.eta_bar
        report.test_function.scale report.test_function.q_tf report.test_function.flat_fraction
        report.test_function.smooth_order report.test_function.reg_epsilon
    """,
    "simulate": """
        schema_version kind config config.schema_version config.operator config.ell config.grid
        config.grid.N config.grid.L config.profile config.profile.kind config.profile.width
        config.dt config.T config.record_fields config.nonlinearity config.nonlinearity.p
        config.nonlinearity.mu config.nonlinearity.mu.family notes operator
        operator.schema_version operator.m operator.n operator.levels operator.levels.0
        operator.levels.0[].kind operator.levels.0[].alpha operator.levels.0[].coeff
        operator.levels.1 operator.levels.1[].kind operator.levels.1[].alpha
        operator.levels.1[].coeff nonlinearity nonlinearity.p nonlinearity.mu
        nonlinearity.mu.family nonlinearity.mu.value report report.outcome report.blowup_time
        report.xnorm_sup report.xnorm_last_increase report.initial_sign_functional report.meta
        report.meta.m report.meta.n report.meta.ell report.meta.N report.meta.L report.meta.dt
        report.meta.T report.meta.amplitude report.meta.steps_taken report.meta.norm_power
        report.meta.dealias_modes_kept report.meta.box_horizon report.meta.box_horizon_caveat
        report.meta.blowup_factor report.n_records
    """,
    "sweep": """
        schema_version kind config config.schema_version config.task config.parameter
        config.values config.config config.config.operator config.config.operator.schema_version
        config.config.operator.m config.config.operator.n config.config.operator.levels
        config.config.operator.levels.0 config.config.operator.levels.0[].kind
        config.config.operator.levels.0[].power config.config.operator.levels.0[].coeff
        config.config.operator.levels.1 config.config.operator.levels.1[].kind
        config.config.operator.levels.1[].power config.config.operator.levels.1[].coeff task
        parameter n_values n_ok runs runs[].index runs[].parameter runs[].value runs[].dir
        runs[].status runs[].summary runs[].summary.p_c runs[].summary.p_c_float
        runs[].summary.degenerate runs[].message
    """,
}


def _layout_artifact(case: str, tmp_path: Path, op_file: Path) -> dict:
    """The JSON artifact one layout case writes."""
    task, config, name = _LAYOUT_CASES[case]
    if case == "residual-run":
        sim = write_json(tmp_path / "sim.json", sim_config(op_file, T=2.0, record_fields=True))
        run_dir = tmp_path / "case" / "run"
        assert cli.main(["simulate", "--config", str(sim), "--out-dir", str(run_dir)]) == 0
    rc, out = _run(tmp_path / "case", task, config(str(op_file)))
    assert rc == 0
    return json.loads((out / name).read_text())


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_artifact_key_layout_is_pinned(case, tmp_path, op_file):
    assert _key_paths(_layout_artifact(case, tmp_path, op_file)) == _LAYOUTS[case].split()


def test_sigma_evolution_exponent_artifact_text_is_pinned(tmp_path):
    # Fractions and their float() values only, so the text is the same everywhere
    operator = sigma_evolution(2, 1, Fraction(1, 3)).to_json()
    rc, out = _run(tmp_path, "exponent", {**SCHEMA, "operator": operator, "ell": 1})
    assert rc == 0
    report = {
        "p_c": "4/3", "p_c_float": 1.3333333333333333,
        "eta_star": "2/3", "eta_star_float": 0.6666666666666666,
        "active_levels": [1, 2], "n": 2, "ell": 1, "regime": "effective",
        "n_validity": ["needs n > g(eta_star) - eta_star = 0; n = 2 gives denominator 2 > 0"],
        "degenerate": False, "notes": [],
        "envelope": {
            "pieces": [{"slope": "1", "intercept": "0", "levels": [2]},
                       {"slope": "0", "intercept": "2/3", "levels": [1]},
                       {"slope": "-1", "intercept": "2", "levels": [0]}],
            "breakpoints": ["2/3", "4/3"],
        },
    }
    want = {**SCHEMA, "kind": "exponent",
            "config": {**SCHEMA, "operator": operator, "ell": 1}, "report": report}
    assert (out / "exponent.json").read_text() == json.dumps(want, indent=2) + "\n"
