import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from critevo import cli
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
    assert doc["certificate"]["constant"] > 0


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


def _amplitude_sweep(op_file, tmp_path, values):
    # u_tt + u_t - u_xx = u^2: 0.9 and 1.2 blow up, at different steps
    base = sim_config(op_file, grid={"N": 32, "L": 40.0}, dt=0.05, T=8.0,
                      record_every=4, record_fields=True,
                      nonlinearity={"p": 2.0, "mu": {"family": "constant"}})
    cfg = write_json(tmp_path / "sweep.json", {
        "schema_version": 1, "task": "simulate", "parameter": "amplitude",
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
    base, out, doc = _amplitude_sweep(op_file, tmp_path, values)
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


@pytest.mark.parametrize("amplitude", [1e200, 1e303, 1e307, -1e200])
def test_amplitude_past_the_float_range_of_the_norms_exits_2(op_file, tmp_path, capsys,
                                                             amplitude):
    # a field at the blow-up threshold 1e6 * |amplitude| has an infinite L2 norm on the
    # box: 1e200 completed with infinite norms, 1e303 left the threshold itself
    # infinite, and 1e307 overflowed the first inverse transform
    rc, out = _run(tmp_path, "simulate", sim_config(op_file, T=2.0, amplitude=amplitude))
    assert rc == 2
    assert not out.exists()
    assert f"amplitude {amplitude!r}" in capsys.readouterr().err


def test_amplitude_sweep_marks_only_the_values_past_the_float_range(op_file, tmp_path):
    # each value is judged alone before the batch, so the others still run
    base, out, doc = _amplitude_sweep(op_file, tmp_path, [0.3, 1e200, 0.9])
    assert [r["status"] for r in doc["runs"]] == ["ok", "invalid", "ok"]
    assert "amplitude 1e+200" in doc["runs"][1]["message"]
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
], ids=["cli-scipy", "config-numpy", "errors-numpy", "envelope-numerics", "cli-numpy",
        "operators-numpy", "reporting-numpy", "envelope-numpy"])
def test_cli_import_leaves_scipy_out(module, absent):
    # each layer loads only what it needs: the package itself imports nothing
    code = (f"import sys, {module}; print(sorted(m for m in sys.modules if any("
            f"m == a or m.startswith(a + '.') for a in {absent!r})))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_mu_check_and_recorded_residual_load_no_scipy(op_file, tmp_path):
    # the recorded-run form; test_m2_tasks_load_no_scipy covers the inline one
    run_dir = tmp_path / "run"
    sim = write_json(tmp_path / "sim.json", sim_config(op_file, T=2.0, record_fields=True))
    assert cli.main(["simulate", "--config", str(sim), "--out-dir", str(run_dir)]) == 0
    mu_cfg = write_json(tmp_path / "mu.json", {
        **SCHEMA, "mu": {"family": "iterated_log", "depth": 1, "gamma": 2.0}})
    res_cfg = write_json(tmp_path / "res.json",
                         {**SCHEMA, "run": str(run_dir), "test_function": {}})
    code = ("import sys; from critevo import cli\n"
            f"assert cli.main(['mu-check', '--config', {str(mu_cfg)!r}, "
            f"'--out-dir', {str(tmp_path / 'm')!r}]) == 0\n"
            f"assert cli.main(['residual', '--config', {str(res_cfg)!r}, "
            f"'--out-dir', {str(tmp_path / 'r')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def _modules_after(task: str, cfg: Path, out: Path, names=("scipy",)) -> list[str]:
    """The modules of ``names`` (each with its submodules) a fresh
    interpreter holds after ``critevo <task>`` on cfg."""
    code = ("import sys; from critevo import cli\n"
            f"assert cli.main([{task!r}, '--config', {str(cfg)!r}, "
            f"'--out-dir', {str(out)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if any("
            f"m == a or m.startswith(a + '.') for a in {tuple(names)!r})))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1].replace("'", '"'))


def test_a_cold_exponent_loads_no_numpy(tmp_path):
    # the exact layer runs on Fractions: numpy is never imported
    op = json.loads(dumps_json(sigma_evolution(3, 2, 1)))
    cfg = write_json(tmp_path / "exponent.json", {**SCHEMA, "operator": op})
    assert _modules_after("exponent", cfg, tmp_path / "out", ("numpy",)) == []
    assert json.loads((tmp_path / "out" / "exponent.json").read_text())["report"]["p_c"] == str(
        critical_exponent(sigma_evolution(3, 2, 1), 0, 3).p_c)


def test_a_cold_mu_check_loads_no_solver_layer(tmp_path):
    # mu-check needs critevo.mu and numpy, nothing of the solver, decay or
    # residual, and no numpy.polynomial or numpy.ma
    cfg = write_json(tmp_path / "mu.json", {
        **SCHEMA, "mu": {"family": "custom_table", "taus": [0.001, 0.01], "values": [0.0, 1.0]}})
    absent = ("critevo.solver", "critevo.decay", "critevo.residual", "numpy.polynomial",
              "numpy.ma")
    assert _modules_after("mu-check", cfg, tmp_path / "out", absent) == []
    assert (tmp_path / "out" / "mu_check.json").is_file()


@pytest.mark.parametrize("task", ["simulate", "sweep", "residual"])
def test_m2_tasks_load_no_scipy(op_file, tmp_path, task):
    # an m = 2 propagator is built in closed form: a cold run, an amplitude
    # sweep and an inline residual never import scipy
    sim = sim_config(op_file, T=2.0)
    cfg = {"simulate": sim,
           "sweep": {**SCHEMA, "task": "simulate", "parameter": "amplitude",
                     "values": [0.5, 1.0], "config": sim},
           "residual": {**sim, "test_function": {}}}[task]
    assert _modules_after(task, write_json(tmp_path / "cfg.json", cfg), tmp_path / "out") == []


def test_m3_simulate_runs_on_scipy(tmp_path):
    # any m but 2 keeps scipy's expm of the augmented block
    op = EvolutionOperator(m=3, n=1, levels={0: (fractional_term(1, 1.0),),
                                              2: (fractional_term(0, 3.0),)})
    op_path = write_json(tmp_path / "op.json", json.loads(dumps_json(op)))
    cfg = write_json(tmp_path / "cfg.json", sim_config(op_path, T=2.0))
    assert "scipy.linalg" in _modules_after("simulate", cfg, tmp_path / "out")
    report = json.loads((tmp_path / "out" / "simulate.json").read_text())
    assert report["report"]["outcome"] == "completed"


def test_whole_space_decay_of_an_m2_operator_loads_no_scipy(tmp_path):
    # sigma-evolution (3, 2, 1) has nearly defective nodes, which m = 2 takes in
    # closed form; only m >= 3 needs scipy's expm
    op = write_json(tmp_path / "op.json", json.loads(dumps_json(sigma_evolution(3, 2, 1))))
    cfg = write_json(tmp_path / "decay.json", {**SCHEMA, "operator": str(op)})
    out = tmp_path / "d"
    code = ("import sys; from critevo import cli\n"
            f"assert cli.main(['decay', '--config', {str(cfg)!r}, "
            f"'--out-dir', {str(out)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]"
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


@pytest.mark.parametrize("extra, words", [
    ({"cap": 1e300}, "not finite"),
    ({"cap": 100, "p": 200}, "not finite"),
    ({"cap": 1e-200}, "underflows"),
], ids=["cap=1e300", "cap=100-p=200", "cap=1e-200"])
def test_mu_check_without_a_valid_lipschitz_sample_exits_2(tmp_path, capsys, extra, words):
    # these wrote "constant": "nan", or 0.0 with every bound underflowing, and exited 0
    code, out = _run(tmp_path, "mu-check", {**SCHEMA, "mu": {"family": "constant"}, **extra})
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert words in err and f"cap = {float(extra['cap'])!r}" in err and "p = " in err


def test_table_walk_bases_are_valid(bases, tmp_path):
    for task, cfg in bases.items():
        assert _run(tmp_path / task, task, cfg)[0] == 0, task


# every artifact has its fixed name, nothing draws random numbers in a run or
# a residual, and an inline residual always records its fields
_REMOVED = {"output": "run.json", "seed": 0, "record_fields": True, "output_dir": "out"}
_REMOVED_CASES = [("exponent", "output"), ("simulate", "output"), ("residual-run", "output"),
                  ("simulate", "seed"), ("residual", "seed"), ("residual-run", "seed"),
                  ("residual", "record_fields"), ("exponent", "output_dir"),
                  ("sweep", "output_dir")]


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
    "mu-check": ["schema_version", "mu", "c0", "levels", "tol", "p", "cap", "seed"],
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

    monkeypatch.setattr(cli, "check_linear_decay_hypothesis", no_fit)
    rc, out = _run(tmp_path, "decay", {**SCHEMA, "operator": str(op_file), "n_times": 9})
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "n_times" in err and "must be" in err


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
        integral.growth_label integral.fitted_slope integral.quadrature_tol certificate
        certificate.constant certificate.worst_pair certificate.monotone
        certificate.monotone_witness certificate.derivative_bound certificate.derivative_witness
        certificate.convex certificate.convex_witness certificate.cap certificate.n_samples
        certificate.seed
    """,
    "mu-custom_table": """
        schema_version kind config config.schema_version config.mu config.mu.family
        config.mu.taus config.mu.values mu mu.family mu.taus mu.values c0 integral
        integral.classification integral.c0 integral.closed_form_value integral.quadrature_value
        integral.partial_integrals integral.growth_label integral.fitted_slope
        integral.quadrature_tol certificate certificate.constant certificate.worst_pair
        certificate.monotone certificate.monotone_witness certificate.derivative_bound
        certificate.derivative_witness certificate.convex certificate.convex_witness
        certificate.cap certificate.n_samples certificate.seed
    """,
    "mu-extension_point": """
        schema_version kind config config.schema_version config.mu config.mu.family
        config.mu.epsilon config.mu.extension_point mu mu.family mu.epsilon mu.extension_point
        c0 integral integral.classification integral.c0 integral.closed_form_value
        integral.quadrature_value integral.partial_integrals integral.growth_label
        integral.fitted_slope integral.quadrature_tol certificate certificate.constant
        certificate.worst_pair certificate.monotone certificate.monotone_witness
        certificate.derivative_bound certificate.derivative_witness certificate.convex
        certificate.convex_witness certificate.cap certificate.n_samples certificate.seed
    """,
    "mu-iterated_log": """
        schema_version kind config config.schema_version config.mu config.mu.family
        config.mu.depth config.mu.gamma mu mu.family mu.depth mu.gamma c0 integral
        integral.classification integral.c0 integral.closed_form_value integral.quadrature_value
        integral.partial_integrals integral.growth_label integral.fitted_slope
        integral.quadrature_tol certificate certificate.constant certificate.worst_pair
        certificate.monotone certificate.monotone_witness certificate.derivative_bound
        certificate.derivative_witness certificate.convex certificate.convex_witness
        certificate.cap certificate.n_samples certificate.seed
    """,
    "mu-power": """
        schema_version kind config config.schema_version config.mu config.mu.family
        config.mu.epsilon mu mu.family mu.epsilon c0 integral integral.classification
        integral.c0 integral.closed_form_value integral.quadrature_value
        integral.partial_integrals integral.growth_label integral.fitted_slope
        integral.quadrature_tol certificate certificate.constant certificate.worst_pair
        certificate.monotone certificate.monotone_witness certificate.derivative_bound
        certificate.derivative_witness certificate.convex certificate.convex_witness
        certificate.cap certificate.n_samples certificate.seed
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
