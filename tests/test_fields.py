"""Recorded field stacks streamed to and from disk one frame at a time."""

import json
import math
import os
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from critevo import cli, solver
from critevo.errors import NumericalError
from critevo.mu import NonlinearitySpec, parse_mu
from critevo.operators import damped_wave, parse_operator
from critevo.reporting import FrameReader, dumps_json
from critevo.residual import make_test_function, weak_residual
from critevo.solver import DataProfile, Grid, RunConfig, run

CUBIC = NonlinearitySpec(p=3.0, mu=parse_mu({"family": "iterated_log", "gamma": 2.0}))
SQUARE = NonlinearitySpec(p=2.0, mu=parse_mu({"family": "constant", "value": 1.0}))
# u_t = u^2 from a peak of 22: blows up at the 12th of 401 records
BLOWUP_1D = RunConfig(op=parse_operator({"schema_version": 1, "m": 1, "n": 1, "levels": {}}),
                      grid=Grid(n=1, N=32, L=20.0), profile=DataProfile(width=1.2), ell=0,
                      dt=0.005, T=2.0, amplitude=22.0, nl=SQUARE)


def _saved(tmp_path, name, frames):
    path = tmp_path / f"{name}.npy"
    np.save(path, frames)
    return path.read_bytes()


@pytest.mark.parametrize("config", [
    RunConfig(op=damped_wave(2), grid=Grid(n=2, N=32, L=40.0), profile=DataProfile(width=2.0),
              ell=0, dt=0.05, T=1.0, amplitude=0.5, nl=CUBIC, record_every=3),
    BLOWUP_1D,
    RunConfig(op=damped_wave(1), grid=Grid(n=1, N=64, L=40.0), profile=DataProfile(width=2.0),
              ell=1, dt=0.05, T=2.0, amplitude=0.3, nl=CUBIC),
], ids=["2d-completed", "1d-blowup-12-of-401", "ell1"])
def test_a_streamed_stack_is_np_save_of_the_in_memory_one(config, tmp_path):
    # the file, whose header was written for every planned record, ends as
    # np.save of the stack np.load reads from it: one frame per record taken
    # (the frames' values are checked against the full-spectrum reference
    # in test_solver)
    path = tmp_path / "run" / "fields_layer_ell.npy"
    report = run(config, field_files=[path])
    if config is BLOWUP_1D:
        assert report.outcome == "blowup_detected" and len(report.times) == 12
    stack = np.load(path)
    assert stack.shape == (len(report.times),) + config.grid.shape
    assert path.read_bytes() == _saved(tmp_path, "loaded", stack)
    assert os.listdir(path.parent) == [path.name]


def test_a_streamed_batch_is_np_save_of_each_member(tmp_path):
    config = replace(BLOWUP_1D, T=0.2)
    amplitudes = [0.5, 22.0, 2.0]
    paths = [tmp_path / f"value_{i:03d}" / "fields_layer_ell.npy" for i in range(3)]
    reports = run(config, amplitudes=amplitudes, field_files=paths)
    assert [r.outcome for r in reports] == ["completed", "blowup_detected", "completed"]
    for i, (report, path) in enumerate(zip(reports, paths)):
        stack = np.load(path)
        assert stack.shape == (len(report.times),) + config.grid.shape
        assert path.read_bytes() == _saved(tmp_path, f"loaded{i}", stack)


def test_field_files_need_one_path_per_member(tmp_path):
    path = tmp_path / "f.npy"
    with pytest.raises(ValueError, match="one path per member"):
        run(BLOWUP_1D, field_files=[])
    with pytest.raises(ValueError, match="one path per member"):
        run(BLOWUP_1D, amplitudes=[1.0, 2.0], field_files=[path])
    assert not path.exists()


def test_a_run_that_raises_leaves_no_field_file(tmp_path):
    def forcing(t):
        if t > 0.1:
            raise NumericalError("forcing failed")
        return np.zeros(BLOWUP_1D.grid.shape)

    config = replace(BLOWUP_1D, amplitude=0.5, forcing=forcing)
    paths = [tmp_path / f"value_{i:03d}" / "fields_layer_ell.npy" for i in range(2)]
    with pytest.raises(NumericalError):
        run(config, amplitudes=[0.5, 1.0], field_files=paths)
    assert [list(p.parent.iterdir()) for p in paths] == [[], []]


def test_a_sweep_batch_that_raises_leaves_no_field_file(tmp_path, monkeypatch):
    op = tmp_path / "op.json"
    op.write_text(dumps_json(damped_wave(1)))
    calls = []
    step = solver.nonlinear_step

    def failing_step(*args, **kwargs):
        calls.append(1)
        if len(calls) > 5:
            raise NumericalError("the step failed")
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "nonlinear_step", failing_step)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "task": "simulate", "parameter": "amplitude", "values": [0.1, 0.2],
        "config": {"schema_version": 1, "operator": str(op), "ell": 0,
                   "grid": {"N": 32, "L": 40.0}, "profile": {"kind": "gaussian", "width": 2.0},
                   "dt": 0.1, "T": 2.0, "record_fields": True,
                   "nonlinearity": {"p": 3.0, "mu": {"family": "constant", "value": 1.0}}}}))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    index = json.loads((out / "sweep_index.json").read_text())
    assert [r["status"] for r in index["runs"]] == ["numerical_failure"] * 2
    assert [p.name for p in out.rglob("*") if p.is_file()] == ["sweep_index.json"]


def _peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_recorded_run_streams_in_memory_of_a_few_frames(tmp_path):
    # 2-D N = 128, 101 records: the stack is 13 MB, one frame 131 kB
    grid = Grid(n=2, N=128, L=40.0)
    config = RunConfig(op=damped_wave(2), grid=grid, profile=DataProfile(width=2.0), ell=0,
                       dt=0.05, T=5.0, nl=CUBIC, amplitude=0.3)
    frame = grid.N**2 * 8
    path = tmp_path / "fields_layer_ell.npy"
    _, short = _peak(lambda: run(replace(config, T=0.5), field_files=[path]))
    report, peak = _peak(lambda: run(config, field_files=[path]))
    assert len(report.times) == 101
    # ten times the records cost no more than a frame's worth of memory
    assert peak < short + frame, (peak, short, frame)
    assert peak < 101 * frame / 3, (peak, frame)

    times = np.asarray(report.times)
    tf = make_test_function(config.op, 0, grid, float(times[-1]))
    want = weak_residual(config.op, 0, grid, times, np.load(path), tf, nl=CUBIC,
                         initial_layers=report.initial_layers)
    got, peak = _peak(lambda: weak_residual(
        config.op, 0, grid, times, FrameReader(path, (times.size,) + grid.shape), tf, nl=CUBIC,
        initial_layers=report.initial_layers))
    assert got == want
    # the level multipliers and psi weights take a few dozen frames; the stack 101
    assert peak < 101 * frame / 3, (peak, frame)


def test_the_reader_casts_each_frame_to_float(tmp_path):
    path = tmp_path / "f.npy"
    stack = np.arange(24, dtype=">i4").reshape(3, 8)
    np.save(path, stack)
    reader = FrameReader(path, (3, 8))
    for i in range(3):
        frame = reader[i]
        assert frame.dtype == np.float64 and (frame == stack[i]).all()
    with pytest.raises(IndexError):
        reader[3]


@pytest.fixture()
def recorded(tmp_path):
    op = tmp_path / "op.json"
    op.write_text(dumps_json(damped_wave(1)))
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({
        "schema_version": 1, "operator": str(op), "ell": 0, "grid": {"N": 64, "L": 40.0},
        "profile": {"kind": "gaussian", "width": 2.0}, "dt": 0.1, "T": 2.0,
        "record_fields": True}))
    run_dir = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(sim), "--out-dir", str(run_dir)]) == 0
    res = tmp_path / "res.json"
    res.write_text(json.dumps({"schema_version": 1, "run": str(run_dir)}))
    return run_dir, res


def _residual_exit(recorded, tmp_path, capsys):
    _, res = recorded
    out = tmp_path / "r"
    capsys.readouterr()
    code = cli.main(["residual", "--config", str(res), "--out-dir", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err


def test_a_header_claiming_more_frames_than_the_file_holds_exits_2(recorded, tmp_path, capsys):
    run_dir, _ = recorded
    frames = np.load(run_dir / "fields_layer_ell.npy")
    times = np.load(run_dir / "fields_times.npy")
    np.save(run_dir / "fields_times.npy", np.append(times, times[-1] + 0.1))
    with open(run_dir / "fields_layer_ell.npy", "r+b") as fp:
        np.lib.format.write_array_header_1_0(fp, {
            "descr": "<f8", "fortran_order": False, "shape": (len(frames) + 1, 64)})
    code, err = _residual_exit(recorded, tmp_path, capsys)
    assert code == 2
    assert "fields_layer_ell.npy" in err and "cut" in err


def test_a_fortran_order_field_file_exits_2(recorded, tmp_path, capsys):
    run_dir, _ = recorded
    path = run_dir / "fields_layer_ell.npy"
    np.save(path, np.asfortranarray(np.load(path)))
    code, err = _residual_exit(recorded, tmp_path, capsys)
    assert code == 2
    assert "fields_layer_ell.npy" in err and "Fortran" in err


def test_a_field_file_of_the_wrong_shape_exits_2(recorded, tmp_path, capsys):
    run_dir, _ = recorded
    path = run_dir / "fields_layer_ell.npy"
    np.save(path, np.load(path)[:-1])
    code, err = _residual_exit(recorded, tmp_path, capsys)
    assert code == 2
    assert "fields_layer_ell.npy" in err and "shape" in err


def test_a_nan_frame_is_found_during_the_pass(recorded, tmp_path, capsys):
    run_dir, _ = recorded
    path = run_dir / "fields_layer_ell.npy"
    frames = np.load(path)
    frames[0, 5] = math.nan  # the pass reaches the first frame last
    np.save(path, frames)
    code, err = _residual_exit(recorded, tmp_path, capsys)
    assert code == 2
    assert "NaN" in err and "t = 0.0" in err


def _inline_residual(tmp_path, name, n, **config):
    """Exit code of an inline residual of the n-D damped wave (a gaussian of width 2
    unless ``config`` names a profile)."""
    op = tmp_path / f"op{n}.json"
    op.write_text(dumps_json(damped_wave(n)))
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"schema_version": 1, "operator": str(op), "ell": 0,
                               "profile": {"kind": "gaussian", "width": 2.0}, **config}))
    return cli.main(["residual", "--config", str(cfg), "--out-dir", str(tmp_path / name)])


def test_an_inline_residual_streams_in_memory_of_a_few_frames(tmp_path):
    # 2-D N = 128, 101 records, as above: the stack is 13 MB, one frame 131 kB
    config = {"grid": {"N": 128, "L": 40.0}, "dt": 0.05, "amplitude": 0.3,
              "nonlinearity": {"p": 3.0, "mu": {"family": "iterated_log", "gamma": 2.0}}}
    # a short run first, so that lazy imports settle untraced
    assert _inline_residual(tmp_path, "short", 2, T=0.5, **config) == 0
    code, peak = _peak(lambda: _inline_residual(tmp_path, "long", 2, T=5.0, **config))
    assert code == 0
    report = json.loads((tmp_path / "long" / "residual.json").read_text())
    assert report["run_meta"]["steps_taken"] == 100
    assert peak < 101 * 128**2 * 8 / 3, peak


@pytest.mark.parametrize("amplitude, record_every, code", [
    (0.3, 1, 0),
    # u^2 forcing from 0.9 blows up at step 132, after the records at steps 0
    # and 100, so the residual, which needs 3 records, exits 2
    (0.9, 100, 2),
], ids=["completed", "blowup-after-2-records"])
def test_an_inline_residual_removes_its_scratch_file(amplitude, record_every, code, tmp_path,
                                                     monkeypatch, capsys):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    seen = []
    weak = cli.weak_residual

    def spy(*args, **kwargs):
        seen.append(len(list(scratch.rglob("*.npy"))))
        return weak(*args, **kwargs)

    monkeypatch.setattr(cli, "weak_residual", spy)
    config = {"grid": {"N": 32, "L": 20.0}, "profile": {"kind": "gaussian", "width": 1.2},
              "dt": 0.05, "T": 8.0, "amplitude": amplitude, "record_every": record_every,
              "nonlinearity": {"p": 2.0, "mu": {"family": "constant", "value": 1.0}}}
    assert _inline_residual(tmp_path, "res", 1, **config) == code
    assert code == 0 or "length >= 3" in capsys.readouterr().err
    # the field file was there while the residual read it, and is gone after
    assert seen == [1]
    assert list(scratch.iterdir()) == []
