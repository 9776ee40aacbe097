"""Command line driver.

``critevo <task> --config FILE [--out-dir DIR]``.  Every subcommand reads
its single JSON config, checked against its table (fail-closed, see
:mod:`critevo.config`), and writes deterministic artifacts into ``DIR``
(default: the current directory).  Paths inside a config resolve against
the config's directory.

Subcommands:
    exponent   critical exponent report for an operator
    envelope   scaling envelope segments plus sampled values
    mu-check   modulation-factor admissibility and integral criterion
    simulate   spectral time integration on a periodic box
    decay      linear decay fits against the predicted rate
    residual   weak-form identity residual of a recorded run
    sweep      repeat one subcommand over a parameter list

Exit codes: 0 success (a detected blow-up is a successful diagnosis,
reported in the artifact), 2 invalid input or config, 3 numerical
failure.  Artifacts carry no timestamps and are byte-identical across
repeat runs with the same config.

A subcommand loads only the layers it uses.  ``exponent`` and ``envelope``
run on the exact layer and load no numpy; ``mu-check`` adds
:mod:`critevo.mu`, whose integral and certificate run on Python floats, so
it loads no numpy either; only ``simulate``, ``decay`` and ``residual``
load the solver.
"""

from __future__ import annotations

import argparse
import copy
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import reporting
from .config import FIT_MODES, MAX_SMOOTH_ORDER, Key, check, load_json, loads, read
from .envelope import INF, critical_exponent, envelope_samples
from .errors import NumericalError, ValidationError
from .operators import EvolutionOperator, parse_operator

if TYPE_CHECKING:
    from .solver import Grid


# --- numeric entry points, loaded on first call -----------------------------
# perfbench/trace.py patches run, integral_condition, lipschitz_certificate,
# make_test_function and weak_residual as names of this module, and tests
# replace run and weak_residual here.  So each stays a function of this
# module that imports its layer when first called and forwards to it, and
# every call site below goes through it.  They stay until the package
# records its own spans (ROADMAP item 9).

def run(*args, **kwargs):
    """:func:`critevo.solver.run`."""
    from . import solver
    return solver.run(*args, **kwargs)


def integral_condition(*args, **kwargs):
    """:func:`critevo.mu.integral_condition`."""
    from . import mu
    return mu.integral_condition(*args, **kwargs)


def lipschitz_certificate(*args, **kwargs):
    """:func:`critevo.mu.lipschitz_certificate`."""
    from . import mu
    return mu.lipschitz_certificate(*args, **kwargs)


def make_test_function(*args, **kwargs):
    """:func:`critevo.residual.make_test_function`."""
    from . import residual
    return residual.make_test_function(*args, **kwargs)


def weak_residual(*args, **kwargs):
    """:func:`critevo.residual.weak_residual`."""
    from . import residual
    return residual.weak_residual(*args, **kwargs)


# --- config tables ----------------------------------------------------------

_POSITIVE = {"ok": lambda v: v > 0, "rule": "> 0"}
_NONNEGATIVE = {"ok": lambda v: v >= 0, "rule": ">= 0"}
_NUMBER = Key("number")

COMMON = {
    "schema_version": Key("int", ok=lambda v: v == reporting.SCHEMA_VERSION,
                          rule=str(reporting.SCHEMA_VERSION)),
}
OPERATOR = {
    "operator": Key("str|object"),
    "ell": Key("int", 0, **_NONNEGATIVE),
    "n": Key("int", None, ok=lambda v: v >= 1, rule=">= 1"),
}
GRID = {"N": Key("int"), "L": Key("number")}
NONLINEARITY = {"p": Key("number", words=("critical",)),
                "mu": Key("object", {"family": "constant"})}
# make_test_function's keywords and defaults, with the ranges TestFunctionSpec
# enforces, so an inline residual's test function is checked before its run
TEST_FUNCTION = {
    "eta_bar": Key("rational", "critical", words=("critical",), **_POSITIVE),
    "scale": Key("number", "auto", words=("auto",), **_POSITIVE),
    "q_tf": Key("int", None, ok=lambda v: v >= 1, rule=">= 1"),
    "flat_fraction": Key("number", 0.5, ok=lambda v: 0 < v < 1, rule="in (0, 1)"),
    "smooth_order": Key("int", None, ok=lambda v: 1 <= v <= MAX_SMOOTH_ORDER,
                        rule=f"in [1, {MAX_SMOOTH_ORDER}]"),
    "reg_epsilon": Key("number", None, **_NONNEGATIVE),
}

EXPONENT = {**COMMON, **OPERATOR}
ENVELOPE = {
    **EXPONENT,
    # 10 000 samples take about 1 s and write 2.3 MB
    "samples": Key("int", 65, ok=lambda v: 2 <= v <= 10_000, rule="in [2, 10000]"),
    "eta_max": Key("rational", None, **_POSITIVE),
}
MU_CHECK = {
    **COMMON,
    "mu": Key("object"),
    "c0": Key("number", None, **_POSITIVE),
    # the growth label fits a line through the decade sums: two at least
    "levels": Key("int", 8, ok=lambda v: v >= 2, rule=">= 2"),
    "tol": Key("number", 1e-9, ok=lambda v: v >= 1e-15, rule=">= 1e-15"),
    "p": Key("number", 2.0),
    "cap": Key("number", None),
}
SIMULATE = {
    **COMMON,
    **OPERATOR,
    "grid": Key("object"),
    "profile": Key("object"),
    "amplitude": Key("number", 1.0),
    "dt": Key("number"),
    "T": Key("number"),
    "nonlinearity": Key("object", None),
    "p_for_norms": Key("number", None),
    "record_every": Key("int", 1, ok=lambda v: v >= 1, rule=">= 1"),
    "record_fields": Key("bool", False),
}
DECAY = {
    **EXPONENT,
    "mode": Key("str", "whole-space", ok=lambda v: v in ("whole-space", "torus"),
                rule="'whole-space' or 'torus'"),
    # q names its curve file decay_curve_q{q:g}.csv, so no two may print alike
    "q_list": Key("number[]", (2.0,),
                  ok=lambda v: len(v) > 0 and min(v) >= 1 and len({f"{q:g}" for q in v}) == len(v),
                  rule="a non-empty list of numbers >= 1, distinct to 6 significant digits"),
    "window": Key("number[]", (1e2, 1e4), ok=lambda v: len(v) == 2 and 0 <= v[0] < v[1],
                  rule="[t_min, t_max] with 0 <= t_min < t_max"),
    "width": Key("number", 1.0),
    "targets": Key("object", None),
    "p_c": Key("number", "critical", words=("critical",)),
    # a whole-space fit needs 10 samples in the window, and every sample lies in it;
    # the kernel matrix holds 8 208 x n_times complex values at 64 panels per decade,
    # 131 MB at the bound, and 128 panels (16 400 nodes) stay under that up to 500
    "n_times": Key("int", 40, ok=lambda v: 10 <= v <= 1000, rule="in [10, 1000]"),
    "tol": Key("number", 0.05, **_POSITIVE),
    "grid": Key("object", None),
    "fit_mode": Key("str", "at-least-as-fast", ok=lambda v: v in FIT_MODES,
                    rule=f"one of {list(FIT_MODES)}"),
}
# an inline residual always records its fields, so it has no record_fields key
RESIDUAL = {**{name: key for name, key in SIMULATE.items() if name != "record_fields"},
            "test_function": Key("object", {})}
RESIDUAL_RUN = {**COMMON, "run": Key("str"), "test_function": Key("object", {})}


def _operator_from(v: dict, base: Path) -> EvolutionOperator:
    doc = v["operator"]
    if isinstance(doc, str):
        doc = load_json(base / doc, "operator file")
    if v["n"] is not None:
        # dimension override; monomial alphas must already fit the new n
        doc = {**doc, "n": v["n"]}
    return parse_operator(doc)


def _grid_from(doc, op: EvolutionOperator) -> Grid:
    from .solver import Grid

    return Grid(n=op.n, **read(doc, GRID, "grid"))


def _critical_power(op: EvolutionOperator, ell: int, what: str) -> Fraction:
    """The exact p_c a "critical" power stands for; it must be finite and > 1."""
    rep = critical_exponent(op, ell, op.n)
    if rep.p_c == INF or rep.degenerate:
        raise ValidationError(
            f"critical exponent is {rep.p_c}, not a finite power > 1; pass {what} explicitly"
        )
    return rep.p_c


def _nonlinearity_from(doc, op: EvolutionOperator, ell: int):
    """The nonlinearity (None without one), its power resolved; plus notes."""
    if doc is None:
        return None, []
    from .mu import NonlinearitySpec, parse_mu

    v = read(doc, NONLINEARITY, "nonlinearity")
    notes: list[str] = []
    p = v["p"]
    if p == "critical":
        p_c = _critical_power(op, ell, "the nonlinearity power")
        notes.append(f"p resolved to the critical exponent {p_c} = {float(p_c)}")
        p = float(p_c)
    return NonlinearitySpec(p=p, mu=parse_mu(v["mu"])), notes


# --- subcommands ----------------------------------------------------------

def cmd_exponent(cfg: dict, out_dir: Path, base: Path) -> dict:
    v = read(cfg, EXPONENT, "config")
    op = _operator_from(v, base)
    rep = critical_exponent(op, v["ell"], op.n)
    doc = reporting.artifact("exponent", {"config": cfg, "report": rep})
    path = reporting.write_json(out_dir / "exponent.json", doc)
    print(f"p_c = {rep.p_c} at eta = {rep.eta_star} "
          f"(levels {list(rep.active_levels)}, regime {rep.regime})")
    print(f"wrote {path}")
    return {"p_c": rep.p_c, "p_c_float": float(rep.p_c), "degenerate": rep.degenerate}


def cmd_envelope(cfg: dict, out_dir: Path, base: Path) -> dict:
    v = read(cfg, ENVELOPE, "config")
    op = _operator_from(v, base)
    rep = critical_exponent(op, v["ell"], op.n)
    env = rep.envelope
    # eta_star is 0, a breakpoint or inf, so twice the last breakpoint shows it
    eta_max = v["eta_max"]
    if eta_max is None:
        eta_max = 2 * max(env.breakpoints, default=Fraction(2))
    etas = [eta_max * i / (v["samples"] - 1) for i in range(v["samples"])]
    rows = envelope_samples(env, op.n, etas)
    doc = reporting.artifact("envelope", {
        "config": cfg,
        "report": rep,
        "samples": [{"eta": e, "eta_float": float(e), "g": g, "g_float": float(g),
                     "h": h, "h_float": float(h)} for e, g, h in rows],
    })
    path = reporting.write_json(out_dir / "envelope.json", doc)
    csv_path = reporting.write_csv(out_dir / "envelope_samples.csv", {
        "eta": [float(e) for e, _, _ in rows],
        "g": [float(g) for _, g, _ in rows],
        "h": [float(h) for _, _, h in rows],
    })
    print(f"{len(env.pieces)} envelope segment(s); p_c = {rep.p_c} at eta = {rep.eta_star}")
    print(f"wrote {path}")
    print(f"wrote {csv_path}")
    return {"segments": len(env.pieces), "p_c_float": float(rep.p_c)}


def cmd_mu_check(cfg: dict, out_dir: Path, base: Path) -> dict:
    from .mu import NonlinearitySpec, parse_mu

    v = read(cfg, MU_CHECK, "config")
    mu = parse_mu(v["mu"])
    c0 = v["c0"]
    if c0 is None:
        c0 = 0.1 if not math.isfinite(mu.tau_star) else min(0.1, mu.tau_star / 2.0)
    verdict = integral_condition(mu, c0, levels=v["levels"], tol=v["tol"])
    nl = NonlinearitySpec(p=v["p"], mu=mu)
    cert = lipschitz_certificate(nl, cap=v["cap"])
    doc = reporting.artifact("mu_check", {
        "config": cfg,
        "mu": mu,
        "c0": c0,
        "integral": verdict,
        "certificate": cert,
    })
    path = reporting.write_json(out_dir / "mu_check.json", doc)
    upper = "unproven" if cert.constant is None else f"{cert.constant:.6g}"
    print(f"integral: {verdict.classification} ({verdict.growth_label}); "
          f"lipschitz constant in [{cert.constant_lower:.6g}, {upper}]")
    print(f"wrote {path}")
    return {"classification": verdict.classification, "growth": verdict.growth_label}


def _sim_config(v: dict, base: Path):
    from .solver import RunConfig, parse_profile

    op = _operator_from(v, base)
    nl, notes = _nonlinearity_from(v["nonlinearity"], op, v["ell"])
    rc = RunConfig(
        op=op, grid=_grid_from(v["grid"], op), profile=parse_profile(v["profile"]),
        ell=v["ell"], dt=v["dt"], T=v["T"],
        p_for_norms=v["p_for_norms"], record_every=v["record_every"],
    )
    return rc, nl, notes


_FIELD_FILES = {
    "times": "fields_times.npy",
    "layer_ell": "fields_layer_ell.npy",
    "initial_layers": "fields_initial_layers.npy",
}


def cmd_simulate(cfg: dict, out_dir: Path, base: Path) -> dict:
    v = read(cfg, SIMULATE, "config")
    return _simulate([(cfg, *_sim_config(v, base), v["amplitude"])], [out_dir])[0]


def _simulate(members: list, out_dirs: list[Path]) -> list[dict]:
    """Run validated simulate members as one batch; each member's summary.

    A member is (config, RunConfig, nonlinearity, notes, amplitude); the
    members share the first one's RunConfig and record_fields.  Each out dir
    gets the simulate.json, series.csv and, with record_fields, the field
    files of its member, whose frames the run streams to fields_layer_ell.npy.
    """
    import numpy as np

    record = members[0][0].get("record_fields")
    files = [d / _FIELD_FILES["layer_ell"] for d in out_dirs] if record else None
    reports = run(members[0][1], [(a, nl) for _, _, nl, _, a in members], field_files=files)
    summaries = []
    for (cfg, rc, nl, notes, _), report, out_dir in zip(members, reports, out_dirs):
        doc = reporting.artifact("simulate", {
            "config": cfg,
            "notes": notes,
            "operator": rc.op,
            "nonlinearity": nl,
            "report": report,
        })
        path = reporting.write_json(out_dir / "simulate.json", doc)
        columns = {"time": report.times}
        columns.update(report.series)
        csv_path = reporting.write_csv(out_dir / "series.csv", columns)
        written = [path, csv_path]
        if record:
            np.save(out_dir / _FIELD_FILES["times"], np.asarray(report.times))
            np.save(out_dir / _FIELD_FILES["initial_layers"], report.initial_layers)
            written += [out_dir / _FIELD_FILES[k] for k in _FIELD_FILES]
        msg = report.outcome
        if report.blowup_time is not None:
            msg += f" at t = {report.blowup_time:.6g}"
        print(f"{msg}; xnorm sup {report.xnorm_sup:.6g} "
              f"(last increase t = {report.xnorm_last_increase:.6g})")
        for w in written:
            print(f"wrote {w}")
        summaries.append({"outcome": report.outcome, "blowup_time": report.blowup_time,
                          "xnorm_sup": report.xnorm_sup})
    return summaries


def cmd_decay(cfg: dict, out_dir: Path, base: Path) -> dict:
    from .decay import RadialProfile, check_linear_decay_hypothesis

    v = read(cfg, DECAY, "config")
    op = _operator_from(v, base)
    ell = v["ell"]
    p_c = v["p_c"]
    notes: list[str] = []
    if p_c == "critical":
        exact = _critical_power(op, ell, "p_c")
        p_c = float(exact)
        notes.append(f"p_c resolved to {exact} = {p_c}")
    # whole-space decay has no grid; torus decay fits the solver's recorded
    # times, not n_times samples
    other, unread = (("torus", "grid") if v["mode"] == "whole-space"
                     else ("whole-space", "n_times"))
    if unread in cfg:
        raise ValidationError(f"config.{unread} is read only in {other} mode")
    torus_grid = _grid_from(v["grid"], op) if v["mode"] == "torus" else None
    targets = None
    if v["targets"] is not None:
        targets, named = {}, {}
        for q, rate in v["targets"].items():
            value = check(_NUMBER, loads(q, "targets key"), f"config.targets key {q!r}")
            if value in named:
                raise ValidationError(
                    f"config.targets keys {named[value]!r} and {q!r} both name q = {value:g}")
            named[value] = q
            targets[value] = check(_NUMBER, rate, f"config.targets[{q!r}]")
    report = check_linear_decay_hypothesis(
        op, ell, p_c,
        q_list=v["q_list"],
        profile=RadialProfile(width=v["width"]),
        mode=v["mode"],
        window=v["window"],
        n_times=v["n_times"],
        tol=v["tol"],
        torus_grid=torus_grid,
        targets=targets,
        fit_mode=v["fit_mode"],
    )
    doc = reporting.artifact("decay", {"config": cfg, "notes": notes, "report": report})
    path = reporting.write_json(out_dir / "decay.json", doc)
    print_paths = [path]
    for entry in report.entries:
        curve = reporting.write_csv(out_dir / f"decay_curve_q{entry.q:g}.csv",
                                    {"time": entry.times, "norm": entry.values})
        print_paths.append(curve)
        print(f"q = {entry.q:g}: slope {entry.fit.slope:.4f} vs target {entry.fit.target}"
              f" -> {entry.fit.verdict}")
    for w in print_paths:
        print(f"wrote {w}")
    return {"all_pass": report.all_pass}


def _recorded_run(run_dir: Path):
    """Operator, ell, grid, nonlinearity and outcome recorded in simulate.json."""
    rec = load_json(run_dir / "simulate.json", "recorded run report")
    try:
        meta = rec["report"]["meta"]
        op = parse_operator(rec["operator"])
        ell = check(SIMULATE["ell"], meta["ell"], "recorded ell")
        grid = _grid_from({"N": meta["N"], "L": meta["L"]}, op)
        nl, _ = _nonlinearity_from(rec["nonlinearity"], op, ell)
        outcome = rec["report"]["outcome"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{run_dir}/simulate.json lacks {exc}; record the run again") from exc
    if not isinstance(outcome, str):
        raise ValidationError(f"{run_dir}/simulate.json: report.outcome must be a string")
    return op, ell, grid, nl, outcome


def _load_field(run_dir: Path, key: str, read=None):
    """One recorded field file, by ``read`` (np.load when None); a missing or
    unreadable one is a config error."""
    import numpy as np

    path = run_dir / _FIELD_FILES[key]
    try:
        return (read or np.load)(path)
    except OSError as exc:
        raise ValidationError(
            f"recorded run at {run_dir} has no field files (simulate needs "
            f"\"record_fields\": true): {exc}"
        ) from exc
    except (ValueError, EOFError) as exc:
        raise ValidationError(f"{path} is not a readable .npy array: {exc}") from exc


def cmd_residual(cfg: dict, out_dir: Path, base: Path) -> dict:
    import contextlib
    import tempfile

    import numpy as np

    v = read(cfg, RESIDUAL_RUN if "run" in cfg else RESIDUAL, "config")
    tf = read(v["test_function"], TEST_FUNCTION, "test_function")
    # an inline run streams its field to a scratch file, kept until the residual is taken
    with contextlib.ExitStack() as scratch:
        if "run" in cfg:
            run_dir = base / v["run"]
            op, ell, grid, nl, run_outcome = _recorded_run(run_dir)
            notes: list[str] = []
            times = _load_field(run_dir, "times")
            if times.ndim != 1 or not times.size:
                raise ValidationError(f"{run_dir / _FIELD_FILES['times']} must hold a non-empty "
                                      f"1-D array, not shape {times.shape}")
            # the frames are read one at a time by the residual's pass
            frames = _load_field(run_dir, "layer_ell", lambda path: reporting.FrameReader(
                path, (times.size,) + grid.shape))
            initial_layers = _load_field(run_dir, "initial_layers")
            run_meta = {"source": str(Path(v["run"]))}
        else:
            rc, nl, notes = _sim_config(v, base)
            path = Path(scratch.enter_context(tempfile.TemporaryDirectory())) / "frames.npy"
            report, = run(rc, [(v["amplitude"], nl)], field_files=[path])
            op, ell, grid = rc.op, rc.ell, rc.grid
            times = np.asarray(report.times)
            frames = reporting.FrameReader(path, (times.size,) + grid.shape)
            initial_layers = report.initial_layers
            run_outcome = report.outcome
            run_meta = report.meta

        spec = make_test_function(op, ell, grid, float(times[-1]), **tf)
        if tf["eta_bar"] == "critical":
            notes.append(f"eta_bar resolved to {spec.eta_bar}")
        if tf["scale"] == "auto":
            notes.append(f"test function scale resolved to {spec.scale!r}")
        res = weak_residual(op, ell, grid, times, frames, spec, nl=nl,
                            initial_layers=initial_layers)
    doc = reporting.artifact("residual", {
        "config": cfg,
        "notes": notes,
        "run_outcome": run_outcome,
        "run_meta": run_meta,
        "report": res,
    })
    path = reporting.write_json(out_dir / "residual.json", doc)
    print(f"residual = {res.residual:.6g} (lhs {res.lhs:.6g}, rhs {res.rhs:.6g})")
    print(f"wrote {path}")
    return {"residual": res.residual, "outcome": run_outcome}


def _set_path(doc: dict, path: tuple[str, ...], value) -> None:
    """doc[path[0]]...[path[-1]] = value, creating missing objects on the way."""
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ValidationError(f"{'.'.join(path)} needs an inline {key!r} object")
    node[path[-1]] = value


def _failed(entry: dict, exc: ValidationError | NumericalError) -> None:
    status = "invalid" if isinstance(exc, ValidationError) else "numerical_failure"
    entry.update(status=status, message=str(exc))


def cmd_sweep(cfg: dict, out_dir: Path, base: Path) -> dict:
    v = read(cfg, SWEEP, "config")
    task, parameter, values = v["task"], v["parameter"], v["values"]
    # the first key is checked against the table the task reads its base
    # config with; the keys below it are judged per value by the task itself
    path = tuple(parameter.split("."))
    table = RESIDUAL_RUN if task == "residual" and "run" in v["config"] else TABLES[task]
    if not all(path) or path[0] not in table:
        raise ValidationError(
            f"parameter {parameter!r} is not a dotted path into the {task} config "
            f"(its keys: {sorted(table)})")

    runs, keys, groups = [], [], []
    for idx, value in enumerate(values):
        sub = copy.deepcopy(v["config"])
        sub.setdefault("schema_version", reporting.SCHEMA_VERSION)
        entry = {"index": idx, "parameter": parameter, "value": value,
                 "dir": f"value_{idx:03d}"}
        runs.append(entry)
        try:
            _set_path(sub, path, value)
            if task == "simulate":
                sv = read(sub, SIMULATE, "config")
                rc, nl, notes = _sim_config(sv, base)
                # each value on its own, so only those past the float range are invalid
                rc.check_amplitudes([sv["amplitude"]])
                key = (rc, sv["record_fields"], nl is None)
                if key not in keys:
                    keys.append(key)
                    groups.append([])
                groups[keys.index(key)].append((entry, (sub, rc, nl, notes, sv["amplitude"])))
            else:
                entry.update(status="ok",
                             summary=_COMMANDS[task](sub, out_dir / entry["dir"], base))
        except (ValidationError, NumericalError) as exc:
            _failed(entry, exc)
    # the simulate values that share a RunConfig and record_fields, and all have a
    # nonlinearity or none has, step as one batch, whose error is each of its values'
    for group in groups:
        entries = [entry for entry, _ in group]
        try:
            summaries = _simulate([m for _, m in group], [out_dir / e["dir"] for e in entries])
        except (ValidationError, NumericalError) as exc:
            for entry in entries:
                _failed(entry, exc)
        else:
            for entry, summary in zip(entries, summaries):
                entry.update(status="ok", summary=summary)
    n_ok = sum(entry["status"] == "ok" for entry in runs)

    doc = reporting.artifact("sweep", {
        "config": cfg,
        "task": task,
        "parameter": parameter,
        "n_values": len(values),
        "n_ok": n_ok,
        "runs": runs,
    })
    path = reporting.write_json(out_dir / "sweep_index.json", doc)
    print(f"sweep over {parameter}: {n_ok}/{len(values)} runs succeeded")
    print(f"wrote {path}")
    return {"n_ok": n_ok, "n_values": len(values)}


_COMMANDS = {
    "exponent": cmd_exponent,
    "envelope": cmd_envelope,
    "mu-check": cmd_mu_check,
    "simulate": cmd_simulate,
    "decay": cmd_decay,
    "residual": cmd_residual,
    "sweep": cmd_sweep,
}
_TASKS = sorted(set(_COMMANDS) - {"sweep"})
SWEEP = {
    **COMMON,
    "task": Key("str", ok=lambda v: v in _TASKS, rule=f"one of {_TASKS}"),
    "parameter": Key("str"),
    "values": Key("list", ok=lambda v: len(v) > 0, rule="a non-empty list"),
    "config": Key("object"),
}
TABLES = {"exponent": EXPONENT, "envelope": ENVELOPE, "mu-check": MU_CHECK,
          "simulate": SIMULATE, "decay": DECAY, "residual": RESIDUAL, "sweep": SWEEP}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critevo",
        description="critical-exponent reports, admissibility checks, and "
                    "spectral simulations for higher-order evolution models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in TABLES:
        p = sub.add_parser(name, help=f"run the {name} task from a JSON config")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out-dir", type=Path, default=Path(),
                       help="artifact directory (default: the current directory)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_json(args.config, "config")
        _COMMANDS[args.command](cfg, args.out_dir, Path(args.config).parent)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        where = getattr(exc, "filename", None) or args.out_dir
        print(f"error: cannot write artifacts at {where}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
