"""One benchmark workload, run in a fresh process.

Usage (``run.py`` starts it):

    python3 -m perfbench.workload --workload W --seed N --seconds S --trace 0|1
        --t0 T --result FILE [--size full|toy] [--setup-only]

The process imports critevo, generates its inputs from the seed, runs one
warm-up operation and reports the set-up time as the time since ``--t0``
(the parent's ``time.monotonic()`` just before it started this process).
It then runs operations in a closed loop, one at a time, until
``--seconds`` have passed (at least two, so repeats can be compared).
With ``--trace 1`` operations alternate untraced and traced, and the
per-layer figures come from the traced ones.  Every operation's outputs
are checked and its artifacts hashed; every repeat must hash the same.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy

import critevo.cli as cli
import critevo.decay as decay
import critevo.envelope as envelope
import critevo.mu as mu
import critevo.operators as operators
from perfbench.oracle import oracle_exponent, scaling_lines
from perfbench.run import THREAD_VARS
from perfbench.trace import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_sigma2_delta1.json"
CLI_TIMEOUT_S = 60

# Per-layer metrics of the traced run: (name, unit, better).  Times and
# counts are per workload operation; a layer the workload never reaches
# reads 0.
PER_LAYER = [
    ("python.startup_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("operators.parse_operator.s", "s/op", "lower"),
    ("operators.companion.s", "s/op", "lower"),
    ("operators.radial_companion.s", "s/op", "lower"),
    ("envelope.critical_exponent.s", "s/op", "lower"),
    ("envelope.build_envelope.s", "s/op", "lower"),
    ("envelope.maximize.s", "s/op", "lower"),
    ("mu.integral_condition.s", "s/op", "lower"),
    ("mu.lipschitz_certificate.s", "s/op", "lower"),
    ("mu.eval_F.s", "s/op", "lower"),
    ("mu.eval_F.calls", "count/op", "lower"),
    ("mu.eval_mu.calls", "count/op", "lower"),
    ("solver.ModePropagator.s", "s/op", "lower"),
    ("solver.ModePropagator.calls", "count/op", "lower"),
    ("solver.nonlinear_step.s", "s/op", "lower"),
    ("solver.nonlinear_step.self_s", "s/op", "lower"),
    ("solver.nonlinear_step.calls", "count/op", "lower"),
    ("solver.steps_per_s", "1/s", "higher"),
    ("solver.run.self_s", "s/op", "lower"),
    ("solver.grid_norms.s", "s/op", "lower"),
    ("solver.init_state.s", "s/op", "lower"),
    ("numpy.fft.calls_per_step", "count/step", "lower"),
    ("decay.l2_decay_curve.s", "s/op", "lower"),
    ("numpy.linalg.eig.calls", "count/op", "lower"),
    ("decay.spectral_gap.s", "s/op", "lower"),
    ("decay.fit_decay.s", "s/op", "lower"),
    ("residual.make_test_function.s", "s/op", "lower"),
    ("residual.weak_residual.s", "s/op", "lower"),
    ("numpy.load.s", "s/op", "lower"),
    ("reporting.write_json.s", "s/op", "lower"),
    ("reporting.write_csv.s", "s/op", "lower"),
    ("numpy.save.s", "s/op", "lower"),
    ("artifact_bytes", "B/op", "lower"),
    ("cli.cmd_sweep.self_s", "s/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

SIZES = {
    "full": {"operators": 300, "seeded_gammas": 12, "sweep_values": (10, 6), "sweep_N": 64,
             "sweep_T": 200.0, "field_N": 256, "field_T": 3.0},
    "toy": {"operators": 12, "seeded_gammas": 2, "sweep_values": (2, 1), "sweep_N": 16,
            "sweep_T": 2.0, "field_N": 64, "field_T": 3.0},
}


class Op:
    """Outcome of one workload operation."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.steps = 0
        self.artifact_bytes = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def digest(path: Path) -> str:
    """sha256 over the relative names and bytes of every file under path."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for p in files:
        h.update(str(p.relative_to(path.parent)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def read_json(path: Path) -> dict:
    """An artifact's JSON, or {} when the file is missing or unreadable."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def in_process_cli(args: list[str]) -> int:
    """critevo.cli.main with its progress lines kept off this process's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(args)


def cold_cli(args: list[str], spans_dir: Path, tracer: Tracer | None) -> tuple[int, float, str]:
    """(exit code, wall seconds, stderr) of one fresh `python -m critevo.cli` process."""
    if tracer is None:
        cmd = [sys.executable, "-m", "critevo.cli", *args]
    else:
        spans = spans_dir / f"cli-spans-{os.getpid()}.npz"
        cmd = [sys.executable, "-m", "perfbench.tracecli", str(spans), *args]
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, time.perf_counter() - t, f"timed out after {CLI_TIMEOUT_S} s"
    wall = time.perf_counter() - t
    if tracer is not None and spans.exists():
        tracer.merge(spans)
        spans.unlink()
    return proc.returncode, wall, proc.stderr[-500:]


def random_operator_doc(rng: np.random.Generator, m_max=6, order_max=10, n_max=8):
    """JSON doc and ell drawn like the test suite's random fractional operators."""
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(1, n_max + 1))
    ell = int(rng.integers(0, m))
    levels = {}
    for j in range(m):
        if rng.random() < 0.65:
            r = Fraction(int(rng.integers(0, 4 * order_max + 1)), 4)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            terms = [{"kind": "fractional_laplacian", "power": str(r / 2),
                      "coeff": sign * float(rng.uniform(0.5, 2.0))}]
            if rng.random() < 0.3:
                # a higher-order term at the same level must not move r_j
                extra = r / 2 + Fraction(int(rng.integers(1, 5)), 2)
                terms.append({"kind": "fractional_laplacian", "power": str(extra),
                              "coeff": 1.0})
            levels[str(j)] = terms
    return {"schema_version": 1, "m": m, "n": n, "levels": levels}, ell


def fractional_operator_doc(levels: dict[int, list[tuple[str, float]]], m: int, n: int) -> dict:
    return {"schema_version": 1, "m": m, "n": n, "levels": {
        str(j): [{"kind": "fractional_laplacian", "power": p, "coeff": c} for p, c in terms]
        for j, terms in levels.items()}}


class Analysis:
    """Cold CLI starts plus the exact, modulation and decay layers in-process."""

    def __init__(self, seed: int, work: Path, size: dict) -> None:
        rng = np.random.default_rng(seed)
        self.operators = [random_operator_doc(rng) for _ in range(size["operators"])]
        self.expected = [oracle_exponent(scaling_lines(doc, ell), doc["n"])
                         for doc, ell in self.operators]
        grid = [(d, g) for d in (0, 1, 2) for g in (0.5, 1.0, 1.5, 3.0)]
        seeded = []
        for _ in range(size["seeded_gammas"]):
            depth = int(rng.integers(0, 3))
            # stay off the convergence line gamma = 1, where no quadrature settles
            g = float(rng.uniform(1.05, 4.0) if rng.random() < 0.5 else rng.uniform(0.25, 0.95))
            seeded.append((depth, g))
        self.mu_cases = grid + seeded
        self.times = np.geomspace(1e2, 1e4, 40)
        self.kg_times = np.linspace(20.0, 60.0, 21)
        self.reference = np.array(json.loads(REFERENCE.read_text())["values"])
        self.work = work
        self.exp_cfg = work / "exponent_config.json"
        self.exp_cfg.write_text(json.dumps({
            "schema_version": 1, "ell": 0,
            "operator": fractional_operator_doc({0: [("2", 1.0)], 1: [("0", 1.0)]}, 2, 3)}))
        self.mu_cfg = work / "mu_check_config.json"
        self.mu_cfg.write_text(json.dumps({
            "schema_version": 1, "c0": 0.01,
            "mu": {"family": "iterated_log", "depth": 1, "gamma": 2.0}}))

    def warmup(self, out: Path) -> None:
        self._exact(Op(), self.operators[:10], self.expected[:10])
        self._modulation(Op(), self.mu_cases[:2])
        op = operators.parse_operator(fractional_operator_doc(
            {0: [("1", 1.0)], 1: [("0", 1.0)]}, 2, 1))
        decay.l2_decay_curve(op, decay.RadialProfile(width=1.0), self.times[:5])

    def run(self, out: Path, tracer: Tracer | None) -> Op:
        res = Op()
        rc, wall, err = cold_cli(["exponent", "--config", str(self.exp_cfg),
                                  "--out-dir", str(out / "exponent")], self.work, tracer)
        res.sample("cli_exponent_s", wall)
        doc = read_json(out / "exponent" / "exponent.json")
        res.check(rc == 0 and doc.get("report", {}).get("p_c") == "7/3",
                  f"cli exponent: exit {rc}, {err.strip()[-200:]}")
        rc, wall, err = cold_cli(["mu-check", "--config", str(self.mu_cfg),
                                  "--out-dir", str(out / "mu_check")], self.work, tracer)
        res.sample("cli_mu_check_s", wall)
        integral = read_json(out / "mu_check" / "mu_check.json").get("integral", {})
        res.check(rc == 0 and integral.get("classification") == "convergent"
                  and _close(integral.get("quadrature_value"), integral.get("closed_form_value")),
                  f"cli mu-check: exit {rc}, {err.strip()[-200:]}")
        for name in ("exponent", "mu_check"):
            res.digests[name] = digest(out / name)
            res.artifact_bytes += tree_bytes(out / name)
        self._exact(res, self.operators, self.expected)
        self._modulation(res, self.mu_cases)
        self._decay(res)
        return res

    def _exact(self, res: Op, docs, expected) -> None:
        for (doc, ell), want in zip(docs, expected):
            t = time.perf_counter()
            op = operators.parse_operator(doc)
            rep = envelope.critical_exponent(op, ell, op.n)
            res.sample("exponent_us", (time.perf_counter() - t) * 1e6)
            res.check(rep.p_c == want, f"p_c {rep.p_c} != oracle {want} for {doc}, ell={ell}")

    def _modulation(self, res: Op, cases) -> None:
        for depth, gamma in cases:
            spec = mu.MuSpec(family="iterated_log", depth=depth, gamma=gamma)
            c0 = min(0.05, spec.tau_star / 2.0)
            t = time.perf_counter()
            v = mu.integral_condition(spec, c0)
            res.sample("mu_integral_ms", (time.perf_counter() - t) * 1e3)
            ok = v.classification == ("convergent" if gamma > 1 else "divergent")
            if gamma > 1:
                ok = ok and _close(v.quadrature_value, v.closed_form_value)
            res.check(ok, f"integral_condition depth={depth} gamma={gamma}: "
                          f"{v.classification}, {v.quadrature_value} vs {v.closed_form_value}")

    def _decay(self, res: Op) -> None:
        profile = decay.RadialProfile(width=1.0)
        window = (1e2, 1e4)
        t = time.perf_counter()
        dw = decay.l2_decay_curve(operators.damped_wave(1), profile, self.times)
        fit_dw = decay.fit_decay(self.times, dw, window, target=-0.25, tol=0.05, mode="two-sided")
        s0 = decay.l2_decay_curve(operators.sigma_evolution(3, 2, 0), profile, self.times)
        fit_s0 = decay.fit_decay(self.times, s0, window, target=-0.375, tol=0.02, mode="two-sided")
        s1 = decay.l2_decay_curve(operators.sigma_evolution(3, 2, 1), profile, self.times)
        kg = operators.damped_klein_gordon(1, damping=2.0, mass=1.0)
        gap = decay.spectral_gap(kg)
        kc = decay.l2_decay_curve(kg, profile, self.kg_times)
        fit_kg = decay.fit_exponential(self.kg_times, kc, (20.0, 60.0), target=-gap,
                                       tol=0.05, mode="two-sided")
        res.sample("decay_s", time.perf_counter() - t)
        res.check(fit_dw.verdict == "pass", f"damped wave slope {fit_dw.slope}")
        res.check(fit_s0.verdict == "pass", f"sigma=2 delta=0 slope {fit_s0.slope}")
        rel = float(np.max(np.abs(s1 - self.reference) / np.abs(self.reference)))
        res.check(rel <= 1e-6, f"sigma=2 delta=1 curve off the reference by {rel:.2e}")
        res.check(abs(fit_kg.slope + gap) < 0.05 * gap,
                  f"Klein-Gordon slope {fit_kg.slope} vs gap {gap}")


def _close(a, b, tol: float = 1e-6) -> bool:
    return (isinstance(a, float) and isinstance(b, float)
            and abs(a - b) <= tol * max(1.0, abs(b)))


def _sim_base(N: int, n: int, T: float, **extra) -> dict:
    return {"schema_version": 1, "operator": operators.damped_wave(n).to_json(), "ell": 0,
            "grid": {"N": N, "L": 40.0}, "dt": 0.05, "T": T, **extra}


class Sweep1D:
    """In-process `critevo sweep` over amplitude, across the blow-up boundary."""

    def __init__(self, seed: int, work: Path, size: dict) -> None:
        rng = np.random.default_rng(seed)
        low, high = size["sweep_values"]
        # One log-uniform draw per equal log-width stratum of [0.2, 0.5] (all
        # survive) and of [0.65, 1.0] (all blow up early).  The band between
        # holds the boundary (about 0.575 at N=64), where the blow-up step
        # swings from ~350 to 4000 within 3% of amplitude; a value there
        # would make the sweep's work, and so its time, depend on the seed.
        self.amplitudes = ([0.2 * 2.5 ** ((i + rng.random()) / low) for i in range(low)]
                           + [0.65 * (1 / 0.65) ** ((i + rng.random()) / high)
                              for i in range(high)])
        self.base = _sim_base(
            size["sweep_N"], 1, size["sweep_T"], record_every=100,
            profile={"kind": "gaussian", "width": 2.0, "zero_mean": True},
            nonlinearity={"p": 3.0, "mu": {"family": "iterated_log", "gamma": 2.0}})
        self.cfg = work / "sweep_config.json"
        self.cfg.write_text(json.dumps({"schema_version": 1, "task": "simulate",
                                        "parameter": "amplitude", "values": self.amplitudes,
                                        "config": self.base}))
        self.warm_cfg = work / "warmup_config.json"
        self.warm_cfg.write_text(json.dumps({**self.base, "amplitude": self.amplitudes[0],
                                             "T": min(10.0, size["sweep_T"])}))

    def warmup(self, out: Path) -> None:
        in_process_cli(["simulate", "--config", str(self.warm_cfg), "--out-dir", str(out)])

    def run(self, out: Path, tracer: Tracer | None) -> Op:
        res = Op()
        t = time.perf_counter()
        rc = in_process_cli(["sweep", "--config", str(self.cfg), "--out-dir", str(out)])
        res.sample("sweep_s", time.perf_counter() - t)
        index = read_json(out / "sweep_index.json")
        res.digests["sweep_index.json"] = digest(out / "sweep_index.json") if index else ""
        res.check(rc == 0 and bool(index), f"sweep exit {rc}")
        rows = []
        for entry in index.get("runs", []):
            run_dir = out / entry["dir"]
            res.digests[entry["dir"]] = digest(run_dir)
            sim = read_json(run_dir / "simulate.json").get("report", {})
            res.steps += int(sim.get("meta", {}).get("steps_taken", 0))
            summary = entry.get("summary", {})
            rows.append((entry["value"], entry["status"], summary.get("outcome"),
                         summary.get("blowup_time")))
        res.artifact_bytes = tree_bytes(out)
        rows.sort()
        seen_blowup, last_time = False, math.inf
        for value, status, outcome, blowup_time in rows:
            ok = status == "ok" and outcome in ("completed", "blowup_detected")
            if outcome == "completed":
                ok = ok and not seen_blowup
            elif ok:
                seen_blowup = True
                ok = blowup_time is not None and blowup_time <= last_time
                last_time = blowup_time if ok else last_time
            res.check(ok, f"amplitude {value}: {status}/{outcome} at {blowup_time}")
        if len(rows) != len(self.amplitudes):
            res.check(False, f"sweep reported {len(rows)} of {len(self.amplitudes)} values")
        return res


class Field2D:
    """In-process `critevo simulate` of the 2-D damped wave, then `residual` on it."""

    def __init__(self, seed: int, work: Path, size: dict) -> None:
        rng = np.random.default_rng(seed)
        self.amplitude = float(rng.uniform(0.3, 0.6))
        self.cfg = work / "simulate_config.json"
        self.cfg.write_text(json.dumps(_sim_base(
            size["field_N"], 2, size["field_T"], amplitude=self.amplitude,
            record_fields=True, profile={"kind": "gaussian", "width": 2.0},
            nonlinearity={"p": "critical", "mu": {"family": "iterated_log", "gamma": 2.0}})))
        self.work = work

    def warmup(self, out: Path) -> None:
        self.run(out, None)

    def run(self, out: Path, tracer: Tracer | None) -> Op:
        res = Op()
        sim_dir, res_dir = out / "run", out / "residual"
        res_cfg = self.work / "residual_config.json"
        res_cfg.write_text(json.dumps({"schema_version": 1, "run": str(sim_dir)}))
        t = time.perf_counter()
        rc = in_process_cli(["simulate", "--config", str(self.cfg), "--out-dir", str(sim_dir)])
        res.sample("simulate_s", time.perf_counter() - t)
        sim = read_json(sim_dir / "simulate.json").get("report", {})
        res.steps = int(sim.get("meta", {}).get("steps_taken", 0))
        res.check(rc == 0 and sim.get("outcome") == "completed",
                  f"simulate exit {rc}, outcome {sim.get('outcome')}")
        t = time.perf_counter()
        rc = in_process_cli(["residual", "--config", str(res_cfg), "--out-dir", str(res_dir)])
        res.sample("residual_s", time.perf_counter() - t)
        value = read_json(res_dir / "residual.json").get("report", {}).get("residual")
        res.check(rc == 0 and isinstance(value, float) and value < 1e-3,
                  f"residual exit {rc}, value {value}")
        res.digests["run"] = digest(sim_dir)
        res.digests["residual"] = digest(res_dir)
        res.artifact_bytes = tree_bytes(out)
        return res


WORKLOADS = {"analysis": Analysis, "sweep-1d": Sweep1D, "field-2d": Field2D}


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    q = int(100 * (1 - 10 / len(samples)))
    if q > 50:
        ordered = sorted(samples)
        out[f"p{q}"] = ordered[min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1)]
    return out


def environment() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def startup_probe(code: str, repeats: int = 3) -> float:
    walls = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=CLI_TIMEOUT_S)
        walls.append(time.perf_counter() - t)
    return statistics.median(walls)


def per_layer(tracer: Tracer, traced: list[Op], overhead: float) -> tuple[dict, list[str]]:
    """Per-operation layer figures from the traced operations; absent names listed."""
    n = len(traced)
    totals = tracer.totals()
    steps = sum(op.steps for op in traced)
    run_s = totals.get("solver.run", {}).get("s", 0.0)
    fft_calls = tracer.counts.get("numpy.fft", 0)
    values, absent = {}, []
    for name, unit, _ in PER_LAYER:
        if name == "python.startup_s":
            values[name] = startup_probe("pass")
        elif name == "cli.import_s":
            values[name] = startup_probe("import critevo.cli")
        elif name == "trace.overhead_ratio":
            values[name] = overhead
        elif name == "artifact_bytes":
            values[name] = sum(op.artifact_bytes for op in traced) / n
        elif name == "solver.steps_per_s":
            values[name] = steps / run_s if run_s > 0 else 0.0
            if "solver.run" not in tracer.present:
                absent.append(name)
        elif name == "numpy.fft.calls_per_step":
            values[name] = fft_calls / steps if steps else 0.0
            if "numpy.fft" not in tracer.present:
                absent.append(name)
        else:
            span, stat = name.rsplit(".", 1)
            if span not in tracer.present:
                absent.append(name)
            if span in tracer.counts:
                values[name] = tracer.counts[span] / n
            else:
                values[name] = totals.get(span, {}).get(stat, 0) / n
        values[name] = {"value": values[name], "unit": unit}
    return values, absent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    result_path = Path(args.result)
    work = result_path.parent / f"work-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work, SIZES[args.size])
        wl.warmup(work / "warmup")
        shutil.rmtree(work / "warmup", ignore_errors=True)
        setup_s = time.monotonic() - args.t0
        report: dict = {"setup_s": setup_s}
        if not args.setup_only:
            spans = result_path.parent / f"spans-{args.workload}-seed{args.seed}.npz"
            report.update(measure(wl, work, args.seconds, spans if args.trace else None))
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["env"] = environment()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result_path.write_text(json.dumps(report))
    return 0


def measure(wl, work: Path, seconds: float, spans: Path | None) -> dict:
    """Closed loop of operations; with ``spans`` set, every second one is traced."""
    traced_run = spans is not None
    tracer = Tracer()
    ops: list[tuple[bool, Op]] = []
    start = time.perf_counter()
    while len(ops) < 2 or time.perf_counter() - start < seconds:
        traced = traced_run and len(ops) % 2 == 1
        out = work / "op"
        shutil.rmtree(out, ignore_errors=True)
        t = time.perf_counter()
        if traced:
            with tracer.installed():
                res = wl.run(out, tracer)
        else:
            res = wl.run(out, None)
        res.wall_s = time.perf_counter() - t
        ops.append((traced, res))
    first = ops[0][1].digests
    attempted = failed = 0
    failures: list[str] = []
    for k, (_, res) in enumerate(ops):
        for name, value in res.digests.items():
            if k:
                res.check(value == first.get(name), f"{name} digest differs from repeat 0")
        attempted += res.attempted
        failed += len(res.failures)
        failures += [f"repeat {k}: {f}" for f in res.failures]
    plain = [res for traced, res in ops if not traced]
    samples: dict[str, list[float]] = {"op_s": [res.wall_s for res in plain]}
    for res in plain:
        for name, values in res.samples.items():
            samples.setdefault(name, []).extend(values)
    report = {
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "detail": {name: summarize(values) for name, values in samples.items()},
    }
    report["detail"]["op_s"]["samples"] = samples["op_s"]
    if traced_run:
        traced_ops = [res for traced, res in ops if traced]
        overhead = (statistics.median(r.wall_s for r in traced_ops)
                    / statistics.median(r.wall_s for r in plain))
        report["per_layer"], report["absent"] = per_layer(tracer, traced_ops, overhead)
        tracer.save(spans)
        report["spans"] = spans.name
    return report


if __name__ == "__main__":
    sys.exit(main())
