"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line into the
"acceptance criteria" section of the terminal summary (see conftest).
"""

import json
import math
import os
import time
from fractions import Fraction

import numpy as np

from critevo import cli
from critevo.decay import RadialProfile, fit_decay, fit_exponential, l2_decay_curve, spectral_gap
from critevo.envelope import INF, critical_exponent
from critevo.mu import MuSpec, NonlinearitySpec, integral_condition
from critevo.operators import damped_klein_gordon, damped_wave, sigma_evolution
from critevo.reporting import dumps_json
from critevo.residual import make_test_function, weak_residual
from critevo.solver import (
    DataProfile as SolverProfile,
    Grid,
    ModePropagator,
    RunConfig,
    init_state,
    nonlinear_step,
    row_groups,
    run,
)

from helpers import (
    build_m5_operator,
    oracle_exponent,
    random_operator,
    run_recording,
    scaling_lines,
)


def test_criterion_01_exponent_cli_closed_forms(acceptance, tmp_path):
    cases = [  # (sigma, delta, n, exact p_c)
        (1, 0, 1, "3"),
        (2, 0, 3, "7/3"),
        (3, 1, 4, "4"),
        (3, 2, 4, "7"),
    ]
    t0 = time.monotonic()
    got = []
    for i, (sig, dlt, n, want) in enumerate(cases):
        op_path = tmp_path / f"op{i}.json"
        op_path.write_text(dumps_json(sigma_evolution(n, sig, dlt)), encoding="utf-8")
        cfg_path = tmp_path / f"exp{i}.json"
        cfg_path.write_text(json.dumps({"schema_version": 1, "operator": str(op_path),
                                        "ell": 0}), encoding="utf-8")
        out = tmp_path / f"out{i}"
        rc = cli.main(["exponent", "--config", str(cfg_path), "--out-dir", str(out)])
        doc = json.loads((out / "exponent.json").read_text())
        got.append((rc, doc["report"]["p_c"], want))
    elapsed = time.monotonic() - t0
    ok = all(rc == 0 and have == want for rc, have, want in got) and elapsed < 1.0
    acceptance("criterion 1 (cli exponent, four closed-form cases)", ok,
               f"{[h for _, h, _ in got]} in {elapsed:.2f}s")


def test_criterion_02_level1_exact_grid(acceptance):
    bad = []
    for sig in (1, Fraction(3, 2), 2, 3):
        for dlt in (Fraction(1, 4), Fraction(1, 2), 1, Fraction(3, 2), 2):
            if dlt > sig:
                continue
            for n in (1, 2, 3, 4):
                rep = critical_exponent(sigma_evolution(n, sig, dlt), 1, n)
                want = (1 + Fraction(2) * dlt / n if 2 * dlt < sig
                        else 1 + Fraction(sig) / n)
                if rep.p_c != want:
                    bad.append((sig, dlt, n, rep.p_c, want))
    acceptance("criterion 2 (first-derivative-level exact grid, both branches)",
               not bad, f"{len(bad)} mismatches" if bad else "56 exact matches")


def test_criterion_03_fifth_order_family(acceptance):
    rep = critical_exponent(build_m5_operator(3), 0, 3)
    pieces = [(p.slope, p.intercept) for p in rep.envelope.pieces]
    ok = (rep.p_c == 5 and rep.eta_star == 2
          and pieces == [(3, 0), (1, 2), (0, 4)]
          and list(rep.envelope.breakpoints) == [1, 2])
    acceptance("criterion 3 (fifth-order cascade: p_c, eta, envelope segments)",
               ok, f"p_c={rep.p_c}, eta={rep.eta_star}, pieces={pieces}")


def test_criterion_04_random_operators_vs_oracle(acceptance):
    rng = np.random.default_rng(20260815)
    t0 = time.monotonic()
    bad = 0
    for _ in range(100):
        op, ell = random_operator(rng)
        want, _ = oracle_exponent(scaling_lines(op, ell), op.n)
        rep = critical_exponent(op, ell, op.n)
        if want == math.inf:
            if rep.p_c != INF:
                bad += 1
        elif rep.p_c == INF or abs(float(rep.p_c) - float(want)) > 1e-9:
            bad += 1
    elapsed = time.monotonic() - t0
    acceptance("criterion 4 (100 random operators vs independent oracle)",
               bad == 0 and elapsed < 30.0, f"{bad} mismatches in {elapsed:.1f}s")


def test_criterion_05_mu_admissibility(acceptance):
    verdict = integral_condition(
        MuSpec(family="iterated_log", depth=0, gamma=2.0), 0.1)
    quad_ok = (verdict.classification == "convergent"
               and abs(verdict.quadrature_value - 1.0 / math.log(10.0)) < 1e-6)
    class_ok = True
    for depth in (0, 1, 2):
        for gamma, want in ((0.5, "divergent"), (1.0, "divergent"),
                            (1.5, "convergent"), (3.0, "convergent")):
            mu = MuSpec(family="iterated_log", depth=depth, gamma=gamma)
            c0 = min(0.05, mu.tau_star / 2.0)
            v = integral_condition(mu, c0)
            if v.classification != want:
                class_ok = False
    acceptance("criterion 5 (modulation integral: quadrature + classification grid)",
               quad_ok and class_ok,
               f"|quad - 1/ln10| = {abs(verdict.quadrature_value - 1/math.log(10)):.2e}")


def test_criterion_06_linear_decay_rates(acceptance):
    times = np.geomspace(1e2, 1e4, 25)
    curve = l2_decay_curve(damped_wave(1), RadialProfile(width=1.0), times, layer=0)
    fit_dw = fit_decay(times, curve, window=(1e2, 1e4), target=-0.25, tol=0.05,
                       mode="two-sided")
    kg = damped_klein_gordon(1, damping=2.0, mass=1.0)
    gap = spectral_gap(kg)
    gap_ok = abs(gap - (2.0 - math.sqrt(3.0))) < 1e-9
    kt = np.linspace(20.0, 60.0, 21)
    kcurve = l2_decay_curve(kg, RadialProfile(width=1.0), kt, layer=0)
    fit_kg = fit_exponential(kt, kcurve, window=(20.0, 60.0), target=-gap,
                             tol=0.05, mode="two-sided")
    ok = (fit_dw.verdict == "pass" and gap_ok and fit_kg.verdict == "pass"
          and abs(fit_kg.slope + gap) < 0.05 * gap)
    acceptance("criterion 6 (linear decay: diffusive -1/4 and spectral-gap fits)",
               ok, f"dw slope {fit_dw.slope:.4f}, kg slope {fit_kg.slope:.4f} "
                   f"vs gap {-gap:.4f}")


def test_criterion_07_solver_exactness(acceptance, tmp_path):
    op = damped_wave(1)
    grid = Grid(n=1, N=64, L=40.0)
    prof = SolverProfile(kind="gaussian", width=2.0)

    # (a) the linear stepper is a matrix exponential: dt-independent
    finals = []
    for dt in (0.1, 0.02):
        _, (frames,) = run_recording(RunConfig(op=op, grid=grid, profile=prof, ell=0, dt=dt,
                                               T=1.0), [(1.0, None)], tmp_path)
        finals.append(frames[-1])
    step_ok = float(np.max(np.abs(finals[0] - finals[1]))) < 1e-6

    # (b) manufactured u = sin(t) e^{-t} cos(x): pure time-stepping error
    g2 = Grid(n=1, N=16, L=2.0 * math.pi)
    cosx = np.cos(g2.coords()[0])
    nl = NonlinearitySpec(p=2.0, mu=MuSpec(family="constant"))

    def phi(t):
        return math.sin(t) * math.exp(-t)

    def forcing(t):
        dphi = math.exp(-t) * (math.cos(t) - math.sin(t))
        ddphi = -2.0 * math.exp(-t) * math.cos(t)
        return (ddphi + dphi + phi(t)) * cosx - (phi(t) * cosx) ** 2

    errs = []
    for dt in (0.02, 0.01):
        _, (frames,) = run_recording(RunConfig(
            op=op, grid=g2, profile=SolverProfile(kind="custom_table", values=tuple(cosx)),
            ell=0, dt=dt, T=1.0, forcing=forcing, record_every=1000000), [(1.0, nl)], tmp_path)
        errs.append(float(np.max(np.abs(frames[-1] - phi(1.0) * cosx))))
    rate = math.log2(errs[0] / errs[1])

    # (c) modes above the 2/3 cutoff stay exactly zero through nonlinear steps
    g3 = Grid(n=1, N=24, L=2.0 * math.pi)
    modes = init_state(op, g3, SolverProfile(kind="gaussian", width=0.4), [1.0])
    propagator = ModePropagator(op, g3, dt=0.05)
    nl3 = NonlinearitySpec(p=3.0, mu=MuSpec(family="constant"))
    for i in range(5):
        modes = nonlinear_step(modes, i * propagator.dt, propagator, ell=0,
                               groups=row_groups([nl3]))
    dealias_ok = bool(np.all(modes[:, :, ~g3.dealias_mask()[g3.half]] == 0.0))

    acceptance("criterion 7 (solver: exponential stepping, order 2, dealiasing)",
               step_ok and rate >= 1.9 and dealias_ok,
               f"dt-diff ok={step_ok}, order={rate:.2f}, dealias={dealias_ok}")


def test_criterion_08_weak_residual_refinement(acceptance, tmp_path):
    op = damped_wave(1)
    T = 20.0
    residuals = []
    for N, dt in ((64, 0.1), (128, 0.05), (256, 0.025)):
        grid = Grid(n=1, N=N, L=40.0)
        (rep,), (frames,) = run_recording(RunConfig(
            op=op, grid=grid, profile=SolverProfile(kind="gaussian", width=2.0),
            ell=0, dt=dt, T=T, record_every=2), [(1.0, None)], tmp_path)
        tf = make_test_function(op, 0, grid, T, eta_bar=2, scale=0.98 * T)
        rr = weak_residual(op, 0, grid, np.asarray(rep.times), frames, tf,
                           initial_layers=rep.initial_layers)
        residuals.append(rr.residual)
    ok = (residuals[0] < 1e-3
          and residuals[1] <= residuals[0] / 2.0
          and residuals[2] <= residuals[1] / 2.0)
    acceptance("criterion 8 (weak-form residual: small and halving under refinement)",
               ok, "residuals " + ", ".join(f"{r:.2e}" for r in residuals))


def test_criterion_09_nonlinear_regimes(acceptance):
    op = damped_wave(1)
    grid = Grid(n=1, N=64, L=40.0)

    # (a) critical power with admissible modulation: small data survives long
    nl_a = NonlinearitySpec(p=3.0, mu=MuSpec(family="iterated_log", depth=0, gamma=2.0))
    rep_a, = run(RunConfig(op=op, grid=grid,
                           profile=SolverProfile(kind="gaussian", width=2.0, zero_mean=True),
                           ell=0, dt=0.05, T=1000.0, record_every=100), [(0.5, nl_a)])
    a_ok = rep_a.outcome == "completed" and rep_a.xnorm_last_increase < 100.0

    # (b) below-critical power with positive data: finite-time blow-up
    nl_b = NonlinearitySpec(p=2.0, mu=MuSpec(family="constant", value=1.0))
    rep_b, = run(RunConfig(op=op, grid=grid,
                           profile=SolverProfile(kind="gaussian", width=2.0),
                           ell=0, dt=0.02, T=100.0, record_every=20), [(1.0, nl_b)])
    b_ok = rep_b.outcome == "blowup_detected" and rep_b.blowup_time < 100.0

    # (c) spectral gap survives a gentle nonlinearity: exponential fit passes
    kg = damped_klein_gordon(1, damping=2.0, mass=1.0)
    gap = spectral_gap(kg)
    nl_c = NonlinearitySpec(p=1.0, mu=MuSpec(family="power", epsilon=1.0))
    rep_c, = run(RunConfig(op=kg, grid=grid,
                           profile=SolverProfile(kind="gaussian", width=2.0),
                           ell=0, dt=0.05, T=80.0, record_every=4), [(0.1, nl_c)])
    fit_c = fit_exponential(np.asarray(rep_c.times), np.asarray(rep_c.series["L2[0]"]),
                            window=(20.0, 60.0), target=-gap, tol=0.05,
                            mode="at-least-as-fast")
    c_ok = rep_c.outcome == "completed" and fit_c.verdict == "pass"

    acceptance("criterion 9 (nonlinear regimes: survival, blow-up, gap persistence)",
               a_ok and b_ok and c_ok,
               f"survive last-increase t={rep_a.xnorm_last_increase:.3g}, "
               f"blow-up t={rep_b.blowup_time:.3g}, gap slope {fit_c.slope:.4f}")


def test_criterion_10_artifact_determinism(acceptance, tmp_path):
    op_path = tmp_path / "op.json"
    op_path.write_text(dumps_json(damped_wave(1)), encoding="utf-8")
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({
        "schema_version": 1, "operator": str(op_path), "ell": 0,
        "grid": {"N": 32, "L": 20.0},
        "profile": {"kind": "gaussian", "width": 1.2},
        "dt": 0.05, "T": 2.0, "record_fields": True,
        "nonlinearity": {"p": 2.0, "mu": {"family": "iterated_log", "gamma": 2.0}},
        "amplitude": 0.1,
    }), encoding="utf-8")
    dirs = (tmp_path / "r1", tmp_path / "r2")
    codes = [cli.main(["simulate", "--config", str(cfg_path), "--out-dir", str(d)])
             for d in dirs]
    names = sorted(os.listdir(dirs[0]))
    identical = all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
                    for f in names)
    exp_path = tmp_path / "exp.json"
    exp_path.write_text(json.dumps({"schema_version": 1, "operator": str(op_path), "ell": 0}),
                        encoding="utf-8")
    exp_dirs = (tmp_path / "e1", tmp_path / "e2")
    codes += [cli.main(["exponent", "--config", str(exp_path), "--out-dir", str(d)])
              for d in exp_dirs]
    identical = identical and ((exp_dirs[0] / "exponent.json").read_bytes()
                               == (exp_dirs[1] / "exponent.json").read_bytes())
    acceptance("criterion 10 (repeat runs produce byte-identical artifacts)",
               all(c == 0 for c in codes) and identical,
               f"{len(names) + 1} artifacts compared")
