import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from critevo import operators
from critevo.decay import (
    _EXP_BLOCK,
    RadialProfile,
    _decay_quadrature,
    _kernel_matrix,
    _plancherel_nodes,
    check_linear_decay_hypothesis,
    fit_decay,
    fit_exponential,
    l2_decay_curve,
    spectral_gap,
)
from critevo.errors import NumericalError, ValidationError
from critevo.operators import (
    EvolutionOperator,
    SpatialTerm,
    damped_klein_gordon,
    damped_wave,
    exp_blocks,
    fractional_term,
    laplacian_terms,
    sigma_evolution,
)
from critevo.reporting import jsonify
from critevo.solver import DataProfile, Grid, RunConfig, run
from helpers import mp_exp

GAP_KG = 2.0 - math.sqrt(3.0)  # zero-mode rate of u'' + 4u' + u
PANEL_LEVELS = (2, 4, 8, 16, 32)
KERNEL_OPS = {
    "damped_wave": damped_wave(1),
    "sigma_3_2_0": sigma_evolution(3, 2, 0),
    "sigma_3_2_1": sigma_evolution(3, 2, 1),
    "sigma_1_2_1": sigma_evolution(1, 2, 1),
    "klein_gordon": damped_klein_gordon(1, damping=2.0, mass=1.0),
    "free_wave": EvolutionOperator(m=2, n=1, levels={0: tuple(laplacian_terms(1, 1, 1.0))}),
    # d_t^3 u + 3 d_t^2 u + (-Lap) d_t u + (-Lap) u: both kernel paths run at every level
    "third_order": EvolutionOperator(m=3, n=2, levels={
        0: (fractional_term(1, 1.0),), 1: (fractional_term(1, 1.0),),
        2: (fractional_term(0, 3.0),)}),
}


def _mode_weights(A, layer, gap_tol=1e-8):
    """Eigen-decompose one companion matrix; None when nearly defective."""
    lam, V = np.linalg.eig(A)
    scale = max(float(np.max(np.abs(lam))), 1.0)
    gaps = np.abs(lam[:, None] - lam[None, :]) + np.eye(lam.size) * scale
    if float(np.min(gaps)) < gap_tol * scale:
        return None
    Vinv = np.linalg.inv(V)
    w = V[layer, :] * Vinv[:, A.shape[0] - 1]
    return lam, w


def per_node_kernel_matrix(op, rhos, times, layer):
    """Reference for _kernel_matrix: one eig per node, one exponential per (node,
    time), scipy's expm at m = 2 and exp_blocks of the one block otherwise."""
    m = op.m
    A_all = op.radial_companion(rhos)
    K = np.empty((rhos.size, times.size), dtype=complex)
    for i in range(rhos.size):
        mw = _mode_weights(A_all[i], layer)
        if mw is not None:
            lam, w = mw
            K[i] = np.exp(np.outer(times, lam)) @ w
        else:
            for j, t in enumerate(times):
                E = (scipy.linalg.expm(t * A_all[i]) if m == 2
                     else exp_blocks(A_all[i:i + 1], [t])[0, 0])
                K[i, j] = E[layer, m - 1]
    return K


def defective_mask(op, rhos):
    return np.array([_mode_weights(A, 0) is None for A in op.radial_companion(rhos)])


def defective_nodes(op, rhos):
    return int(np.count_nonzero(defective_mask(op, rhos)))


def damped_wave_kernel(t, rho):
    # closed form for the (0, 1) entry of exp(t A), A = [[0, 1], [-rho^2, -1]]
    disc = cmath.sqrt(1.0 - 4.0 * rho * rho)
    lp, lm = (-1.0 + disc) / 2.0, (-1.0 - disc) / 2.0
    if abs(lp - lm) < 1e-12:
        return (t * cmath.exp(lp * t)).real
    return ((cmath.exp(lp * t) - cmath.exp(lm * t)) / (lp - lm)).real


def test_curve_matches_scalar_quadrature_oracle():
    op = damped_wave(1)
    prof = RadialProfile(width=1.0)
    times = [0.5, 2.0, 10.0, 60.0]
    got = l2_decay_curve(op, prof, times, layer=0)
    cn = 2.0 / (2.0 * math.pi)  # |S^0| / (2 pi)^1
    for t, g in zip(times, got):
        val, err = quad(
            lambda r: damped_wave_kernel(t, r) ** 2 * math.exp(-r * r), 0.0, 12.0,
            limit=300)
        want = math.sqrt(cn * val)
        assert g == pytest.approx(want, rel=1e-6), t


def test_curve_initial_values():
    op = damped_wave(1)
    prof = RadialProfile(width=1.3)
    zero = l2_decay_curve(op, prof, [0.0], layer=0)[0]
    assert zero == pytest.approx(0.0, abs=1e-12)
    data = l2_decay_curve(op, prof, [0.0], layer=1)[0]
    assert data == pytest.approx(prof.l2_norm(1), rel=1e-9)


def test_damped_wave_rate_one_quarter():
    op = damped_wave(1)
    times = np.geomspace(1e2, 1e4, 40)
    vals = l2_decay_curve(op, RadialProfile(width=1.0), times, layer=0)
    fit = fit_decay(times, vals, (1e2, 1e4), target=-0.25, tol=0.02)
    assert fit.verdict == "pass"
    assert fit.clean
    assert fit.slope == pytest.approx(-0.25, abs=0.02)


def test_quadrature_stable_under_tolerance():
    op = damped_wave(1)
    times = [1.0, 10.0, 100.0]
    a = l2_decay_curve(op, RadialProfile(width=1.0), times, qtol=1e-8)
    b = l2_decay_curve(op, RadialProfile(width=1.0), times, qtol=1e-10)
    assert np.max(np.abs(a - b)) < 1e-7 * np.max(a)


def test_quadrature_doubles_to_64_panels_per_decade():
    # layer 1 of sigma-evolution (3, 2, 0) oscillates fast at t = 10: the
    # curve still moves by 2e-6 relatively from 16 to 32 panels per decade
    op, profile = sigma_evolution(3, 2, 0), RadialProfile(width=1.0)
    times = np.geomspace(10.0, 1000.0, 40)
    values = l2_decay_curve(op, profile, times, layer=1)
    again, evidence = _decay_quadrature(op, profile, times, 1, 1e-8)
    assert np.array_equal(values, again)
    assert evidence.panels_per_decade == 64
    assert evidence.nodes == _plancherel_nodes(profile.tail_cutoff(), 64)[0].size
    assert evidence.last_relative_change <= 1e-8
    assert np.all(np.isfinite(values)) and np.all(values > 0)


def test_plancherel_nodes_integrate_powers_of_rho():
    # the s = log rho panels of mu.log_panels carry drho = rho ds: their weights
    # integrate rho^k over (0, P] to rounding, the [0, 1e-8 P] panel included
    P = RadialProfile(width=1.0).tail_cutoff()
    for density in (2, 8):
        rhos, wts = _plancherel_nodes(P, density)
        assert rhos.size == wts.size == 16 * (8 * density + 1)
        assert np.all(np.diff(rhos) > 0) and rhos[0] > 0 and rhos[-1] < P
        for k in (0, 1, 2):
            assert np.sum(wts * rhos**k) == pytest.approx(P ** (k + 1) / (k + 1), rel=1e-14)


@pytest.mark.parametrize("layer, slope", [(1, -0.5), (2, -1.0)])
def test_third_order_derivative_curves_settle_at_128_panels(layer, slope):
    # the cross terms of the complex roots oscillate across a 64-per-decade panel
    # at t = 1e4: these curves did not settle by 64
    times = np.geomspace(1e2, 1e4, 40)
    values, evidence = _decay_quadrature(KERNEL_OPS["third_order"], RadialProfile(width=1.0),
                                         times, layer, 1e-8)
    assert (evidence.panels_per_decade, evidence.nodes) == (128, 16 * (8 * 128 + 1))
    assert evidence.last_relative_change <= 1e-8
    assert fit_decay(times, values, (1e2, 1e4)).slope == pytest.approx(slope, abs=0.01)


def test_128_panels_per_decade_only_under_the_node_bound(monkeypatch):
    # 16 400 nodes at 128 panels per decade fit 8 208 x 1000 values up to 500 times
    from critevo import decay

    ladders = []

    def record(evaluate, ladder, *args):
        ladders.append(ladder)
        raise NumericalError("recorded")

    monkeypatch.setattr(decay, "settle", record)
    for n_times in (500, 501):
        with pytest.raises(NumericalError, match="recorded"):
            l2_decay_curve(damped_wave(1), RadialProfile(), np.linspace(1.0, 2.0, n_times))
    assert ladders == [(2, 4, 8, 16, 32, 64, 128), (2, 4, 8, 16, 32, 64)]


def test_a_curve_past_the_node_bound_names_it(monkeypatch):
    from critevo import decay

    monkeypatch.setattr(decay, "_MAX_NODE_TIMES", 16400 * 40 - 1)
    with pytest.raises(NumericalError, match=r"\(<= 655999 nodes x times\) did not settle "
                                             r"to tol 1e-08 by 64 panels per decade"):
        _decay_quadrature(KERNEL_OPS["third_order"], RadialProfile(width=1.0),
                          np.geomspace(1e2, 1e4, 40), 1, 1e-8)


def test_decay_quadrature_rejects_a_tolerance_of_zero():
    with pytest.raises(ValidationError, match="qtol must be > 0"):
        l2_decay_curve(damped_wave(1), RadialProfile(), [1.0], qtol=0.0)


def test_spectral_gap_values():
    kg = damped_klein_gordon(1, damping=2.0, mass=1.0)
    assert spectral_gap(kg) == pytest.approx(GAP_KG, rel=1e-6)
    # classical damping leaves the zero mode undamped
    assert spectral_gap(damped_wave(1)) == pytest.approx(0.0, abs=1e-9)


def test_klein_gordon_exponential_rate():
    kg = damped_klein_gordon(1, damping=2.0, mass=1.0)
    times = np.linspace(20.0, 60.0, 30)
    vals = l2_decay_curve(kg, RadialProfile(width=1.0), times, layer=0)
    fit = fit_exponential(times, vals, (20.0, 60.0), target=-GAP_KG, tol=0.05 * GAP_KG)
    # algebraic prefactor erodes the slope by ~1/(4t); the window keeps it small
    assert fit.verdict == "pass"
    assert fit.slope == pytest.approx(-GAP_KG, rel=0.05)


def test_fourth_order_rate_and_hypothesis_fail():
    # sigma=2, delta=0, n=3: true L2 rate -3/8, premise asks -3/7
    op = sigma_evolution(3, 2, 0)
    rep = check_linear_decay_hypothesis(
        op, ell=0, p_c=7.0 / 3.0, q_list=[2.0], window=(1e2, 1e4), tol=0.02)
    entry = rep.entries[0]
    assert entry.fit.slope == pytest.approx(-3.0 / 8.0, abs=0.02)
    assert entry.fit.verdict == "fail"
    assert not rep.all_pass


def test_damped_wave_hypothesis_boundary():
    # q = 2 sits below p_c = 3, where the premise genuinely fails (-1/4 vs -1/3)
    op = damped_wave(1)
    rep = check_linear_decay_hypothesis(
        op, ell=0, p_c=3.0, q_list=[2.0], window=(1e2, 1e4))
    assert rep.entries[0].fit.verdict == "fail"
    # with the exact known rate supplied, the same curve passes two-sided
    rep2 = check_linear_decay_hypothesis(
        op, ell=0, p_c=3.0, q_list=[2.0], window=(1e2, 1e4),
        targets={2.0: -0.25}, fit_mode="two-sided", tol=0.02)
    assert rep2.entries[0].fit.verdict == "pass"
    assert rep2.all_pass
    # entries carry the curve for CSV emission
    assert len(rep2.entries[0].times) == len(rep2.entries[0].values) > 0


def test_a_fit_through_an_underflowed_norm_names_the_first_zero():
    # the squared Klein-Gordon norm leaves the double range near t = 1.4e3, and the
    # curve reads 0.0 from the sample at t = 1511.78 on; the message named no time
    kg = damped_klein_gordon(1, damping=2.0, mass=1.0)
    with pytest.raises(NumericalError, match=r"norm is 0 at t = 1511\.78, the first time in "
                                             r"the window \[100\.0, 10000\.0\] at which it is "
                                             r"not positive.*end the window at t = 1343\.4,"):
        check_linear_decay_hypothesis(kg, ell=0, p_c=3.0, q_list=[2.0])
    # the advice holds: a window that ends there fits all its samples
    rep = check_linear_decay_hypothesis(kg, ell=0, p_c=3.0, q_list=[2.0], window=(1e2, 1343.4))
    assert rep.entries[0].fit.n_samples == 40


def test_free_wave_no_decay_fails():
    free = EvolutionOperator(m=2, n=1, levels={0: tuple(laplacian_terms(1, 1, 1.0))})
    times = np.geomspace(1.0, 10.0, 30)
    vals = l2_decay_curve(free, RadialProfile(width=1.0), times, layer=0)
    fit = fit_decay(times, vals, (1.0, 10.0), target=-1.0 / 3.0, tol=0.05,
                    mode="at-least-as-fast")
    assert fit.slope > 0.2  # grows like sqrt(t)
    assert fit.verdict == "fail"


def test_torus_and_plancherel_agree():
    # same gaussian on a big box vs whole space, far from the box horizon
    op = damped_wave(1)
    grid = Grid(n=1, N=512, L=80.0)
    cfg = RunConfig(op=op, grid=grid, profile=DataProfile(kind="gaussian", width=1.0),
                    ell=0, dt=0.02, T=20.0, record_every=50)
    rep, = run(cfg, [(1.0, None)])
    ts = np.asarray(rep.times)
    sel = ts >= 5.0
    # physical gaussian peak 1 has fourier amplitude sqrt(2 pi) w vs the
    # L1-normalized radial profile
    want = math.sqrt(2.0 * math.pi) * l2_decay_curve(
        op, RadialProfile(width=1.0), ts[sel], layer=0)
    got = np.asarray(rep.series["L2[0]"])[sel]
    assert np.max(np.abs(got - want) / want) < 0.01


def test_torus_mode_entries():
    op = damped_wave(1)
    grid = Grid(n=1, N=128, L=60.0)
    rep = check_linear_decay_hypothesis(
        op, ell=0, p_c=3.0, q_list=[3.0, math.inf], mode="torus",
        torus_grid=grid, window=(1.0, 30.0))
    assert rep.mode == "torus"
    qs = [e.q for e in rep.entries]
    assert qs == [3.0, math.inf]
    for e in rep.entries:
        assert e.fit.verdict in ("pass", "fail")
        assert len(e.times) == len(e.values) > 10
    # horizon note appears when the window outruns the box
    small = Grid(n=1, N=64, L=12.0)
    rep2 = check_linear_decay_hypothesis(
        op, ell=0, p_c=3.0, q_list=[3.0], mode="torus",
        torus_grid=small, window=(1.0, 30.0),
        profile=RadialProfile(width=0.7))
    assert any("horizon" in note for note in rep2.notes)


def test_fit_synthetic_power_law():
    ts = np.geomspace(1.0, 1e3, 60)
    vals = 2.7 * (1.0 + ts) ** (-1.0 / 3.0)
    fit = fit_decay(ts, vals, (1.0, 1e3), target=-1.0 / 3.0, tol=1e-3)
    assert fit.kind == "power"
    assert fit.slope == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(2.7), abs=1e-9)
    assert fit.rms < 1e-12
    assert fit.clean and fit.verdict == "pass"


def test_fit_synthetic_exponential():
    ts = np.linspace(0.0, 30.0, 50)
    vals = 0.4 * np.exp(-0.5 * ts)
    fit = fit_exponential(ts, vals, (0.0, 30.0), target=-0.5, tol=1e-3)
    assert fit.slope == pytest.approx(-0.5, abs=1e-10)
    assert fit.clean and fit.verdict == "pass"
    # a power fit over the same data is flagged unclean
    bad = fit_decay(ts[1:], vals[1:], (0.1, 30.0))
    assert not bad.clean


@pytest.mark.parametrize("fit", [fit_decay, fit_exponential])
@pytest.mark.parametrize("times", [100.0 + 1.4e-14 * np.arange(20), 1e-300 * np.arange(1, 21)],
                         ids=["rounding", "underflow"])
def test_a_fit_rejects_a_window_that_determines_no_line(fit, times):
    # abscissae a few ulps apart leave polyfit's system rank-deficient, and ones
    # near 1e-300 underflow its column scaling: neither is a fit
    with pytest.raises(ValidationError, match=r"window \[.*\] determines no"):
        fit(times, 1.0 + np.exp(-times), (times[0], times[-1]))


def test_fit_mode_semantics():
    ts = np.geomspace(1.0, 100.0, 30)
    faster = (1.0 + ts) ** (-0.5)
    slower = (1.0 + ts) ** (-0.2)
    target = -1.0 / 3.0
    fast_fit = fit_decay(ts, faster, (1.0, 100.0), target=target, tol=0.02,
                         mode="at-least-as-fast")
    slow_fit = fit_decay(ts, slower, (1.0, 100.0), target=target, tol=0.02,
                         mode="at-least-as-fast")
    assert fast_fit.verdict == "pass"
    assert slow_fit.verdict == "fail"
    two = fit_decay(ts, faster, (1.0, 100.0), target=target, tol=0.02,
                    mode="two-sided")
    assert two.verdict == "fail"  # -0.5 is not within 0.02 of -1/3


def test_fit_and_mode_errors():
    ts = np.geomspace(1.0, 100.0, 30)
    vals = (1.0 + ts) ** -0.5
    with pytest.raises(ValidationError):
        fit_decay(ts, vals, (90.0, 100.0))  # too few samples inside
    with pytest.raises(NumericalError):
        fit_decay(ts, 0.0 * vals, (1.0, 100.0))
    op = damped_wave(1)
    with pytest.raises(ValidationError):
        check_linear_decay_hypothesis(op, ell=0, p_c=3.0, q_list=[4.0])
    with pytest.raises(ValidationError):
        check_linear_decay_hypothesis(op, ell=0, p_c=3.0, q_list=[2.0], mode="torus")
    with pytest.raises(ValidationError):
        check_linear_decay_hypothesis(op, ell=0, p_c=3.0, q_list=[2.0], mode="banana")
    with pytest.raises(ValidationError):
        check_linear_decay_hypothesis(op, ell=0, p_c=0.0, q_list=[2.0])
    mixed = EvolutionOperator(m=2, n=2, levels={
        0: (SpatialTerm(kind="monomial", coeff=1.0, alpha=(1, 1)),)})
    with pytest.raises(ValidationError):
        l2_decay_curve(mixed, RadialProfile(), [1.0])


def test_whole_space_decay_checks_every_q_before_its_first_curve(monkeypatch):
    # q_list [2, 3] computed the q = 2 quadrature and only then rejected q = 3
    from critevo import decay

    calls = []
    monkeypatch.setattr(decay, "_decay_quadrature", lambda *args: calls.append(1))
    with pytest.raises(ValidationError, match="q = 3 needs torus mode"):
        check_linear_decay_hypothesis(damped_wave(1), ell=0, p_c=3.0, q_list=[2, 3])
    assert calls == []


def test_fit_rejects_an_unknown_mode():
    ts = np.geomspace(1.0, 100.0, 30)
    vals = (1.0 + ts) ** -0.5
    for fit in (fit_decay, fit_exponential):
        with pytest.raises(ValidationError, match="fit mode"):
            fit(ts, vals, (1.0, 100.0), target=-0.5, mode="two_sided")
    with pytest.raises(ValidationError, match="fit mode"):
        check_linear_decay_hypothesis(damped_wave(1), ell=0, p_c=3.0, q_list=[2.0],
                                      targets={2.0: -0.1}, fit_mode="two_sided")


@pytest.mark.parametrize("name", list(KERNEL_OPS))
def test_stacked_kernel_equals_the_per_node_loop(name):
    # eigen-path nodes and nearly defective m >= 3 nodes keep every bit of the
    # loop; nearly defective m = 2 nodes take the closed form, which differs from
    # scipy's expm by rounding of each row's largest entry (7.8e-16 at worst
    # over these cases)
    op = KERNEL_OPS[name]
    times = np.array([0.0, 0.01, 1.0, 37.5, 1e3, 1e4])
    P = RadialProfile(width=1.0).tail_cutoff()
    for ppd in PANEL_LEVELS:
        rhos, _ = _plancherel_nodes(P, ppd)
        flagged = defective_mask(op, rhos)
        closed = flagged if op.m == 2 else np.zeros_like(flagged)
        for layer in range(op.m):
            got, fallback = _kernel_matrix(op, rhos, times, layer)
            want = per_node_kernel_matrix(op, rhos, times, layer)
            assert np.array_equal(got[~closed], want[~closed]), (ppd, layer)
            row_max = np.max(np.abs(want[closed]), axis=1, keepdims=True)
            assert np.all(np.abs(got[closed] - want[closed]) <= 1e-14 * row_max), (ppd, layer)
        assert fallback == np.count_nonzero(flagged), ppd


# sigma-evolution (3, 2, 1) has roots -rho^2 (1 -+ i sqrt 3) / 2, nearly defective
# for rho < 8e-5; (3, 3, 1) has real roots near -rho^4 and -rho^2, flagged for
# rho < 1e-4, where the small one is only accurate as det / (the large one)
CONFLUENT_CASES = {
    "sigma_3_2_1": (sigma_evolution(3, 2, 1), [1e2, 1e4]),
    "sigma_3_3_1": (sigma_evolution(3, 3, 1), [1e2, 1e4, 1e8, 1e12]),
}


@pytest.mark.parametrize("layer", [0, 1])
@pytest.mark.parametrize("name", list(CONFLUENT_CASES))
def test_confluent_kernel_matches_mpmath(name, layer):
    mpmath = pytest.importorskip("mpmath")
    op, times = CONFLUENT_CASES[name]
    rhos, times = np.array([1e-7, 1e-6, 1e-5, 5e-5]), np.array(times)
    got, fallback = _kernel_matrix(op, rhos, times, layer)
    assert fallback == rhos.size
    for A, row in zip(op.radial_companion(rhos), got):
        for t, value in zip(times, row):
            want = mp_exp(mpmath, A, t)[layer, 1]
            assert abs(value - want) <= 1e-15 * abs(want), (A[1, 1], t)


def test_nearly_defective_third_order_nodes_match_mpmath():
    # the m = 3 nodes the kernel flags take exp_blocks' Pade exponential; at
    # t = 1e4, t |A|_1 = 4e4 and the error sits at the conditioning of forming t A
    mpmath = pytest.importorskip("mpmath")
    op = KERNEL_OPS["third_order"]
    rhos, _ = _plancherel_nodes(RadialProfile(width=1.0).tail_cutoff(), 2)
    A = op.radial_companion(rhos[defective_mask(op, rhos)])
    assert A.shape[0] == 5
    times = [1.0, 1e2, 1e3, 1e4]
    for block, row in zip(A, exp_blocks(A, times)):
        for t, E in zip(times, row):
            want = mp_exp(mpmath, block, t)
            assert np.max(np.abs(E - want)) <= 1e-12 * np.max(np.abs(want)), (block[2], t)


def test_stacked_kernel_equals_the_per_node_loop_on_a_long_time_list():
    # more times than one block of exponentials holds: one node per block
    op = damped_wave(1)
    times = np.linspace(0.0, 50.0, 4200)
    rhos, _ = _plancherel_nodes(RadialProfile(width=1.0).tail_cutoff(), 2)
    got, fallback = _kernel_matrix(op, rhos, times, 1)
    assert fallback == 0
    assert np.array_equal(got, per_node_kernel_matrix(op, rhos, times, 1))


def _counting(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("name", ["sigma_3_2_1", "third_order", "damped_wave"])
def test_kernel_makes_one_eig_call_per_panel_level(name, monkeypatch):
    op = KERNEL_OPS[name]
    P = RadialProfile(width=1.0).tail_cutoff()
    times = np.geomspace(1.0, 1e3, 7)
    flagged = {ppd: defective_nodes(op, _plancherel_nodes(P, ppd)[0]) for ppd in (2, 4, 8)}
    counts = {"eig": 0, "_expm": 0}
    _counting(monkeypatch, np.linalg, "eig", counts)
    _counting(monkeypatch, operators, "_expm", counts)
    # nearly defective nodes go to the Pade exponential a block of nodes at a
    # time, as the eigen path's, except at m = 2, which takes the closed form
    step = max(1, _EXP_BLOCK // (times.size * op.m))
    for ppd, want in flagged.items():
        counts.update(eig=0, _expm=0)
        _, fallback = _kernel_matrix(op, _plancherel_nodes(P, ppd)[0], times, 0)
        expm = -(-want // step) if op.m > 2 else 0
        assert counts == {"eig": 1, "_expm": expm} and fallback == want, ppd
    counts.update(eig=0, _expm=0)
    _, evidence = _decay_quadrature(op, RadialProfile(width=1.0), times, 0, 1e-8)
    assert counts["eig"] == PANEL_LEVELS.index(evidence.panels_per_decade) + 1


@pytest.mark.parametrize("times, layer", [
    ([], 0),
    ([1.0, math.nan], 0),
    ([2.0, math.inf], 0),
    ([-math.inf], 0),
    ([1.0], 1.5),
    ([1.0], 1.0),
])
def test_decay_curve_rejects_bad_times_and_layers(times, layer):
    with pytest.raises(ValidationError):
        l2_decay_curve(damped_wave(1), RadialProfile(width=1.0), times, layer=layer)


def test_whole_space_entries_carry_quadrature_evidence():
    op = sigma_evolution(3, 2, 1)
    rep = check_linear_decay_hypothesis(op, ell=0, p_c=7.0 / 3.0, q_list=[2.0],
                                        window=(1e2, 1e4), n_times=40)
    entry = rep.entries[0]
    ev = entry.quadrature
    times = np.geomspace(1e2, 1e4, 40)
    assert np.array_equal(entry.values, l2_decay_curve(op, RadialProfile(), times))
    rhos, _ = _plancherel_nodes(RadialProfile().tail_cutoff(), ev.panels_per_decade)
    assert ev.nodes == rhos.size
    assert 0.0 <= ev.last_relative_change <= 1e-8
    assert ev.expm_fallback_nodes == defective_nodes(op, rhos) > 0
    assert jsonify(entry)["quadrature"] == {
        "panels_per_decade": ev.panels_per_decade, "nodes": ev.nodes,
        "last_relative_change": ev.last_relative_change,
        "expm_fallback_nodes": ev.expm_fallback_nodes}


def test_sigma_curve_matches_the_stored_reference():
    # the nearly defective nodes of this curve take the closed form
    ref = json.loads((Path(__file__).parent.parent / "perfbench"
                      / "reference_sigma2_delta1.json").read_text())
    times = np.geomspace(1e2, 1e4, 40)
    assert np.array_equal(times, ref["times"])
    got, evidence = _decay_quadrature(sigma_evolution(3, 2, 1), RadialProfile(width=1.0),
                                      times, 0, 1e-8)
    assert evidence.expm_fallback_nodes > 0
    want = np.asarray(ref["values"])
    assert np.max(np.abs(got - want) / want) <= 1e-12
