import cmath
import math
import tracemalloc

import numpy as np
import pytest

from critevo.errors import ValidationError
from critevo.mu import MuSpec, NonlinearitySpec, eval_F
from critevo.operators import EvolutionOperator, SpatialTerm, damped_wave, sigma_evolution
from critevo.reporting import jsonify
from critevo.residual import TestFunctionSpec, default_q_tf, make_test_function, weak_residual
from critevo.solver import DataProfile, Grid, RunConfig, initial_sign_functional
from helpers import monomial_op, run_recording

BOX = dict(n=1, N=128, L=40.0)
VALID = dict(eta_bar=2, scale=1.0, q_tf=1, flat_fraction=0.5, smooth_order=6, reg_epsilon=0.0)


def exact_mode(grid, op_roots_coeffs, mode=3):
    # real single-mode solution a(t) cos(kx) of a'' + b a' + c a = 0
    b, c = op_roots_coeffs
    k = 2.0 * math.pi / grid.L * mode
    lam = (-b + cmath.sqrt(complex(b * b - 4.0 * c))) / 2.0
    x = grid.coords()[0]

    def layer(t, order):
        return (lam**order * cmath.exp(lam * t)).real * np.cos(k * x)

    return k, lam, layer


def test_weight_matches_finite_differences():
    tf = TestFunctionSpec(eta_bar=2, scale=10.0, q_tf=3, flat_fraction=0.5, smooth_order=6,
                          reg_epsilon=0.0)
    s = np.linspace(0.05, 1.1, 1501)
    h = 1e-6
    keep = (np.abs(s - tf.flat_fraction) > 1e-4) & (np.abs(s - 1.0) > 1e-4)
    for k in (1, 2, 3):
        fd = (tf.weight(k - 1, s + h) - tf.weight(k - 1, s - h)) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(tf.weight(k, s)))))
        err = np.max(np.abs(fd - tf.weight(k, s))[keep]) / scale
        assert err < 1e-5, k


def test_weight_piecewise_support():
    tf = TestFunctionSpec(eta_bar=2, scale=5.0, q_tf=4, flat_fraction=0.5, smooth_order=6,
                          reg_epsilon=0.0)
    s = np.array([0.0, 0.2, 0.5])
    assert np.all(tf.weight(0, s) == 1.0)
    for k in (1, 2):
        assert np.all(tf.weight(k, s) == 0.0)
    beyond = np.array([1.0, 1.5, 30.0])
    for k in (0, 1, 2):
        assert np.all(tf.weight(k, beyond) == 0.0)


def test_weight_stable_at_support_edge():
    # chi^q has a high-multiplicity zero at s = 1; naive monomial expansion
    # of the power loses all significant digits there
    tf = TestFunctionSpec(eta_bar=2, scale=10.0, q_tf=3, flat_fraction=0.5, smooth_order=6,
                          reg_epsilon=0.0)
    s = np.array([1.0 - 1e-3, 1.0 - 1e-5])
    for k in (0, 1, 2):
        vals = np.abs(tf.weight(k, s))
        assert np.all(vals < 1e-8), (k, vals)


def test_descent_closed_forms_match_the_incomplete_beta():
    # chi = 1 - I_u(o+1, o+1) as a sum of non-negative binomial terms; scipy
    # is the independent reference (its form cancels near u = 1, so compare
    # absolutely there and relatively on the well-conditioned half)
    from scipy import special

    u = np.linspace(0.0, 1.0, 2001)
    for o in (1, 2, 6, 12):
        tf = TestFunctionSpec(eta_bar=2, scale=10.0, q_tf=3, flat_fraction=0.5, smooth_order=o,
                              reg_epsilon=0.0)
        assert tf._beta_norm == pytest.approx(special.beta(o + 1, o + 1), rel=1e-14)
        ref = 1.0 - special.betainc(o + 1, o + 1, u)
        row = tf._chi_taylor(0, u)[0]
        assert np.max(np.abs(row - ref)) < 5e-15, o
        low = u <= 0.5
        assert np.max(np.abs(row - ref)[low] / ref[low]) < 1e-14, o
        assert np.all(row >= 0) and row[0] == 1.0 and row[-1] == 0.0


def test_default_q_tf_hand_values():
    dw = damped_wave(1)
    # worst level weight: max(2+0, 0+1, 0+2) = 2, dual of 3 is 3/2
    assert default_q_tf(dw, 0, 3) == 3
    assert default_q_tf(dw, 0, math.inf) == 2
    se = sigma_evolution(1, 2, 1)
    # j=0 carries Lap^2: 4 + 0; dual of 3 is 3/2 -> ceil(6) = 6
    assert default_q_tf(se, 1, 3) == 6
    with pytest.raises(ValidationError):
        default_q_tf(dw, 0, 1)


def test_make_test_function_defaults():
    grid = Grid(**BOX)
    dw = damped_wave(1)
    tf = make_test_function(dw, 0, grid, 12.0)
    # eta* = 2 and p_c = 3 for the damped wave; R stops short of the run's end
    assert tf == TestFunctionSpec(eta_bar=2, scale=0.98 * 12.0, q_tf=3, flat_fraction=0.5,
                                  smooth_order=6, reg_epsilon=0.0)
    # ... or of the box edge, (L/2)^eta_bar = 20 for eta_bar = 1
    odd = make_test_function(dw, 0, grid, 100.0, eta_bar=1)
    assert odd.scale == 0.98 * 20.0
    assert odd.reg_epsilon == pytest.approx(grid.h / 4.0)
    override = make_test_function(dw, 0, grid, 12.0, eta_bar=2, scale=5.0, q_tf=9,
                                  flat_fraction=0.25, smooth_order=8, reg_epsilon=0.1)
    assert override == TestFunctionSpec(eta_bar=2, scale=5.0, q_tf=9, flat_fraction=0.25,
                                        smooth_order=8, reg_epsilon=0.1)
    # (-Lap)^3 of sigma-evolution (1, 3, 1) takes 6 + 2 derivatives
    sigma3 = make_test_function(sigma_evolution(1, 3, 1), 0, grid, 12.0, eta_bar=2, q_tf=3)
    assert sigma3.smooth_order == 8


def test_make_test_function_computes_the_exponent_once_and_only_when_needed(monkeypatch):
    from critevo import residual

    calls = []
    exact = residual.critical_exponent
    monkeypatch.setattr(residual, "critical_exponent",
                        lambda *args: calls.append(args) or exact(*args))
    grid = Grid(**BOX)
    dw = damped_wave(1)
    make_test_function(dw, 0, grid, 12.0)
    assert calls == [(dw, 0, 1)]
    make_test_function(dw, 0, grid, 12.0, eta_bar=2, q_tf=3)
    assert len(calls) == 1
    make_test_function(dw, 0, grid, 12.0, eta_bar=2)
    make_test_function(dw, 0, grid, 12.0, q_tf=3)
    assert len(calls) == 3


def test_make_test_function_errors():
    grid = Grid(**BOX)
    with pytest.raises(ValidationError, match="critical eta is 0"):
        make_test_function(damped_wave(1), 1, grid, 12.0)
    with pytest.raises(ValidationError, match="q_tf default needs p_c > 1"):
        make_test_function(damped_wave(1), 1, grid, 12.0, eta_bar=2)
    bare = EvolutionOperator(m=1, n=1, levels={})
    with pytest.raises(ValidationError, match="critical scaling weight is infinite"):
        make_test_function(bare, 0, grid, 12.0)
    # an explicit non-positive eta_bar is the spec's own error
    with pytest.raises(ValidationError, match="eta_bar must be > 0"):
        make_test_function(damped_wave(1), 0, grid, 12.0, eta_bar=0, scale=1.0)
    # the spec is a resolved value: it has no defaults of its own
    with pytest.raises(TypeError):
        TestFunctionSpec(eta_bar=2, scale=1.0, q_tf=1)


def test_validation_and_support_errors():
    grid = Grid(**BOX)
    op = damped_wave(1)
    with pytest.raises(ValidationError):
        TestFunctionSpec(**{**VALID, "eta_bar": 0})
    with pytest.raises(ValidationError):
        TestFunctionSpec(**{**VALID, "scale": -1.0})
    with pytest.raises(ValidationError):
        TestFunctionSpec(**{**VALID, "q_tf": 0})
    with pytest.raises(ValidationError):
        TestFunctionSpec(**{**VALID, "flat_fraction": 1.0})

    tf = make_test_function(op, 0, grid, 12.0, eta_bar=2, scale=10.0)
    times = np.linspace(0.0, 12.0, 40)
    frames = np.zeros((40,) + grid.shape)
    with pytest.raises(ValidationError):
        weak_residual(op, 0, grid, times[::-1], frames, tf)
    with pytest.raises(ValidationError):
        weak_residual(op, 0, grid, times, frames[:, :-1], tf)
    with pytest.raises(ValidationError):
        weak_residual(op, 0, grid, times, frames, tf,
                      initial_layers=np.zeros((3,) + grid.shape))
    with pytest.raises(ValidationError):
        weak_residual(op, 2, grid, times, frames, tf)
    # run too short for the support
    with pytest.raises(ValidationError):
        weak_residual(op, 0, grid, times[:20], frames[:20], tf)
    # support leaking through the box edge
    leaky = TestFunctionSpec(eta_bar=2, scale=1e4, q_tf=3, flat_fraction=0.5, smooth_order=6,
                             reg_epsilon=0.0)
    msgs = leaky.support_checks(grid, 2e4)
    assert any("box edge" in m for m in msgs)


@pytest.mark.parametrize("order", [0, -1, 2.5])
def test_smooth_order_must_be_a_positive_integer(order):
    # checked where q_tf is, before math.factorial sees the value
    with pytest.raises(ValidationError, match="smooth_order"):
        TestFunctionSpec(**{**VALID, "smooth_order": order})


def test_zero_frames_zero_residual():
    grid = Grid(**BOX)
    op = damped_wave(1)
    tf = make_test_function(op, 0, grid, 12.0, eta_bar=2, scale=10.0)
    times = np.linspace(0.0, 12.0, 60)
    frames = np.zeros((60,) + grid.shape)
    rr = weak_residual(op, 0, grid, times, frames, tf)
    assert rr.residual == 0.0
    assert rr.rhs == 0.0
    assert rr.lhs == 0.0


def test_exact_mode_identity_converges():
    grid = Grid(**BOX)
    op = damped_wave(1)
    k, lam, layer = exact_mode(grid, (1.0, (2.0 * math.pi / grid.L * 3) ** 2))
    T = 20.0
    tf = make_test_function(op, 0, grid, T, eta_bar=2, scale=0.98 * T)
    init = np.stack([layer(0.0, 0), layer(0.0, 1)])
    got = []
    for dt in (0.1, 0.05, 0.025):
        times = np.arange(0.0, T + dt / 2, dt)
        frames = np.stack([layer(t, 0) for t in times])
        rr = weak_residual(op, 0, grid, times, frames, tf, initial_layers=init)
        got.append(rr.residual)
    assert got[0] < 1e-4
    assert got[0] / got[1] > 3.0
    assert got[1] / got[2] > 3.0


def test_exact_mode_boundary_layers_matter():
    # with data extending under the transition of psi, the t = 0 layers from
    # the second integration by parts contribute at the 1e-2 level
    grid = Grid(**BOX)
    op = damped_wave(1)
    k, lam, layer = exact_mode(grid, (1.0, (2.0 * math.pi / grid.L * 3) ** 2))
    T = 20.0
    tf = make_test_function(op, 0, grid, T, eta_bar=2, scale=0.98 * T)
    init = np.stack([layer(0.0, 0), layer(0.0, 1)])
    dt = 0.05
    times = np.arange(0.0, T + dt / 2, dt)
    frames = np.stack([layer(t, 0) for t in times])
    rr = weak_residual(op, 0, grid, times, frames, tf, initial_layers=init)

    rho = tf.rho(grid)
    dx = grid.quad_weight()
    psi0 = tf.time_derivative(0, 0.0, rho)
    naive = float(np.sum((init[0] + init[1]) * psi0) * dx)
    assert abs(rr.data_term - naive) > 1e-2
    assert rr.residual < 2e-5


def test_exact_mode_identity_ell1():
    # j = 0 level sits below ell: exercises the backward anti-derivative
    # path and the layer it strands at t = 0
    grid = Grid(**BOX)
    op = sigma_evolution(1, 2, 1)
    k = 2.0 * math.pi / grid.L * 3
    _, lam, layer = exact_mode(grid, (k * k, k**4))
    T = 20.0
    tf = make_test_function(op, 1, grid, T, eta_bar=2, scale=0.98 * T)
    assert tf.q_tf == 6
    init = np.stack([layer(0.0, 0), layer(0.0, 1)])
    got = []
    for dt in (0.1, 0.05):
        times = np.arange(0.0, T + dt / 2, dt)
        frames = np.stack([layer(t, 1) for t in times])
        rr = weak_residual(op, 1, grid, times, frames, tf, initial_layers=init)
        got.append(rr.residual)
    assert got[0] < 2e-5
    assert got[0] / got[1] > 3.0


def test_exact_mode_identity_with_a_stranded_layer_in_fourier_space():
    # level 1 of sigma-evolution (1, 1, 1) is the non-constant multiplier
    # |k|^2 above ell = 0, so moving d_t onto psi strands u(0) there, paired
    # with psi(0) in Fourier space; an overdamped mode (|k| > 2) is an exact
    # real solution e^{lam t} cos(kx) with u(0) != 0
    grid = Grid(n=1, N=64, L=20.0)
    op = sigma_evolution(1, 1, 1)
    k = 2.0 * math.pi / grid.L * 8
    _, lam, layer = exact_mode(grid, (k * k, k * k), mode=8)
    assert lam.imag == 0.0
    T = 20.0
    tf = make_test_function(op, 0, grid, T, eta_bar=2, scale=0.98 * T, q_tf=5)
    init = np.stack([layer(0.0, 0), layer(0.0, 1)])
    got = []
    for dt in (0.05, 0.025):
        times = np.arange(0.0, T + dt / 2, dt)
        frames = np.stack([layer(t, 0) for t in times])
        rr = weak_residual(op, 0, grid, times, frames, tf, initial_layers=init)
        got.append(rr.residual)
    assert got[1] < 1e-4
    assert got[0] / got[1] > 3.0


def test_solver_frames_refine_together(tmp_path):
    op = damped_wave(1)
    T = 20.0
    got = []
    for N, dt in ((64, 0.1), (128, 0.05)):
        grid = Grid(n=1, N=N, L=40.0)
        cfg = RunConfig(op=op, grid=grid, profile=DataProfile(kind="gaussian", width=2.0),
                        ell=0, dt=dt, T=T, record_every=2)
        out, frames = run_recording(cfg, tmp_path)
        tf = make_test_function(op, 0, grid, T, eta_bar=2, scale=0.98 * T)
        rr = weak_residual(op, 0, grid, np.asarray(out.times), frames, tf,
                           initial_layers=out.initial_layers)
        got.append(rr.residual)
    assert got[0] < 1e-3
    assert got[1] < 1e-4
    assert got[0] / got[1] > 2.0


def test_nonlinear_run_discriminates(tmp_path):
    op = damped_wave(1)
    grid = Grid(**BOX)
    nl = NonlinearitySpec(p=2.0, mu=MuSpec(family="constant", value=1.0))
    cfg = RunConfig(op=op, grid=grid, profile=DataProfile(kind="gaussian", width=2.0),
                    ell=0, dt=0.05, T=20.0, amplitude=0.1, nl=nl, record_every=2)
    out, frames = run_recording(cfg, tmp_path)
    times = np.asarray(out.times)
    tf = make_test_function(op, 0, grid, 20.0, eta_bar=2, scale=0.98 * 20.0)
    matched = weak_residual(op, 0, grid, times, frames, tf, nl=nl,
                            initial_layers=out.initial_layers)
    dropped = weak_residual(op, 0, grid, times, frames, tf,
                            initial_layers=out.initial_layers)
    corrupted = weak_residual(op, 0, grid, times, 1.1 * frames, tf, nl=nl,
                              initial_layers=out.initial_layers)
    assert matched.lhs > 0.0
    assert matched.residual < 1e-4
    assert dropped.residual > 1e-2
    assert corrupted.residual > 1e-3


def test_initial_sign_functional_hand_value():
    grid = Grid(**BOX)
    op = damped_wave(1)
    g0 = np.exp(-grid.coords()[0] ** 2)
    g1 = 0.5 * g0
    layers = np.stack([g0, g1])
    dx = grid.quad_weight()
    # damping level has constant coefficient 1, top level is monic
    want = float(np.sum(g0 + g1) * dx)
    assert initial_sign_functional(op, 0, layers, grid) == pytest.approx(want)
    # ell = 1 drops the damping pairing with u_0
    assert initial_sign_functional(op, 1, layers, grid) == pytest.approx(
        float(np.sum(g1) * dx))
    se = sigma_evolution(1, 2, 1)
    # no level of se except the monic top has a constant part
    assert initial_sign_functional(se, 0, layers, grid) == pytest.approx(
        float(np.sum(g1) * dx))


def _summed_sign_functional(op, ell, layers, grid):
    # the plain sum, with no rounding-noise cut
    total = 0.0
    for j in range(ell, op.m):
        c = op.constant_coefficient(j + 1)
        if c != 0.0:
            total += c * float(np.sum(layers[j]) * grid.quad_weight())
    return total


@pytest.mark.parametrize("grid", [Grid(n=1, N=64, L=40.0), Grid(**BOX),
                                  Grid(n=2, N=32, L=20.0)], ids=["1d-64", "1d-128", "2d-32"])
def test_initial_sign_functional_zero_mean_is_exactly_zero(grid):
    op = damped_wave(grid.n)
    for width in (0.6, 1.2):
        f = DataProfile(kind="gaussian", width=width, zero_mean=True).render(grid)
        layers = np.stack([0.3 * f, 0.7 * f])
        for ell in (0, 1):
            assert initial_sign_functional(op, ell, layers, grid) == 0.0, (width, ell)


def test_initial_sign_functional_nonzero_mean_is_the_plain_sum():
    grid = Grid(**BOX)
    g = np.exp(-grid.coords()[0] ** 2)
    x = grid.coords()[0]
    cases = [np.stack([g, 0.5 * g]), np.stack([-g, 1e-6 * g]),
             np.stack([np.sin(x) + 1e-3 * g, g * (1.0 + x)])]
    for op in (damped_wave(1), sigma_evolution(1, 2, 1)):
        for layers in cases:
            for ell in (0, 1):
                got = initial_sign_functional(op, ell, layers, grid)
                want = _summed_sign_functional(op, ell, layers, grid)
                assert want != 0.0 and got == want, (ell, want)


def test_report_deterministic_and_serializable():
    grid = Grid(**BOX)
    op = damped_wave(1)
    k, lam, layer = exact_mode(grid, (1.0, (2.0 * math.pi / grid.L * 3) ** 2))
    tf = make_test_function(op, 0, grid, 20.0, eta_bar=2, scale=0.98 * 20.0)
    init = np.stack([layer(0.0, 0), layer(0.0, 1)])
    times = np.arange(0.0, 20.0 + 0.05, 0.1)
    frames = np.stack([layer(t, 0) for t in times])
    a = weak_residual(op, 0, grid, times, frames, tf, initial_layers=init)
    b = weak_residual(op, 0, grid, times, frames, tf, initial_layers=init)
    assert a.residual == b.residual
    assert a.contributions == b.contributions
    blob = jsonify(a)
    assert set(blob) >= {"residual", "lhs", "rhs", "data_term",
                         "contributions", "floor", "test_function"}
    assert blob["test_function"]["q_tf"] == 3


# --- the streamed Fourier pass against the whole-stack evaluation -----------

def _backward_antiderivative(arr, times):
    """-int_t^T arr dt' along axis 0 by trapezoids on the recorded times."""
    from scipy.integrate import cumulative_trapezoid

    cum = cumulative_trapezoid(arr, x=times, axis=0, initial=0.0)
    return -(cum[-1][None, ...] - cum)


def whole_stack_weak_residual(op, ell, grid, times, frames, tf, nl=None, initial_layers=None):
    """The identity evaluated on the whole (times, *shape) stack in physical
    space, each level through a complex fftn/ifftn pair, as first written."""
    if initial_layers is None:
        initial_layers = np.zeros((op.m,) + grid.shape)
    dx = grid.quad_weight()
    rho = tf.rho(grid)
    s = (times.reshape((-1,) + (1,) * grid.n) + rho[None, ...]) / tf.scale
    space_axes = tuple(range(1, grid.n + 1))
    ks = grid.wavenumbers()
    contributions = {}
    rhs_sum = 0.0
    data_term = 0.0
    for j in op.order_set():
        mult = np.conj(op.multiplier(j, ks))
        if j >= ell:
            G = tf.weight(j - ell, s) / tf.scale ** (j - ell)
        else:
            G = tf.weight(0, s)
        term = np.real(np.fft.ifftn(mult[None, ...] * np.fft.fftn(G, axes=space_axes),
                                    axes=space_axes))
        if j < ell:
            for i in range(ell - j):
                term = _backward_antiderivative(term, times)
                layer = initial_layers[j + i]
                if np.any(layer):
                    data_term += (-1) ** i * float(np.sum(layer * term[0]) * dx)
        ip = np.sum(frames * term, axis=space_axes) * dx
        val = float((-1) ** abs(j - ell) * np.trapezoid(ip, x=times))
        contributions[str(j)] = val
        rhs_sum += val
        for i in range(j - ell):
            layer = initial_layers[j - 1 - i]
            if not np.any(layer):
                continue
            psi_i0 = tf.time_derivative(i, 0.0, rho)
            adj = np.real(np.fft.ifftn(mult * np.fft.fftn(psi_i0)))
            data_term += (-1) ** i * float(np.sum(layer * adj) * dx)
    lhs = 0.0
    if nl is not None:
        F = np.asarray(eval_F(nl, frames))
        lhs = float(np.trapezoid(np.sum(F * tf.weight(0, s), axis=space_axes) * dx, x=times))
    return {"lhs": lhs, "rhs": rhs_sum - data_term, "data_term": data_term,
            "contributions": contributions}


NL2 = NonlinearitySpec(p=2.0, mu=MuSpec(family="constant", value=1.0))


def _wave_2d_case(tmp_path):
    op = damped_wave(2)
    grid = Grid(n=2, N=64, L=40.0)
    out, frames = run_recording(RunConfig(
        op=op, grid=grid, profile=DataProfile(kind="gaussian", width=2.0),
        ell=0, dt=0.05, T=3.0, amplitude=0.5, nl=NL2, record_every=2), tmp_path)
    tf = make_test_function(op, 0, grid, 3.0, eta_bar=2, scale=2.94)
    return (op, 0, grid, np.asarray(out.times), frames, tf,
            NL2, out.initial_layers)


def _sigma_ell1_case(tmp_path):
    # j = 0 < ell strands layer 0 through the anti-derivative, j = 2 strands layer 1
    grid = Grid(**BOX)
    op = sigma_evolution(1, 2, 1)
    k = 2.0 * math.pi / grid.L * 3
    _, lam, layer = exact_mode(grid, (k * k, k**4))
    times = np.arange(0.0, 20.0 + 0.05, 0.1)
    frames = np.stack([layer(t, 1) for t in times])
    init = np.stack([layer(0.0, 0), layer(0.0, 1)])
    assert np.all(np.any(init, axis=1))
    tf = make_test_function(op, 1, grid, 20.0, eta_bar=2, scale=0.98 * 20.0)
    return op, 1, grid, times, frames, tf, NL2, init


def _monomial_case(tmp_path):
    # an odd symbol is complex, and random frames fill the Nyquist row and
    # column, where the half-spectrum weights and mirrors matter
    op = monomial_op((1, 0))
    grid = Grid(n=2, N=32, L=12.0)
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 6.0, 40)
    frames = rng.standard_normal((times.size,) + grid.shape)
    init = rng.standard_normal((op.m,) + grid.shape)
    tf = make_test_function(op, 0, grid, 6.0, eta_bar=2, scale=5.0, q_tf=3)
    return op, 0, grid, times, frames, tf, NL2, init


@pytest.mark.parametrize("case", [_wave_2d_case, _sigma_ell1_case, _monomial_case],
                         ids=["wave-2d", "sigma-ell1", "monomial-10"])
def test_streamed_pass_matches_whole_stack(case, tmp_path):
    op, ell, grid, times, frames, tf, nl, init = case(tmp_path)
    got = weak_residual(op, ell, grid, times, frames, tf, nl=nl, initial_layers=init)
    want = whole_stack_weak_residual(op, ell, grid, times, frames, tf, nl=nl,
                                     initial_layers=init)
    assert want["data_term"] != 0.0 and want["lhs"] != 0.0
    assert list(got.contributions) == list(want["contributions"])
    pairs = [(got.lhs, want["lhs"]), (got.data_term, want["data_term"])]
    pairs += [(got.contributions[j], v) for j, v in want["contributions"].items()]
    for a, b in pairs:
        assert abs(a - b) <= 1e-13 * abs(b), (a, b)
    # When the frames solve the linear equation (the sigma case) the RHS is
    # what is left of O(1) terms that cancel, so it is held to their size.
    gross = sum(abs(v) for v in want["contributions"].values()) + abs(want["data_term"])
    scale = gross if abs(want["rhs"]) < 1e-3 * gross else abs(want["rhs"])
    assert abs(got.rhs - want["rhs"]) <= 1e-13 * scale


@pytest.mark.parametrize("op, ell, per_frame", [
    (damped_wave(1), 0, 2),          # frame + psi^ for -Lap; levels 1, 2 are constant
    (damped_wave(1), 1, 2),          # level 0 below ell runs on psi^'s anti-derivative
    (sigma_evolution(1, 2, 1), 0, 3),  # two non-constant levels at orders 0 and 1
    (sigma_evolution(1, 2, 1), 1, 2),  # the level below ell shares psi^ with level 1
    (EvolutionOperator(m=2, n=1, levels={0: (SpatialTerm(kind="monomial", coeff=2.0,
                                                         alpha=(0,)),)}), 0, 0),
], ids=["wave-ell0", "wave-ell1", "sigma-ell0", "sigma-ell1", "constant"])
def test_each_frame_is_transformed_once(op, ell, per_frame, monkeypatch):
    grid = Grid(**BOX)
    times = np.linspace(0.0, 12.0, 30)
    x = grid.coords()[0]
    frames = np.stack([np.exp(-x**2) * math.cos(t) for t in times])
    tf = make_test_function(op, ell, grid, 12.0, eta_bar=2, scale=10.0, q_tf=3)
    calls = {name: 0 for name in ("rfftn", "irfftn", "fftn", "ifftn")}

    def counting(name):
        fn = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.fft, name, counting(name))
    weak_residual(op, ell, grid, times, frames, tf, nl=NL2)
    assert calls == {"rfftn": per_frame * times.size, "irfftn": 0, "fftn": 0, "ifftn": 0}


def test_memory_does_not_grow_with_the_frame_count():
    op = damped_wave(2)
    grid = Grid(n=2, N=64, L=40.0)
    times = np.linspace(0.0, 3.0, 200)
    r2 = sum(c**2 for c in grid.coords())
    frames = np.stack([np.exp(-r2 / 4.0) * math.cos(t) for t in times])
    tf = make_test_function(op, 0, grid, 3.0, eta_bar=2, scale=2.94)
    weak_residual(op, 0, grid, times, frames, tf, nl=NL2)  # lazy imports settle untraced
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        weak_residual(op, 0, grid, times, frames, tf, nl=NL2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < frames.nbytes / 4, (peak, frames.nbytes)


@pytest.mark.parametrize("where", ["times", "frames", "initial_layers"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(where, bad):
    grid = Grid(**BOX)
    op = damped_wave(1)
    tf = make_test_function(op, 0, grid, 12.0, eta_bar=2, scale=10.0)
    args = {"times": np.linspace(0.0, 12.0, 40),
            "frames": np.zeros((40,) + grid.shape),
            "initial_layers": np.zeros((op.m,) + grid.shape)}
    args[where][(-1,) * args[where].ndim] = bad
    with pytest.raises(ValidationError):
        weak_residual(op, 0, grid, args["times"], args["frames"], tf,
                      initial_layers=args["initial_layers"])


@pytest.mark.parametrize("where", ["times", "frames", "initial_layers"])
def test_complex_input_is_rejected(where):
    # a cast to float would keep only the real part: purely imaginary frames
    # would score residual = 0 with no more than a ComplexWarning
    grid = Grid(n=1, N=16, L=40.0)
    op = damped_wave(1)
    tf = make_test_function(op, 0, grid, 12.0, eta_bar=2, scale=10.0)
    x = grid.coords()[0]
    times = np.linspace(0.0, 12.0, 40)
    args = {"times": times,
            "frames": np.stack([np.exp(-x**2) * math.cos(t) for t in times]),
            "initial_layers": np.stack([np.exp(-x**2), np.zeros_like(x)])}
    args[where] = 1j * args[where] if where != "times" else args[where] + 0j
    with pytest.raises(ValidationError, match="real"):
        weak_residual(op, 0, grid, args["times"], args["frames"], tf,
                      initial_layers=args["initial_layers"])
