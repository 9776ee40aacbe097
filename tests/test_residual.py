import cmath
import math

import numpy as np
import pytest

from critevo import (
    DataProfile,
    Grid,
    MuSpec,
    NonlinearitySpec,
    RunConfig,
    TestFunctionSpec,
    ValidationError,
    damped_wave,
    default_q_tf,
    initial_sign_functional,
    make_test_function,
    run,
    sigma_evolution,
    weak_residual,
)

BOX = dict(n=1, N=128, L=40.0)


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
    tf = TestFunctionSpec(eta_bar=2, scale=10.0, q_tf=3)
    s = np.linspace(0.05, 1.1, 1501)
    h = 1e-6
    keep = (np.abs(s - tf.flat_fraction) > 1e-4) & (np.abs(s - 1.0) > 1e-4)
    for k in (1, 2, 3):
        fd = (tf.weight(k - 1, s + h) - tf.weight(k - 1, s - h)) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(tf.weight(k, s)))))
        err = np.max(np.abs(fd - tf.weight(k, s))[keep]) / scale
        assert err < 1e-5, k


def test_weight_piecewise_support():
    tf = TestFunctionSpec(eta_bar=2, scale=5.0, q_tf=4)
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
    tf = TestFunctionSpec(eta_bar=2, scale=10.0, q_tf=3, smooth_order=6)
    s = np.array([1.0 - 1e-3, 1.0 - 1e-5])
    for k in (0, 1, 2):
        vals = np.abs(tf.weight(k, s))
        assert np.all(vals < 1e-8), (k, vals)


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
    tf = make_test_function(dw, 0, 3, 12.0, 2, grid=grid)
    assert tf.q_tf == 3
    assert tf.smooth_order == 6
    assert tf.reg_epsilon == 0.0
    odd = make_test_function(dw, 0, 3, 12.0, 1, grid=grid)
    assert odd.reg_epsilon == pytest.approx(grid.h / 4.0)
    no_grid = make_test_function(dw, 0, 3, 12.0, 1)
    assert no_grid.reg_epsilon == pytest.approx(1e-3)
    override = make_test_function(dw, 0, 3, 12.0, 2, grid=grid, q_tf=9)
    assert override.q_tf == 9


def test_validation_and_support_errors():
    grid = Grid(**BOX)
    op = damped_wave(1)
    with pytest.raises(ValidationError):
        TestFunctionSpec(eta_bar=0, scale=1.0, q_tf=1)
    with pytest.raises(ValidationError):
        TestFunctionSpec(eta_bar=2, scale=-1.0, q_tf=1)
    with pytest.raises(ValidationError):
        TestFunctionSpec(eta_bar=2, scale=1.0, q_tf=0)
    with pytest.raises(ValidationError):
        TestFunctionSpec(eta_bar=2, scale=1.0, q_tf=1, flat_fraction=1.0)

    tf = make_test_function(op, 0, 3, 10.0, 2, grid=grid)
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
    leaky = TestFunctionSpec(eta_bar=2, scale=1e4, q_tf=3)
    msgs = leaky.support_checks(grid, 2e4)
    assert any("box edge" in m for m in msgs)


def test_zero_frames_zero_residual():
    grid = Grid(**BOX)
    op = damped_wave(1)
    tf = make_test_function(op, 0, 3, 10.0, 2, grid=grid)
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
    tf = make_test_function(op, 0, 3, 0.98 * T, 2, grid=grid)
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
    tf = make_test_function(op, 0, 3, 0.98 * T, 2, grid=grid)
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
    tf = make_test_function(op, 1, 3, 0.98 * T, 2, grid=grid)
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


def test_solver_frames_refine_together():
    op = damped_wave(1)
    T = 20.0
    got = []
    for N, dt in ((64, 0.1), (128, 0.05)):
        grid = Grid(n=1, N=N, L=40.0)
        cfg = RunConfig(op=op, grid=grid, profile=DataProfile(kind="gaussian", width=2.0),
                        ell=0, dt=dt, T=T, record_every=2, record_fields=True)
        out = run(cfg)
        tf = make_test_function(op, 0, 3, 0.98 * T, 2, grid=grid)
        rr = weak_residual(op, 0, grid, np.asarray(out.times),
                           np.asarray(out.fields["layer_ell"]), tf,
                           initial_layers=out.initial_layers)
        got.append(rr.residual)
    assert got[0] < 1e-3
    assert got[1] < 1e-4
    assert got[0] / got[1] > 2.0


def test_nonlinear_run_discriminates():
    op = damped_wave(1)
    grid = Grid(**BOX)
    nl = NonlinearitySpec(p=2.0, mu=MuSpec(family="constant", value=1.0))
    cfg = RunConfig(op=op, grid=grid, profile=DataProfile(kind="gaussian", width=2.0),
                    ell=0, dt=0.05, T=20.0, amplitude=0.1, nl=nl,
                    record_every=2, record_fields=True)
    out = run(cfg)
    times = np.asarray(out.times)
    frames = np.asarray(out.fields["layer_ell"])
    tf = make_test_function(op, 0, 3, 0.98 * 20.0, 2, grid=grid)
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


def test_report_deterministic_and_serializable():
    grid = Grid(**BOX)
    op = damped_wave(1)
    k, lam, layer = exact_mode(grid, (1.0, (2.0 * math.pi / grid.L * 3) ** 2))
    tf = make_test_function(op, 0, 3, 0.98 * 20.0, 2, grid=grid)
    init = np.stack([layer(0.0, 0), layer(0.0, 1)])
    times = np.arange(0.0, 20.0 + 0.05, 0.1)
    frames = np.stack([layer(t, 0) for t in times])
    a = weak_residual(op, 0, grid, times, frames, tf, initial_layers=init)
    b = weak_residual(op, 0, grid, times, frames, tf, initial_layers=init)
    assert a.residual == b.residual
    assert a.contributions == b.contributions
    blob = a.to_json()
    assert set(blob) >= {"residual", "lhs", "rhs", "data_term",
                         "contributions", "floor", "test_function"}
    assert blob["test_function"]["q_tf"] == 3
