import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from critevo import operators, solver
from critevo.errors import ValidationError
from critevo.mu import MuSpec, NonlinearitySpec, eval_F
from critevo.operators import (
    EvolutionOperator,
    SpatialTerm,
    damped_klein_gordon,
    damped_wave,
    fractional_term,
    laplacian_terms,
    sigma_evolution,
)
from critevo.solver import (
    BLOWUP_FACTOR,
    DataProfile,
    Grid,
    ModePropagator,
    RunConfig,
    blown,
    box_horizon,
    grid_norms,
    init_state,
    nonlinear_step,
    parse_profile,
    row_groups,
    run,
)
from helpers import monomial_op, run_recording


def small_grid(n=1, N=16, L=2 * math.pi):
    return Grid(n=n, N=N, L=L)


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid(n=3, N=16, L=1.0)
    with pytest.raises(ValidationError):
        Grid(n=1, N=15, L=1.0)
    with pytest.raises(ValidationError):
        Grid(n=1, N=4, L=1.0)
    with pytest.raises(ValidationError):
        Grid(n=1, N=16, L=0.0)


@pytest.mark.parametrize("kind", ["gaussian", "bump"])
def test_profile_renders_without_a_warning_where_r2_overflows(kind):
    # |x|^2 is past the float range at every point but the center, where f = 1
    f = DataProfile(kind=kind).render(Grid(n=1, N=32, L=1e303))
    assert f[16] == 1.0 and not f[:16].any() and not f[17:].any()


def _E(prop):
    """The propagator's E as a (*half, m, m) stack of per-mode matrices."""
    return np.moveaxis(prop._E, (0, 1), (-2, -1))


def _half_wavenumbers(grid):
    """The wavenumbers of the modes the half-spectrum state keeps."""
    return [k[grid.half] for k in grid.wavenumbers()]


def test_propagator_matches_ode_integrator():
    op = damped_wave(1)
    grid = small_grid()
    prop = ModePropagator(op, grid, dt=0.37)
    A_all = op.companion(_half_wavenumbers(grid))
    rng = np.random.default_rng(1)
    for idx in (0, 1, 5, 8):
        A = A_all[idx]
        v0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        sol = solve_ivp(lambda t, v: A @ v, (0.0, prop.dt), v0,
                        rtol=1e-12, atol=1e-14, dense_output=False)
        want = sol.y[:, -1]
        got = _E(prop)[idx] @ v0
        assert np.allclose(got, want, atol=1e-9)


def test_duhamel_weight_identity():
    # Phi = integral_0^dt exp(sA) ds satisfies A Phi + I = E, singular A included;
    # the propagator keeps only Phi's last column, so the full Phi comes from
    # scipy's per-mode expm
    for op in (damped_wave(1), EvolutionOperator(m=3, n=1, levels={})):
        grid = small_grid()
        prop = ModePropagator(op, grid, dt=0.21)
        _, Phi, _ = _per_mode_propagator(op, grid, 0.21)
        A = op.companion(_half_wavenumbers(grid))
        eye = np.eye(op.m)
        lhs = np.einsum("...ij,...jk->...ik", A, Phi) + eye
        assert np.allclose(lhs, _E(prop), atol=1e-12)


def test_semigroup_composition():
    # N exact linear steps equal one exponential of the whole interval
    op = damped_wave(1)
    grid = small_grid(N=32)
    modes = init_state(op, grid, DataProfile(kind="gaussian", width=0.4), [1.0])
    modes0 = modes.copy()
    dt, steps = 0.1, 10
    prop = ModePropagator(op, grid, dt)
    for _ in range(steps):
        modes = prop.apply_linear(modes)
    big = ModePropagator(op, grid, dt * steps)
    want = big.apply_linear(modes0)
    assert np.max(np.abs(modes - want)) < 1e-6 * max(1.0, np.max(np.abs(want)))


def _per_mode_propagator(op, grid, dt, ks=None):
    """E, Phi and Phi e_{m-1} by one expm call per mode, as first written,
    on the half-spectrum wavenumbers unless ``ks`` gives others."""
    m = op.m
    A = op.companion(_half_wavenumbers(grid) if ks is None else ks)
    aug = np.zeros(A.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    aug[..., :m, :m] = A
    for i in range(m):
        aug[..., i, m + i] = 1.0
    big = expm(dt * aug)
    E, Phi = big[..., :m, :m], big[..., :m, m:]
    return E, Phi, np.moveaxis(Phi[..., :, m - 1], -1, 0)


# d_t^3 u + 3 d_t^2 u + (-Lap) d_t u + (-Lap) u, the m = 3 operator of the decay tests
THIRD_ORDER = EvolutionOperator(m=3, n=2, levels={
    0: (fractional_term(1, 1.0),), 1: (fractional_term(1, 1.0),), 2: (fractional_term(0, 3.0),)})


def _mp_flow(mpmath, A, dt):
    """E = exp(dt A) and Phi e_{m-1} of one m x m block, from the 40-digit
    exponential of the augmented block [[A, I], [0, 0]]."""
    m = A.shape[0]
    M = mpmath.zeros(2 * m, 2 * m)
    for i in range(m):
        M[i, m + i] = 1
        for j in range(m):
            M[i, j] = mpmath.mpc(complex(A[i, j]))
    with mpmath.workdps(40):
        big = mpmath.expm(mpmath.mpf(float(dt)) * M)
    return (np.array([[complex(big[i, j]) for j in range(m)] for i in range(m)]),
            np.array([complex(big[i, 2 * m - 1]) for i in range(m)]))


def _assert_mode_matches_mpmath(mpmath, op, grid, prop, mode):
    """The propagator's E and Phi e_{m-1} at one half-spectrum mode (a flat
    index) lie within 1e-13 of each block's maximum of the 40-digit flow."""
    m = op.m
    A = op.companion(_half_wavenumbers(grid)).reshape(-1, m, m)[mode]
    want_E, want_phi = _mp_flow(mpmath, A, prop.dt)
    got_E = _E(prop).reshape(-1, m, m)[mode]
    got_phi = np.moveaxis(prop._phi, 0, -1).reshape(-1, m)[mode]
    for got, want in ((got_E, want_E), (got_phi, want_phi)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (mode, A)


@pytest.mark.parametrize("op, grid", [
    (damped_wave(1), Grid(n=1, N=64, L=40.0)),
    (damped_wave(2), Grid(n=2, N=16, L=40.0)),
    (sigma_evolution(2, 2, Fraction(1, 2)), Grid(n=2, N=16, L=12.0)),
    (damped_klein_gordon(2, damping=0.5, mass=1.0), Grid(n=2, N=16, L=12.0)),
    (monomial_op((2, 0)), Grid(n=2, N=16, L=12.0)),   # anisotropic
    (monomial_op((1, 0)), Grid(n=2, N=16, L=12.0)),   # odd order, complex symbol
    (EvolutionOperator(m=3, n=2), Grid(n=2, N=16, L=12.0)),  # A singular
    (THIRD_ORDER, Grid(n=2, N=16, L=12.0)),
], ids=["wave-1d", "wave-2d", "sigma", "klein-gordon", "alpha-20", "alpha-10", "empty-m3",
        "third-order"])
def test_propagator_bits_match_per_mode_expm(op, grid):
    # checked against 40-digit mpmath on the zero mode (sigma's double root at
    # 0, the damped wave's root pair 0 and -1) and on the modes where the
    # propagator and scipy's per-mode expm differ most
    mpmath = pytest.importorskip("mpmath")
    m = op.m
    prop = ModePropagator(op, grid, dt=0.05)
    E, _, phi = _per_mode_propagator(op, grid, 0.05)
    E, phi = E.reshape(-1, m, m), np.moveaxis(phi, 0, -1).reshape(-1, m)
    off_E = np.max(np.abs(_E(prop).reshape(-1, m, m) - E), axis=(1, 2)) / np.max(
        np.abs(E), axis=(1, 2))
    off_phi = np.max(np.abs(np.moveaxis(prop._phi, 0, -1).reshape(-1, m) - phi), axis=1) / np.max(
        np.abs(phi), axis=1)
    for mode in {0, int(np.argmax(off_E)), int(np.argmax(off_phi))}:
        _assert_mode_matches_mpmath(mpmath, op, grid, prop, mode)


@pytest.mark.parametrize("grid, dt, mode", [
    # rho = 1/2: A = [[0, 1], [-1/4, -1]] is a Jordan block at -1/2
    (Grid(n=1, N=16, L=4 * math.pi), 0.05, 1),
    # the zero mode has roots 0 and -1, so |dt (lam1 - lam2)| = dt sits on
    # either side of the 0.1 at which G leaves the contour mean
    (small_grid(), 0.0999, 0),
    (small_grid(), 0.1001, 0),
], ids=["jordan-block", "contour-mean", "difference-quotient"])
def test_closed_form_flow_matches_mpmath(grid, dt, mode):
    mpmath = pytest.importorskip("mpmath")
    op = damped_wave(1)
    if mode == 1:
        A = op.companion(_half_wavenumbers(grid))[mode]
        assert np.array_equal(A, [[0, 1], [-0.25, -1]])
    _assert_mode_matches_mpmath(mpmath, op, grid, ModePropagator(op, grid, dt), mode)


def test_propagator_exponentiates_every_half_mode_in_one_call(monkeypatch):
    # one Pade call over all 16 x 9 half-spectrum modes of the m = 3 operator, each
    # the 4 x 4 Van Loan block [[A, e_2], [0, 0]]; a radial symbol's repeated
    # blocks are not merged
    op, grid = THIRD_ORDER, Grid(n=2, N=16, L=40.0)
    calls = []
    real = operators._expm

    def counting_expm(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(operators, "_expm", counting_expm)
    ModePropagator(op, grid, dt=0.05)
    assert calls == [(144, 1, op.m + 1, op.m + 1)]


@pytest.mark.parametrize("op, flow", [(EvolutionOperator(m=1, n=2), "_flow_expm"),
                                      (damped_wave(2), "_flow2")], ids=["m1", "m2"])
def test_propagator_takes_one_flow_call_over_every_half_mode(monkeypatch, op, flow):
    calls = []
    real = getattr(solver, flow)

    def counting(A, dt):
        calls.append(A.shape)
        return real(A, dt)

    monkeypatch.setattr(solver, flow, counting)
    ModePropagator(op, Grid(n=2, N=16, L=40.0), dt=0.05)
    assert calls == [(144, op.m, op.m)]


@pytest.mark.parametrize("op, grid, dt", [
    (EvolutionOperator(m=1, n=1), small_grid(), 0.05),  # a = 0: E = 1, Phi = dt
    (EvolutionOperator(m=1, n=1, levels={0: tuple(laplacian_terms(1, 1, 1.0))}),
     Grid(n=1, N=64, L=40.0), 1.0),
    # u_t + u_x = 0: a = -i xi
    (EvolutionOperator(m=1, n=1, levels={0: (SpatialTerm(kind="monomial", coeff=1.0,
                                                         alpha=(1,)),)}),
     Grid(n=1, N=64, L=40.0), 0.05),
    # a = -|xi|^3 reaches dt a = -1638.4 at the top mode
    (EvolutionOperator(m=1, n=1, levels={0: (fractional_term(Fraction(3, 2), 1.0),)}),
     Grid(n=1, N=64, L=2 * math.pi), 0.05),
], ids=["empty", "heat", "transport", "stiff-fractional"])
def test_m1_flow_matches_mpmath(op, grid, dt):
    # the augmented block [[a, 1], [0, 0]] of an m = 1 mode is 2x2: its E = e^{dt a}
    # and Phi = expm1(dt a) / a come in closed form, each within 1e-12 of the
    # block's maximum
    mpmath = pytest.importorskip("mpmath")
    prop = ModePropagator(op, grid, dt)
    for a, E, phi in zip(op.companion(_half_wavenumbers(grid))[:, 0, 0], prop._E[0, 0],
                         prop._phi[0]):
        with mpmath.workdps(40):
            z = mpmath.mpf(dt) * mpmath.mpc(complex(a))
            want_E = complex(mpmath.exp(z))
            want_phi = dt if a == 0 else complex(mpmath.expm1(z) / mpmath.mpc(complex(a)))
        scale = max(abs(want_E), abs(want_phi), 1.0)
        assert abs(E - want_E) <= 1e-12 * scale and abs(phi - want_phi) <= 1e-12 * scale, a


@pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0])
def test_propagator_needs_a_finite_positive_dt(dt):
    with pytest.raises(ValidationError, match="dt must be a finite number > 0"):
        ModePropagator(damped_wave(1), small_grid(), dt)


@pytest.mark.parametrize("m", [2, 3])
def test_propagator_rejects_a_flow_that_overflows(m):
    # u^(m) = u has the growth rate 1, so exp(800 A) is past the float range
    op = EvolutionOperator(m=m, n=1, levels={0: (fractional_term(0, -1.0),)})
    with pytest.raises(ValidationError, match="overflows at dt = 800.0"):
        ModePropagator(op, small_grid(), 800.0)


@pytest.mark.parametrize("dt, T", [(math.inf, 1.0), (0.1, math.inf), (math.nan, 1.0),
                                   (0.1, math.nan), (1e-300, 1e300)])
def test_run_config_needs_a_finite_dt_and_T(dt, T):
    # an infinite dt made T / dt = 0 "a multiple" and ran 0 steps; 1e300 / 1e-300
    # overflows the step count
    with pytest.raises(ValidationError, match="finite and > 0|multiple of dt"):
        RunConfig(op=damped_wave(1), grid=small_grid(N=32, L=10.0),
                  profile=DataProfile(kind="gaussian", width=0.6), ell=0, dt=dt, T=T)


@pytest.mark.parametrize("key, value", [("ell", True), ("record_every", True),
                                        ("record_every", 2.5), ("record_every", 2.0)])
def test_run_config_takes_an_integer_ell_and_record_every(key, value):
    # ell = True ran as ell = 1, and record_every = 2.5 recorded only where
    # step % 2.5 == 0: 3 records at T = 1, dt = 0.1
    with pytest.raises(ValidationError, match=f"{key} must be an integer"):
        RunConfig(op=damped_wave(1), grid=small_grid(N=32, L=10.0),
                  profile=DataProfile(kind="gaussian", width=0.6), dt=0.1, T=1.0,
                  **{"ell": 0, key: value})


def test_step_doubling_consistency():
    op = damped_wave(1)
    grid = small_grid()
    p1 = ModePropagator(op, grid, dt=0.05)
    p2 = ModePropagator(op, grid, dt=0.10)
    two = np.einsum("...ij,...jk->...ik", _E(p1), _E(p1))
    assert np.max(np.abs(two - _E(p2))) < 1e-10


def test_zero_mode_closed_form():
    # u'' + 4u' + u at xi = 0: roots -2 +- sqrt(3), diagonalizable by hand
    op = damped_klein_gordon(1, damping=2.0, mass=1.0)
    grid = small_grid()
    dt = 0.3
    prop = ModePropagator(op, grid, dt)
    r1, r2 = -2.0 + math.sqrt(3.0), -2.0 - math.sqrt(3.0)
    V = np.array([[1.0, 1.0], [r1, r2]])
    E_exact = V @ np.diag([math.exp(r1 * dt), math.exp(r2 * dt)]) @ np.linalg.inv(V)
    assert np.allclose(_E(prop)[0], E_exact, atol=1e-10)


def test_manufactured_solution_convergence(tmp_path):
    # u(t,x) = sin(t) e^{-t} cos(x) for u_tt + u_t - u_xx = u^2 + g;
    # space is exact on the grid, so the error is pure time stepping
    op = damped_wave(1)
    L = 2 * math.pi
    N = 16
    grid = Grid(n=1, N=N, L=L)
    x = grid.coords()[0]
    cosx = np.cos(x)
    nl = NonlinearitySpec(p=2.0, mu=MuSpec(family="constant"))

    def phi(t):
        return math.sin(t) * math.exp(-t)

    def dphi(t):
        return math.exp(-t) * (math.cos(t) - math.sin(t))

    def ddphi(t):
        return -2.0 * math.exp(-t) * math.cos(t)

    def forcing(t):
        lin = (ddphi(t) + dphi(t) + phi(t)) * cosx
        return lin - (phi(t) * cosx) ** 2

    profile = DataProfile(kind="custom_table", values=tuple(cosx))
    T = 1.0
    errs = []
    for dt in (0.02, 0.01):
        cfg = RunConfig(op=op, grid=grid, profile=profile, ell=0, dt=dt, T=T,
                        forcing=forcing, record_every=1000000)
        (rep,), (frames,) = run_recording(cfg, [(1.0, nl)], tmp_path)
        assert rep.outcome == "completed"
        u_T = frames[-1]
        errs.append(float(np.max(np.abs(u_T - phi(T) * cosx))))
    rate = math.log2(errs[0] / errs[1])
    assert rate >= 1.9, (errs, rate)


def test_dealiasing_masks_high_modes():
    op = damped_wave(1)
    grid = small_grid(N=24)
    nl = NonlinearitySpec(p=3.0, mu=MuSpec(family="constant"))
    modes = init_state(op, grid, DataProfile(kind="gaussian", width=0.4), [1.0])
    prop = ModePropagator(op, grid, dt=0.05)
    for i in range(5):
        modes = nonlinear_step(modes, i * prop.dt, prop, ell=0, groups=row_groups([nl]))
    dropped = ~grid.dealias_mask()[grid.half]
    assert np.all(modes[:, :, dropped] == 0.0)


def test_reality_preserved():
    # fields are real by construction; the one reality condition the half
    # spectrum still carries is that the self-mirrored last-axis columns 0
    # and N/2 stay Hermitian along the other axis, u^(-k1, c) = conj u^(k1, c)
    op = damped_wave(2)
    grid = Grid(n=2, N=16, L=12.0)
    nl = NonlinearitySpec(p=2.0, mu=MuSpec(family="constant"))
    modes = init_state(op, grid, DataProfile(kind="bump", width=4.0), [0.3])
    prop = ModePropagator(op, grid, dt=0.1)
    for i in range(10):
        modes = nonlinear_step(modes, i * prop.dt, prop, ell=1, groups=row_groups([nl]))
    mirror = (-np.arange(grid.N)) % grid.N
    for layer in modes[0]:
        scale = np.max(np.abs(layer))
        assert scale > 0.0
        for col in (0, grid.N // 2):
            c = layer[:, col]
            assert np.max(np.abs(c - np.conj(c[mirror]))) / scale < 1e-10


def test_overflowing_corrector_field_still_ends_in_blowup():
    # the predictor's source overflows, so the corrector field is all NaN:
    # F must carry the NaN on to the blow-up check, not reject it as input.
    # L2 norms keep the amplitude valid: |1e126|^3 would overflow an L3 norm
    cfg = RunConfig(op=damped_wave(1), grid=Grid(n=1, N=64, L=40.0),
                    profile=DataProfile(kind="gaussian", width=1.0), ell=1, dt=0.1, T=1.0,
                    p_for_norms=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        report, = run(cfg, [(1e120, NonlinearitySpec(p=3.0, mu=MuSpec(family="constant")))])
    assert report.outcome == "blowup_detected"
    assert report.meta["steps_taken"] == 1


def test_detected_blowup_raises_no_numpy_warning():
    # the overflowing member is what blown() reports; numpy need not say it too
    cfg = RunConfig(op=damped_wave(1), grid=Grid(n=1, N=64, L=40.0),
                    profile=DataProfile(kind="gaussian", width=2.0), ell=0, dt=0.05, T=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report, = run(cfg, [(50.0, NonlinearitySpec(p=20.0, mu=MuSpec(family="constant")))])
    assert report.outcome == "blowup_detected"
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_zero_data_run_completes():
    op = damped_wave(1)
    grid = small_grid(N=16, L=10.0)
    cfg = RunConfig(op=op, grid=grid, profile=DataProfile(kind="gaussian", width=0.6),
                    ell=0, dt=0.1, T=1.0)
    rep, = run(cfg, [(0.0, NonlinearitySpec(p=2.0, mu=MuSpec(family="constant")))])
    assert rep.outcome == "completed"
    for col, vals in rep.series.items():
        assert all(v == 0.0 for v in vals), col
    assert rep.xnorm_sup == 0.0


def test_blowup_detected_for_supercritical_ode():
    # u' = u^2 pointwise: sup blows at 1/(amplitude) = 0.2
    op = EvolutionOperator(m=1, n=1, levels={})
    grid = Grid(n=1, N=32, L=20.0)
    cfg = RunConfig(op=op, grid=grid, profile=DataProfile(kind="gaussian", width=1.0),
                    ell=0, dt=0.005, T=1.0, record_every=10)
    rep, = run(cfg, [(5.0, NonlinearitySpec(p=2.0, mu=MuSpec(family="constant")))])
    assert rep.outcome == "blowup_detected"
    assert 0.15 < rep.blowup_time < 0.35
    assert rep.meta["blowup_factor"] == 1e6


def test_vanishing_nonlinearity_equals_linear_flow():
    op = damped_wave(1)
    grid = small_grid(N=32, L=10.0)
    prof = DataProfile(kind="gaussian", width=0.6)
    base = RunConfig(op=op, grid=grid, profile=prof, ell=0, dt=0.05, T=0.5)
    rep_lin, = run(base, [(1.0, None)])
    off = RunConfig(op=op, grid=grid, profile=prof, ell=0, dt=0.05, T=0.5, p_for_norms=2.0)
    rep_off, = run(off, [(1.0, NonlinearitySpec(p=2.0, mu=MuSpec(family="constant",
                                                                  value=0.0)))])
    for col in rep_lin.series:
        assert rep_lin.series[col] == pytest.approx(rep_off.series[col], rel=1e-12)


def test_norm_columns_and_xnorm_consistency():
    op = damped_wave(1)
    grid = small_grid(N=32, L=10.0)
    cfg = RunConfig(op=op, grid=grid, profile=DataProfile(kind="gaussian", width=0.6),
                    ell=1, dt=0.05, T=1.0, p_for_norms=3.0)
    rep, = run(cfg, [(1.0, None)])
    for k in (0, 1):
        for name in ("L1", "L2", "Lp", "Linf"):
            assert f"{name}[{k}]" in rep.series
    p = 3.0
    for i, t in enumerate(rep.times):
        want = sum(
            (1.0 + t) ** (1.0 / p + k - 1)
            * max(rep.series[f"Lp[{k}]"][i], rep.series[f"Linf[{k}]"][i])
            for k in (0, 1)
        )
        assert rep.series["xnorm_weighted"][i] == pytest.approx(want, rel=1e-12)
    sup = rep.series["xnorm_running_sup"]
    assert all(b >= a for a, b in zip(sup, sup[1:]))
    assert rep.xnorm_sup == pytest.approx(max(rep.series["xnorm_weighted"]), rel=1e-12)


def test_grid_norms_volume_normalized_ordering():
    grid = small_grid(N=64, L=8.0)
    w = np.exp(-grid.coords()[0] ** 2)
    vol = grid.L
    norms = grid_norms(w, grid.quad_weight(), p=4.0)
    n1 = norms["L1"] / vol
    n2 = norms["L2"] / vol ** (1 / 2)
    n4 = norms["Lp"] / vol ** (1 / 4)
    assert n1 <= n2 <= n4 <= norms["Linf"] + 1e-15


def test_derivative_layer_decays_faster():
    # damped wave: each extra time derivative buys one extra power of decay
    op = damped_wave(1)
    grid = Grid(n=1, N=256, L=300.0)
    cfg = RunConfig(op=op, grid=grid, profile=DataProfile(kind="gaussian", width=2.0),
                    ell=1, dt=0.05, T=50.0, record_every=20)
    rep, = run(cfg, [(1.0, None)])
    ts = np.asarray(rep.times)
    sel = ts >= 15.0
    lt = np.log(1.0 + ts[sel])
    s0 = np.polyfit(lt, np.log(np.asarray(rep.series["L2[0]"])[sel]), 1)[0]
    s1 = np.polyfit(lt, np.log(np.asarray(rep.series["L2[1]"])[sel]), 1)[0]
    assert s0 - s1 == pytest.approx(1.0, abs=0.35)
    assert s1 < s0 < 0.0


def test_box_horizon_values():
    op = damped_wave(1)
    grid = Grid(n=1, N=16, L=2 * math.pi)
    # xi_min = 1: lambda^2 + lambda + 1, Re = -1/2
    assert box_horizon(op, grid) == pytest.approx(2.0, rel=1e-9)
    free = EvolutionOperator(m=2, n=1, levels={0: tuple(laplacian_terms(1, 1, 1.0))})
    assert box_horizon(free, grid) == math.inf
    # u_tt - d_x^2 u_t - Lap u damps no mode along y, so the box never decays
    x_damped = EvolutionOperator(m=2, n=2, levels={
        0: tuple(laplacian_terms(2, 1, 1.0)),
        1: (SpatialTerm(kind="monomial", coeff=-1.0, alpha=(2, 0)),)})
    assert box_horizon(x_damped, Grid(n=2, N=32, L=40.0)) == math.inf


def test_record_every_thins_series():
    op = damped_wave(1)
    grid = small_grid(N=16, L=10.0)
    cfg = RunConfig(op=op, grid=grid, profile=DataProfile(kind="gaussian", width=0.6),
                    ell=0, dt=0.1, T=1.0, record_every=4)
    rep, = run(cfg, [(1.0, None)])
    assert rep.times[0] == 0.0
    assert rep.times[-1] == pytest.approx(1.0)
    assert len(rep.times) == 1 + len([s for s in range(1, 11) if s % 4 == 0 or s == 10])


def test_recorded_times_are_whole_multiples_of_dt():
    # a running sum of 0.1 reads 0.9999999999999999 after ten steps
    cfg = RunConfig(op=damped_wave(1), grid=small_grid(N=16, L=10.0),
                    profile=DataProfile(kind="gaussian", width=0.6), ell=0, dt=0.1, T=2.0,
                    record_every=3)
    # records every third step, and the last step, 20
    assert run(cfg, [(1.0, None)])[0].times == [k * 3 * cfg.dt for k in range(7)] + [20 * cfg.dt]


def test_profile_validation():
    grid = small_grid(N=16, L=4.0)
    with pytest.raises(ValidationError):
        DataProfile(kind="gaussian", width=4.0).render(grid)  # edge not small
    with pytest.raises(ValidationError):
        DataProfile(kind="custom_table", values=(1.0, 2.0)).render(grid)  # wrong count
    with pytest.raises(ValidationError):
        DataProfile(kind="wiggle")
    with pytest.raises(ValidationError):
        parse_profile({"kind": "gaussian", "sharpness": 2})
    prof = parse_profile({"kind": "bump", "width": 1.5, "zero_mean": True})
    f = prof.render(grid)
    assert abs(float(np.mean(f))) < 1e-14


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        init_state(damped_wave(2), small_grid(), DataProfile(kind="gaussian", width=0.5),
                   [1.0])


def test_run_determinism():
    op = damped_wave(1)
    grid = small_grid(N=32, L=10.0)
    cfg = RunConfig(op=op, grid=grid, profile=DataProfile(kind="gaussian", width=0.6),
                    ell=0, dt=0.05, T=0.5)
    nl = NonlinearitySpec(p=2.0, mu=MuSpec(family="iterated_log", gamma=1.0, depth=0))
    (r1,), (r2,) = run(cfg, [(1.0, nl)]), run(cfg, [(1.0, nl)])
    assert r1.series == r2.series
    assert r1.xnorm_sup == r2.xnorm_sup


def test_T_must_be_a_multiple_of_dt():
    prof = DataProfile(kind="gaussian", width=0.6)
    with pytest.raises(ValidationError, match="multiple of dt"):
        RunConfig(op=damped_wave(1), grid=small_grid(N=32, L=10.0), profile=prof,
                  ell=0, dt=0.3, T=1.0)
    RunConfig(op=damped_wave(1), grid=small_grid(N=32, L=10.0), profile=prof,
              ell=0, dt=0.1, T=0.3)  # 0.3 / 0.1 = 2.9999999999999996


def test_amplitude_must_keep_the_threshold_norms_finite():
    # the threshold 1e6 * 1e303 is past the doubles, and 1e6 * 1e307 * 40, the L1
    # norm of a field at it on a box of volume 40, is too
    cfg = RunConfig(op=damped_wave(1), grid=Grid(n=1, N=64, L=40.0),
                    profile=DataProfile(kind="gaussian", width=2.0), ell=0, dt=0.1, T=1.0)
    with pytest.raises(ValidationError, match=r"amplitude 1e\+303 .* box of volume 40"):
        run(cfg, [(1e303, None)])
    with pytest.raises(ValidationError, match=r"amplitude 1e\+307"):
        run(cfg, [(0.5, None), (1e307, None)])
    # a threshold of 1e6 * 1e300 keeps every norm finite, whatever the power
    report, = run(replace(cfg, p_for_norms=1e308), [(1e300, None)])
    assert all(math.isfinite(v) for col in report.series.values() for v in col)


def test_grid_norms_of_a_tiny_field_match_mpmath():
    # max|u| = 1e-200: the unscaled sums of u^2 and u^40 underflowed to 0
    mpmath = pytest.importorskip("mpmath")
    grid = Grid(n=1, N=64, L=40.0)
    w = 1e-200 * np.exp(-grid.coords()[0] ** 2 / 8) * np.cos(grid.coords()[0])
    weight = grid.quad_weight()
    with mpmath.workdps(40):
        exact = {p: (mpmath.fsum(abs(mpmath.mpf(float(x))) ** p for x in w)
                     * mpmath.mpf(weight)) ** (mpmath.mpf(1) / p) for p in (2, 40)}
    for p, want in exact.items():
        norms = grid_norms(w, weight, float(p))
        got = norms["L2"] if p == 2 else norms["Lp"]
        assert got > 0
        assert abs(got - float(want)) <= 1e-14 * float(want)


def test_grid_norms_of_a_zero_and_a_constant_field():
    grid = Grid(n=2, N=16, L=6.0)
    weight, volume = grid.quad_weight(), 36.0
    assert grid_norms(np.zeros(grid.shape), weight, 3.0) == {
        "L1": 0.0, "L2": 0.0, "Lp": 0.0, "Linf": 0.0}
    # the norms of c on the box are c v^(1/q): finite while c max(1, v) is
    c = 1e306
    norms = grid_norms(np.full(grid.shape, -c), weight, 52.0)
    assert norms["Linf"] == c
    for name, q in (("L1", 1), ("L2", 2), ("Lp", 52)):
        assert norms[name] == pytest.approx(c * volume ** (1 / q), rel=1e-14)


def test_an_m2_build_takes_its_roots_and_E_from_one_closed_form_pass(monkeypatch):
    # E, lam1 and lam2 come from one exp2_parts call; E is exp_blocks', bit for bit
    calls = []
    real = operators.exp2_parts

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(operators, "exp2_parts", counting)
    monkeypatch.setattr(solver, "exp2_parts", counting)
    op, grid = damped_wave(2), Grid(n=2, N=16, L=20.0)
    prop = ModePropagator(op, grid, dt=0.1)
    assert calls == [1]
    A = op.companion(_half_wavenumbers(grid)).reshape(-1, 2, 2)
    want = operators.exp_blocks(A, [0.1])[:, 0]
    assert _E(prop).reshape(-1, 2, 2).tobytes() == want.tobytes()


def _assert_reports_equal(got, want):
    assert got.outcome == want.outcome
    assert got.blowup_time == want.blowup_time
    assert got.times == want.times
    assert got.series == want.series
    assert got.meta == want.meta
    assert got.xnorm_sup == want.xnorm_sup
    assert got.xnorm_last_increase == want.xnorm_last_increase
    assert got.initial_sign_functional == want.initial_sign_functional
    assert got.initial_layers.tobytes() == want.initial_layers.tobytes()


_SQUARE = NonlinearitySpec(p=2.0, mu=MuSpec(family="constant"))
_CUBIC_LOG = NonlinearitySpec(p=3.0, mu=MuSpec(family="iterated_log", gamma=2.0))
_BATCH_1D = RunConfig(op=damped_wave(1), grid=Grid(n=1, N=32, L=20.0),
                      profile=DataProfile(kind="gaussian", width=1.2), ell=0, dt=0.05, T=8.0,
                      record_every=3)


# each case's "amplitudes" (a name kept so the case ids stay) is its list of
# members, (amplitude, nonlinearity)
@pytest.mark.parametrize("cfg, amplitudes", [
    # 1-D, u^2 forcing: 0 stays zero (unit reference), 0.3 survives, 0.7 and
    # 0.9 blow up at steps 159 and 132
    (_BATCH_1D, [(a, _SQUARE) for a in (0.0, 0.3, 0.7, 0.9)]),
    # 2-D, (u_t)^2 forcing: 3 and 5 blow up at steps 17 and 9
    (RunConfig(op=damped_wave(2), grid=Grid(n=2, N=16, L=20.0),
               profile=DataProfile(kind="gaussian", width=1.2), ell=1, dt=0.05, T=4.0,
               record_every=2),
     [(a, _SQUARE) for a in (0.0, 0.3, 3.0, 5.0)]),
    # linear flow, iterated-log modulation off
    (RunConfig(op=damped_wave(1), grid=Grid(n=1, N=16, L=10.0),
               profile=DataProfile(kind="gaussian", width=0.6, zero_mean=True),
               ell=1, dt=0.1, T=1.0, record_every=4),
     [(0.0, None), (-0.5, None), (2, None)]),
    # two nonlinearities interleaved, u^2 and |u|^3 mu(|u|) with an iterated-log
    # mu: each keeps its rows through the blow-ups of 0.9 and 4.0, which regroup them
    (_BATCH_1D, [(0.3, _SQUARE), (0.3, _CUBIC_LOG), (0.9, _SQUARE), (4.0, _CUBIC_LOG),
                 (0.0, _CUBIC_LOG), (0.5, _SQUARE)]),
])
def test_batched_run_equals_single_runs(cfg, amplitudes, tmp_path):
    members = amplitudes
    reports, _ = run_recording(cfg, members, tmp_path / "batch")
    assert len(reports) == len(members)
    with pytest.raises(ValidationError, match="non-empty"):
        run(cfg, [])
    for i, (member, got) in enumerate(zip(members, reports)):
        single = tmp_path / f"single_{i}"
        (want,), _ = run_recording(cfg, [member], single)
        _assert_reports_equal(got, want)
        # each member's field file holds the bytes of its single run's
        got_bytes = (tmp_path / "batch" / f"member_{i}.npy").read_bytes()
        assert got_bytes == (single / "member_0.npy").read_bytes()
    outcomes = [(r.outcome, r.meta["steps_taken"]) for r in reports]
    blown_steps = {steps for outcome, steps in outcomes if outcome == "blowup_detected"}
    assert len(blown_steps) == (2 if members[0][1] is not None else 0), outcomes


def test_a_batch_mixing_members_with_and_without_a_nonlinearity_is_rejected():
    # a member without one steps by the linear flow alone, not by a zero source
    with pytest.raises(ValidationError, match="all with a nonlinearity or none"):
        run(_BATCH_1D, [(0.3, _SQUARE), (0.3, None)])


def test_row_groups_share_one_F_per_nonlinearity():
    assert row_groups([_SQUARE] * 3) == [(_SQUARE, slice(None))]
    assert row_groups([None, None]) == [(None, slice(None))]
    same = NonlinearitySpec(p=2.0, mu=MuSpec(family="constant"))
    assert row_groups([_SQUARE, _CUBIC_LOG, same]) == [(_SQUARE, [0, 2]), (_CUBIC_LOG, [1])]


def test_a_batch_of_one_nonlinearity_evaluates_F_once_per_source(monkeypatch):
    # the whole (B, *shape) field at once: two sources per step, as for one member
    calls = []

    def counting_eval_F(nl, w):
        calls.append(w.shape)
        return eval_F(nl, w)

    monkeypatch.setattr(solver, "eval_F", counting_eval_F)
    cfg = replace(_BATCH_1D, T=0.5)
    run(cfg, [(a, _SQUARE) for a in (0.1, 0.2, 0.3)])
    assert calls == [(3, 32)] * 20
    calls.clear()
    run(cfg, [(0.1, _SQUARE), (0.2, _CUBIC_LOG), (0.3, _SQUARE)])
    assert calls == [(2, 32), (1, 32)] * 20


def _worst(member, grid):
    """max |u| over the physical layers of one member's half-spectrum modes."""
    return float(np.max(np.abs(np.fft.irfftn(member, s=grid.shape, axes=grid.space_axes))))


def _exact_blown(modes, ref, grid):
    """The blow-up decision by inverse FFT of every layer of every member."""
    out = []
    for member, r in zip(modes, ref):
        if not np.all(np.isfinite(member)):
            out.append(True)
            continue
        out.append(_worst(member, grid) > BLOWUP_FACTOR * r)
    return np.array(out)


@pytest.mark.parametrize("n, N", [(1, 32), (2, 16)])
def test_blown_screen_matches_exact_decision(n, N):
    grid = Grid(n=n, N=N, L=10.0)
    rng = np.random.default_rng(7)
    shape = (2,) + grid.shape[:-1] + (N // 2 + 1,)
    members, refs = [], []
    # random states, whose max |u| sits well below the screen's bound, and a
    # delta at the origin (all coefficients 1), whose max |u| meets it
    for k in range(7):
        member = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) if k
                  else np.ones(shape, dtype=complex))
        worst = _worst(member, grid)
        ref = worst / BLOWUP_FACTOR
        # a reference whose threshold equals the worst value exactly: "at"
        for cand in (ref, np.nextafter(ref, 0.0), np.nextafter(ref, np.inf)):
            if BLOWUP_FACTOR * cand == worst:
                ref = cand
                break
        for scale in (1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6, 1e-3, 1e3):
            members.append(member)
            refs.append(ref * scale)
    for bad in (np.nan, np.inf, -np.inf):
        member = rng.standard_normal(shape) + 0j
        member[(1,) + (0,) * n] = bad
        members.append(member)
        refs.append(1.0)
    members.append(np.zeros(shape, dtype=complex))
    refs.append(1.0)
    modes, ref = np.stack(members), np.array(refs)
    want = _exact_blown(modes, ref, grid)
    assert want.any() and not want.all()
    assert (blown(modes, ref, grid) == want).all()
    # each member alone gets the same decision as in the batch
    for b in range(len(members)):
        assert blown(modes[b:b + 1], ref[b:b + 1], grid)[0] == want[b]


def _full_spectrum_run(cfg, amplitude, nl):
    """``cfg`` at ``amplitude`` and ``nl`` stepped as first written, on the full complex spectrum.

    The state holds every fftn mode, the fields are np.real(ifftn(...)), the
    propagator is the per-mode reference over all N^n modes and the blow-up
    check inverts every layer.  Returns the outcome, the steps taken, the
    blow-up time, the recorded times and the recorded layers 0..ell.
    """
    op, grid, ell, dt = cfg.op, cfg.grid, cfg.ell, cfg.dt
    axes = grid.space_axes
    mask = grid.dealias_mask()
    E, _, phi = _per_mode_propagator(op, grid, dt, ks=grid.wavenumbers())
    E = np.moveaxis(E, (-2, -1), (0, 1))

    def physical(v):
        return np.real(np.fft.ifftn(v, axes=axes))

    def source(v, t):
        w = physical(v[ell])
        s = np.asarray(eval_F(nl, w)) if nl is not None else np.zeros_like(w)
        if cfg.forcing is not None:
            s = s + cfg.forcing(t)
        return np.fft.fftn(s, axes=axes) * mask

    modes = np.zeros((op.m,) + grid.shape, dtype=complex)
    modes[-1] = np.fft.fftn(amplitude * cfg.profile.render(grid)) * mask
    ref = float(np.max(np.abs(physical(modes)))) or 1.0
    n_steps = round(cfg.T / dt)
    t = 0.0
    times, frames = [t], [physical(modes[:ell + 1])]
    for step in range(1, n_steps + 1):
        Ev = np.einsum("ij...,j...->i...", E, modes)
        if nl is None and cfg.forcing is None:
            modes = Ev
        else:
            s0 = source(modes, t)
            s1 = source(Ev + phi * s0, t + dt)
            modes = Ev + phi * (0.5 * (s0 + s1))
        last_good_t, t = t, step * dt
        if (not np.all(np.isfinite(modes))
                or np.max(np.abs(physical(modes))) > BLOWUP_FACTOR * ref):
            return "blowup_detected", step, last_good_t, times, np.stack(frames)
        if step % cfg.record_every == 0 or step == n_steps:
            times.append(t)
            frames.append(physical(modes[:ell + 1]))
    return "completed", n_steps, None, times, np.stack(frames)


def _manufactured_config(dt):
    grid = Grid(n=1, N=16, L=2 * math.pi)
    cosx = np.cos(grid.coords()[0])

    def forcing(t):
        phi = math.sin(t) * math.exp(-t)
        dphi = math.exp(-t) * (math.cos(t) - math.sin(t))
        ddphi = -2.0 * math.exp(-t) * math.cos(t)
        return (ddphi + dphi + phi) * cosx - (phi * cosx) ** 2

    return RunConfig(op=damped_wave(1), grid=grid,
                     profile=DataProfile(kind="custom_table", values=tuple(cosx)),
                     ell=0, dt=dt, T=1.0, record_every=1000000, forcing=forcing)


_CONSTANT_P3 = NonlinearitySpec(p=3.0, mu=MuSpec(family="constant"))


@pytest.mark.parametrize("cfg, members", [
    # criterion 7 (a): linear flow at two step sizes
    *[(RunConfig(op=damped_wave(1), grid=Grid(n=1, N=64, L=40.0),
                 profile=DataProfile(kind="gaussian", width=2.0), ell=0, dt=dt, T=1.0),
       [(1.0, None)]) for dt in (0.1, 0.02)],
    # criterion 7 (b): manufactured solution with forcing
    *[(_manufactured_config(dt), [(1.0, _SQUARE)]) for dt in (0.02, 0.01)],
    # criterion 7 (c): five cubic steps next to the dealiasing cutoff
    (RunConfig(op=damped_wave(1), grid=Grid(n=1, N=24, L=2 * math.pi),
               profile=DataProfile(kind="gaussian", width=0.4), ell=0, dt=0.05, T=0.25),
     [(1.0, _CONSTANT_P3)]),
    # a batch in 1-D with blow-ups at steps 159 and 132
    (_BATCH_1D, [(a, _SQUARE) for a in (0.0, 0.3, 0.7, 0.9)]),
    # 2-D N=64 at the critical power with an iterated-log modulation
    (RunConfig(op=damped_wave(2), grid=Grid(n=2, N=64, L=40.0),
               profile=DataProfile(kind="gaussian", width=2.0), ell=0, dt=0.05, T=2.0,
               record_every=5),
     [(0.45, NonlinearitySpec(p=2.0, mu=MuSpec(family="iterated_log", gamma=2.0)))]),
    # the odd monomial alpha = (1, 0), whose symbol is complex, at ell = 1
    (RunConfig(op=monomial_op((1, 0)), grid=Grid(n=2, N=32, L=20.0),
               profile=DataProfile(kind="gaussian", width=1.0), ell=1, dt=0.05, T=1.0,
               record_every=2),
     [(0.5, _SQUARE)]),
], ids=["c7a-dt0.1", "c7a-dt0.02", "c7b-dt0.02", "c7b-dt0.01", "c7c", "batch-1d",
        "wave-2d-64", "alpha-10"])
def test_half_spectrum_matches_full_spectrum(cfg, members, tmp_path):
    reports, stacks = run_recording(cfg, members, tmp_path)
    weight = cfg.grid.quad_weight()
    for (amp, nl), got, got_frames in zip(members, reports, stacks):
        p = cfg.norm_power(nl)
        outcome, steps, blowup_time, times, frames = _full_spectrum_run(cfg, amp, nl)
        assert (got.outcome, got.meta["steps_taken"]) == (outcome, steps)
        assert got.blowup_time == blowup_time
        assert got.times == times
        assert len(got_frames) == len(times)
        for have, want in zip(got_frames, frames[:, cfg.ell]):
            assert np.max(np.abs(have - want)) <= 1e-12 * np.max(np.abs(want))
        for k in range(cfg.ell + 1):
            want = [grid_norms(frame, weight, p) for frame in frames[:, k]]
            for norm in ("L1", "L2", "Lp", "Linf"):
                np.testing.assert_allclose(got.series[f"{norm}[{k}]"],
                                           [w[norm] for w in want], rtol=1e-12, atol=0)


def test_grid_bounds_its_point_count():
    # the bound is checked before any array is built, so 2^32 points cost nothing
    assert Grid(n=1, N=2**22, L=1.0).N == 2**22
    assert Grid(n=2, N=2048, L=1.0).N == 2048
    for n, N in [(1, 2**22 + 2), (2, 2050), (1, 2**32)]:
        with pytest.raises(ValidationError, match=r"must be at most 2\^22 = 4194304"):
            Grid(n=n, N=N, L=1.0)


def test_grid_takes_no_bool_dimension():
    # a bool is an int subclass: n = True built a 1-D grid
    with pytest.raises(ValidationError, match="n = 1 or 2"):
        Grid(n=True, N=16, L=1.0)
