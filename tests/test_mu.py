import math

import numpy as np
import pytest
from scipy.integrate import quad

import critevo.mu as mu_module
from critevo.errors import NumericalError, ValidationError
from critevo.mu import (
    GAUSS_LEGENDRE16,
    MuSpec,
    NonlinearitySpec,
    eval_F,
    eval_mu,
    integral_condition,
    iterated_log_antiderivative,
    lipschitz_certificate,
    parse_mu,
)


def ilog_mu(tau, k, gamma):
    # independent reference for the product family:
    # mu(tau) = [log(1/tau) * log log(1/tau) * ... * (log^[k+1](1/tau))^gamma]^{-1}
    u = math.log(1.0 / tau)
    prod = 1.0
    for _ in range(k):
        prod *= u
        u = math.log(u)
    return 1.0 / (prod * u**gamma)


def test_eval_mu_pointwise():
    mu = MuSpec(family="iterated_log", gamma=1.0, depth=0)
    assert eval_mu(mu, math.exp(-1.0)) == pytest.approx(1.0, abs=1e-14)
    mu2 = MuSpec(family="iterated_log", gamma=2.0, depth=0)
    assert eval_mu(mu2, math.exp(-2.0)) == pytest.approx(0.25, abs=1e-14)
    const = MuSpec(family="constant")
    assert eval_mu(const, 0.37) == 1.0
    assert eval_mu(const, 0.0) == 1.0


def test_eval_mu_matches_reference_on_grid():
    for k in (0, 1, 2):
        for gamma in (0.5, 1.0, 2.5):
            mu = MuSpec(family="iterated_log", gamma=gamma, depth=k)
            ts = mu.tau_star
            for tau in np.linspace(ts * 1e-3, ts, 25):
                got = eval_mu(mu, float(tau))
                assert got == pytest.approx(ilog_mu(float(tau), k, gamma), rel=1e-12)


def test_eval_mu_constant_beyond_extension_point():
    mu = MuSpec(family="iterated_log", gamma=2.0, depth=1)
    ts = mu.tau_star
    assert eval_mu(mu, 2 * ts) == eval_mu(mu, ts)
    assert eval_mu(mu, 10.0) == eval_mu(mu, ts)


def test_mu_vectorized_matches_scalar():
    mu = MuSpec(family="iterated_log", gamma=1.5, depth=1)
    taus = np.linspace(1e-6, mu.tau_star, 40)
    vec = eval_mu(mu, taus)
    for t, v in zip(taus, vec):
        assert v == pytest.approx(eval_mu(mu, float(t)), rel=1e-14)


def test_power_family():
    mu = MuSpec(family="power", epsilon=0.5)
    assert eval_mu(mu, 0.25) == pytest.approx(0.5)
    assert eval_mu(mu, 0.0) == 0.0
    assert eval_mu(mu, 4.0) == 1.0  # capped at tau* = 1


def test_eval_F():
    nl = NonlinearitySpec(p=3.0, mu=MuSpec(family="constant"))
    assert eval_F(nl, 0.0) == 0.0
    assert eval_F(nl, -2.0) == pytest.approx(8.0)
    assert eval_F(nl, 2.0) == pytest.approx(8.0)
    nl2 = NonlinearitySpec(p=2.0, mu=MuSpec(family="iterated_log", gamma=1.0, depth=0))
    s = math.exp(-1.0) * 0.5
    assert eval_F(nl2, s) == pytest.approx(s * s * ilog_mu(s, 0, 1.0), rel=1e-12)
    # F(0) = 0 even when mu blows up at 0
    nl3 = NonlinearitySpec(p=1.0, mu=MuSpec(family="iterated_log", gamma=-1.0, depth=0))
    assert eval_F(nl3, 0.0) == 0.0


def test_closed_form_is_the_true_integral():
    # d/dc0 of the closed form must equal mu(c0)/c0 (fundamental theorem)
    for k in (0, 1, 2):
        for gamma in (1.5, 2.0, 3.0):
            mu = MuSpec(family="iterated_log", gamma=gamma, depth=k)
            c0 = mu.tau_star / 2
            h = c0 * 1e-6
            d = (iterated_log_antiderivative(k, gamma, c0 + h)
                 - iterated_log_antiderivative(k, gamma, c0 - h)) / (2 * h)
            assert d == pytest.approx(eval_mu(mu, c0) / c0, rel=1e-7)
    with pytest.raises(ValidationError):
        iterated_log_antiderivative(0, 1.0, 0.1)


def test_integral_classification_gamma_grid():
    for k in (0, 1, 2):
        for gamma, want in ((0.5, "divergent"), (1.0, "divergent"),
                            (1.5, "convergent"), (2.0, "convergent"), (3.0, "convergent")):
            mu = MuSpec(family="iterated_log", gamma=gamma, depth=k)
            v = integral_condition(mu, c0=min(0.05, mu.tau_star / 2))
            assert v.classification == want, (k, gamma)


def test_convergent_quadrature_matches_closed_form():
    mu = MuSpec(family="iterated_log", gamma=2.0, depth=0)
    v = integral_condition(mu, c0=0.1)
    want = 1.0 / math.log(10.0)
    assert v.closed_form_value == pytest.approx(want, abs=1e-12)
    assert v.quadrature_value == pytest.approx(want, abs=1e-8)
    # cross-check with an independent quadrature after u = -log tau
    ref, err = quad(lambda u: ilog_mu(math.exp(-u), 0, 2.0), math.log(10.0), 700.0)
    tail = 1.0 / 700.0  # exact remainder of u^{-2} beyond the window
    assert v.quadrature_value == pytest.approx(ref + tail, abs=max(1e-8, 10 * err))


def test_partials_match_closed_form_differences():
    # truncated integrals from genuine eval_mu quadrature must equal
    # antiderivative differences: the bridge between formula and samples
    for k in (0, 1, 2):
        mu = MuSpec(family="iterated_log", gamma=2.0, depth=k)
        c0 = mu.tau_star / 2
        v = integral_condition(mu, c0=c0, levels=6)
        for j, part in enumerate(v.partial_integrals, start=1):
            want = (iterated_log_antiderivative(k, 2.0, c0)
                    - iterated_log_antiderivative(k, 2.0, c0 * 10.0 ** (-j)))
            assert part == pytest.approx(want, abs=1e-7), (k, j)


def test_depth_one_closed_form():
    # integral over (0, c0] for depth 1, gamma 2 telescopes to 1/log(-log c0)
    mu = MuSpec(family="iterated_log", gamma=2.0, depth=1)
    c0 = mu.tau_star / 2
    v = integral_condition(mu, c0=c0)
    want = 1.0 / math.log(-math.log(c0))
    assert v.classification == "convergent"
    assert v.closed_form_value == pytest.approx(want, rel=1e-12)
    assert v.quadrature_value == pytest.approx(want, rel=1e-6)


def test_constant_divergent_growth_label():
    v = integral_condition(MuSpec(family="constant"), c0=0.1)
    assert v.classification == "divergent"
    # equal log-decade increments: local exponent ~ 0, labelled growing
    assert v.growth_label == "growing"
    assert v.fitted_slope == pytest.approx(0.0, abs=0.05)
    parts = v.partial_integrals
    assert all(b > a for a, b in zip(parts, parts[1:]))
    assert parts[-1] == pytest.approx(8 * math.log(10.0), rel=1e-9)


def test_marginal_gamma_one_label():
    mu = MuSpec(family="iterated_log", gamma=1.0, depth=0)
    v = integral_condition(mu, c0=0.1)
    assert v.classification == "divergent"
    assert v.growth_label in ("marginal", "saturating")
    assert v.fitted_slope == pytest.approx(-1.0, abs=0.1)


def test_partials_monotone_when_convergent():
    mu = MuSpec(family="iterated_log", gamma=2.0, depth=0)
    v = integral_condition(mu, c0=0.1, levels=8)
    parts = v.partial_integrals
    assert all(b >= a for a, b in zip(parts, parts[1:]))
    gaps = [b - a for a, b in zip(parts, parts[1:])]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    # truncations stay below the improper integral and approach it
    assert parts[-1] < v.quadrature_value
    assert v.quadrature_value - parts[-1] < v.quadrature_value - parts[0]
    assert v.growth_label == "saturating"


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_growth_label_follows_the_family_variable(depth):
    # the increments are fitted per unit of w = log^[depth](-log tau), so the
    # label sits on the same side of the convergence line as the verdict
    want = {0.5: "growing", 1.0: "marginal", 1.5: "saturating", 2.0: "saturating"}
    for gamma, label in want.items():
        mu = MuSpec(family="iterated_log", gamma=gamma, depth=depth)
        for c0 in (mu.tau_star, min(0.05, mu.tau_star / 2)):
            v = integral_condition(mu, c0=c0)
            assert v.growth_label == label, (gamma, c0, v.fitted_slope)
            assert v.fitted_slope == pytest.approx(-gamma, abs=0.15)


@pytest.mark.parametrize("epsilon", [1.0, 2.0])
@pytest.mark.parametrize("c0", [0.05, 1.0])
def test_power_label_survives_decade_sums_below_the_partials_rounding(epsilon, c0):
    # at 30 levels the last decade sums fall below the rounding of the
    # running partial, so differences of the partials read <= 0; the sums
    # themselves stay positive
    v = integral_condition(MuSpec(family="power", epsilon=epsilon), c0=c0, levels=30)
    assert v.growth_label == "saturating"
    assert v.fitted_slope < -1.05


def test_custom_table_partials_are_exact():
    # mu = a + b tau between knots gives a log(t2/t1) + b (t2 - t1) per piece;
    # the knots are panel edges, so the rule never straddles a kink
    taus, values = (0.0, 1e-3, 0.01, 0.05, 0.2), (0.0, 0.1, 0.3, 0.5, 0.9)
    mu = MuSpec(family="custom_table", taus=taus, values=values)

    def exact(lo, hi):
        total = 0.0
        for t1, t2, m1, m2 in zip(taus, taus[1:], values, values[1:]):
            a, b = max(lo, t1), min(hi, t2)
            if a < b:
                slope = (m2 - m1) / (t2 - t1)
                total += (m1 - slope * t1) * (math.log(b / a) if a > 0 else 0.0) + slope * (b - a)
        return total

    for c0 in (0.2, 0.03):
        v = integral_condition(mu, c0=c0, levels=6)
        for j, part in enumerate(v.partial_integrals, start=1):
            assert part == pytest.approx(exact(c0 * 10.0**-j, c0), rel=1e-13), (c0, j)


def test_quadrature_value_is_head_plus_exact_tail():
    for mu in (MuSpec(family="power", epsilon=0.5), MuSpec(family="constant", value=0.0),
               MuSpec(family="iterated_log", gamma=1.05, depth=1)):
        v = integral_condition(mu, c0=0.01, levels=5)
        assert v.quadrature_value == pytest.approx(v.closed_form_value, rel=1e-12, abs=1e-300)
    v = integral_condition(MuSpec(family="iterated_log", gamma=1.0), c0=0.01)
    assert v.closed_form_value is None and v.quadrature_value is None


def test_tol_below_rounding_is_rejected():
    mu = MuSpec(family="iterated_log", gamma=2.0)
    assert integral_condition(mu, c0=0.1, tol=1e-15).quadrature_tol == 1e-15
    for tol in (1e-16, 0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="tol"):
            integral_condition(mu, c0=0.1, tol=tol)


def test_levels_below_the_smallest_normal_double_are_rejected():
    # past u ~ 708 tau = e^{-u} leaves the normal doubles and the last
    # increments would read 0; one decade sum is too few to fit a slope to
    mu = MuSpec(family="iterated_log", gamma=2.0)
    for levels in (0, 1, 307):
        with pytest.raises(ValidationError, match=r"levels must be in \[2, 306\]"):
            integral_condition(mu, c0=0.1, levels=levels)
    v = integral_condition(mu, c0=0.1, levels=306)
    assert v.growth_label == "saturating"
    assert v.quadrature_value == pytest.approx(v.closed_form_value, rel=1e-12)


def test_unsettled_quadrature_raises(monkeypatch):
    # one pass leaves nothing to compare against: the rule must fail closed
    monkeypatch.setattr(mu_module, "_PANELS", (1,))
    with pytest.raises(NumericalError, match="did not settle"):
        integral_condition(MuSpec(family="constant"), c0=0.1)


def test_scale_substitution_property():
    # integral_1^inf s^{-1} mu(c s^{-a}) ds = (1/a) integral_0^c tau^{-1} mu(tau) dtau
    # (integrate the left side in w = log s, where the decay is polynomial)
    mu = MuSpec(family="iterated_log", gamma=2.0, depth=0)
    c, a = 0.05, 1.7
    lhs, err = quad(lambda w: eval_mu(mu, c * math.exp(-a * w)), 0.0, np.inf, limit=400)
    rhs = integral_condition(mu, c0=c).quadrature_value / a
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_convergent_mu_vanishes_at_zero():
    for k in (0, 1, 2):
        mu = MuSpec(family="iterated_log", gamma=1.5, depth=k)
        v = integral_condition(mu, c0=mu.tau_star / 3)
        assert v.classification == "convergent"
        assert eval_mu(mu, 1e-300) < 1e-2
        assert eval_mu(mu, 0.0) == 0.0


def test_lipschitz_constant_powers():
    # F(s) = s^2 on s >= 0: the sampled ratio is exactly 1
    nl = NonlinearitySpec(p=2.0, mu=MuSpec(family="constant"))
    cert = lipschitz_certificate(nl, cap=1.0, seed=0)
    assert cert.constant <= 1.0 + 1e-12
    assert cert.constant > 0.9
    assert cert.monotone
    assert cert.derivative_bound
    assert cert.cap == 1.0


def test_lipschitz_iterated_log_finite():
    nl = NonlinearitySpec(p=2.0, mu=MuSpec(family="iterated_log", gamma=1.0, depth=0))
    cert = lipschitz_certificate(nl, seed=1)
    assert math.isfinite(cert.constant)
    assert cert.constant < 50.0
    assert cert.cap == pytest.approx(nl.mu.tau_star)
    a, b = cert.worst_pair
    assert abs(a) <= cert.cap + 1e-12 and abs(b) <= cert.cap + 1e-12


def test_monotone_flag_for_admissible_family():
    nl = NonlinearitySpec(p=2.0, mu=MuSpec(family="iterated_log", gamma=2.0, depth=1))
    cert = lipschitz_certificate(nl, seed=2)
    assert cert.monotone
    assert cert.monotone_witness is None


def test_concave_F_flagged():
    # p = 1 with mu growing toward 0 gives strictly concave F
    nl = NonlinearitySpec(p=1.0, mu=MuSpec(family="iterated_log", gamma=-0.5, depth=0))
    cert = lipschitz_certificate(nl, seed=3)
    assert not cert.convex
    assert cert.convex_witness is not None
    assert 0.0 < cert.convex_witness < cert.cap


def test_convexity_flag_positive():
    nl = NonlinearitySpec(p=3.0, mu=MuSpec(family="constant"))
    cert = lipschitz_certificate(nl, cap=2.0, seed=3)
    assert cert.convex
    assert cert.convex_witness is None


def test_certificate_deterministic():
    nl = NonlinearitySpec(p=2.0, mu=MuSpec(family="iterated_log", gamma=1.0, depth=0))
    c1 = lipschitz_certificate(nl, seed=7)
    c2 = lipschitz_certificate(nl, seed=7)
    assert c1.constant == c2.constant
    assert c1.worst_pair == c2.worst_pair


def test_validation_errors():
    with pytest.raises(ValidationError):
        MuSpec(family="iterated_log", gamma=1.0, depth=3)  # beyond max depth
    with pytest.raises(ValidationError):
        MuSpec(family="iterated_log", gamma=1.0, depth=-1)
    with pytest.raises(ValidationError):
        MuSpec(family="nope")
    with pytest.raises(ValidationError):
        MuSpec(family="power")  # epsilon required
    with pytest.raises(ValidationError):
        parse_mu({"family": "iterated_log", "gamma": 1.0, "weird": 2})
    with pytest.raises(ValidationError):
        NonlinearitySpec(p=0.5, mu=MuSpec(family="constant"))
    mu = MuSpec(family="iterated_log", gamma=1.0, depth=0)
    with pytest.raises(ValidationError):
        integral_condition(mu, c0=0.9)  # beyond tau*
    with pytest.raises(ValidationError):
        eval_mu(mu, -0.1)


def test_custom_table_family():
    mu = MuSpec(family="custom_table", taus=(0.0, 0.5, 1.0), values=(0.0, 1.0, 1.0))
    assert eval_mu(mu, 0.25) == pytest.approx(0.5)
    assert eval_mu(mu, 0.75) == pytest.approx(1.0)
    v = integral_condition(mu, c0=0.5)
    assert v.classification == "unknown"
    with pytest.raises(ValidationError):
        MuSpec(family="custom_table")  # table required
    with pytest.raises(ValidationError):
        MuSpec(family="custom_table", taus=(1.0, 0.5), values=(1.0, 1.0))


def test_parse_round_trip():
    doc = {"family": "iterated_log", "gamma": 2.0, "depth": 1}
    mu = parse_mu(doc)
    assert mu.gamma == 2.0 and mu.depth == 1
    assert parse_mu(mu.to_json()).to_json() == mu.to_json()
    custom = MuSpec(family="custom_table", taus=(0.0, 1.0), values=(0.5, 0.5))
    assert parse_mu(custom.to_json()) == custom


def test_negative_mu_is_rejected():
    with pytest.raises(ValidationError, match=">= 0"):
        MuSpec(family="constant", value=-1.0)
    with pytest.raises(ValidationError, match=">= 0"):
        parse_mu({"family": "custom_table", "taus": [0.0, 1.0], "values": [1.0, -0.5]})
    assert MuSpec(family="constant", value=0.0).value == 0.0


# --- eval_F against the general formula ------------------------------------

def _reference_mu(mu, tau):
    """eval_mu as first written: every check on every call, gathered arrays."""
    arr = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(arr < 0) or np.any(~np.isfinite(arr)):
        raise ValidationError("tau must be finite and >= 0")
    if mu.family == "constant":
        return np.full_like(arr, mu.value)
    if mu.family == "power":
        return np.minimum(arr, mu.tau_star) ** mu.epsilon
    if mu.family == "custom_table":
        return np.interp(arr, mu.taus, mu.values)
    out = np.empty_like(arr)
    cap = np.minimum(arr, mu.tau_star)
    pos = cap > 0
    if np.any(pos):
        u = -np.log(cap[pos])
        val = np.ones_like(u)
        v = u
        for _ in range(mu.depth):
            if np.any(v <= 0):
                raise ValidationError("inner log undefined on the requested range")
            val = val / v
            v = np.log(v)
        if np.any(v <= 0):
            raise ValidationError("inner log undefined on the requested range")
        out[pos] = val * v ** (-mu.gamma)
    out[~pos] = 0.0 if mu.depth or mu.gamma > 0 else (1.0 if mu.gamma == 0 else math.inf)
    return out


def _reference_F(nl, s):
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    mag = np.abs(arr)
    out = np.zeros_like(mag)
    nz = mag > 0
    if np.any(nz):
        out[nz] = mag[nz] ** nl.p * _reference_mu(nl.mu, mag[nz])
    return float(out[0]) if np.ndim(s) == 0 else out


PARITY_SPECS = [
    MuSpec(family="constant", value=0.7),
    MuSpec(family="power", epsilon=0.5),
    MuSpec(family="iterated_log", depth=0, gamma=2.0),
    MuSpec(family="iterated_log", depth=1, gamma=0.5),
    MuSpec(family="iterated_log", depth=2, gamma=1.5),
    MuSpec(family="iterated_log", depth=0, gamma=-1.0, extension_point=0.2),
    MuSpec(family="custom_table", taus=(0.0, 0.1, 0.5), values=(0.0, 0.3, 1.0)),
]


@pytest.mark.parametrize("mu", PARITY_SPECS, ids=lambda mu: f"{mu.family}-{mu.depth}")
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 2.5])
def test_eval_F_bits_match_the_general_formula(mu, p):
    nl = NonlinearitySpec(p=p, mu=mu)
    rng = np.random.default_rng(3)
    field = rng.standard_normal((3, 64)) * 0.4  # no zeros: the solver's case
    mixed = np.concatenate([[0.0, -0.0, 2.0 * mu.tau_star if math.isfinite(mu.tau_star)
                             else 5.0, -1e-300], -np.abs(field[0])])
    # below tau* (2.6e-7 at depth 2) every magnitude takes its own path
    scales = np.geomspace(1e-200, 1.0, 301) * np.where(np.arange(301) % 2, -1.0, 1.0)
    for s in (field, field[1], mixed, mixed.reshape(1, -1), scales, np.zeros(4), 0.0, -0.3,
              0.02, 7.5, 1e-9, np.array(-0.04), np.array([]), [0.1, -0.2]):
        got, want = eval_F(nl, s), _reference_F(nl, s)
        assert type(got) is type(want)
        assert np.asarray(got).shape == np.asarray(want).shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), s


@pytest.mark.parametrize("mu", PARITY_SPECS, ids=lambda mu: f"{mu.family}-{mu.depth}")
def test_eval_F_maps_nan_to_nan(mu):
    nl = NonlinearitySpec(p=2.0, mu=mu)
    assert math.isnan(eval_F(nl, np.nan))
    got = eval_F(nl, [0.1, np.nan, 0.0, -0.2])
    want = eval_F(nl, [0.1, 0.0, -0.2])
    assert np.isnan(got[1]) and got[[0, 2, 3]].tobytes() == want.tobytes()
    field = np.full((2, 3), np.nan)
    field[0, 1] = 0.05
    got = eval_F(nl, field)
    assert got.shape == (2, 3)
    assert np.array_equal(np.isnan(got), np.isnan(field))
    assert got[0, 1] == eval_F(nl, 0.05)


@pytest.mark.parametrize("mu", PARITY_SPECS, ids=lambda mu: f"{mu.family}-{mu.depth}")
def test_eval_F_rejects_what_the_general_formula_rejects(mu):
    nl = NonlinearitySpec(p=2.0, mu=mu)
    for bad in (np.inf, -np.inf, [0.1, np.inf], np.array([[0.0, -np.inf]])):
        with pytest.raises(ValidationError, match="tau must be finite"):
            _reference_F(nl, bad)
        with pytest.raises(ValidationError, match="tau must be finite"):
            eval_F(nl, bad)


@pytest.mark.parametrize("depth, tau_star", [(1, 0.5), (0, 2.0)])
def test_iterated_log_rejects_a_tau_star_outside_the_log_domain(depth, tau_star):
    # log(-log tau) is <= 0 for tau >= 1/e and -log tau is <= 0 for tau >= 1:
    # part of (0, tau*] lies outside the domain, whatever tau mu is asked for
    doc = {"family": "iterated_log", "depth": depth, "gamma": 2.0, "extension_point": tau_star}
    with pytest.raises(ValidationError, match="inner log is <= 0"):
        MuSpec(**doc)
    with pytest.raises(ValidationError, match="inner log is <= 0"):
        parse_mu(doc)
    mu = MuSpec(**{**doc, "extension_point": 0.3})  # below 1/e: every inner log positive
    nl = NonlinearitySpec(p=2.0, mu=mu)
    field = np.array([0.01, -0.2, 0.3, 0.9])
    assert eval_F(nl, field).tobytes() == _reference_F(nl, field).tobytes()


def test_gauss_legendre_table_is_leggauss_bit_for_bit():
    # the written-out rule the mu and decay quadratures share
    for table, built in zip(GAUSS_LEGENDRE16, np.polynomial.legendre.leggauss(16)):
        assert table.dtype == built.dtype and table.shape == built.shape
        assert table.tobytes() == built.tobytes()
