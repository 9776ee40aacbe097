"""Slowly-varying modulation factors mu and the nonlinearity F(s) = |s|^p mu(|s|).

The admissibility conditions a modulation must satisfy near zero are

  (i)   mu is non-decreasing,
  (ii)  mu is bounded on [0, eps_bar],
  (iii) F(s) = |s|^p mu(|s|) is convex,
  (iv)  F(0) = 0 and |F(y) - F(z)| <= C |y - z| (|y|^{p-1} + |z|^{p-1}) mu(|y| + |z|),

and the dividing line between existence and non-existence at the critical
power is the small-tau integral

    integral_0^{c0} mu(tau) / tau  d tau   (convergent vs divergent).

Families:

* ``constant``      mu == value.
* ``power``         mu(tau) = tau^epsilon on [0, tau*], frozen beyond.
* ``iterated_log``  mu(tau) = [prod_{i=0}^{k-1} (log^[i](-log tau))^{-1}]
                              * (log^[k](-log tau))^{-gamma}
  on (0, tau*], frozen beyond, with log^[0] = identity (so depth k = 0 is
  the plain (-log tau)^{-gamma}).  Its integral converges iff gamma > 1,
  with antiderivative (log^[k](-log c0))^{1-gamma} / (gamma - 1), since
  v = log^[k](-log tau) turns the integral into integral v^{-gamma} dv.
* ``custom_table``  linear interpolation of sampled (tau, mu) pairs,
  constant beyond the last sample.  No exact classification is claimed.

The default extension point tau* is where every inner logarithm reaches 1:
tau* = exp(-exp^[k](1)) (= 1/e at depth 0).  Depths above 2 would push
tau* below the double-precision floor, so they are rejected, and so is an
extension point at which an inner logarithm is not positive.

The integral is measured in u = -log tau by one Gauss-Legendre rule per
decade of tau; a convergent value adds the exact antiderivative below the
last decade.

Verification helpers sample the conditions rather than prove them: the
Lipschitz certificate reports the smallest empirical C over seeded sample
pairs together with monotonicity / derivative-bound / convexity witnesses,
never a proof.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .config import Key, read
from .errors import NumericalError, ValidationError

#: largest iterated-log depth representable in float64 (tau* underflows at 3)
MAX_DEPTH = 2


def iterated_exp(k: int) -> float:
    """exp applied k times to 1."""
    x = 1.0
    for _ in range(k):
        x = math.exp(x)
    return x


def default_extension_point(depth: int) -> float:
    """Largest tau at which every inner log of the depth-k formula is >= 1."""
    return math.exp(-iterated_exp(depth))


@dataclass(frozen=True)
class MuSpec:
    """Declared modulation factor; evaluation lives in :func:`eval_mu`."""

    family: str
    value: float = 1.0
    epsilon: float | None = None
    depth: int = 0
    gamma: float = 1.0
    extension_point: float | None = None
    taus: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in _FAMILY_KEYS:
            raise ValidationError(f"unknown mu family {self.family!r}")
        if self.extension_point is not None and not (self.extension_point > 0):
            raise ValidationError("extension_point must be > 0")
        if self.family == "constant" and not (self.value >= 0):
            raise ValidationError("constant mu value must be >= 0")
        if self.family == "power":
            if self.epsilon is None or not (self.epsilon > 0):
                raise ValidationError("power family needs epsilon > 0")
        if self.family == "iterated_log":
            if not (type(self.depth) is int and 0 <= self.depth <= MAX_DEPTH):
                raise ValidationError(
                    f"iterated_log depth must be an integer in [0, {MAX_DEPTH}] "
                    "(deeper extension points underflow double precision)"
                )
            if not math.isfinite(self.gamma):
                raise ValidationError("gamma must be finite")
            # each inner log decreases in tau and evaluation clips tau to
            # tau*, so every inner log positive at tau* (with a margin far
            # above rounding) means positive wherever mu is evaluated
            v = -math.log(self.tau_star)
            for _ in range(self.depth + 1):
                if not v > 1e-9:
                    raise ValidationError(
                        f"iterated_log depth {self.depth}: an inner log is <= 0 on part of "
                        f"(0, {self.tau_star!r}]; choose a smaller extension_point (the "
                        f"default is {default_extension_point(self.depth)!r})")
                v = math.log(v)
        if self.family == "custom_table":
            if not self.taus or not self.values or len(self.taus) != len(self.values):
                raise ValidationError("custom_table needs matching taus/values")
            if any(t < 0 for t in self.taus) or list(self.taus) != sorted(self.taus):
                raise ValidationError("custom_table taus must be sorted and >= 0")
            if any(v < 0 for v in self.values):
                raise ValidationError("custom_table mu values must be >= 0")

    @property
    def tau_star(self) -> float:
        if self.extension_point is not None:
            return self.extension_point
        if self.family == "iterated_log":
            return default_extension_point(self.depth)
        if self.family == "power":
            return 1.0
        if self.family == "custom_table":
            return float(self.taus[-1])
        return math.inf  # constant family has no extension

    def to_json(self) -> dict:
        """The family's own keys, as :func:`parse_mu` reads them back."""
        return {k: getattr(self, k) for k in _FAMILY_KEYS[self.family]
                if k != "extension_point" or self.extension_point is not None}


#: every mu key; a family reads its own
MU_KEYS = {
    "family": Key("str"),
    "gamma": Key("number", 1.0),
    "depth": Key("int", 0),
    "epsilon": Key("number", None),
    "value": Key("number", 1.0),
    "extension_point": Key("number", None),
    "taus": Key("number[]", None),
    "values": Key("number[]", None),
}
_FAMILY_KEYS = {
    "constant": ("family", "value", "extension_point"),
    "power": ("family", "epsilon", "extension_point"),
    "iterated_log": ("family", "depth", "gamma", "extension_point"),
    "custom_table": ("family", "taus", "values", "extension_point"),
}


def parse_mu(doc: Mapping) -> MuSpec:
    family = doc.get("family") if isinstance(doc, Mapping) else None
    if not isinstance(family, str) or family not in _FAMILY_KEYS:
        raise ValidationError(f"mu must be an object with a family in {list(_FAMILY_KEYS)}")
    return MuSpec(**read(doc, {k: MU_KEYS[k] for k in _FAMILY_KEYS[family]}, "mu"))


def _iterated_log_value(mu: MuSpec, tau: np.ndarray) -> np.ndarray:
    """Evaluate the depth-k formula on 0 < tau <= tau*, where MuSpec keeps every log positive."""
    v = -np.log(tau)
    out = None  # the product of 1/log^[i], empty at depth 0
    for _ in range(mu.depth):
        out = 1.0 / v if out is None else out / v
        v = np.log(v)
    tail = v ** (-mu.gamma)
    return tail if out is None else out * tail


def _mu_values(mu: MuSpec, tau: np.ndarray) -> np.ndarray:
    """mu on a finite array of tau >= 0 (tau > 0 for the iterated_log family)."""
    if mu.family == "constant":
        return np.full_like(tau, mu.value)
    if mu.family == "power":
        return np.minimum(tau, mu.tau_star) ** mu.epsilon
    if mu.family == "custom_table":
        return np.interp(tau, mu.taus, mu.values)
    return _iterated_log_value(mu, np.minimum(tau, mu.tau_star))


def _finite(tau: np.ndarray) -> np.ndarray:
    if not np.isfinite(tau).all():
        raise ValidationError("tau must be finite and >= 0")
    return tau


def eval_mu(mu: MuSpec, tau) -> np.ndarray | float:
    """mu(tau) for tau >= 0 (scalar or array); constant beyond tau*."""
    arr = np.asarray(tau, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0):
        raise ValidationError("tau must be finite and >= 0")
    _finite(arr)
    if mu.family != "iterated_log":
        out = _mu_values(mu, arr)
    else:
        out = np.empty_like(arr)
        pos = arr > 0
        if np.any(pos):
            out[pos] = _mu_values(mu, arr[pos])
        if np.any(~pos):
            # tau = 0: every inner factor vanishes in the limit except the
            # depth-0, gamma <= 0 cases.
            if mu.depth == 0 and mu.gamma == 0:
                limit = 1.0
            elif mu.depth == 0 and mu.gamma < 0:
                limit = math.inf
            else:
                limit = 0.0
            out[~pos] = limit
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class NonlinearitySpec:
    """F(s) = |s|^p mu(|s|) with p >= 1."""

    p: float
    mu: MuSpec

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValidationError("nonlinearity power p must be finite and >= 1")


def eval_F(nl: NonlinearitySpec, s) -> np.ndarray | float:
    """|s|^p mu(|s|), with F(0) pinned to 0 even when mu(0) is not finite.

    Only the nonzero magnitudes reach mu.  When every entry is nonzero (a
    solver field) they are used in place; the arithmetic is elementwise, so
    the result is the same either way, bit for bit.  A NaN entry (a field
    that has already overflowed) gives F = NaN, so the solver's blow-up
    check still sees it.
    """
    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    mag = np.abs(np.atleast_1d(arr))
    nz = mag > 0
    if nz.all():
        out = mag ** nl.p * _mu_values(nl.mu, _finite(mag))
    else:
        out = np.zeros_like(mag)
        if nz.any():
            x = mag[nz]
            out[nz] = x ** nl.p * _mu_values(nl.mu, _finite(x))
        out[np.isnan(mag)] = np.nan
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# sampled condition certificates


@dataclass(frozen=True)
class LipschitzCertificate:
    """Empirical check of conditions (i)-(iv) on [0, cap].

    ``constant`` is the smallest C that makes the difference bound hold on
    every sampled pair; a certificate is evidence, not a proof.  Witness
    fields hold the offending sample when a flag is False, else None.
    """

    constant: float
    worst_pair: tuple[float, float]
    monotone: bool
    monotone_witness: tuple[float, float] | None
    derivative_bound: bool
    derivative_witness: float | None
    convex: bool
    convex_witness: float | None
    cap: float
    n_samples: int
    seed: int


def lipschitz_certificate(nl: NonlinearitySpec, cap: float | None = None,
                          seed: int = 0) -> LipschitzCertificate:
    """Sample the difference estimate and the pointwise sufficient conditions.

    4000 pairs are drawn uniformly from [0, cap]^2 (plus a log-spaced sweep near
    zero, where the modulation varies fastest); the reported constant is
    max |F(y)-F(z)| / (|y-z| (|y|^{p-1}+|z|^{p-1}) mu(|y|+|z|)).  The
    derivative bound checked is 0 <= tau mu'(tau) <= mu(tau) (sufficient
    for admissibility), by central differences.  A non-finite sample, or no
    pair whose bound clears 1e-300, leaves no certificate: ValidationError.
    """
    if cap is None:
        cap = nl.mu.tau_star if math.isfinite(nl.mu.tau_star) else 1.0
    if not (cap > 0):
        raise ValidationError("cap must be > 0")
    rng = np.random.default_rng(seed)
    ys = rng.uniform(0.0, cap, 4000)
    zs = rng.uniform(0.0, cap, 4000)
    small = np.geomspace(cap * 1e-12, cap, 200)
    ys = np.concatenate([ys, small])
    zs = np.concatenate([zs, small * rng.uniform(0.0, 1.0, small.size)])

    ss = np.linspace(0.0, cap, 1201)
    with np.errstate(over="ignore", invalid="ignore"):
        Fy, Fz, Fs = (np.asarray(eval_F(nl, s)) for s in (ys, zs, ss))
        mu_sum = np.asarray(eval_mu(nl.mu, np.abs(ys) + np.abs(zs)))
        denom = np.abs(ys - zs) * (np.abs(ys) ** (nl.p - 1) + np.abs(zs) ** (nl.p - 1)) * mu_sum
        d2 = Fs[:-2] - 2 * Fs[1:-1] + Fs[2:]
    where = f"on [0, cap] at cap = {cap!r}, p = {nl.p!r}"
    if not all(np.isfinite(a).all() for a in (Fy, Fz, denom, d2)):
        raise ValidationError(f"a sampled F, difference bound or second difference is not "
                              f"finite {where}; take a smaller cap or p")
    ok = denom > 1e-300
    if not ok.any():
        raise ValidationError(f"every sampled difference bound underflows below 1e-300 "
                              f"{where}; take a larger cap or a smaller p")
    ratios = np.zeros_like(denom)
    ratios[ok] = np.abs(Fy - Fz)[ok] / denom[ok]
    worst = int(np.argmax(ratios))
    constant = float(ratios[worst])

    # (i) monotonicity on a mixed linear/log grid
    taus = _sorted_distinct(np.concatenate([
        np.linspace(0.0, cap, 800),
        np.geomspace(cap * 1e-12, cap, 400),
    ]))
    mu_vals = np.asarray(eval_mu(nl.mu, taus))
    drops = np.nonzero(np.diff(mu_vals) < -1e-12 * max(1.0, float(np.max(np.abs(mu_vals)))))[0]
    monotone = drops.size == 0
    monotone_witness = None if monotone else (float(taus[drops[0]]), float(taus[drops[0] + 1]))

    # sufficient condition 0 <= tau mu'(tau) <= mu(tau)
    inner = taus[(taus > cap * 1e-9) & (taus < cap * (1 - 1e-9))]
    h = np.minimum(inner * 1e-6, cap * 1e-7)
    dmu = (np.asarray(eval_mu(nl.mu, inner + h)) - np.asarray(eval_mu(nl.mu, inner - h))) / (2 * h)
    mu_inner = np.asarray(eval_mu(nl.mu, inner))
    scale = np.maximum(mu_inner, 1e-300)
    bad = (inner * dmu < -1e-6 * scale) | (inner * dmu > mu_inner + 1e-6 * scale)
    derivative_bound = not bool(np.any(bad))
    derivative_witness = None if derivative_bound else float(inner[np.nonzero(bad)[0][0]])

    # (iii) convexity of F via second differences on [0, cap]
    fscale = max(float(np.max(np.abs(Fs))), 1e-300)
    cbad = np.nonzero(d2 < -1e-9 * fscale)[0]
    convex = cbad.size == 0
    convex_witness = None if convex else float(ss[cbad[0] + 1])

    return LipschitzCertificate(
        constant=constant,
        worst_pair=(float(ys[worst]), float(zs[worst])),
        monotone=monotone,
        monotone_witness=monotone_witness,
        derivative_bound=derivative_bound,
        derivative_witness=derivative_witness,
        convex=convex,
        convex_witness=convex_witness,
        cap=float(cap),
        n_samples=int(ys.size),
        seed=seed,
    )


# ----------------------------------------------------------------------
# small-tau integral


@dataclass(frozen=True)
class IntegralVerdict:
    """Verdict on integral_0^{c0} mu(tau)/tau dtau.

    ``classification`` is exact for the constructive families ('convergent'
    / 'divergent') and 'unknown' for tables.  ``partial_integrals`` are the
    truncations at tau = c0 * 10^{-k}, whose growth feeds the label.  A
    convergent ``quadrature_value`` is the numerical head plus exact tail
    below c0·10^−levels, so it tests the quadrature of mu itself.
    """

    classification: str
    c0: float
    closed_form_value: float | None
    quadrature_value: float | None
    partial_integrals: tuple[float, ...]
    growth_label: str
    fitted_slope: float | None
    quadrature_tol: float


def iterated_log_antiderivative(depth: int, gamma: float, c0: float) -> float:
    """Exact value of the depth-k integral on (0, c0] for gamma > 1.

    u = -log tau maps the integral to one of d(log^[k] u) weighted by
    (log^[k] u)^{-gamma}, so the antiderivative telescopes to
    (log^[k](-log c0))^{1-gamma} / (gamma - 1).
    """
    if gamma <= 1:
        raise ValidationError("closed form exists only for gamma > 1")
    v = -math.log(c0)
    for _ in range(depth):
        v = math.log(v)
    return v ** (1.0 - gamma) / (gamma - 1.0)


def _antiderivative(mu: MuSpec, tau: float) -> float | None:
    """integral_0^tau mu(s)/s ds (tau <= tau*), or None where it diverges or is unknown."""
    if mu.family == "power":
        return tau**mu.epsilon / mu.epsilon
    if mu.family == "iterated_log" and mu.gamma > 1:
        return iterated_log_antiderivative(mu.depth, mu.gamma, tau)
    if mu.family == "constant" and mu.value == 0:
        return 0.0
    return None


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D float array without NaNs, which np.unique checks
    for a mask through numpy.ma, importing it."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


#: panels per decade the Gauss-Legendre rule is tried on, doubling
_PANELS = (1, 2, 4, 8, 16, 32, 64, 128)


#: the 16-node Gauss-Legendre rule on [-1, 1], (nodes, weights), written out bit
#: for bit as numpy.polynomial.legendre.leggauss(16) returns it: building it
#: costs ~1 ms and importing numpy.polynomial loads numpy.ma.  The decay
#: module's panels use it too.
GAUSS_LEGENDRE16 = (np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
]), np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
]))


def _decade_integrals(mu: MuSpec, u0: float, levels: int, tol: float) -> np.ndarray:
    """integral of mu(e^{-u}) du over [u0 + (k-1) ln 10, u0 + k ln 10], k = 1..levels.

    Each decade is cut into uniform 16-node Gauss-Legendre panels (the decay
    module's rule), with a table's knots added as panel edges so that no
    panel straddles a kink.  The panels per decade double from 1 until no
    decade sum moves by more than tol * max(1, |sum|); one eval_mu call
    covers every node of a pass.
    """
    gl_x, gl_w = GAUSS_LEGENDRE16
    edges = u0 + np.arange(levels + 1) * math.log(10)
    taus = np.asarray(mu.taus if mu.family == "custom_table" else [], dtype=float)
    knots = np.clip(-np.log(taus[taus > 0]), edges[0], edges[-1])
    prev = None
    for panels in _PANELS:
        cuts = edges[:-1, None] + np.diff(edges)[:, None] * (np.arange(panels) / panels)
        bounds = _sorted_distinct(np.concatenate([cuts.ravel(), edges[-1:], knots]))
        half = np.diff(bounds) / 2
        mid = bounds[:-1] + half
        values = eval_mu(mu, np.exp(-(mid[:, None] + half[:, None] * gl_x)))
        decade = np.searchsorted(edges, bounds[:-1], side="right") - 1
        sums = np.bincount(decade, weights=half * (values @ gl_w), minlength=levels)
        if prev is not None and np.all(np.abs(sums - prev) <= tol * np.maximum(1.0, np.abs(sums))):
            return sums
        prev = sums
    raise NumericalError(f"decade quadrature did not settle to tol {tol} with "
                         f"{_PANELS[-1]} panels per decade from u = {u0}")


def integral_condition(mu: MuSpec, c0: float, levels: int = 8,
                       tol: float = 1e-9) -> IntegralVerdict:
    """Classify and measure the small-tau integral up to c0 (0 < c0 <= tau*)."""
    if not (0 < c0 <= mu.tau_star):
        raise ValidationError(f"c0 must lie in (0, tau*]; got c0 = {c0}, tau* = {mu.tau_star}")
    if not tol >= 1e-15:
        raise ValidationError(
            f"tol must be >= 1e-15 (a decade sum cannot settle below rounding); got {tol}")
    u0 = -math.log(c0)
    max_levels = math.floor((-math.log(sys.float_info.min) - u0) / math.log(10))
    if not 2 <= levels <= max_levels:
        raise ValidationError(f"levels must be in [2, {max_levels}] at c0 = {c0}: the growth "
                              "label fits a line through the decade sums, and deeper decades "
                              "run tau = c0 * 10^-levels below the smallest normal double")
    # a constructive family has an antiderivative exactly when it converges
    closed = _antiderivative(mu, c0)
    classification = ("unknown" if mu.family == "custom_table"
                      else "divergent" if closed is None else "convergent")

    sums = _decade_integrals(mu, u0, levels, tol)
    partials = np.cumsum(sums)
    quadrature_value = None
    if closed is not None:
        quadrature_value = float(partials[-1]) + _antiderivative(mu, c0 * 10.0**-levels)

    # Growth label from the fitted local exponent of each decade sum per
    # unit of w, the family's own variable (w = log^[depth] u for
    # iterated_log, else u = -log tau): the sums behave like w^s dw, and
    # s <= -1 is the convergence line.  The sums are fitted themselves, not
    # differences of the partials, which lose a sum below their rounding.
    ws = u0 + np.arange(levels + 1) * math.log(10)
    for _ in range(mu.depth if mu.family == "iterated_log" else 0):
        ws = np.log(ws)
    fitted_slope = None
    if np.all(sums > 0):
        slope, _ = np.polyfit(np.log((ws[:-1] + ws[1:]) / 2), np.log(sums / np.diff(ws)), 1)
        fitted_slope = float(slope)
        if fitted_slope < -1.05:
            growth_label = "saturating"
        elif fitted_slope <= -0.95:
            growth_label = "marginal"
        else:
            growth_label = "growing"
    else:
        growth_label = "saturating" if np.all(sums <= tol * 100) else "irregular"

    return IntegralVerdict(
        classification=classification,
        c0=float(c0),
        closed_form_value=closed,
        quadrature_value=quadrature_value,
        partial_integrals=tuple(float(p) for p in partials),
        growth_label=growth_label,
        fitted_slope=fitted_slope,
        quadrature_tol=tol,
    )
