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
* ``custom_table``  linear interpolation of sampled (tau, mu) pairs on
  (0, tau*], frozen beyond (tau* defaults to the last sample).  Each piece
  alpha + beta tau contributes alpha log(b/a) + beta (b - a) to the
  integral, which converges iff mu(0+) = values[0] is 0.

The default extension point tau* is where every inner logarithm reaches 1:
tau* = exp(-exp^[k](1)) (= 1/e at depth 0).  Depths above 2 would push
tau* below the double-precision floor, so they are rejected, and so is an
extension point at which an inner logarithm is not positive.

Each family's formula is written once, in :func:`_mu_values`, and runs on
numpy arrays (:func:`eval_mu`, :func:`eval_F`, which the solver, the
residual and the decay layers call) or on one Python float (the integral
and the certificate).  numpy is imported only inside the array functions,
so ``mu-check`` runs without it.

The integral is measured in u = -log tau by one Gauss-Legendre rule per
decade of tau; a convergent value adds the exact antiderivative below the
last decade.

The certificate decides conditions (i), (iii) and the sufficient derivative
bound 0 <= tau mu' <= mu on (0, cap] from the closed forms of
a = tau mu'/mu and b = tau a' (for slowly varying mu, a -> 0 at 0), and
brackets the constant C of (iv); nothing is sampled.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Mapping

from .config import Key, read
from .errors import NumericalError, ValidationError

if TYPE_CHECKING:
    import numpy as np

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
            # a repeated tau would make mu two-valued there
            if self.taus[0] < 0 or any(b <= a for a, b in zip(self.taus, self.taus[1:])):
                raise ValidationError("custom_table taus must be increasing and >= 0")
            if any(v < 0 for v in self.values):
                raise ValidationError("custom_table mu values must be >= 0")
            if self.extension_point is None and self.taus[-1] == 0:
                raise ValidationError("custom_table taus end at 0, so the default "
                                      "extension_point tau* = taus[-1] is 0; add a tau > 0 "
                                      "or give an extension_point > 0")

    @cached_property
    def tau_star(self) -> float:
        """The extension point, computed once per spec (not a field: eq,
        hash and the JSON see only the declared keys)."""
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


# ----------------------------------------------------------------------
# evaluation: one formula per family, on arrays or on floats


def _interp(x: float, xp, fp) -> float:
    """np.interp at one float: linear between knots, the ends held beyond them."""
    if x > xp[-1]:
        return float(fp[-1])
    if x < xp[0]:
        return float(fp[0])
    j = bisect.bisect_right(xp, x) - 1
    if j == len(xp) - 1 or xp[j] == x:
        return float(fp[j])
    return (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[j]


#: the elementary functions :func:`_mu_values` takes from numpy, on one float
#: (a conditional takes a third of builtin min's time)
_FLOATS = SimpleNamespace(log=math.log, minimum=lambda a, b: b if b < a else a,
                          interp=_interp, full_like=lambda tau, value: float(value))


def _iterated_log_value(mu: MuSpec, v, log):
    """The depth-k formula at v = -log tau for 0 < tau <= tau*, where MuSpec
    keeps every inner log positive."""
    out = None  # the product of 1/log^[i], empty at depth 0
    for _ in range(mu.depth):
        out = 1.0 / v if out is None else out / v
        v = log(v)
    tail = v ** (-mu.gamma)
    return tail if out is None else out * tail


def _mu_values(mu: MuSpec, tau, xp):
    """mu at finite tau >= 0 (tau > 0 for the iterated_log family), with the
    elementary functions of ``xp``: numpy on arrays, :data:`_FLOATS` on a float."""
    if mu.family == "constant":
        return xp.full_like(tau, mu.value)
    if mu.family == "power":
        return xp.minimum(tau, mu.tau_star) ** mu.epsilon
    if mu.family == "custom_table":
        return xp.interp(xp.minimum(tau, mu.tau_star), mu.taus, mu.values)
    return _iterated_log_value(mu, -xp.log(xp.minimum(tau, mu.tau_star)), xp.log)


def _zero_limit(mu: MuSpec) -> float:
    """iterated_log's mu at tau = 0: every inner factor vanishes in the limit
    except the depth-0, gamma <= 0 cases."""
    if mu.depth == 0 and mu.gamma == 0:
        return 1.0
    if mu.depth == 0 and mu.gamma < 0:
        return math.inf
    return 0.0


def _float_mu(mu: MuSpec, tau: float) -> float:
    """mu at one finite float tau >= 0: :func:`eval_mu` up to rounding."""
    if tau == 0 and mu.family == "iterated_log":
        return _zero_limit(mu)
    return _mu_values(mu, tau, _FLOATS)


def _mu_of_u(mu: MuSpec) -> Callable[[float], float]:
    """u -> mu(e^{-u}) on floats for u >= -log tau*, where the quadrature's
    nodes lie (c0 <= tau*).  The constructive families take u as it is,
    with no exp/log round trip; a table looks its tau up."""
    if mu.family == "constant":
        value = float(mu.value)
        return lambda u: value
    if mu.family == "power":
        epsilon = mu.epsilon
        return lambda u: math.exp(-epsilon * u)
    if mu.family == "iterated_log":
        return lambda u: _iterated_log_value(mu, u, math.log)
    return lambda u: _mu_values(mu, math.exp(-u), _FLOATS)


def eval_mu(mu: MuSpec, tau) -> np.ndarray | float:
    """mu(tau) for tau >= 0 (scalar or array); constant beyond tau*."""
    import numpy as np

    arr = np.asarray(tau, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0) or not np.isfinite(arr).all():
        raise ValidationError("tau must be finite and >= 0")
    if mu.family != "iterated_log":
        out = _mu_values(mu, arr, np)
    else:
        out = np.empty_like(arr)
        pos = arr > 0
        if np.any(pos):
            out[pos] = _mu_values(mu, arr[pos], np)
        if np.any(~pos):
            out[~pos] = _zero_limit(mu)
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

    Every entry is computed; the arithmetic is elementwise, so a zero or a
    NaN entry leaves the others' bits alone.  Where the magnitude is 0 the
    result is then pinned to 0, and a NaN entry (a field that has already
    overflowed) gives F = NaN, so the solver's blow-up check still sees it.
    An infinite entry is invalid input.
    """
    import numpy as np

    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    mag = np.abs(np.atleast_1d(arr))
    if np.isinf(mag).any():
        raise ValidationError("tau must be finite and >= 0")
    if mag.size and mag.min() > 0:  # min is NaN if any entry is
        out = mag ** nl.p * _mu_values(nl.mu, mag, np)
    else:
        nan = np.isnan(mag)
        # mu(0) may be 0, inf or NaN, and 0^p times it what it likes
        with np.errstate(divide="ignore", invalid="ignore"):
            out = mag ** nl.p * _mu_values(nl.mu, mag, np)
        out[mag == 0] = 0.0
        out[nan] = np.nan
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# condition certificate


@dataclass(frozen=True)
class LipschitzCertificate:
    """Conditions (i)-(iv) decided on (0, cap] from the closed forms of
    a = tau mu'/mu and b = tau a' (mu frozen past tau*); nothing is sampled.

    ``monotone`` is (i), a >= 0; ``derivative_bound`` is the sufficient
    condition 0 <= a <= 1; ``convex`` is (iii), tau^{2-p} F''/mu =
    (p + a)(p - 1 + a) + b >= 0 with no drop of F' at tau* or at a knot.
    Each ``*_up_to`` is the largest eps <= cap such that its condition holds
    on (0, eps] (0.0 when it fails arbitrarily near 0), and its flag says
    whether eps = cap.  Both convexity fields are None for ``iterated_log``
    of depth >= 1 with gamma < 0, whose bracket can change sign twice.

    ``constant`` = p + sup a is a C for which (iv) holds, by the mean value
    theorem, when mu is non-decreasing on (0, 2 cap], where mu(|y| + |z|) is
    read; it is None when mu is not, or when sup a is infinite.  For
    ``iterated_log`` with gamma < 0, a at gamma = 0 stands in for sup a.
    ``constant_lower`` is the larger of the ratios of (iv) at (cap, 0) and
    in the limit (cap, cap^-), so no valid C is smaller.
    """

    constant: float | None
    constant_lower: float
    monotone: bool
    monotone_up_to: float
    derivative_bound: bool
    derivative_bound_up_to: float
    convex: bool | None
    convex_up_to: float | None
    cap: float


#: u = -log tau past which tau = e^{-u} is below the smallest subnormal
_U_MAX = -math.log(math.ulp(0.0))


def _slopes(mu: MuSpec, u: float, gamma: float | None = None) -> tuple[float, float]:
    """(a, b) at u = -log tau for 0 < tau < tau*, every family but a table,
    with ``gamma`` in place of the spec's when given.

    For ``iterated_log`` of depth k, with L_0 = u, L_i = log L_{i-1},
    P_i = L_0...L_i and S_i = sum_{j<=i} 1/P_j: a = sum_{i<k} 1/P_i +
    gamma/P_k and b = sum_{i<k} S_i/P_i + gamma S_k/P_k, since
    tau d(log L_i)/d tau = -1/P_i.
    """
    if mu.family == "constant":
        return 0.0, 0.0
    if mu.family == "power":
        return mu.epsilon, 0.0
    gamma = mu.gamma if gamma is None else gamma
    a = b = s = 0.0
    level, prod = u, 1.0
    for i in range(mu.depth + 1):
        if i:
            level = math.log(level)
        prod *= level
        s += 1.0 / prod
        weight = gamma if i == mu.depth else 1.0
        a += weight / prod
        b += weight * s / prod
    return a, b


def _held_up_to(holds: Callable[[float], bool], u_star: float) -> float:
    """The largest tau <= tau* below which holds(-log tau) is true, for a
    predicate that is false and then true as u grows: inf when it holds at
    tau*, else bisected in u (0.0 when it fails down to the subnormals)."""
    if holds(u_star):
        return math.inf
    lo, hi = u_star, _U_MAX
    if not holds(hi):
        return 0.0
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return math.exp(-hi)


def _family_conditions(mu: MuSpec, p: float, cap: float):
    """Where (i), the derivative bound and (iii) first fail (inf: nowhere),
    sup a on (0, cap] and tau mu'(cap^-), for every family but a table."""
    u_star = -math.log(mu.tau_star)

    def a_of(u):
        return _slopes(mu, u)[0]

    def bracket(u):
        a, b = _slopes(mu, u)
        return (p + a) * (p - 1 + a) + b

    # every 1/P_i falls as u grows, so for gamma >= 0 a falls and every term
    # of the bracket is >= 0; for gamma < 0 at depth >= 1, a < 1 and
    # a P_k = sum_{i<k} P_k/P_i + gamma rises.  Each predicate is false, then true.
    monotone = _held_up_to(lambda u: a_of(u) >= 0, u_star)
    derivative = _held_up_to(lambda u: 0 <= a_of(u) <= 1, u_star)
    if mu.family != "iterated_log" or mu.gamma >= 0:
        convex = _held_up_to(lambda u: bracket(u) >= 0, u_star)
    elif mu.depth == 0:
        # in x = 1/u the bracket is c0 + c1 x + c2 x^2 with c0 >= 0 > c1: it
        # turns negative past its smallest positive root, if it has one
        c0, c1, c2 = p * (p - 1), mu.gamma * (2 * p - 1), mu.gamma * (mu.gamma + 1)
        disc = c1 * c1 - 4 * c0 * c2
        u = (math.inf if c0 == 0 else (math.sqrt(disc) - c1) / (2 * c0) if disc > 0
             else -math.inf)
        convex = math.exp(-u) if u > u_star else math.inf
    else:
        convex = None
    # F' = tau^{p-1} mu (p + a) drops by tau*^{p-1} mu a(tau*^-) where mu freezes
    if convex == math.inf and a_of(u_star) > 0:
        convex = mu.tau_star
    # a rises with tau; for gamma < 0, a at gamma = 0 bounds it and rises
    sup_a = _slopes(mu, -math.log(min(cap, mu.tau_star)), max(mu.gamma, 0.0))[0]
    a_cap = a_of(-math.log(cap)) if cap <= mu.tau_star else 0.0
    return monotone, derivative, convex, sup_a, a_cap * _float_mu(mu, cap)


def _table_pieces(mu: MuSpec) -> list[tuple[float, float, float, float]]:
    """(lo, hi, alpha, beta) with mu = alpha + beta tau on [lo, hi], in order
    over [0, inf]: the knots below tau* and tau* end them."""
    ends = [0.0, *(t for t in mu.taus if 0 < t < mu.tau_star), mu.tau_star]
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        m_lo, m_hi = _float_mu(mu, lo), _float_mu(mu, hi)
        pieces.append((lo, hi, (m_lo * hi - m_hi * lo) / (hi - lo), (m_hi - m_lo) / (hi - lo)))
    return pieces + [(mu.tau_star, math.inf, _float_mu(mu, mu.tau_star), 0.0)]


def _table_conditions(mu: MuSpec, p: float, cap: float):
    """:func:`_family_conditions` for a table, decided at the ends of each
    piece: there a = 1 - alpha/mu is monotone and tau^{2-p} F''/p =
    (p - 1) alpha + (p + 1) beta tau is linear."""
    monotone = derivative = convex = math.inf
    sup_a = tau_dmu = 0.0
    beta_left = None
    for lo, hi, alpha, beta in _table_pieces(mu):
        if beta < 0:
            monotone = min(monotone, lo)
        if beta < 0 or alpha < 0:
            derivative = min(derivative, lo)
        # at a knot F' jumps by lo^p (beta - beta_left)
        if (beta_left is not None and beta < beta_left
                or (p - 1) * alpha + (p + 1) * beta * lo < 0):
            convex = min(convex, lo)
        elif beta < 0 and (p - 1) * alpha + (p + 1) * beta * hi < 0:
            convex = min(convex, max(lo, (p - 1) * alpha / (-(p + 1) * beta)))
        beta_left = beta
        if lo < cap:
            tau_dmu = beta * cap  # the last piece that starts below cap holds cap^-
            for rise, m in ((beta * t, alpha + beta * t) for t in (lo, min(hi, cap))):
                if rise:
                    sup_a = max(sup_a, rise / m if m > 0 else math.inf)
    return monotone, derivative, convex, sup_a, tau_dmu


def lipschitz_certificate(nl: NonlinearitySpec, cap: float | None = None) -> LipschitzCertificate:
    """Decide the conditions on (0, cap]: by default cap = tau*, or 1 for a
    constant mu.

    A mu(cap) that overflows a double, or a mu(2 cap) that is 0 or
    overflows, leaves (iv) no finite ratio near (cap, cap): ValidationError.
    """
    if cap is None:
        cap = nl.mu.tau_star if math.isfinite(nl.mu.tau_star) else 1.0
    if not (cap > 0):
        raise ValidationError("cap must be > 0")
    mu, p = nl.mu, nl.p
    try:
        mu_cap, mu_2cap = _float_mu(mu, cap), _float_mu(mu, 2 * cap)
    except OverflowError:
        mu_cap = mu_2cap = math.inf
    if not (mu_cap < math.inf and 0 < mu_2cap < math.inf):
        raise ValidationError(
            f"mu(cap) = {mu_cap!r} and mu(2 cap) = {mu_2cap!r} at cap = {cap!r}: the difference "
            "bound (iv) divides by mu(|y| + |z|), which must be positive and finite up to "
            "mu(2 cap); take another cap")
    conditions = _table_conditions if mu.family == "custom_table" else _family_conditions
    monotone, derivative, convex, sup_a, tau_dmu = conditions(mu, p, cap)
    return LipschitzCertificate(
        constant=p + sup_a if monotone >= 2 * cap and sup_a < math.inf else None,
        constant_lower=max((0.5 if p == 1 else 1.0) if mu_cap > 0 else 0.0,
                           abs(p * mu_cap + tau_dmu) / (2 * mu_2cap)),
        monotone=monotone >= cap,
        monotone_up_to=min(monotone, cap),
        derivative_bound=derivative >= cap,
        derivative_bound_up_to=min(derivative, cap),
        convex=None if convex is None else convex >= cap,
        convex_up_to=None if convex is None else min(convex, cap),
        cap=float(cap),
    )


# ----------------------------------------------------------------------
# small-tau integral


@dataclass(frozen=True)
class IntegralVerdict:
    """Verdict on integral_0^{c0} mu(tau)/tau dtau.

    ``classification`` ('convergent' / 'divergent') is exact for every
    family.  ``partial_integrals`` are the truncations at
    tau = c0 * 10^{-k}, whose growth feeds the label; from the first decade
    whose sum leaves the double range on they are inf, the growth line runs
    through the finite decade sums, and with fewer than two of them
    ``fitted_slope`` is None and the label 'growing'.  A convergent
    ``quadrature_value`` is the numerical head plus exact tail below
    c0·10^−levels, so it tests the quadrature of mu itself.
    ``quadrature_error`` is the largest change of a decade sum when the
    panels last doubled, to ``panels_per_decade``, the pass that settled.
    """

    classification: str
    c0: float
    closed_form_value: float | None
    quadrature_value: float | None
    partial_integrals: tuple[float, ...]
    growth_label: str
    fitted_slope: float | None
    quadrature_tol: float
    quadrature_error: float
    panels_per_decade: int


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
    """integral_0^tau mu(s)/s ds (tau <= tau*), or None where it diverges."""
    if mu.family == "power":
        return tau**mu.epsilon / mu.epsilon
    if mu.family == "iterated_log" and mu.gamma > 1:
        return iterated_log_antiderivative(mu.depth, mu.gamma, tau)
    if mu.family == "constant" and mu.value == 0:
        return 0.0
    if mu.family == "custom_table" and mu.values[0] == 0:
        # a piece alpha + beta s on [lo, hi] adds alpha log(hi/lo) + beta (hi - lo);
        # the first starts at 0, where alpha = mu(0) = 0
        return sum((alpha * math.log(min(hi, tau) / lo) if lo > 0 else 0.0)
                   + beta * (min(hi, tau) - lo)
                   for lo, hi, alpha, beta in _table_pieces(mu) if lo < tau)
    return None


#: panels per decade the Gauss-Legendre rule is tried on, doubling
_PANELS = (1, 2, 4, 8, 16, 32, 64, 128)


#: the 16-node Gauss-Legendre rule on [-1, 1], (nodes, weights), written out bit
#: for bit as numpy.polynomial.legendre.leggauss(16) returns it: building it
#: costs ~1 ms and importing numpy.polynomial loads numpy.ma.  Both the mu
#: integral and the decay curves put it on :func:`log_panels`.
GAUSS_LEGENDRE16 = ((
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
), (
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
))


def log_panels(edges: list[float], density: int, extra=()) -> list[tuple[float, float, int]]:
    """(mid, half, decade) of each panel: every decade [edges[k], edges[k+1]] of
    a log variable cut into ``density`` equal panels, and at the ``extra`` edges."""
    cuts = [a + (b - a) * (j / density) for a, b in zip(edges, edges[1:]) for j in range(density)]
    bounds = sorted(set(cuts + edges[-1:] + list(extra)))
    return [(a + (b - a) / 2, (b - a) / 2, bisect.bisect_right(edges, a) - 1)
            for a, b in zip(bounds, bounds[1:])]


def settle(evaluate: Callable[[int], tuple], ladder: tuple[int, ...], tol: float,
           floor: float, what: str) -> tuple:
    """``evaluate(density) -> (values, nodes)`` up the ``ladder`` until every value v
    moves by at most tol * max(|v|, floor) from the density before, an inf skipped:
    the values and (density, nodes, largest move, largest move / max(|v|, floor))."""
    runs = ((density, *evaluate(density)) for density in ladder)
    for (_, prev, _), (density, values, nodes) in itertools.pairwise(runs):
        moves = [(abs(v - q), max(abs(v), floor))
                 for v, q in zip(values, prev) if abs(v) != math.inf]
        if all(m <= tol * scale for m, scale in moves):
            return values, (density, nodes, float(max((m for m, _ in moves), default=0.0)),
                            float(max((m / scale for m, scale in moves), default=0.0)))
    raise NumericalError(f"{what} did not settle to tol {tol} by {ladder[-1]} panels per decade")


def _decade_integrals(mu: MuSpec, edges: list[float], tol: float) -> tuple[list, tuple]:
    """integral of mu(e^{-u}) du over each decade [edges[k], edges[k+1]] of u.

    :func:`log_panels` cuts each into 16-node Gauss-Legendre panels, with a
    table's knots as extra edges so that no panel straddles a kink, and
    :func:`settle` doubles them from 1 per decade until every finite decade
    sum settles to tol * max(1, |sum|) (a sum past the double range is inf).
    """
    mu_u = _mu_of_u(mu)
    gl_x, gl_w = GAUSS_LEGENDRE16
    knots = [min(max(-math.log(t), edges[0]), edges[-1])
             for t in (mu.taus if mu.family == "custom_table" else ()) if t > 0]

    def sums(density):
        out, panels = [0.0] * (len(edges) - 1), log_panels(edges, density, knots)
        for mid, half, decade in panels:
            try:
                dot = sum(map(operator.mul, map(mu_u, [mid + half * x for x in gl_x]), gl_w))
            except OverflowError:  # mu itself leaves the double range
                dot = math.inf
            out[decade] += half * dot
        return out, len(gl_x) * len(panels)

    return settle(sums, _PANELS, tol, 1.0, f"decade quadrature from u = {edges[0]}")


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of the line through the points (xs, ys)."""
    xm = sum(xs) / len(xs)
    ym = sum(ys) / len(ys)
    return (sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
            / sum((x - xm) ** 2 for x in xs))


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
    # Growth label from the fitted local exponent of each decade sum per
    # unit of w, the family's own variable (w = log^[depth] u for
    # iterated_log, else u = -log tau): the sums behave like w^s dw, and
    # s <= -1 is the convergence line.  The sums are fitted themselves, not
    # differences of the partials, which lose a sum below their rounding.
    edges = ws = [u0 + k * math.log(10) for k in range(levels + 1)]
    for _ in range(mu.depth if mu.family == "iterated_log" else 0):
        ws = [math.log(w) for w in ws]
    mids = [(a + b) / 2 for a, b in zip(ws, ws[1:])]
    if not mids[0] > 0:
        raise ValidationError(f"c0 = {c0} is too large: the growth label fits log w, and "
                              f"w = -log tau is {mids[0]!r} <= 0 in the middle of the first "
                              "decade; take c0 < 10^0.5")

    # a family has an antiderivative exactly when it converges
    try:
        closed = _antiderivative(mu, c0)
        sums, (panels, _, quadrature_error, _) = _decade_integrals(mu, edges, tol)
        tail = None if closed is None else _antiderivative(mu, c0 * 10.0**-levels)
    except OverflowError:
        raise NumericalError(f"the integral of mu(tau)/tau below c0 = {c0} overflows a "
                             "double") from None
    classification = "divergent" if closed is None else "convergent"
    partials = list(itertools.accumulate(sums))
    quadrature_value = None if closed is None else partials[-1] + tail

    fitted_slope = None
    densities = [s / (b - a) for s, a, b in zip(sums, ws, ws[1:])]
    if all(d > 0 for d in densities):
        # the line runs through the finite sums; sums past the double range grow
        points = [(m, d) for m, d in zip(mids, densities) if d < math.inf]
        if len(points) >= 2:
            fitted_slope = _slope([math.log(m) for m, _ in points],
                                  [math.log(d) for _, d in points])
        if fitted_slope is None or fitted_slope > -0.95:
            growth_label = "growing"
        elif fitted_slope < -1.05:
            growth_label = "saturating"
        else:
            growth_label = "marginal"
    else:
        growth_label = "saturating" if all(s <= tol * 100 for s in sums) else "irregular"

    return IntegralVerdict(
        classification=classification,
        c0=float(c0),
        closed_form_value=closed,
        quadrature_value=quadrature_value,
        partial_integrals=tuple(partials),
        growth_label=growth_label,
        fitted_slope=fitted_slope,
        quadrature_tol=tol,
        quadrature_error=quadrature_error,
        panels_per_decade=panels,
    )
