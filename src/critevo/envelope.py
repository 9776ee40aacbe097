"""Critical exponent of an evolution operator via an exact scaling envelope.

For an operator with active levels J (levels with a nonzero symbol plus the
monic top order) and minimal spatial orders r_j, the nonlinearity order
threshold is computed from the concave lower envelope

    g(eta) = min_{j in J} ((j - ell) eta + r_j),    eta in [0, inf),

through

    h(eta) = 1 + g(eta) / max(n + eta - g(eta), 0),   1/0 := inf,
    p_c    = max_{eta in [0, inf]} h(eta).

Everything is exact: slopes and intercepts are rationals, the envelope is
assembled with the standard decreasing-slope hull sweep, and h is a Moebius
function of eta on each envelope segment, so its derivative keeps one sign
per segment (the sign of a*n - b for the segment line a*eta + b).  The
maximum is therefore attained at eta = 0, at a breakpoint, or in the limit
eta -> inf, and those candidates are evaluated in rational arithmetic.

Conventions at the boundary of the formula's domain:

* denominator <= 0 at finite eta forces g(eta) >= n + eta > 0, so h = inf;
* as eta -> inf along a final segment of slope a: h -> 1 + a/(1-a) for
  a < 1 (which is 1 when a = 0) and h -> inf for a >= 1;
* negative g is evaluated literally (h < 1 is allowed pointwise); a
  maximum p_c <= 1 is reported with the ``degenerate`` flag set because it
  carries no blow-up information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .config import as_fraction
from .errors import ValidationError
from .operators import EvolutionOperator

INF = math.inf


@dataclass(frozen=True)
class AffinePiece:
    """One line slope*eta + intercept with the levels that produce it."""

    slope: Fraction
    intercept: Fraction
    levels: tuple[int, ...] = ()

    def value(self, eta: Fraction) -> Fraction:
        return self.slope * eta + self.intercept


@dataclass(frozen=True)
class PiecewiseAffine:
    """Concave lower envelope: pieces with strictly decreasing slopes.

    ``breakpoints`` has one entry per adjacent piece pair; piece k is
    active on [breakpoints[k-1], breakpoints[k]] (first piece from 0,
    last piece unbounded).  ``lines`` keeps the full defining family so
    that level attribution at a point never depends on the sweep.
    """

    pieces: tuple[AffinePiece, ...]
    breakpoints: tuple[Fraction, ...]
    lines: tuple[AffinePiece, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.pieces) - 1:
            raise ValidationError("need exactly one breakpoint between adjacent pieces")
        for k in range(len(self.pieces) - 1):
            if self.pieces[k].slope <= self.pieces[k + 1].slope:
                raise ValidationError("envelope slopes must strictly decrease")
            b = self.breakpoints[k]
            if self.pieces[k].value(b) != self.pieces[k + 1].value(b):
                raise ValidationError("envelope must be continuous at breakpoints")
        if any(b < 0 for b in self.breakpoints):
            raise ValidationError("breakpoints must lie in [0, inf)")
        if sorted(self.breakpoints) != list(self.breakpoints):
            raise ValidationError("breakpoints must be sorted")

    def piece_at(self, eta: Fraction) -> AffinePiece:
        for k, b in enumerate(self.breakpoints):
            if eta <= b:
                return self.pieces[k]
        return self.pieces[-1]

    def value(self, eta) -> Fraction:
        eta = as_fraction(eta)
        if eta < 0:
            raise ValidationError("eta must be >= 0")
        return self.piece_at(eta).value(eta)

    def levels_at(self, eta) -> tuple[int, ...]:
        """All source levels whose line touches the envelope at eta."""
        eta = as_fraction(eta)
        g = self.value(eta)
        out: set[int] = set()
        for line in self.lines:
            if line.value(eta) == g:
                out.update(line.levels)
        return tuple(sorted(out))

    def to_json(self) -> dict:
        return {"pieces": self.pieces, "breakpoints": self.breakpoints}


def lower_envelope(lines: list[AffinePiece]) -> PiecewiseAffine:
    """Exact lower envelope of finitely many lines on [0, inf)."""
    if not lines:
        raise ValidationError("need at least one line")
    # Merge identical lines, then keep the lowest intercept per slope: a
    # parallel line with a larger intercept is nowhere active.
    by_line: dict[tuple[Fraction, Fraction], set[int]] = {}
    for ln in lines:
        by_line.setdefault((ln.slope, ln.intercept), set()).update(ln.levels)
    merged = [AffinePiece(s, b, tuple(sorted(lv))) for (s, b), lv in by_line.items()]
    best_per_slope: dict[Fraction, AffinePiece] = {}
    for ln in merged:
        cur = best_per_slope.get(ln.slope)
        if cur is None or ln.intercept < cur.intercept:
            best_per_slope[ln.slope] = ln
    cands = sorted(best_per_slope.values(), key=lambda p: p.slope, reverse=True)

    # Decreasing-slope sweep: hull[k] is active from start[k] on.  A new
    # (flatter) line undercuts the hull tail whenever its crossing with the
    # tail line lands at or before that line's activation point.  Every
    # crossing is finite and hull[0] starts at -inf, so hull never empties.
    hull: list[AffinePiece] = [cands[0]]
    start: list = [-INF]
    for ln in cands[1:]:
        while True:
            top = hull[-1]
            cross = (ln.intercept - top.intercept) / (top.slope - ln.slope)
            if cross > start[-1]:
                break
            hull.pop()
            start.pop()
        hull.append(ln)
        start.append(cross)

    # Clip to [0, inf).
    first = 0
    for k in range(len(hull)):
        if start[k] <= 0:
            first = k
    pieces = tuple(hull[first:])
    breakpoints = tuple(Fraction(s) for s in start[first + 1 :])
    return PiecewiseAffine(pieces=pieces, breakpoints=breakpoints, lines=tuple(merged))


def build_envelope(op: EvolutionOperator, ell: int) -> PiecewiseAffine:
    """Envelope g for the operator and nonlinearity derivative order ell."""
    if not (isinstance(ell, int) and 0 <= ell < op.m):
        raise ValidationError(f"ell must be an integer in [0, {op.m - 1}]")
    lines = [
        AffinePiece(Fraction(j - ell), op.minimal_order(j), (j,))
        for j in op.order_set()
    ]
    return lower_envelope(lines)


def limit_at_infinity(env: PiecewiseAffine):
    """lim_{eta->inf} h(eta), from the final segment's slope a.

    a >= 1 makes the numerator outrun (or the clamped denominator kill)
    the ratio, giving inf; a < 1 gives the finite Moebius limit.
    """
    a = env.pieces[-1].slope
    if a >= 1:
        return INF
    return 1 + a / (1 - a)


def evaluate_h(env: PiecewiseAffine, n: int, eta):
    """h(eta) = 1 + g/(n + eta - g)_+ exactly; eta may be math.inf."""
    if not (isinstance(n, int) and n >= 1):
        raise ValidationError("space dimension n must be an integer >= 1")
    if eta == INF:
        return limit_at_infinity(env)
    eta = as_fraction(eta)
    if eta < 0:
        raise ValidationError("eta must be >= 0")
    g = env.value(eta)
    denom = n + eta - g
    if denom <= 0:
        # g >= n + eta > 0 here, so the clamped denominator means +inf.
        return INF
    return 1 + g / denom


@dataclass(frozen=True)
class CriticalExponentReport:
    """Result of maximizing h over [0, inf].

    ``p_c`` and ``eta_star`` are Fractions, or math.inf; ``eta_star`` is
    the smallest maximizer.  ``active_levels`` lists the operator levels
    whose scaling line touches the envelope at eta_star.  ``degenerate``
    marks p_c <= 1, where the threshold carries no information.
    """

    p_c: Fraction | float
    eta_star: Fraction | float
    active_levels: tuple[int, ...]
    n: int
    ell: int | None = None
    regime: str | None = None
    n_validity: tuple[str, ...] = ()
    degenerate: bool = False
    notes: tuple[str, ...] = ()
    envelope: PiecewiseAffine | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        doc = {
            "p_c": self.p_c,
            "p_c_float": float(self.p_c),
            "eta_star": self.eta_star,
            "eta_star_float": float(self.eta_star),
            "active_levels": self.active_levels,
            "n": self.n,
            "ell": self.ell,
            "regime": self.regime,
            "n_validity": self.n_validity,
            "degenerate": self.degenerate,
            "notes": self.notes,
        }
        if self.envelope is not None:
            doc["envelope"] = self.envelope
        return doc


def maximize(env: PiecewiseAffine, n: int, ell: int | None = None) -> CriticalExponentReport:
    """Maximize h over [0, inf] exactly.

    On each segment h is Moebius with single-signed derivative, so the
    candidate set {0, breakpoints, limit at inf} is exhaustive.  An affine
    denominator D = n + eta - g is minimized at segment ends as well, so a
    non-positive D (h = inf) cannot hide strictly inside a segment.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValidationError("space dimension n must be an integer >= 1")
    candidates: list = [Fraction(0)]
    candidates.extend(env.breakpoints)
    values = [evaluate_h(env, n, eta) for eta in candidates]
    lim = limit_at_infinity(env)
    candidates.append(INF)
    values.append(lim)

    best = max(values)
    eta_star = None
    for eta, val in zip(candidates, values):
        if val == best:
            eta_star = eta
            break

    notes: list[str] = []
    if best == INF:
        active = env.levels_at(eta_star) if eta_star != INF else env.pieces[-1].levels
        g_at = env.value(eta_star) if eta_star != INF else None
        validity = []
        if eta_star != INF:
            validity.append(
                f"denominator n + eta - g(eta) = {n + eta_star - g_at} <= 0 at "
                f"eta = {eta_star}; any n <= {g_at - eta_star} gives p_c = inf"
            )
        else:
            validity.append(
                f"final envelope slope {env.pieces[-1].slope} >= 1 drives h to inf"
            )
        return CriticalExponentReport(
            p_c=INF, eta_star=eta_star, active_levels=tuple(active), n=n, ell=ell,
            n_validity=tuple(validity), degenerate=False, notes=tuple(notes),
            envelope=env,
        )

    if eta_star == INF:
        active = env.pieces[-1].levels
        validity = ["supremum approached only as eta -> inf (no finite maximizer)"]
        notes.append("maximum attained in the limit eta -> inf")
    else:
        active = env.levels_at(eta_star)
        g_at = env.value(eta_star)
        validity = [
            f"needs n > g(eta_star) - eta_star = {g_at - eta_star}; "
            f"n = {n} gives denominator {n + eta_star - g_at} > 0"
        ]
    degenerate = best <= 1
    if degenerate:
        notes.append(
            "p_c <= 1: threshold degenerate, carries no blow-up information"
        )
    return CriticalExponentReport(
        p_c=best, eta_star=eta_star, active_levels=tuple(active), n=n, ell=ell,
        n_validity=tuple(validity), degenerate=degenerate, notes=tuple(notes),
        envelope=env,
    )


def regime_classify(op: EvolutionOperator) -> str:
    """Damping regime for second-order operators d_t^2 + c (-Lap)^delta d_t + c' (-Lap)^sigma.

    Returns 'classical' (delta = 0), 'effective' (0 < 2 delta < sigma), or
    'non-effective' (sigma <= 2 delta < 2 sigma); anything not matching the
    template with positive coefficients and 0 <= delta < sigma is
    'unclassified'.
    """
    if op.m != 2 or set(op.levels) != {0, 1}:
        return "unclassified"
    parts = []
    for j in (0, 1):
        decomp = op.laplacian_decomposition(j)
        if decomp is None or len(decomp) != 1:
            return "unclassified"
        (power, coeff), = decomp.items()
        if coeff <= 0:
            return "unclassified"
        parts.append(power)
    sigma, delta = parts
    if not (0 <= delta < sigma):
        return "unclassified"
    if delta == 0:
        return "classical"
    if 2 * delta < sigma:
        return "effective"
    return "non-effective"


def critical_exponent(op: EvolutionOperator, ell: int, n: int) -> CriticalExponentReport:
    """Envelope construction plus maximization, with the regime label attached."""
    report = maximize(build_envelope(op, ell), n, ell=ell)
    return replace(report, regime=regime_classify(op))


def envelope_samples(env: PiecewiseAffine, n: int, etas) -> list[tuple[Fraction, Fraction, object]]:
    """(eta, g(eta), h(eta)) rows for tabulated output."""
    rows = []
    for eta in etas:
        eta = as_fraction(eta)
        rows.append((eta, env.value(eta), evaluate_h(env, n, eta)))
    return rows
