"""Constant-coefficient evolution operators and their Fourier symbols.

An operator here is

    d_t^m u + sum_{j=0}^{m-1} P_j(d_x) d_t^j u,

with the top order monic (P_m = 1, never stored).  Each lower level j
carries a list of spatial terms, either plain derivative monomials
``c * d_x^alpha`` or fractional Laplacian powers ``c * (-Lap)^p``.  The
module owns parsing/serialization of the operator JSON document, exact
bookkeeping of the spatial orders that drive the critical-exponent
computation, and evaluation of the Fourier multipliers

    P_j(i xi) = sum_alpha c_{j,alpha} (i xi)^alpha + sum c |xi|^{2p},

from which per-frequency companion matrices are assembled for the solver
and the decay verifier.

Exact quantities (term orders, fractional powers) are kept as
``fractions.Fraction``; coefficients are floats.  numpy is imported only by
the functions that build arrays, so the exact layer runs without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .config import Key, as_fraction, check, format_fraction, loads, read
from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np

OPERATOR_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SpatialTerm:
    """One additive term of a level symbol P_j(d_x).

    kind 'monomial' uses ``alpha`` (length-n tuple of non-negative ints)
    and contributes ``coeff * (i xi)^alpha``; kind 'fractional_laplacian'
    uses ``power`` (non-negative rational) and contributes
    ``coeff * |xi|^(2 power)``, i.e. the multiplier of ``coeff * (-Lap)^power``.
    """

    kind: str
    coeff: float
    alpha: tuple[int, ...] | None = None
    power: Fraction | None = None

    def __post_init__(self):
        if self.kind not in _TERMS:
            raise ValidationError(f"unknown term kind {self.kind!r}")
        if not math.isfinite(self.coeff):
            raise ValidationError("term coefficient must be finite")
        if self.kind == "monomial":
            if self.alpha is None or self.power is not None:
                raise ValidationError("monomial term needs alpha and no power")
            if any((not isinstance(a, int)) or a < 0 for a in self.alpha):
                raise ValidationError("alpha entries must be non-negative ints")
        else:
            if self.power is None or self.alpha is not None:
                raise ValidationError("fractional term needs power and no alpha")
            if self.power < 0:
                raise ValidationError("fractional Laplacian power must be >= 0")

    @property
    def order(self) -> Fraction:
        """Spatial differentiation order: |alpha|, or 2*power."""
        if self.kind == "monomial":
            return Fraction(sum(self.alpha))
        return 2 * self.power

    def sort_key(self):
        if self.kind == "monomial":
            return (0, tuple(self.alpha), Fraction(0))
        return (1, (), self.power)

    def to_json(self) -> dict:
        if self.kind == "monomial":
            return {"kind": "monomial", "alpha": list(self.alpha), "coeff": self.coeff}
        return {
            "kind": "fractional_laplacian",
            "power": format_fraction(self.power),
            "coeff": self.coeff,
        }


_TERMS = {
    "monomial": {"kind": Key("str"), "alpha": Key("int[]"), "coeff": Key("number")},
    "fractional_laplacian": {"kind": Key("str"), "power": Key("rational"),
                             "coeff": Key("number")},
}


def _parse_term(doc: Mapping) -> SpatialTerm:
    kind = doc.get("kind") if isinstance(doc, Mapping) else None
    if kind not in _TERMS:
        raise ValidationError(f"term must be an object with a kind in {list(_TERMS)}")
    return SpatialTerm(**read(doc, _TERMS[kind], "term"))


def _merge_terms(terms: Iterable[SpatialTerm]) -> tuple[SpatialTerm, ...]:
    # Duplicate monomials / equal fractional powers collapse; exact zeros drop.
    acc: dict = {}
    for t in terms:
        key = ("m", t.alpha) if t.kind == "monomial" else ("f", t.power)
        if key in acc:
            old = acc[key]
            acc[key] = SpatialTerm(kind=t.kind, coeff=old.coeff + t.coeff,
                                   alpha=t.alpha, power=t.power)
        else:
            acc[key] = t
    kept = [t for t in acc.values() if t.coeff != 0.0]
    return tuple(sorted(kept, key=SpatialTerm.sort_key))


@dataclass(frozen=True)
class EvolutionOperator:
    """Monic evolution operator d_t^m + sum_{j<m} P_j(d_x) d_t^j in R^n.

    ``levels`` maps a time-derivative level j in [0, m-1] to its spatial
    terms; levels absent from the map are identically zero.  The top level
    is implicit and monic: attempts to store level m are rejected so a
    non-monic operator must be divided through by its top coefficient
    before entering the system.
    """

    m: int
    n: int
    levels: Mapping[int, tuple[SpatialTerm, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValidationError("time order m must be an integer >= 1")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValidationError("space dimension n must be an integer >= 1")
        clean: dict[int, tuple[SpatialTerm, ...]] = {}
        for j, terms in self.levels.items():
            if not (isinstance(j, int) and 0 <= j < self.m):
                if j == self.m:
                    raise ValidationError(
                        f"level {j} is the top order and is implicitly monic; "
                        "divide the operator by its top coefficient instead"
                    )
                raise ValidationError(f"level {j} outside [0, {self.m - 1}]")
            for t in terms:
                if t.kind == "monomial" and len(t.alpha) != self.n:
                    raise ValidationError("monomial alpha length must equal n")
            merged = _merge_terms(terms)
            if merged:
                clean[j] = merged
        object.__setattr__(self, "levels", dict(sorted(clean.items())))

    # ------------------------------------------------------------------
    # exact order bookkeeping

    def order_set(self) -> list[int]:
        """Levels with a nonzero symbol, always including the top order m."""
        return sorted(set(self.levels) | {self.m})

    def minimal_order(self, j: int) -> Fraction:
        """Lowest spatial differentiation order present at level j."""
        if j == self.m:
            return Fraction(0)
        if j not in self.levels:
            raise ValidationError(f"level {j} is not in the order set {self.order_set()}")
        return min(t.order for t in self.levels[j])

    def spatial_order(self, j: int) -> Fraction:
        """Highest spatial differentiation order present at level j."""
        if j == self.m:
            return Fraction(0)
        if j not in self.levels:
            raise ValidationError(f"level {j} is not in the order set {self.order_set()}")
        return max(t.order for t in self.levels[j])

    def max_spatial_order(self) -> Fraction:
        return max((self.spatial_order(j) for j in self.levels), default=Fraction(0))

    def constant_coefficient(self, j: int) -> float:
        """Coefficient of the zero-order part of P_j (0.0 when absent)."""
        if j == self.m:
            return 1.0
        total = 0.0
        for t in self.levels.get(j, ()):
            if t.order == 0:
                total += t.coeff
        return total

    # ------------------------------------------------------------------
    # Fourier side

    def multiplier(self, j: int, xi: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate P_j(i xi) on arrays of frequency components.

        ``xi`` is a length-n sequence of broadcastable real arrays.  The
        result is complex; its conjugate is the multiplier of the formal
        adjoint level (real coefficients), which the weak-residual check
        relies on.
        """
        import numpy as np

        if len(xi) != self.n:
            raise ValidationError("xi must supply one component array per dimension")
        shape = np.broadcast(*[np.asarray(x) for x in xi]).shape
        if j == self.m:
            return np.ones(shape, dtype=complex)
        out = np.zeros(shape, dtype=complex)
        terms = self.levels.get(j, ())
        frac = [t for t in terms if t.kind == "fractional_laplacian"]
        if frac:
            rho2 = sum(np.asarray(x, dtype=float) ** 2 for x in xi)
            for t in frac:
                out += t.coeff * rho2 ** float(t.power)
        for t in terms:
            if t.kind != "monomial":
                continue
            val = np.full(shape, t.coeff, dtype=complex)
            for d, a in enumerate(t.alpha):
                if a:
                    val = val * (1j * np.asarray(xi[d], dtype=float)) ** a
            out += val
        return out

    def companion(self, xi: Sequence[np.ndarray]) -> np.ndarray:
        """Per-frequency companion matrix A(xi), shape (..., m, m).

        The state v = (u, d_t u, ..., d_t^{m-1} u)^ in Fourier satisfies
        v' = A v + e_{m-1} F^; the last row is -(P_0, ..., P_{m-1})(i xi).
        Real operator coefficients give A(-xi) = conj(A(xi)), which keeps
        physical fields real under propagation.
        """
        import numpy as np

        mults = [self.multiplier(j, xi) for j in range(self.m)]
        shape = mults[0].shape if self.m else ()
        A = np.zeros(shape + (self.m, self.m), dtype=complex)
        for i in range(self.m - 1):
            A[..., i, i + 1] = 1.0
        for j in range(self.m):
            A[..., self.m - 1, j] = -mults[j]
        return A

    # ------------------------------------------------------------------
    # radial structure

    def laplacian_decomposition(self, j: int) -> dict[Fraction, float] | None:
        """Write P_j as sum_k c_k (-Lap)^{p_k} if possible, else None.

        Fractional terms qualify directly.  Monomial terms qualify as a
        group when, for each total order 2k, they reproduce the exact
        multinomial expansion (-Lap)^k = (-1)^k sum_{|beta|=k} (k!/beta!) d^{2beta}
        for a single scalar coefficient.
        """
        if j == self.m:
            return {Fraction(0): 1.0}
        decomp: dict[Fraction, float] = {}
        mono_groups: dict[int, list[SpatialTerm]] = {}
        for t in self.levels.get(j, ()):
            if t.kind == "fractional_laplacian":
                decomp[t.power] = decomp.get(t.power, 0.0) + t.coeff
                continue
            total = sum(t.alpha)
            if total % 2:
                return None
            mono_groups.setdefault(total // 2, []).append(t)
        for k, group in mono_groups.items():
            if any(a % 2 for t in group for a in t.alpha):
                return None
            betas = {tuple(a // 2 for a in t.alpha): t.coeff for t in group}
            want = _multinomial_betas(k, self.n)
            if set(betas) != set(want):
                return None
            scale = None
            for beta, coeff in betas.items():
                c = coeff / ((-1) ** k * want[beta])
                if scale is None:
                    scale = c
                elif not math.isclose(c, scale, rel_tol=1e-12, abs_tol=0.0):
                    return None
            decomp[Fraction(k)] = decomp.get(Fraction(k), 0.0) + scale
        return {p: c for p, c in decomp.items() if c != 0.0}

    def is_radial(self) -> bool:
        return all(self.laplacian_decomposition(j) is not None for j in self.levels)

    def radial_companion(self, rho: np.ndarray) -> np.ndarray:
        """companion() at xi = (rho, 0, ..., 0): A(|xi| = rho) for a radial operator."""
        import numpy as np

        return self.companion([rho] + [np.zeros_like(rho)] * (self.n - 1))

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        return {
            "schema_version": OPERATOR_SCHEMA_VERSION,
            "m": self.m,
            "n": self.n,
            "levels": {
                str(j): [t.to_json() for t in terms] for j, terms in self.levels.items()
            },
        }


def exp2_parts(A: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots and divided difference of exp that give exp(tA) of 2x2 blocks.

    For a stack A of shape (k, 2, 2) and times of shape (T,),
    exp(t A_i) = e^{t lam2} I + D(t) (A_i - lam2 I), where Re lam1 >= Re lam2
    and D(t) = e^{t lam1} (-expm1(-t (lam1 - lam2))) / (lam1 - lam2) is the
    divided difference of exp at the roots, t e^{t lam1} where they
    coincide.  It has no cancellation however close the roots lie, and
    |e^{-t (lam1 - lam2)}| <= 1 keeps it from overflowing.  The roots come
    from the larger of mu +- nu (mu = tr/2) and det / that root (Vieta), so
    neither one cancels when det << mu^2.  Returns lam1 and lam2 as (k, 1)
    columns and D as (k, T).
    """
    import numpy as np

    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    mu = 0.5 * (a + d)
    nu = np.sqrt((0.5 * (a - d)) ** 2 + b * c)
    big = np.where((np.conj(mu) * nu).real >= 0, mu + nu, mu - nu)
    # big == 0 only where mu = nu = 0, a double root at 0
    other = np.divide(a * d - b * c, big, out=np.zeros_like(big), where=big != 0)
    first = other.real > big.real
    lam1 = np.where(first, other, big)[:, None]
    lam2 = np.where(first, big, other)[:, None]
    gap = lam1 - lam2
    D = np.broadcast_to(times, (A.shape[0], times.size)).astype(complex)
    np.divide(-np.expm1(-times * gap), gap, out=D, where=gap != 0)
    D *= np.exp(times * lam1)
    return lam1, lam2, D


def _multinomial_betas(k: int, n: int) -> dict[tuple[int, ...], int]:
    """Multi-indices |beta| = k with multinomial weights k!/beta!."""
    out: dict[tuple[int, ...], int] = {}

    def rec(prefix: tuple[int, ...], remaining: int):
        if len(prefix) == n - 1:
            beta = prefix + (remaining,)
            w = math.factorial(k)
            for b in beta:
                w //= math.factorial(b)
            out[beta] = w
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v)

    rec((), k)
    return out


_OPERATOR = {
    "schema_version": Key("int", OPERATOR_SCHEMA_VERSION,
                          ok=lambda v: v == OPERATOR_SCHEMA_VERSION,
                          rule=str(OPERATOR_SCHEMA_VERSION)),
    "m": Key("int"),
    "n": Key("int"),
    "levels": Key("object", {}),
}


def parse_operator(doc: Mapping) -> EvolutionOperator:
    """Validate and build an operator from its JSON document (fail-closed)."""
    v = read(doc, _OPERATOR, "operator")
    levels: dict[int, tuple[SpatialTerm, ...]] = {}
    named: dict[int, str] = {}
    for key, terms_doc in v["levels"].items():
        where = f"operator.levels[{key!r}]"
        j = check(Key("int"), loads(str(key), f"{where} key"), f"{where} key")
        if j in named:
            raise ValidationError(f"operator.levels keys {named[j]!r} and {key!r} name level {j}")
        named[j] = key
        levels[j] = tuple(_parse_term(t) for t in check(Key("list"), terms_doc, where))
    return EvolutionOperator(m=v["m"], n=v["n"], levels=levels)


# ----------------------------------------------------------------------
# common builders


def laplacian_terms(n: int, power: int, coeff: float) -> list[SpatialTerm]:
    """Monomial expansion of coeff * (-Lap)^power in n dimensions."""
    if power == 0:
        return [SpatialTerm(kind="monomial", coeff=coeff, alpha=(0,) * n)]
    out = []
    for beta, w in _multinomial_betas(power, n).items():
        alpha = tuple(2 * b for b in beta)
        out.append(SpatialTerm(kind="monomial", coeff=coeff * ((-1) ** power) * w, alpha=alpha))
    return out


def fractional_term(power, coeff: float) -> SpatialTerm:
    return SpatialTerm(kind="fractional_laplacian", coeff=coeff, power=as_fraction(power))


def sigma_evolution(n: int, sigma, delta) -> EvolutionOperator:
    """d_t^2 u + (-Lap)^delta d_t u + (-Lap)^sigma u as fractional terms."""
    return EvolutionOperator(
        m=2,
        n=n,
        levels={
            0: (fractional_term(sigma, 1.0),),
            1: (fractional_term(delta, 1.0),),
        },
    )


def damped_wave(n: int) -> EvolutionOperator:
    """Classical damped wave d_t^2 u + d_t u - Lap u with monomial terms."""
    return EvolutionOperator(
        m=2,
        n=n,
        levels={
            0: tuple(laplacian_terms(n, 1, 1.0)),
            1: (SpatialTerm(kind="monomial", coeff=1.0, alpha=(0,) * n),),
        },
    )


def damped_klein_gordon(n: int, damping: float, mass: float) -> EvolutionOperator:
    """d_t^2 u - Lap u + 2a d_t u + mass^2 u, with a = damping."""
    return EvolutionOperator(
        m=2,
        n=n,
        levels={
            0: (fractional_term(1, 1.0), fractional_term(0, mass**2)),
            1: (fractional_term(0, 2.0 * damping),),
        },
    )
