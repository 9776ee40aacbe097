"""Shared oracles and builders for the test suite.

The exponent oracle here is independent of the library's envelope
machinery: it evaluates the objective at every pairwise intersection of
the scaling lines (plus 0 and the limit at infinity), computing the
lower envelope value by brute-force minimum over the whole line family
at each candidate, all in exact rational arithmetic.  A float grid
refinement cross-checks finite maxima.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from critevo.operators import EvolutionOperator, SpatialTerm, fractional_term
from critevo.solver import run

INF = math.inf


def scaling_lines(op: EvolutionOperator, ell: int) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(j - ell), Fraction(op.minimal_order(j))) for j in op.order_set()]


def oracle_exponent(lines, n):
    """Exact (p_c, eta_star) from pairwise-intersection candidates.

    The objective restricted to any envelope segment is a Mobius function,
    hence monotone, so its maximum over [0, inf] sits at a segment endpoint;
    every segment endpoint is a pairwise intersection of two family lines
    (or 0, or the limit point at infinity).
    """
    lines = [(Fraction(a), Fraction(b)) for a, b in lines]
    cands = {Fraction(0)}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a1, b1 = lines[i]
            a2, b2 = lines[j]
            if a1 != a2:
                x = (b2 - b1) / (a1 - a2)
                if x > 0:
                    cands.add(x)

    def g(eta):
        return min(a * eta + b for a, b in lines)

    def h(eta):
        ge = g(eta)
        d = n + eta - ge
        if d <= 0:
            return INF
        return Fraction(1) + ge / d

    best, best_eta = None, None
    for eta in sorted(cands):
        val = h(eta)
        if best is None or val > best:
            best, best_eta = val, eta
    a_inf = min(a for a, _ in lines)
    lim = INF if a_inf >= 1 else Fraction(1) + a_inf / (1 - a_inf)
    if lim > best:
        best, best_eta = lim, INF
    return best, best_eta


def grid_refine_max(lines, n, eta_hi: float, rounds: int = 40) -> float:
    """Float grid maximization of the objective, refined around the argmax."""
    lines_f = [(float(a), float(b)) for a, b in lines]

    def h(eta: np.ndarray) -> np.ndarray:
        g = np.min([a * eta + b for a, b in lines_f], axis=0)
        d = n + eta - g
        out = np.where(d > 0, 1.0 + g / np.where(d > 0, d, 1.0), np.inf)
        return out

    lo, hi = 0.0, max(eta_hi, 1.0)
    best = -np.inf
    for _ in range(rounds):
        etas = np.linspace(lo, hi, 257)
        vals = h(etas)
        k = int(np.argmax(vals))
        if not np.isfinite(vals[k]):
            return float("inf")
        best = max(best, float(vals[k]))
        span = (hi - lo) / 256
        lo, hi = max(0.0, etas[k] - span), etas[k] + span
    return best


def random_operator(rng: np.random.Generator, m_max=6, order_max=10, n_max=8):
    """Random fractional-term operator plus a valid ell."""
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(1, n_max + 1))
    ell = int(rng.integers(0, m))
    levels = {}
    for j in range(m):
        if rng.random() < 0.65:
            r = Fraction(int(rng.integers(0, 4 * order_max + 1)), 4)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            terms = [fractional_term(r / 2, coeff=sign * float(rng.uniform(0.5, 2.0)))]
            if rng.random() < 0.3:
                # a higher-order term at the same level must not move r_j
                terms.append(fractional_term(r / 2 + Fraction(int(rng.integers(1, 5)), 2), 1.0))
            levels[j] = tuple(terms)
    return EvolutionOperator(m=m, n=n, levels=levels), ell


def build_m5_operator(n: int = 3) -> EvolutionOperator:
    """Fifth-order cascade with one damping unit: the expanded level table.

    Time order 5; levels carry 2, 1 + (-Lap)*3, 4(-Lap), (-Lap)^2 + (-Lap),
    and (-Lap)^2 at j = 4, 3, 2, 1, 0, written with fractional powers so the
    spec stays dimension-free.
    """
    return EvolutionOperator(
        m=5,
        n=n,
        levels={
            4: (fractional_term(0, 2.0),),
            3: (fractional_term(0, 1.0), fractional_term(1, 3.0)),
            2: (fractional_term(1, 4.0),),
            1: (fractional_term(2, 1.0), fractional_term(1, 1.0)),
            0: (fractional_term(2, 1.0),),
        },
    )


def monomial_op(alpha) -> EvolutionOperator:
    """d_t^2 u + d_t u + (d_x)^alpha u: one monomial, not a radial symbol."""
    return EvolutionOperator(m=2, n=2, levels={
        0: (SpatialTerm(kind="monomial", coeff=1.0, alpha=alpha),),
        1: (SpatialTerm(kind="monomial", coeff=1.0, alpha=(0, 0)),),
    })


def run_recording(config, members, directory):
    """``run(config, members)`` with member i's d_t^ell u streamed to
    directory/member_{i}.npy.

    Returns the list of reports and the list of frame stacks as ``np.load``
    reads them back, one of each per member.
    """
    paths = [Path(directory) / f"member_{i}.npy" for i in range(len(members))]
    reports = run(config, members, field_files=paths)
    return reports, [np.load(path) for path in paths]


def dealias_mask(grid) -> np.ndarray:
    """The 2/3 rule on the full spectrum, (*shape) bools: True where every |k| <= N/3."""
    keep = np.abs(np.fft.fftfreq(grid.N, d=1.0 / grid.N)) <= grid.N / 3
    return keep if grid.n == 1 else keep[:, None] & keep[None, :]


def dropped_modes(fields, grid) -> tuple[np.ndarray, np.ndarray]:
    """|rfftn| of real fields (..., *shape) at the half-spectrum modes the 2/3 rule
    drops, (..., dropped), and at the modes it keeps, (..., kept)."""
    hat = np.abs(np.fft.rfftn(fields, axes=grid.space_axes))
    keep = dealias_mask(grid)[grid.half]
    return hat[..., ~keep], hat[..., keep]


def mp_exp(mpmath, A, t) -> np.ndarray:
    """exp(t A) of one m x m block in 40-digit arithmetic."""
    m = A.shape[0]
    M = mpmath.matrix([[mpmath.mpc(complex(A[i, j])) for j in range(m)] for i in range(m)])
    with mpmath.workdps(40):
        E = mpmath.expm(mpmath.mpf(float(t)) * M)
    return np.array([[complex(E[i, j]) for j in range(m)] for i in range(m)])
