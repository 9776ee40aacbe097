"""Brute-force critical-exponent oracle in exact rationals.

Independent of critevo's envelope code: it reads the operator's JSON
document directly, builds the scaling lines (j - ell, r_j) with r_j the
lowest spatial order present at level j, and maximizes

    h(eta) = 1 + g(eta) / (n + eta - g(eta)),   g = min over the lines,

over the pairwise intersections of the lines, eta = 0 and the limit at
infinity.  h is a Mobius function on every envelope segment, so its
maximum sits at a segment endpoint, and every endpoint is one of those
candidates.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


def scaling_lines(doc: dict, ell: int) -> list[tuple[Fraction, Fraction]]:
    """(slope, intercept) per nonzero level, plus the monic top level m."""
    m = doc["m"]
    lines = [(Fraction(m - ell), Fraction(0))]
    for key, terms in doc.get("levels", {}).items():
        coeff_by_power: dict[Fraction, float] = {}
        for term in terms:
            if term["kind"] != "fractional_laplacian":
                raise ValueError("the oracle reads fractional_laplacian terms only")
            power = Fraction(term["power"])
            coeff_by_power[power] = coeff_by_power.get(power, 0.0) + float(term["coeff"])
        orders = [2 * p for p, c in coeff_by_power.items() if c != 0.0]
        if orders:
            lines.append((Fraction(int(key) - ell), min(orders)))
    return lines


def oracle_exponent(lines: list[tuple[Fraction, Fraction]], n: int):
    """Exact p_c (a Fraction, or INF) over the pairwise-intersection candidates."""
    cands = {Fraction(0)}
    for i, (a1, b1) in enumerate(lines):
        for a2, b2 in lines[i + 1:]:
            if a1 != a2:
                x = (b2 - b1) / (a1 - a2)
                if x > 0:
                    cands.add(x)

    def h(eta):
        g = min(a * eta + b for a, b in lines)
        d = n + eta - g
        return INF if d <= 0 else Fraction(1) + g / d

    best = max(h(eta) for eta in cands)
    a_inf = min(a for a, _ in lines)
    limit = INF if a_inf >= 1 else Fraction(1) + a_inf / (1 - a_inf)
    return max(best, limit)
