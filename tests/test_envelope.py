import math
from fractions import Fraction

import numpy as np
import pytest

from critevo.envelope import (
    AffinePiece,
    INF,
    build_envelope,
    critical_exponent,
    evaluate_h,
    lower_envelope,
    maximize,
    regime_classify,
)
from critevo.errors import ValidationError
from critevo.operators import EvolutionOperator, fractional_term, laplacian_terms, sigma_evolution
from critevo.reporting import jsonify
from helpers import build_m5_operator, grid_refine_max, oracle_exponent, random_operator, scaling_lines

F = Fraction


def line(slope, intercept, level=0):
    return AffinePiece(slope=F(slope), intercept=F(intercept), levels=(level,))


def test_lower_envelope_matches_bruteforce_min():
    rng = np.random.default_rng(7)
    for _ in range(30):
        k = int(rng.integers(1, 7))
        lines = [line(int(rng.integers(-3, 5)), F(int(rng.integers(0, 12)), int(rng.integers(1, 4))), i)
                 for i, k_ in enumerate(range(k))]
        env = lower_envelope(lines)
        for _ in range(40):
            eta = F(int(rng.integers(0, 400)), int(rng.integers(1, 8)))
            brute = min(l.value(eta) for l in lines)
            assert env.value(eta) == brute


def test_envelope_concavity_and_continuity():
    rng = np.random.default_rng(19)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        lines = [line(int(rng.integers(-3, 5)), F(int(rng.integers(0, 12))), i) for i in range(k)]
        env = lower_envelope(lines)
        slopes = [p.slope for p in env.pieces]
        assert slopes == sorted(slopes, reverse=True)
        for k_, b in enumerate(env.breakpoints):
            assert env.pieces[k_].value(b) == env.pieces[k_ + 1].value(b)
        # concavity: midpoint above chord, exact
        for _ in range(10):
            a = F(int(rng.integers(0, 50)), 3)
            c = a + F(int(rng.integers(1, 50)), 3)
            mid = (a + c) / 2
            assert env.value(mid) >= (env.value(a) + env.value(c)) / 2


def test_damped_wave_envelope_segments():
    op = sigma_evolution(1, 1, 0)
    env = build_envelope(op, 0)
    # piece 0 on [0, 2], piece 1 on [2, inf)
    assert env.breakpoints == (F(2),)
    p0, p1 = env.pieces
    assert p0.slope == 1 and p0.intercept == 0
    assert p1.slope == 0 and p1.intercept == 2


def test_heat_envelope_breakpoint():
    heat = EvolutionOperator(m=1, n=1, levels={0: tuple(laplacian_terms(1, 1, 1.0))})
    env = build_envelope(heat, 0)
    assert env.breakpoints == (F(2),)
    assert [ (p.slope, p.intercept) for p in env.pieces ] == [(F(1), F(0)), (F(0), F(2))]
    rep = critical_exponent(heat, 0, 1)
    assert rep.p_c == 3  # 1 + 2/n at n=1


def test_evaluate_h_conventions():
    op = sigma_evolution(1, 1, 0)
    env = build_envelope(op, 0)
    assert evaluate_h(env, 1, F(2)) == 3
    assert evaluate_h(env, 1, F(0)) == 1
    assert evaluate_h(env, 5, INF) == 1  # final slope 0
    # denominator hits zero with positive numerator -> infinity convention
    bare = EvolutionOperator(m=2, n=3, levels={})
    env2 = build_envelope(bare, 0)
    assert evaluate_h(env2, 3, F(3)) == INF  # g = 2*eta, n + eta - g = 3 - eta
    rep = critical_exponent(bare, 0, 3)
    assert rep.p_c == INF
    assert rep.n_validity  # witness region reported, not an error


def test_sigma_evolution_closed_forms_exact():
    # classical / effective / non-effective closed forms, exact rationals
    for n in (1, 2, 3, 4, 7):
        for sigma in (F(1), F(2), F(5, 2)):
            rep = critical_exponent(sigma_evolution(n, sigma, 0), 0, n)
            assert rep.p_c == 1 + 2 * sigma / n
            assert rep.eta_star == 2 * sigma
            for delta in (sigma / 4, sigma / 3):
                if n > 2 * delta:
                    rep = critical_exponent(sigma_evolution(n, sigma, delta), 0, n)
                    assert rep.p_c == 1 + 2 * sigma / (n - 2 * delta)
                    assert rep.eta_star == 2 * (sigma - delta)
            for delta in (sigma / 2, 2 * sigma / 3, sigma):
                if n > sigma:
                    rep = critical_exponent(sigma_evolution(n, sigma, delta), 0, n)
                    assert rep.p_c == 1 + 2 * sigma / (n - sigma)
                    assert rep.eta_star == sigma


def test_regime_labels():
    assert critical_exponent(sigma_evolution(3, 2, 0), 0, 3).regime == "classical"
    assert critical_exponent(sigma_evolution(3, 2, F(1, 2)), 0, 3).regime == "effective"
    assert critical_exponent(sigma_evolution(3, 2, 1), 0, 3).regime == "non-effective"
    heat = EvolutionOperator(m=1, n=2, levels={0: tuple(laplacian_terms(2, 1, 1.0))})
    assert regime_classify(heat) == "unclassified"


def test_derivative_level_closed_forms():
    for n in (1, 2, 3, 5):
        for sigma in (F(1), F(2), F(3)):
            for delta in (sigma / 4, sigma / 3, sigma / 2, sigma):
                rep = critical_exponent(sigma_evolution(n, sigma, delta), 1, n)
                if 2 * delta < sigma:
                    assert rep.p_c == 1 + 2 * delta / n
                else:
                    assert rep.p_c == 1 + sigma / n


def test_degenerate_flagged():
    # derivative nonlinearity with classical damping: threshold collapses to 1
    rep = critical_exponent(sigma_evolution(2, 1, 0), 1, 2)
    assert rep.p_c == 1
    assert rep.degenerate
    assert any("degenerate" in note for note in rep.notes)


def test_m5_family_envelope():
    op = build_m5_operator(3)
    rep = critical_exponent(op, 0, 3)
    assert rep.p_c == 5
    assert rep.eta_star == 2
    env = rep.envelope
    assert [(p.slope, p.intercept) for p in env.pieces] == [
        (F(3), F(0)), (F(1), F(2)), (F(0), F(4))]
    assert env.breakpoints == (F(1), F(2))


def test_random_operators_match_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 60:
        op, ell = random_operator(rng)
        rep = critical_exponent(op, ell, op.n)
        p_ref, eta_ref = oracle_exponent(scaling_lines(op, ell), op.n)
        if p_ref == INF:
            assert rep.p_c == INF
        else:
            assert rep.p_c == p_ref
            assert rep.eta_star == eta_ref
        checked += 1


def test_scaling_invariance():
    # h(k*eta; k*n, k*r) = h(eta; n, r) for integer k: test via scaled operators
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        ell = int(rng.integers(0, m))
        rs = {j: F(int(rng.integers(0, 9)), 2) for j in range(m) if rng.random() < 0.7}
        n = int(rng.integers(1, 5))
        k = 3
        op1 = EvolutionOperator(m=m, n=n, levels={
            j: (fractional_term(r / 2, 1.0),) for j, r in rs.items()})
        lines1 = scaling_lines(op1, ell)
        lines_k = [(a, k * b) for a, b in lines1]
        p1, e1 = oracle_exponent(lines1, n)
        pk, ek = oracle_exponent(lines_k, k * n)
        assert p1 == pk
        if e1 != INF:
            assert ek == k * e1
        # the library agrees on the scaled instance when it is representable
        op_k = EvolutionOperator(m=m, n=k * n, levels={
            j: (fractional_term(k * r / 2, 1.0),) for j, r in rs.items()})
        rep = critical_exponent(op_k, ell, k * n)
        assert rep.p_c == pk


def test_monotone_in_n():
    rng = np.random.default_rng(9)
    for _ in range(10):
        op, ell = random_operator(rng, m_max=4, order_max=6, n_max=1)
        # compare across dimensions with the same symbol structure
        vals = []
        for n in (1, 2, 3, 4):
            op_n = EvolutionOperator(m=op.m, n=n, levels=op.levels)
            rep = critical_exponent(op_n, ell, n)
            vals.append(rep.p_c if rep.p_c != INF else math.inf)
        # p_c non-increasing in n when g >= 0 on the maximizing region;
        # negative-slope families can break the premise, so filter
        if all(a >= 0 for a, _ in scaling_lines(op, ell)):
            assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))


def test_grid_refinement_agrees():
    rng = np.random.default_rng(77)
    done = 0
    while done < 15:
        op, ell = random_operator(rng, m_max=5, order_max=8, n_max=6)
        rep = critical_exponent(op, ell, op.n)
        if rep.p_c == INF:
            continue
        lines = scaling_lines(op, ell)
        hi = 2.0 * max((float(b) for _, b in lines), default=1.0) + 8.0
        approx = grid_refine_max(lines, op.n, hi)
        assert approx == math.inf or abs(approx - float(rep.p_c)) < 1e-9
        done += 1


def test_report_serialization():
    rep = critical_exponent(sigma_evolution(3, 2, F(1, 2)), 0, 3)
    doc = jsonify(rep)
    assert doc["p_c"] == "3"
    assert doc["eta_star"] == "3"
    assert doc["envelope"]["breakpoints"]
    assert doc["regime"] == "effective"


def test_envelope_active_levels():
    op = sigma_evolution(1, 1, 0)
    env = build_envelope(op, 0)
    rep = maximize(env, 1, 0)
    assert rep.active_levels == (0, 1)  # both lines meet g at eta = 2


def test_integer_arguments_take_no_bool():
    # a bool is an int subclass: ell = True returned the ell = 1 exponent
    op = sigma_evolution(1, 2, 0)
    with pytest.raises(ValidationError, match="ell must be an integer"):
        critical_exponent(op, True, 1)
    env = build_envelope(op, 0)
    for fn in (maximize, lambda env, n: evaluate_h(env, n, 1)):
        with pytest.raises(ValidationError, match="n must be an integer"):
            fn(env, True)


def _pieces(env):
    return [(p.slope, p.intercept, p.levels) for p in env.pieces]


@pytest.mark.parametrize("lines, pieces, breakpoints, merged", [
    # three lines tie at 0: the flattest holds from there on
    ([line(2, 1, 0), line(1, 1, 1), line(-1, 1, 2)],
     [(-1, 1, (2,))], (), [(2, 1, (0,)), (1, 1, (1,)), (-1, 1, (2,))]),
    # parallel lines: the higher one is nowhere on the envelope
    ([line(1, 2, 0), line(1, 0, 1), line(0, 3, 2)],
     [(1, 0, (1,)), (0, 3, (2,))], (F(3),), [(1, 2, (0,)), (1, 0, (1,)), (0, 3, (2,))]),
    # one line given by two levels merges them, in the lines and in the pieces
    ([line(1, 0, 2), line(0, 2, 1), line(1, 0, 0)],
     [(1, 0, (0, 2)), (0, 2, (1,))], (F(2),), [(1, 0, (0, 2)), (0, 2, (1,))]),
    # every crossing lies below 0: the lowest line at 0 holds everywhere
    ([line(2, 3, 0), line(1, 1, 1), line(0, -2, 2)],
     [(0, -2, (2,))], (), [(2, 3, (0,)), (1, 1, (1,)), (0, -2, (2,))]),
    # two lines cross exactly at 0: no breakpoint at 0, the flatter one starts
    ([line(3, 0, 0), line(1, 0, 1), line(0, 2, 2), line(-1, 5, 3)],
     [(1, 0, (1,)), (0, 2, (2,)), (-1, 5, (3,))], (F(2), F(3)),
     [(3, 0, (0,)), (1, 0, (1,)), (0, 2, (2,)), (-1, 5, (3,))]),
], ids=["tie-at-0", "parallel", "two-levels", "crossings-negative", "crossing-at-0"])
def test_lower_envelope_edge_families(lines, pieces, breakpoints, merged):
    env = lower_envelope(lines)
    assert _pieces(env) == pieces
    assert env.breakpoints == breakpoints
    assert [(ln.slope, ln.intercept, ln.levels) for ln in env.lines] == merged


def _envelope_by_midpoints(lines):
    """Pieces and breakpoints from the argmin line between adjacent crossings."""
    merged: dict = {}
    for ln in lines:
        merged.setdefault((ln.slope, ln.intercept), set()).update(ln.levels)
    keys = list(merged)
    crossings = sorted({(b2 - b1) / (s1 - s2) for s1, b1 in keys for s2, b2 in keys
                        if s1 != s2 and (b2 - b1) / (s1 - s2) > 0})
    ends = [F(0), *crossings, (crossings[-1] if crossings else F(0)) + 2]
    argmins = [min(keys, key=lambda k: k[0] * (a + b) / 2 + k[1])
               for a, b in zip(ends, ends[1:])]
    pieces = [k for i, k in enumerate(argmins) if i == 0 or k != argmins[i - 1]]
    breakpoints = tuple((b2 - b1) / (s1 - s2) for (s1, b1), (s2, b2) in zip(pieces, pieces[1:]))
    return [(s, b, tuple(sorted(merged[s, b]))) for s, b in pieces], breakpoints


def test_lower_envelope_matches_the_argmin_between_crossings():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        k = int(rng.integers(1, 8))
        lines = [line(F(int(rng.integers(-5, 6)), int(rng.integers(1, 4))),
                      F(int(rng.integers(-9, 10)), int(rng.integers(1, 4))),
                      int(rng.integers(0, 4))) for _ in range(k)]
        env = lower_envelope(lines)
        pieces, breakpoints = _envelope_by_midpoints(lines)
        assert _pieces(env) == pieces
        assert env.breakpoints == breakpoints


@pytest.mark.parametrize("lines, n, p_c, eta_star, active, validity, notes", [
    ([line(2, 0, 2), line(0, 4, 0)], 1, INF, F(2), (0, 2),
     "denominator n + eta - g(eta) = -1 <= 0 at eta = 2; any n <= 2 gives p_c = inf", ()),
    ([line(2, 0, 2)], 3, INF, INF, (2,), "final envelope slope 2 >= 1 drives h to inf", ()),
    ([line(1, 0, 1), line(0, 2, 0)], 1, F(3), F(2), (0, 1),
     "needs n > g(eta_star) - eta_star = 0; n = 1 gives denominator 1 > 0", ()),
    ([line(F(1, 2), 1, 1)], 3, F(2), INF, (1,),
     "supremum approached only as eta -> inf (no finite maximizer)",
     ("maximum attained in the limit eta -> inf",)),
    ([line(1, 0, 2), line(0, 0, 1), line(-1, 2, 0)], 2, F(1), F(0), (1, 2),
     "needs n > g(eta_star) - eta_star = 0; n = 2 gives denominator 2 > 0",
     ("p_c <= 1: threshold degenerate, carries no blow-up information",)),
    ([line(0, -1, 0)], 1, F(1), INF, (0,),
     "supremum approached only as eta -> inf (no finite maximizer)",
     ("maximum attained in the limit eta -> inf",
      "p_c <= 1: threshold degenerate, carries no blow-up information")),
], ids=["inf-at-finite-eta", "inf-as-eta-grows", "finite", "finite-in-the-limit",
        "degenerate", "degenerate-in-the-limit"])
def test_maximize_reports_each_case(lines, n, p_c, eta_star, active, validity, notes):
    rep = maximize(lower_envelope(lines), n, 0)
    assert (rep.p_c, rep.eta_star, rep.active_levels) == (p_c, eta_star, active)
    assert rep.n_validity == (validity,)
    assert rep.notes == notes
    assert rep.degenerate == (p_c <= 1)
