import json
import math
from fractions import Fraction

import numpy as np
import pytest

from critevo.config import as_fraction
from critevo.errors import ValidationError
from critevo.operators import (
    _THETA13,
    EvolutionOperator,
    SpatialTerm,
    damped_wave,
    exp_blocks,
    fractional_term,
    laplacian_terms,
    parse_operator,
    sigma_evolution,
)
from critevo.reporting import dumps_json
from helpers import mp_exp


def test_as_fraction_forms():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("3/2") == Fraction(3, 2)
    assert as_fraction(1.5) == Fraction(3, 2)
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction(Fraction(7, 3)) == Fraction(7, 3)


def test_term_validation():
    with pytest.raises(ValidationError):
        SpatialTerm(kind="monomial", coeff=1.0, alpha=None)
    with pytest.raises(ValidationError):
        SpatialTerm(kind="fractional_laplacian", coeff=1.0, power=Fraction(-1, 2))
    with pytest.raises(ValidationError):
        SpatialTerm(kind="spectral", coeff=1.0)
    t = SpatialTerm(kind="fractional_laplacian", coeff=2.0, power=Fraction(3, 2))
    assert t.order == 3
    m = SpatialTerm(kind="monomial", coeff=-1.0, alpha=(2, 1))
    assert m.order == 3


def test_level_m_rejected():
    with pytest.raises(ValidationError, match="top order"):
        EvolutionOperator(m=2, n=1, levels={2: (fractional_term(1, 1.0),)})


def test_order_set_variants():
    assert damped_wave(1).order_set() == [0, 1, 2]
    heat = EvolutionOperator(m=1, n=2, levels={0: tuple(laplacian_terms(2, 1, 1.0))})
    assert heat.order_set() == [0, 1]
    free_wave = EvolutionOperator(m=2, n=1, levels={0: tuple(laplacian_terms(1, 1, 1.0))})
    assert free_wave.order_set() == [0, 2]
    # empty-level operator still carries the top order
    bare = EvolutionOperator(m=3, n=1, levels={})
    assert bare.order_set() == [3]


def test_minimal_order():
    op = sigma_evolution(3, Fraction(2), Fraction(1, 2))
    assert op.minimal_order(0) == 4  # 2*sigma
    assert op.minimal_order(1) == 1  # 2*delta
    assert op.minimal_order(2) == 0  # top level
    with pytest.raises(ValidationError):
        op.minimal_order(5)
    # adding a higher-order term at the same level leaves r_j alone
    op2 = EvolutionOperator(m=2, n=3, levels={
        0: (fractional_term(2, 1.0), fractional_term(3, 5.0)),
        1: (fractional_term(Fraction(1, 2), 1.0),),
    })
    assert op2.minimal_order(0) == 4


def test_merge_and_zero_drop():
    op = EvolutionOperator(m=1, n=1, levels={
        0: (
            SpatialTerm(kind="monomial", coeff=1.0, alpha=(2,)),
            SpatialTerm(kind="monomial", coeff=2.0, alpha=(2,)),
            SpatialTerm(kind="fractional_laplacian", coeff=1.0, power=Fraction(1)),
            SpatialTerm(kind="fractional_laplacian", coeff=-1.0, power=Fraction(1)),
        ),
    })
    terms = op.levels[0]
    assert len(terms) == 1
    assert terms[0].kind == "monomial" and terms[0].coeff == 3.0


def test_multiplier_monomial_vs_fractional_laplacian():
    # (-Lap)^k expanded in monomials must give the same multiplier |xi|^{2k}
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for k in (1, 2):
            mono = EvolutionOperator(m=1, n=n, levels={0: tuple(laplacian_terms(n, k, 1.0))})
            frac = EvolutionOperator(m=1, n=n, levels={0: (fractional_term(k, 1.0),)})
            xi = [rng.normal(size=7) for _ in range(n)]
            a = mono.multiplier(0, xi)
            b = frac.multiplier(0, xi)
            assert np.allclose(a, b, rtol=1e-13, atol=1e-13)
            assert np.allclose(np.imag(a), 0.0, atol=1e-13)


def test_multiplier_top_level_is_one():
    op = damped_wave(2)
    xi = [np.zeros((4, 4)), np.ones((4, 4))]
    assert np.allclose(op.multiplier(2, xi), 1.0)


def test_companion_structure_and_reality():
    rng = np.random.default_rng(11)
    op = EvolutionOperator(m=3, n=2, levels={
        0: (fractional_term(1, 1.0), SpatialTerm(kind="monomial", coeff=0.5, alpha=(1, 2))),
        2: (SpatialTerm(kind="monomial", coeff=-1.0, alpha=(0, 0)),),
    })
    xi = [rng.normal(size=5) for _ in range(2)]
    A = op.companion(xi)
    assert A.shape == (5, 3, 3)
    # superdiagonal ones, last row -P_j
    assert np.allclose(A[:, 0, 1], 1.0) and np.allclose(A[:, 1, 2], 1.0)
    assert np.allclose(A[:, 0, 0], 0.0)
    assert np.allclose(A[:, 2, 0], -op.multiplier(0, xi))
    assert np.allclose(A[:, 2, 1], 0.0)  # empty level 1
    # real coefficients: A(-xi) = conj(A(xi))
    A_neg = op.companion([-x for x in xi])
    assert np.allclose(A_neg, np.conj(A), rtol=1e-13, atol=1e-14)


def test_laplacian_decomposition_round_trip():
    op = EvolutionOperator(m=1, n=3, levels={
        0: tuple(laplacian_terms(3, 2, 1.5) + laplacian_terms(3, 1, -2.0)),
    })
    dec = op.laplacian_decomposition(0)
    assert dec == {Fraction(2): 1.5, Fraction(1): -2.0}
    # a lone mixed monomial is not a Laplacian power combination
    op2 = EvolutionOperator(m=1, n=2, levels={
        0: (SpatialTerm(kind="monomial", coeff=1.0, alpha=(1, 1)),),
    })
    assert op2.laplacian_decomposition(0) is None


def test_radial_paths():
    op = sigma_evolution(3, 2, Fraction(1, 2))
    assert op.is_radial()
    rho = np.linspace(0.0, 4.0, 9)
    A = op.companion([rho, np.zeros_like(rho), np.zeros_like(rho)])
    assert A.shape == (9, 2, 2)
    assert np.allclose(A[:, 1, 0], -rho**4) and np.allclose(A[:, 1, 1], -rho)
    assert np.array_equal(op.radial_companion(rho), A)
    assert not damped_wave(2).is_radial() or damped_wave(2).laplacian_decomposition(0)
    mixed = EvolutionOperator(m=1, n=2, levels={
        0: (SpatialTerm(kind="monomial", coeff=1.0, alpha=(1, 1)),),
    })
    assert not mixed.is_radial()


def test_parse_round_trip_normalizes():
    doc = {
        "schema_version": 1,
        "m": 2,
        "n": 2,
        "levels": {
            "0": [
                {"kind": "fractional_laplacian", "power": "3/2", "coeff": 1.0},
                {"kind": "monomial", "alpha": [2, 0], "coeff": -1.0},
            ],
            "1": [{"kind": "fractional_laplacian", "power": 0, "coeff": 2.0}],
        },
    }
    op = parse_operator(doc)
    again = parse_operator(json.loads(dumps_json(op)))
    assert again == op
    assert op.minimal_order(0) == 2


def test_parse_fail_closed():
    base = {"schema_version": 1, "m": 1, "n": 1, "levels": {"0": [
        {"kind": "fractional_laplacian", "power": 1, "coeff": 1.0}]}}
    bad = dict(base)
    bad["extra"] = 1
    with pytest.raises(ValidationError, match="extra"):
        parse_operator(bad)
    with pytest.raises(ValidationError):
        parse_operator({**base, "levels": {"1": base["levels"]["0"]}})  # level >= m
    with pytest.raises(ValidationError):
        parse_operator({**base, "m": 0})
    with pytest.raises(ValidationError):
        parse_operator({**base, "levels": {"0": [
            {"kind": "monomial", "alpha": [2, 0], "coeff": 1.0}]}})  # alpha length != n
    with pytest.raises(ValidationError):
        parse_operator({**base, "levels": {"0": [
            {"kind": "monomial", "alpha": [2], "coeff": 1.0, "power": 1}]}})
    with pytest.raises(ValidationError):
        parse_operator({**base, "schema_version": 99})


@pytest.mark.parametrize("build", [
    lambda: EvolutionOperator(m=True, n=1),
    lambda: EvolutionOperator(m=1, n=True),
    lambda: EvolutionOperator(m=2, n=1, levels={True: (fractional_term(0, 1.0),)}),
    lambda: SpatialTerm(kind="monomial", coeff=1.0, alpha=(True,)),
], ids=["m", "n", "level", "alpha"])
def test_integer_fields_take_no_bool(build):
    # a bool is an int subclass: m = True built a first-order operator
    with pytest.raises(ValidationError, match="integer|ints|level True outside"):
        build()


def test_exp_blocks_at_a_double_root():
    # the damped wave at rho = 1/2: A = [[0, 1], [-1/4, -1]] is a Jordan block
    # at -1/2, exp(tA) = e^{-t/2} (I + t (A + I/2)); the closed form divides by
    # no root gap there
    A = damped_wave(1).radial_companion(np.array([0.5]))
    times = np.array([0.0, 1.0, 1e2, 1e3])
    got = exp_blocks(A, times)
    assert got.shape == (1, times.size, 2, 2)
    want = np.exp(-times / 2)[:, None, None] * (
        np.eye(2) + times[:, None, None] * (A[0] + np.eye(2) / 2))
    assert np.allclose(got[0], want, rtol=1e-15, atol=0)


# sigma-evolution (3, 3, 1) has real roots near -rho^4 and -rho^2 at these radii,
# where the small one is only accurate as det / (the large one)
@pytest.mark.parametrize("A, times", [
    (damped_wave(1).radial_companion(np.array([0.5])), [0.0, 1.0, 1e2, 1e3]),
    (sigma_evolution(3, 3, 1).radial_companion(np.array([1e-7, 1e-6, 1e-5, 5e-5])),
     [1e2, 1e4, 1e8, 1e12]),
], ids=["jordan-block", "sigma_3_3_1"])
def test_exp_blocks_of_2x2_blocks_match_mpmath(A, times):
    mpmath = pytest.importorskip("mpmath")
    got = exp_blocks(A, times)
    for block, row in zip(A, got):
        for t, E in zip(times, row):
            want = mp_exp(mpmath, block, t)
            assert np.all(np.abs(E - want) <= 1e-15 * np.abs(want)), (block, t)


def _random_blocks(seed, *sizes):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for m in sizes]


def _theta_blocks(factors):
    # one block scaled to 1-norms either side of theta_13, where the Pade
    # exponential starts to scale and square
    B, = _random_blocks(3, 4)
    return [B * (f * _THETA13 / np.max(np.sum(np.abs(B), axis=0))) for f in factors]


@pytest.mark.parametrize("A, times", [
    (np.zeros((3, 3)), [0.0, 1.0, 1e4]),
    # the empty m = 3 operator: exp(tA) = I + tA + t^2 A^2 / 2
    (EvolutionOperator(m=3, n=1).radial_companion(np.array([0.0]))[0], [0.0, 1.0, 37.5]),
    *[(B, [1.0]) for B in _random_blocks(7, 3, 4)],
    *[(B, [1.0]) for B in _theta_blocks([1 - 1e-12, 1 + 1e-12])],
], ids=["zero", "nilpotent", "random-3x3", "random-4x4", "below-theta", "above-theta"])
def test_exp_blocks_of_larger_blocks_match_mpmath(A, times):
    mpmath = pytest.importorskip("mpmath")
    for t, E in zip(times, exp_blocks(A[None], times)[0]):
        want = mp_exp(mpmath, A, t)
        assert np.max(np.abs(E - want)) <= 1e-15 * np.max(np.abs(want)), t


def test_exp_blocks_of_a_3x3_stack_equal_one_call_per_block():
    # each block and time scales and squares on its own: a stack whose members
    # need different numbers of squarings equals one call per block and time
    op = EvolutionOperator(m=3, n=1, levels={
        0: (fractional_term(1, 1.0),), 1: (fractional_term(1, 1.0),),
        2: (fractional_term(0, 3.0),)})
    A = np.concatenate([op.radial_companion(np.array([0.0, 0.3, 2.0])),
                        _random_blocks(7, 3, 3)])
    times = np.array([0.0, 0.05, 1.0, 37.5])
    norms = np.max(np.sum(np.abs(times[:, None, None] * A[:, None]), axis=-2), axis=-1)
    assert len(set(np.ceil(np.log2(np.maximum(norms / _THETA13, 1.0))).ravel())) > 3
    got = exp_blocks(A, times)
    assert got.shape == (A.shape[0], times.size, 3, 3)
    for block, row in zip(A, got):
        for t, E in zip(times, row):
            assert E.tobytes() == exp_blocks(block[None], [t])[0, 0].tobytes()
