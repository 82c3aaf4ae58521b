import random
from fractions import Fraction

import pytest

from oracles import laplace_det, random_fraction, random_trop_rows
from troptoric.trop import (
    NEG_INF,
    TropMatrix,
    TropMonomial,
    TropPolynomial,
    TropValue,
    evaluate,
    is_extremal,
    supporting_monomials,
    trop_add,
    trop_det,
    trop_mul,
)


def tropical_line():
    # max(0, x1, x2)
    return TropPolynomial(2, [((0, 0), 0), ((1, 0), 0), ((0, 1), 0)])


def test_trop_add_examples():
    assert trop_add(TropValue(3), TropValue(5)) == TropValue(5)
    assert trop_add(NEG_INF, TropValue(2)) == TropValue(2)
    assert trop_add(NEG_INF, NEG_INF) == NEG_INF


def test_trop_mul_examples():
    assert trop_mul(TropValue(3), TropValue(5)) == TropValue(8)
    v = TropValue(Fraction(7, 3))
    assert trop_mul(TropValue(0), v) == v
    assert trop_mul(NEG_INF, TropValue(7)) == NEG_INF


def test_floats_rejected():
    with pytest.raises(TypeError):
        TropValue(0.5)
    with pytest.raises(TypeError):
        TropPolynomial(1, [((1,), 2.5)])


def test_semiring_laws():
    rng = random.Random(1001)
    pool = [NEG_INF] + [TropValue(random_fraction(rng)) for _ in range(40)]
    zero, one = NEG_INF, TropValue(0)
    for _ in range(300):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert trop_add(a, b) == trop_add(b, a)
        assert trop_mul(a, b) == trop_mul(b, a)
        assert trop_add(trop_add(a, b), c) == trop_add(a, trop_add(b, c))
        assert trop_mul(trop_mul(a, b), c) == trop_mul(a, trop_mul(b, c))
        assert trop_mul(a, trop_add(b, c)) == trop_add(trop_mul(a, b), trop_mul(a, c))
        assert trop_add(a, zero) == a
        assert trop_mul(a, one) == a
        assert trop_mul(a, zero) == zero


def test_trop_det_identity_matrix():
    m = TropMatrix(((TropValue(0), NEG_INF), (NEG_INF, TropValue(0))))
    assert trop_det(m) == (TropValue(0), False)


def test_trop_det_two_by_two():
    # both permutations attain 1+4 = 2+3 = 5, so the maximum is tied
    m = TropMatrix(((TropValue(1), TropValue(2)), (TropValue(3), TropValue(4))))
    assert trop_det(m) == (TropValue(5), True)
    # and a genuinely untied variant
    m2 = TropMatrix(((TropValue(1), TropValue(2)), (TropValue(3), TropValue(5))))
    assert trop_det(m2) == (TropValue(6), False)


def test_trop_det_all_equal_ties():
    m = TropMatrix(((TropValue(0), TropValue(0)), (TropValue(0), TropValue(0))))
    assert trop_det(m) == (TropValue(0), True)
    for k in (12, 20):
        third = Fraction(1, 3)
        assert trop_det(TropMatrix(((third,) * k,) * k)) == (TropValue(k * third), True)


def test_trop_det_neg_inf_counts_as_tie():
    m = TropMatrix(((NEG_INF,),))
    assert trop_det(m) == (NEG_INF, True)
    m2 = TropMatrix(((NEG_INF, TropValue(0)), (NEG_INF, TropValue(1))))
    assert trop_det(m2) == (NEG_INF, True)
    rng = random.Random(5)
    for k in (12, 20):
        rows = random_trop_rows(rng, k, neg_inf_prob=0)
        rows[rng.randrange(k)] = [None] * k
        assert trop_det(TropMatrix(tuple(map(tuple, rows)))) == (NEG_INF, True)


def test_trop_det_dominant_diagonal_beyond_oracle():
    # off-diagonal entries are at most 20 and each diagonal entry exceeds
    # 20, so the identity is the unique optimum
    rng = random.Random(12)
    for k in (12, 20):
        rows = random_trop_rows(rng, k)
        for i in range(k):
            rows[i][i] = 20 + Fraction(rng.randint(1, 40), rng.randint(1, 6))
        value, tie = trop_det(TropMatrix(tuple(map(tuple, rows))))
        assert value == TropValue(sum(rows[i][i] for i in range(k)))
        assert tie is False


def test_trop_det_matches_laplace_oracle():
    # the pool {0, 1, 2} makes tied finite optima common
    rng = random.Random(42)
    finite_ties = 0
    for _ in range(150):
        k = rng.randint(1, 7)
        for rows in (random_trop_rows(rng, k), random_trop_rows(rng, k, pool=(0, 1, 2))):
            value, tie = trop_det(TropMatrix(tuple(tuple(rows[i]) for i in range(k))))
            oracle_value, oracle_count = laplace_det(rows)
            assert value == (NEG_INF if oracle_value is None else TropValue(oracle_value))
            assert tie == (oracle_count >= 2 or oracle_value is None)
            finite_ties += oracle_value is not None and oracle_count >= 2
    assert finite_ties >= 50


def test_evaluate_examples():
    f = tropical_line()
    assert evaluate(f, (0, 0)) == TropValue(0)
    assert evaluate(TropPolynomial(2), (5, 7)) == NEG_INF
    g = TropPolynomial(2, [((1, 1), 2)])
    assert evaluate(g, (3, 4)) == TropValue(9)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate(tropical_line(), (1,))


def test_evaluate_is_convex():
    rng = random.Random(7)
    for _ in range(100):
        exps = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)}
        f = TropPolynomial(2, [(m, random_fraction(rng)) for m in exps])
        x = (random_fraction(rng), random_fraction(rng))
        y = (random_fraction(rng), random_fraction(rng))
        t = Fraction(rng.randint(0, 8), 8)
        mid = tuple(t * a + (1 - t) * b for a, b in zip(x, y))
        lhs = evaluate(f, mid).value
        rhs = t * evaluate(f, x).value + (1 - t) * evaluate(f, y).value
        assert lhs <= rhs


def test_supporting_monomials_examples():
    f = tropical_line()
    assert supporting_monomials(f, (0, 0)) == frozenset({(0, 0), (1, 0), (0, 1)})
    g = TropPolynomial(2, [((0, 0), 0), ((1, 0), 0)])
    assert supporting_monomials(g, (5, 0)) == frozenset({(1, 0)})
    assert supporting_monomials(g, (0, 7)) == frozenset({(0, 0), (1, 0)})


def test_supporting_monomials_generically_single():
    rng = random.Random(99)
    exps = [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)]
    f = TropPolynomial(2, [(m, random_fraction(rng)) for m in exps])
    singletons = 0
    for _ in range(200):
        x = (random_fraction(rng, -50, 50, 11), random_fraction(rng, -50, 50, 13))
        support = supporting_monomials(f, x)
        assert support
        singletons += len(support) == 1
    assert singletons >= 198


def test_supporting_monomials_empty_errors():
    with pytest.raises(ValueError):
        supporting_monomials(TropPolynomial(2), (0, 0))


def test_duplicate_exponents_merge_to_max():
    f = TropPolynomial(1, [((2,), 3), ((2,), 7), ((1,), None)])
    assert f.support == ((2,),)
    assert f.coeff((2,)) == TropValue(7)
    assert f.coeff((1,)) == NEG_INF


def test_polynomial_scaling_and_monomial_shift():
    f = tropical_line()
    g = f.scaled(Fraction(1, 2))
    assert g.coeff((1, 0)) == TropValue(Fraction(1, 2))
    h = f.times_monomial((2, -1), 3)
    assert h.support == ((2, -1), (2, 0), (3, -1))
    assert h.coeff((2, -1)) == TropValue(3)


def test_is_extremal_examples():
    x0 = TropMonomial((0, 0), TropValue(0))
    x10 = TropMonomial((1, 0), TropValue(0))
    x01 = TropMonomial((0, 1), TropValue(0))
    assert is_extremal({x0, x10}, x0)
    assert is_extremal({x0, x10, x01}, x10)
    # equal exponents merge to one generator, which is extremal
    shifted = TropMonomial((0, 0), TropValue(1))
    assert is_extremal([x0, shifted], x0)


def test_is_extremal_requires_membership():
    x0 = TropMonomial((0, 0), TropValue(0))
    other = TropMonomial((5, 5), TropValue(0))
    with pytest.raises(ValueError):
        is_extremal({x0}, other)
