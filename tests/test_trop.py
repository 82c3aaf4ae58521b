import random
from fractions import Fraction

import pytest

from oracles import fraction_support, laplace_det, random_fraction, random_polynomial, random_trop_rows
from troptoric.sections import generator_value
from troptoric.trop import (
    TropPolynomial,
    _maximal_minors,
    as_fraction,
    evaluate,
    supporting_monomials,
    trop_det,
)


def tropical_line():
    # max(0, x1, x2)
    return TropPolynomial(2, [((0, 0), 0), ((1, 0), 0), ((0, 1), 0)])


def test_floats_rejected():
    with pytest.raises(TypeError):
        trop_det([[0.5]])
    with pytest.raises(TypeError):
        TropPolynomial(1, [((1,), 2.5)])
    with pytest.raises(TypeError):
        evaluate(tropical_line(), (0.5, 0))
    # bool is an int subclass, but True is not a number
    for x in (True, False):
        with pytest.raises(TypeError):
            as_fraction(x)
    with pytest.raises(TypeError):
        generator_value((1, 2), (True, False))
    with pytest.raises(TypeError):
        tropical_line().times_monomial((2.5, True))


@pytest.mark.parametrize("dimension", [2.5, True, "2"])
def test_dimension_must_be_an_int(dimension):
    # the same rule for dimensions and exponents
    with pytest.raises(TypeError):
        TropPolynomial(dimension)
    with pytest.raises(TypeError):
        TropPolynomial(2, [((dimension, 0), 1)])
    with pytest.raises(TypeError):
        tropical_line().times_monomial((0, dimension))


def test_polynomial_repr_equality_and_validation():
    assert repr(tropical_line()) == "TropPolynomial(2, {(0, 0):0, (0, 1):0, (1, 0):0})"
    assert repr(TropPolynomial(1, [((1,), Fraction(-3, 2))])) == "TropPolynomial(1, {(1,):-3/2})"
    assert repr(TropPolynomial(2)) == "TropPolynomial(2, -oo)"
    # another type is never equal: __eq__ returns NotImplemented, and the
    # reflected int comparison does too, so == falls back to identity
    assert TropPolynomial(2).__eq__(5) is NotImplemented
    assert (TropPolynomial(2) == 5) is False and TropPolynomial(2) != 5
    with pytest.raises(ValueError, match="dimension must be nonnegative"):
        TropPolynomial(-1)
    with pytest.raises(ValueError, match="exponent dimension mismatch"):
        TropPolynomial(2, [((1, 2, 3), 0)])


@pytest.mark.parametrize("rows", [[], [[0, 1]], [[0, 1], [2]], [[0], [1]]])
def test_trop_det_rejects_empty_and_non_square(rows):
    with pytest.raises(ValueError):
        trop_det(rows)


def test_trop_det_identity_matrix():
    assert trop_det([[0, None], [None, 0]]) == (0, False)


def test_trop_det_two_by_two():
    # both permutations attain 1+4 = 2+3 = 5, so the maximum is tied
    assert trop_det([[1, 2], [3, 4]]) == (5, True)
    # and a genuinely untied variant
    assert trop_det([[1, 2], [3, 5]]) == (6, False)


def test_trop_det_all_equal_ties():
    assert trop_det([[0, 0], [0, 0]]) == (0, True)
    for k in (12, 20):
        third = Fraction(1, 3)
        assert trop_det([[third] * k] * k) == (k * third, True)


def test_trop_det_neg_inf_counts_as_tie():
    assert trop_det([[None]]) == (None, True)
    assert trop_det([[None, 0], [None, 1]]) == (None, True)
    rng = random.Random(5)
    for k in (12, 20):
        rows = random_trop_rows(rng, k, neg_inf_prob=0)
        rows[rng.randrange(k)] = [None] * k
        assert trop_det(rows) == (None, True)


def test_trop_det_dominant_diagonal_beyond_oracle():
    # off-diagonal entries are at most 20 and each diagonal entry exceeds
    # 20, so the identity is the unique optimum
    rng = random.Random(12)
    for k in (12, 20):
        rows = random_trop_rows(rng, k)
        for i in range(k):
            rows[i][i] = 20 + Fraction(rng.randint(1, 40), rng.randint(1, 6))
        value, tie = trop_det(rows)
        assert value == sum(rows[i][i] for i in range(k))
        assert tie is False


def test_trop_det_matches_laplace_oracle():
    # the pool {0, 1, 2} makes tied finite optima common
    rng = random.Random(42)
    finite_ties = 0
    for _ in range(150):
        k = rng.randint(1, 7)
        for rows in (random_trop_rows(rng, k), random_trop_rows(rng, k, pool=(0, 1, 2))):
            value, tie = trop_det(rows)
            oracle_value, oracle_count = laplace_det(rows)
            assert value == oracle_value
            assert value is None or type(value) is Fraction
            assert tie == (oracle_count >= 2 or oracle_value is None)
            finite_ties += oracle_value is not None and oracle_count >= 2
    assert finite_ties >= 50



def _cofactors(rows, det):
    return [det([row[:i] + row[i + 1:] for row in rows])[0] for i in range(len(rows[0]))]


def _minor_rows(rng, k):
    """A k x (k+1) integer matrix: tie-dense small entries or wide ones,
    and some of its rows repeated, as coinciding points give."""
    span = rng.choice((1, 3, 20, 10**6))
    rows = [[rng.randint(-span, span) for _ in range(k + 1)] for _ in range(k)]
    for _ in range(rng.randint(0, k - 1)):
        rows[rng.randrange(k)] = list(rows[rng.randrange(k)])
    return rows


def test_maximal_minors_match_per_cofactor_trop_det():
    rng = random.Random(15)
    repeated = 0
    for _ in range(2000):
        k = rng.randint(1, 9)
        rows = _minor_rows(rng, k)
        assert _maximal_minors(rows) == _cofactors(rows, trop_det)
        repeated += len({tuple(r) for r in rows}) < k
    assert repeated >= 600


def test_maximal_minors_match_laplace_oracle():
    rng = random.Random(16)
    for _ in range(200):
        rows = _minor_rows(rng, rng.randint(1, 6))
        assert _maximal_minors(rows) == _cofactors(rows, laplace_det)


def test_maximal_minors_examples():
    assert _maximal_minors([[3, -1]]) == [-1, 3]
    assert _maximal_minors([[0, 0, 0], [0, 0, 0]]) == [0, 0, 0]
    assert _maximal_minors([[1, 0, 0], [0, 1, 0]]) == [1, 1, 2]


def test_evaluation_matches_fraction_sums():
    # integer points on small-pool polynomials tie often; the rest are rational
    rng = random.Random(17)
    ties = 0
    for _ in range(1500):
        if rng.random() < 0.5:
            f = random_polynomial(rng, max_terms=10, exp_range=3, pool=(-1, 0, 1))
            x = (rng.randint(-2, 2), rng.randint(-2, 2))
        else:
            f = random_polynomial(rng, max_terms=10, exp_range=5, max_den=7)
            x = (random_fraction(rng, max_den=9), random_fraction(rng, max_den=5))
        value, support = fraction_support(f, x)
        assert evaluate(f, x) == value and type(evaluate(f, x)) is Fraction
        assert supporting_monomials(f, x) == support
        ties += len(support) >= 2
    assert ties >= 150
    f = TropPolynomial(3, [((1, 0, 2), Fraction(1, 3)), ((0, 1, 0), Fraction(-1, 2))])
    x = (Fraction(1, 6), "1/3", 0)
    assert (evaluate(f, x), supporting_monomials(f, x)) == fraction_support(f, (Fraction(1, 6), Fraction(1, 3), 0))

def test_evaluate_examples():
    f = tropical_line()
    assert evaluate(f, (0, 0)) == 0
    assert evaluate(TropPolynomial(2), (5, 7)) is None
    g = TropPolynomial(2, [((1, 1), 2)])
    assert evaluate(g, (3, 4)) == 9


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
        lhs = evaluate(f, mid)
        rhs = t * evaluate(f, x) + (1 - t) * evaluate(f, y)
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
    assert f.coeff((2,)) == 7
    assert f.coeff((1,)) is None


def test_polynomial_scaling_and_monomial_shift():
    f = tropical_line()
    g = f.scaled(Fraction(1, 2))
    assert g.coeff((1, 0)) == Fraction(1, 2)
    h = f.times_monomial((2, -1), 3)
    assert h.support == ((2, -1), (2, 0), (3, -1))
    assert h.coeff((2, -1)) == 3
