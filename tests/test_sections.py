import itertools
import random
from fractions import Fraction

import pytest

from oracles import fm_lattice_points, random_divisor, sampled_slope_count, vandermonde_oracle
from troptoric.divisor import canonical_divisor, h0, polytope, ray_divisor, zero_divisor
from troptoric.fan import Cone, Fan, hirzebruch, product_p1_p1, projective_plane
from troptoric.sections import (
    SectionModule,
    global_sections,
    h0_a,
    h0_b,
    is_generic_configuration,
    local_slope_count,
    passes_through,
    vandermonde_section,
)
from troptoric.trop import TropPolynomial, supporting_monomials


def hyperplane_sections(d=1):
    p2 = projective_plane()
    return global_sections(p2, d * ray_divisor(p2, (-1, -1)))


def test_global_sections_examples():
    p2 = projective_plane()
    assert hyperplane_sections().generators == ((0, 0), (1, 0), (0, 1))
    assert global_sections(p2, zero_divisor(p2)).generators == ((0, 0),)
    assert global_sections(p2, canonical_divisor(p2)).generators == ()


def test_global_sections_unbounded_errors():
    single = Fan((Cone(((1, 0),)),))
    with pytest.raises(ValueError):
        global_sections(single, zero_divisor(single))
    # complete, but the cone on (1, 0) and (1, 2) has |det| = 2
    singular = Fan((Cone(((1, 0), (1, 2))), Cone(((1, 2), (-1, -1))), Cone(((-1, -1), (1, 0)))))
    with pytest.raises(ValueError, match="global sections require a smooth fan"):
        global_sections(singular, zero_divisor(singular))


def test_local_slope_count_examples():
    m = hyperplane_sections()
    assert local_slope_count(m, (0, 0)) == 3
    m1 = SectionModule(m.fan, zero_divisor(m.fan), ((0, 0),))
    assert local_slope_count(m1, (Fraction(5, 3), -2)) == 1
    m2 = hyperplane_sections(2)
    assert local_slope_count(m2, (Fraction(1, 7), Fraction(2, 5))) == 6
    with pytest.raises(ValueError):
        local_slope_count(SectionModule(m.fan, zero_divisor(m.fan), ()), (0, 0))
    with pytest.raises(ValueError):
        local_slope_count(m, (0, 0, 1))
    with pytest.raises(TypeError):
        local_slope_count(m, (0.5, 0))


def test_h0_a_h0_b_examples():
    p2 = projective_plane()
    assert h0_a(hyperplane_sections()) == 3
    assert h0_b(hyperplane_sections()) == 3
    z = global_sections(p2, zero_divisor(p2))
    assert h0_a(z) == h0_b(z) == 1
    assert h0_a(hyperplane_sections(2)) == 6
    empty = global_sections(p2, canonical_divisor(p2))
    assert h0_a(empty) == h0_b(empty) == 0


def test_sandwich_on_small_sweep():
    rng = random.Random(61)
    oracle_rng = random.Random(62)  # separate, so the divisors drawn stay the same
    for f in (projective_plane(), product_p1_p1(), hirzebruch(2)):
        for _ in range(40):
            d = random_divisor(rng, f, -2, 2)
            m = global_sections(f, d)
            assert set(m.generators) == fm_lattice_points(polytope(d))
            assert sampled_slope_count(m, oracle_rng) == h0_a(m) == int(h0(f, d)) == h0_b(m)


def test_sampled_slope_count_gives_up_on_repeated_generators():
    p2 = projective_plane()
    m = SectionModule(p2, ray_divisor(p2, (-1, -1)), ((0, 0), (0, 0)))
    with pytest.raises(RuntimeError):
        sampled_slope_count(m, random.Random(7), max_draws=50)


def test_generators_are_extremal():
    # pairwise distinct exponents make every generator extremal (the
    # proof is in the SectionModule docstring)
    rng = random.Random(71)
    for f in (projective_plane(), product_p1_p1(), hirzebruch(2)):
        for _ in range(20):
            gens = global_sections(f, random_divisor(rng, f, -2, 3)).generators
            assert len(set(gens)) == len(gens)


def test_vandermonde_example():
    m = hyperplane_sections()
    s = vandermonde_section(m, [(0, 0), (1, 2)])
    assert s.coeff((0, 0)) == 2
    assert s.coeff((1, 0)) == 2
    assert s.coeff((0, 1)) == 1
    assert supporting_monomials(s, (0, 0)) == frozenset({(0, 0), (1, 0)})
    assert s.evaluate((0, 0)) == 2
    assert supporting_monomials(s, (1, 2)) == frozenset({(1, 0), (0, 1)})
    assert s.evaluate((1, 2)) == 3


def test_vandermonde_validation():
    m = hyperplane_sections()
    with pytest.raises(ValueError):
        vandermonde_section(m, [(0, 0)])  # wrong point count
    with pytest.raises(TypeError):
        vandermonde_section(m, [(0.5, 0), (1, 2)])  # float coordinate
    z = global_sections(m.fan, zero_divisor(m.fan))
    with pytest.raises(ValueError):
        vandermonde_section(z, [])


def test_vandermonde_pass_through_random():
    rng = random.Random(67)
    # ranks 6, 10 (the plane cubic, nine points) and 21 (plane quintics)
    for d, rounds in ((2, 25), (3, 5), (5, 2)):
        m = hyperplane_sections(d)
        for _ in range(rounds):
            pts = [
                (Fraction(rng.randint(-12, 12), rng.randint(1, 4)), Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
                for _ in range(m.rank - 1)
            ]
            s = vandermonde_section(m, pts)
            assert all(passes_through(s, p) for p in pts)



def test_vandermonde_matches_per_cofactor_oracle():
    rng = random.Random(68)
    # ranks 10, 21 and 45 (plane cubics, quintics and octics)
    for d in (3, 5, 8):
        m = hyperplane_sections(d)
        pts = [
            (Fraction(rng.randint(-40, 40), rng.randint(1, 4)), Fraction(rng.randint(-40, 40), rng.randint(1, 4)))
            for _ in range(m.rank - 1)
        ]
        assert vandermonde_section(m, pts) == vandermonde_oracle(m, pts)
    # small ranks on other fans, with coinciding points and integer ones
    for f in (product_p1_p1(), hirzebruch(2)):
        for _ in range(30):
            m = global_sections(f, random_divisor(rng, f, 0, 2))
            if m.rank < 2:
                continue
            pool = [(rng.randint(-3, 3), Fraction(rng.randint(-9, 9), rng.randint(1, 3))) for _ in range(3)]
            pts = [rng.choice(pool) for _ in range(m.rank - 1)]
            assert vandermonde_section(m, pts) == vandermonde_oracle(m, pts)

def test_vandermonde_point_order_irrelevant():
    m = hyperplane_sections()
    pts = [(1, 2), (Fraction(-3, 2), 4)]
    sections = {vandermonde_section(m, list(perm)) for perm in itertools.permutations(pts)}
    assert len(sections) == 1


def test_vandermonde_coinciding_points_allowed():
    m = hyperplane_sections()
    s = vandermonde_section(m, [(1, 1), (1, 1)])
    assert passes_through(s, (1, 1))


def test_passes_through_examples():
    line = TropPolynomial(2, [((0, 0), 0), ((1, 0), 0), ((0, 1), 0)])
    assert passes_through(line, (0, 0))
    assert not passes_through(line, (5, 0))
    single = TropPolynomial(2, [((2, 3), 7)])
    assert not passes_through(single, (1, 1))


def test_is_generic_configuration_examples():
    p2 = projective_plane()
    m = SectionModule(p2, ray_divisor(p2, (1, 0)), ((0, 0), (1, 0)))
    assert is_generic_configuration(m, [(1, 0), (0, 1)])
    assert not is_generic_configuration(m, [(0, 0), (0, 0)])
    # a single point admits no cycle on distinct point indices
    assert is_generic_configuration(m, [(1, 1)])
    # coinciding coordinates at distinct indices telescope to zero
    assert not is_generic_configuration(m, [(3, 4), (3, 4)])


def test_rational_points_generic_for_the_hyperplane_class():
    # on P^2 with H, no cycle sum of the three sections vanishes on these
    m = hyperplane_sections()
    assert m.generators == ((0, 0), (1, 0), (0, 1))
    points = [(Fraction(1, 3), Fraction(7, 5)), (Fraction(-11, 7), Fraction(2, 9))]
    assert is_generic_configuration(m, points)
    assert is_generic_configuration(m, [("1/3", "7/5"), ("-11/7", "2/9")])


def test_is_generic_configuration_bound():
    p2 = projective_plane()
    gens = tuple((i, 0) for i in range(8))
    m = SectionModule(p2, zero_divisor(p2), gens)
    with pytest.raises(ValueError):
        is_generic_configuration(m, [(0, 0)])


def test_generic_configuration_three_generators():
    m = hyperplane_sections()
    assert is_generic_configuration(m, [(1, 0), (0, 2)])
    # p1 - p2 aligned so that s2 cycles cancel: l_{1,2}(p1,p2) = <(1,0), p1-p2> = 0
    assert not is_generic_configuration(m, [(2, 5), (2, 1)])
