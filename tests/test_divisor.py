import random
from fractions import Fraction

import pytest

from oracles import fm_lattice_points, random_blowup_fan, random_divisor
from troptoric.divisor import (
    H0Value,
    ToricDivisor,
    UnboundedPolytopeError,
    canonical_divisor,
    degree_along_ray,
    divisor_from_dict,
    divisor_of_section,
    h0,
    lattice_points,
    linearly_equivalent,
    polytope,
    principal_divisor,
    ray_divisor,
    zero_divisor,
)
from troptoric.fan import Cone, Fan, hirzebruch, product_p1_p1, projective_plane
from troptoric.trop import TropPolynomial


def tropical_line():
    return TropPolynomial(2, [((0, 0), 0), ((1, 0), 0), ((0, 1), 0)])


def test_principal_divisor_examples():
    p2 = projective_plane()
    assert principal_divisor((0, 0), p2).coeffs == (0, 0, 0)
    assert principal_divisor((1, 0), p2).coeffs == (1, 0, -1)
    assert principal_divisor((2, 3), p2).coeffs == (2, 3, -5)


def test_principal_divisor_is_linear():
    rng = random.Random(5)
    for f in (projective_plane(), hirzebruch(2)):
        for _ in range(50):
            m1 = (rng.randint(-4, 4), rng.randint(-4, 4))
            m2 = (rng.randint(-4, 4), rng.randint(-4, 4))
            s = (m1[0] + m2[0], m1[1] + m2[1])
            assert principal_divisor(s, f) == principal_divisor(m1, f) + principal_divisor(m2, f)


def test_canonical_divisor():
    assert canonical_divisor(projective_plane()).coeffs == (-1, -1, -1)
    assert canonical_divisor(hirzebruch(2)).coeffs == (-1, -1, -1, -1)
    from troptoric.fan import blow_up

    b = blow_up(projective_plane(), Cone(((1, 0), (0, 1))))
    assert canonical_divisor(b).coeffs == (-1, -1, -1, -1)


def test_linearly_equivalent_examples():
    p2 = projective_plane()
    d1 = ray_divisor(p2, (1, 0))
    d2 = ray_divisor(p2, (0, 1))
    assert linearly_equivalent(d1, d2) == (1, -1)
    assert linearly_equivalent(d1, d1) == (0, 0)
    assert linearly_equivalent(d1, 2 * d1) is None


def test_linearly_equivalent_respects_principal_shifts():
    rng = random.Random(17)
    for f in (projective_plane(), hirzebruch(1), product_p1_p1()):
        for _ in range(30):
            d = random_divisor(rng, f, -4, 4)
            m = (rng.randint(-3, 3), rng.randint(-3, 3))
            assert linearly_equivalent(d + principal_divisor(m, f), d) == m


def test_polytope_examples():
    p2 = projective_plane()
    h = ray_divisor(p2, (-1, -1))
    p = polytope(h)
    assert p.bounded
    assert set(p.vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    }
    p0 = polytope(zero_divisor(p2))
    assert p0.vertices == ((Fraction(0), Fraction(0)),)
    single = Fan((Cone(((1, 0),)),))
    phalf = polytope(zero_divisor(single))
    assert not phalf.bounded and phalf.vertices == ()


def test_polytope_vertices_satisfy_inequalities():
    rng = random.Random(23)
    for f in (projective_plane(), hirzebruch(2)):
        for _ in range(40):
            p = polytope(random_divisor(rng, f, -4, 4))
            for v in p.vertices:
                tight = 0
                for ex, ey, a in p.inequalities:
                    val = ex * v[0] + ey * v[1] + a
                    assert val >= 0
                    tight += val == 0
                assert tight >= 2


def test_lattice_points_examples():
    p2 = projective_plane()
    h = ray_divisor(p2, (-1, -1))
    assert lattice_points(polytope(h)) == ((0, 0), (1, 0), (0, 1))
    assert len(lattice_points(polytope(2 * h))) == 6
    empty = -1 * ray_divisor(p2, (1, 0))
    assert lattice_points(polytope(empty)) == ()


def test_lattice_points_unbounded():
    single = Fan((Cone(((1, 0),)),))
    with pytest.raises(UnboundedPolytopeError):
        lattice_points(polytope(zero_divisor(single)))
    # unbounded but empty: m1 >= 1 and m1 <= -1
    line = Fan((Cone(((1, 0),)), Cone(((-1, 0),))))
    p = polytope(ToricDivisor(line, (-1, -1)))
    assert p.inequalities == ((1, 0, -1), (-1, 0, -1))
    assert not p.bounded
    assert lattice_points(p) == ()


def test_polytope_bounded_is_the_fan_fact():
    # three 1-cones whose rays span the plane: bounded but not complete
    spread = Fan(tuple(Cone((r,)) for r in ((1, 0), (0, 1), (-1, -1))))
    line = Fan((Cone(((1, 0),)), Cone(((-1, 0),))))
    single = Fan((Cone(((1, 0),)),))
    rng = random.Random(53)
    for f, bounded in (
        (projective_plane(), True),
        (hirzebruch(2), True),
        (spread, True),
        (line, False),
        (single, False),
    ):
        assert f.bounded == bounded
        for _ in range(5):
            assert polytope(random_divisor(rng, f, -3, 3)).bounded == bounded


def test_polytope_equality_ignores_read_vertices():
    d = ToricDivisor(hirzebruch(2), (2, -1, 3, 1))
    p, q = polytope(d), polytope(d)
    assert p.vertices == ((Fraction(-2), Fraction(1)), (Fraction(5), Fraction(1)))
    assert "vertices" in vars(p) and "vertices" not in vars(q)
    assert p == q and hash(p) == hash(q)


def test_h0_closed_forms():
    p2 = projective_plane()
    h = ray_divisor(p2, (-1, -1))
    assert [int(h0(p2, d * h)) for d in range(6)] == [1, 3, 6, 10, 15, 21]
    pp = product_p1_p1()
    for a in range(4):
        for b in range(4):
            d = a * ray_divisor(pp, (1, 0)) + b * ray_divisor(pp, (0, 1))
            assert h0(pp, d) == (a + 1) * (b + 1)
    assert h0(p2, canonical_divisor(p2)) == 0


def test_h0_matches_lattice_point_count():
    rng = random.Random(31)
    for f in (projective_plane(), hirzebruch(1)):
        for _ in range(60):
            d = random_divisor(rng, f, -4, 4)
            assert int(h0(f, d)) == len(lattice_points(polytope(d)))
    # coefficient scale 60 on blown-up fans; every fifth divisor is also
    # checked against box enumeration, which shares no code with the rows
    for _ in range(3):
        f = random_blowup_fan(rng)
        for k in range(20):
            d = random_divisor(rng, f, -60, 60)
            n = int(h0(f, d))
            assert n == len(lattice_points(polytope(d)))
            if k % 5 == 0:
                assert n == len(fm_lattice_points(polytope(d).inequalities))


def test_h0_infinite_and_errors():
    single = Fan((Cone(((1, 0),)),))
    assert not h0(single, zero_divisor(single)).is_finite
    # bounded but not complete: three 1-cones whose rays span the plane
    rays = ((1, 0), (0, 1), (-1, -1))
    spread = Fan(tuple(Cone((r,)) for r in rays))
    assert h0(spread, ToricDivisor(spread, (2, 0, 1))) == 10
    # a line: P(D) is a vertical strip, empty or unbounded
    line = Fan((Cone(((1, 0),)), Cone(((-1, 0),))))
    assert h0(line, ToricDivisor(line, (-1, -1))) == 0
    assert not h0(line, ToricDivisor(line, (0, 0))).is_finite
    nonsmooth = Fan((Cone(((1, 0), (1, 2))),))
    with pytest.raises(ValueError):
        h0(nonsmooth, zero_divisor(nonsmooth))


def test_h0_translation_invariance():
    rng = random.Random(37)
    for f in (projective_plane(), product_p1_p1(), hirzebruch(3)):
        for _ in range(40):
            d = random_divisor(rng, f, -4, 4)
            m = (rng.randint(-5, 5), rng.randint(-5, 5))
            assert h0(f, d) == h0(f, d + principal_divisor(m, f))


def test_h0_monotone():
    rng = random.Random(41)
    for f in (projective_plane(), hirzebruch(2)):
        for _ in range(40):
            d = random_divisor(rng, f, -4, 4)
            bump = tuple(rng.randint(0, 2) for _ in f.rays)
            d2 = d + ToricDivisor(f, bump)
            assert int(h0(f, d)) <= int(h0(f, d2))


def test_lattice_points_match_fm_oracle():
    rng = random.Random(43)
    for f in (projective_plane(), product_p1_p1(), random_blowup_fan(rng)):
        for _ in range(60):
            p = polytope(random_divisor(rng, f, -5, 5))
            assert set(lattice_points(p)) == fm_lattice_points(p.inequalities)


def test_degree_along_ray_examples():
    f = tropical_line()
    assert degree_along_ray(f, (-1, -1)) == -1
    assert degree_along_ray(f, (1, 0)) == 0
    g = TropPolynomial(2, [((3, -2), 5)])
    assert degree_along_ray(g, (0, 1)) == -2
    with pytest.raises(ValueError):
        degree_along_ray(TropPolynomial(2), (1, 0))


def test_sections_satisfy_divisor_bound():
    # every monomial from P(D) has deg(x^m)_ray + a_ray >= 0
    rng = random.Random(47)
    for f in (projective_plane(), hirzebruch(1)):
        for _ in range(30):
            d = random_divisor(rng, f, 0, 4)
            pts = lattice_points(polytope(d))
            if not pts:
                continue
            g = TropPolynomial(2, [(m, rng.randint(-3, 3)) for m in pts])
            for ray, a in zip(f.rays, d.coeffs):
                assert degree_along_ray(g, ray) + a >= 0


def test_divisor_of_section_examples():
    p2 = projective_plane()
    inner, ray_part = divisor_of_section(p2, tropical_line())
    assert inner.vertices == ((Fraction(0), Fraction(0)),)
    assert ray_part.coeffs == (0, 0, -1)
    inner0, ray0 = divisor_of_section(p2, TropPolynomial(2, [((0, 0), 0)]))
    assert inner0.is_empty and ray0.coeffs == (0, 0, 0)
    inner1, ray1 = divisor_of_section(p2, TropPolynomial(2, [((1, 0), 0)]))
    assert inner1.is_empty and ray1.coeffs == (1, 0, -1)


def test_divisor_json_round_trip():
    p2 = projective_plane()
    d = ToricDivisor(p2, (2, 0, -1))
    assert divisor_from_dict(p2, d.to_dict()) == d
    with pytest.raises(ValueError):
        divisor_from_dict(p2, {"coeffs": {"0": 1, "1": 0}})
    with pytest.raises(ValueError):
        divisor_from_dict(p2, {"coeffs": {"0": 1, "1": 0, "2": 0, "3": 9}})
    for coeffs in ({"0": True, "1": 0, "2": 1}, {"0": 1.5, "1": 0, "2": 1}, [1, 0, 1]):
        with pytest.raises(TypeError):
            divisor_from_dict(p2, {"coeffs": coeffs})


def test_h0value_semantics():
    assert H0Value.finite(3) == 3
    assert H0Value.infinite() != 3
    assert not H0Value.infinite().is_finite
    with pytest.raises(ValueError):
        int(H0Value.infinite())
