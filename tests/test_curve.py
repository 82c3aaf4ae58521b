import random
from fractions import Fraction

import pytest

from oracles import on_newton_boundary, random_divisor, random_polynomial, upper_hull_cells2
from troptoric.curve import (
    LineEdge,
    RayEdge,
    SegmentEdge,
    WeightedComplex,
    corner_locus,
    degree_from_polygon,
    hull_vertices,
    is_balanced,
    newton_subdivision,
)
from troptoric.divisor import degree_along_ray, divisor_of_section, lattice_points, polytope, principal_divisor
from troptoric.fan import hirzebruch, product_p1_p1, projective_plane
from troptoric.trop import TropPolynomial


def tropical_line():
    return TropPolynomial(2, [((0, 0), 0), ((1, 0), 0), ((0, 1), 0)])


def test_newton_subdivision_examples():
    sub = newton_subdivision(tropical_line())
    assert sub.cells2 == (frozenset({(0, 0), (1, 0), (0, 1)}),)
    assert all(e.boundary for e in sub.edges)
    # three lifted points are always coplanar: still a single cell
    tilted = TropPolynomial(2, [((0, 0), 0), ((1, 0), 0), ((0, 1), -10)])
    assert len(newton_subdivision(tilted).cells2) == 1
    single = newton_subdivision(TropPolynomial(2, [((3, 2), 5)]))
    assert single.cells2 == () and single.edges == () and single.cells0 == ((3, 2),)


def test_newton_subdivision_split_square():
    # lifting (1,1) below the others splits the unit square in two
    g = TropPolynomial(2, [((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((1, 1), -1)])
    sub = newton_subdivision(g)
    assert set(sub.cells2) == {
        frozenset({(0, 0), (1, 0), (0, 1)}),
        frozenset({(1, 0), (0, 1), (1, 1)}),
    }
    diagonal = [e for e in sub.edges if e.points == frozenset({(1, 0), (0, 1)})]
    assert len(diagonal) == 1 and not diagonal[0].boundary


def test_newton_subdivision_matches_upper_hull_oracle():
    rng = random.Random(101)
    for _ in range(120):
        g = random_polynomial(rng)
        assert set(newton_subdivision(g).cells2) == upper_hull_cells2(g)


def test_corner_locus_tropical_line():
    wc = corner_locus(tropical_line())
    assert wc.vertices == ((Fraction(0), Fraction(0)),)
    assert {(r.direction, r.weight) for r in wc.rays} == {
        ((-1, 0), 1),
        ((0, -1), 1),
        ((1, 1), 1),
    }
    assert wc.segments == () and wc.lines == ()


def test_corner_locus_lattice_length_two():
    g = TropPolynomial(2, [((0, 0), 0), ((2, 0), 0)])
    wc = corner_locus(g)
    assert wc.vertices == ()
    assert len(wc.lines) == 1
    line = wc.lines[0]
    assert line.weight == 2
    assert line.direction in ((0, 1), (0, -1))
    assert line.anchor == (Fraction(0), Fraction(0))


def test_corner_locus_single_monomial_empty():
    wc = corner_locus(TropPolynomial(2, [((4, 1), 2)]))
    assert wc.is_empty
    with pytest.raises(ValueError):
        corner_locus(TropPolynomial(2))


def test_corner_locus_parallel_lines():
    g = TropPolynomial(2, [((0, 0), 0), ((1, 0), 0), ((2, 0), -10)])
    wc = corner_locus(g)
    assert wc.vertices == () and len(wc.lines) == 2
    assert sorted(l.weight for l in wc.lines) == [1, 1]


def test_is_balanced_examples():
    assert is_balanced(corner_locus(tropical_line()))
    dangling = WeightedComplex(
        vertices=((Fraction(0), Fraction(0)),),
        rays=(RayEdge(0, (1, 0), 1),),
    )
    assert not is_balanced(dangling)
    assert is_balanced(WeightedComplex(vertices=()))


def test_balancing_on_random_polynomials():
    rng = random.Random(103)
    for _ in range(150):
        wc = corner_locus(random_polynomial(rng))
        assert is_balanced(wc)


def test_duality_counts():
    rng = random.Random(107)
    for _ in range(120):
        g = random_polynomial(rng)
        sub = newton_subdivision(g)
        wc = corner_locus(g)
        assert len(wc.vertices) == len(sub.cells2)
        assert len(wc.segments) + len(wc.rays) + len(wc.lines) == len(sub.edges)
        for e in sub.edges:
            assert e.boundary == on_newton_boundary(g.support, e.points)
        if wc.lines:  # collinear support: no 2-cells at all
            assert sub.cells2 == ()
            assert len(wc.lines) == sum(e.boundary for e in sub.edges)
        else:
            assert len(wc.rays) == sum(e.boundary for e in sub.edges)


def test_rays_match_boundary_edges():
    rng = random.Random(109)
    for _ in range(120):
        g = random_polynomial(rng)
        sub = newton_subdivision(g)
        wc = corner_locus(g)
        if wc.lines:
            continue  # collinear support: no 2-cells, handled in duality test
        for e in sub.edges:
            assert e.boundary == on_newton_boundary(g.support, e.points)
        assert len(wc.rays) == sum(1 for e in sub.edges if e.boundary)
        assert len(wc.segments) == sum(1 for e in sub.edges if not e.boundary)


def test_decomposition_degrees_match_min_formula():
    rng = random.Random(113)
    fans = (projective_plane(), product_p1_p1(), hirzebruch(2))
    for f in fans:
        for _ in range(40):
            d = random_divisor(rng, f, 0, 3)
            pts = lattice_points(polytope(d))
            if len(pts) < 2:
                continue
            g = TropPolynomial(2, [(m, rng.randint(-4, 4)) for m in pts])
            for ray in f.rays:
                assert degree_from_polygon(g, ray) == degree_along_ray(g, ray)


def test_locus_invariance_under_scaling_and_shift():
    rng = random.Random(127)
    p2 = projective_plane()
    for _ in range(40):
        g = random_polynomial(rng, max_terms=6)
        assert corner_locus(g) == corner_locus(g.scaled(Fraction(7, 3)))
        m = (rng.randint(-2, 2), rng.randint(-2, 2))
        shifted = g.times_monomial(m, 5)
        assert corner_locus(shifted) == corner_locus(g)
        _, ray_part = divisor_of_section(p2, g)
        _, ray_part_shifted = divisor_of_section(p2, shifted)
        assert ray_part_shifted == ray_part + principal_divisor(m, p2)


def test_hull_vertices():
    assert hull_vertices([(0, 0)]) == [(0, 0)]
    assert hull_vertices([(0, 0), (2, 0), (1, 0)]) == [(0, 0), (2, 0)]
    square = hull_vertices([(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)])
    assert set(square) == {(0, 0), (1, 0), (1, 1), (0, 1)}
    tri = hull_vertices([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)])
    assert set(tri) == {(0, 0), (2, 0), (0, 2)}


def test_segment_between_vertices():
    g = TropPolynomial(2, [((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((1, 1), -1)])
    wc = corner_locus(g)
    assert set(wc.vertices) == {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))}
    assert len(wc.segments) == 1 and wc.segments[0].weight == 1
    assert len(wc.rays) == 4
    assert is_balanced(wc)


def test_weighted_complex_to_dict():
    wc = corner_locus(tropical_line())
    d = wc.to_dict()
    assert d["vertices"] == [[0, 0]]
    assert len(d["rays"]) == 3 and d["segments"] == [] and d["lines"] == []
