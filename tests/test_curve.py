import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from oracles import (
    on_newton_boundary,
    random_blowup_fan,
    random_collinear_polynomial,
    random_divisor,
    random_polynomial,
    upper_chain,
    upper_hull_cells2,
    upper_hull_dual,
)
from troptoric import curve
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
from troptoric.divisor import (
    ToricDivisor,
    degree_along_ray,
    divisor_of_section,
    lattice_points,
    principal_divisor,
    ray_divisor,
)
from troptoric.fan import hirzebruch, product_p1_p1, projective_plane
from troptoric.intersect import pairing
from troptoric.sections import global_sections
from troptoric.trop import TropPolynomial


def tropical_line():
    return TropPolynomial(2, [((0, 0), 0), ((1, 0), 0), ((0, 1), 0)])


def tie_dense_and_collinear(seed, n=60):
    """Coefficients in {-1, 0, 1} (polygonal cells), then collinear supports."""
    rng = random.Random(seed)
    polys = [random_polynomial(rng, max_terms=14, pool=(-1, 0, 1)) for _ in range(n)]
    return polys + [random_collinear_polynomial(rng) for _ in range(n // 2)]


def general_section(rng, pool=None, degree=7):
    """A section of O(degree * H) on P^2, 36 terms at degree 7: a concave
    lift perturbed by thousandths (a triangulation, every exponent a
    corner), or coefficients drawn from ``pool``."""
    p2 = projective_plane()
    terms = []
    a, b, c = rng.randint(2, 6), rng.randint(2, 6), rng.randint(-1, 1)
    for m in global_sections(p2, ToricDivisor(p2, (0, 0, degree))).generators:
        if pool is None:
            terms.append((m, -(a * m[0] ** 2 + b * m[1] ** 2 + c * m[0] * m[1]) + Fraction(rng.randint(-100, 100), 1000)))
        else:
            terms.append((m, rng.choice(pool)))
    return TropPolynomial(2, terms)


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
    polys = [random_polynomial(rng) for _ in range(120)] + tie_dense_and_collinear(131)
    polygonal = 0
    for g in polys:
        assert set(newton_subdivision(g).cells2) == upper_hull_cells2(g)
        dual = upper_hull_dual(g)
        wc = corner_locus(g)
        assert wc.vertices == tuple(sorted(dual.values()))
        cell_at = {v: cell for cell, v in dual.items()}
        for seg in wc.segments:
            # the two cells share exactly the dual edge, whose extremes sort first and last
            shared = sorted(cell_at[wc.vertices[seg.ends[0]]] & cell_at[wc.vertices[seg.ends[1]]])
            a, b = shared[0], shared[-1]
            assert seg.weight == math.gcd(b[0] - a[0], b[1] - a[1])
        polygonal += sum(len(cell) >= 4 for cell in dual)
    assert polygonal > 0


@pytest.mark.parametrize("pool", [None, (-1, 0, 1)], ids=["concave", "tie-dense"])
def test_36_terms_match_upper_hull_oracle(pool):
    # the benchmark's largest sections; its own oracle stops at 21 terms
    g = general_section(random.Random(157), pool)
    assert len(g) == 36
    dual = upper_hull_dual(g)
    sub = newton_subdivision(g)
    wc = corner_locus(g)
    assert dict(zip(sub.cells2, wc.vertices)) == dual
    assert wc.vertices == tuple(sorted(dual.values()))
    assert is_balanced(wc)
    if pool is None:
        assert len(sub.cells2) == 49 and len(sub.cells0) == 36  # 2 * 15 interior + 21 boundary - 2
    else:
        assert any(len(cell) >= 4 for cell in sub.cells2)


def curve_bytes(wc, sub):
    """A corner locus and a Newton subdivision, in their order, as one
    JSON line; each cell's and each edge's points sorted."""
    return json.dumps([
        wc.to_dict(),
        [sorted(cell) for cell in sub.cells2],
        [[sorted(e.points), e.boundary] for e in sub.edges],
        sub.cells0,
    ])


def pinned_inputs(kind):
    rng = random.Random(163)
    if kind == "random":
        return [random_polynomial(rng, max_terms=12) for _ in range(150)]
    if kind == "tie-dense":
        return [random_polynomial(rng, max_terms=14, pool=(-1, 0, 1)) for _ in range(150)]
    if kind == "collinear":
        return [random_collinear_polynomial(rng) for _ in range(80)]
    if kind == "36-terms":
        return [general_section(rng, pool) for pool in (None, (-1, 0, 1), None, (-2, -1, 0, 1, 2))]
    return [general_section(rng, degree=10)]


CURVE_DIGESTS = {
    "random": "604ed5c737d9681ee1aef0b1fd0fb88ab1719723f1b1cd688f16a2ebcbd582b6",
    "tie-dense": "1ff1035d50d1883e43d34454f0338b22c76eb8a66c2f47fa8285648b6678c7a6",
    "collinear": "c3571fa46f4617f062fcf75d88e32972f4350f4bc1b095b5ac181ac749957f5f",
    "36-terms": "edbb32be5adfc53f2036cbd590f957559979e891dbbf93582c2dac882c6b87df",
    "66-terms": "f8515f70c703e75bf50c836203c179e95c2c9b919c9718b38213e9c3aac9c762",
}


@pytest.mark.parametrize(
    "kind, subdivisions_first",
    [pytest.param(kind, False, id=kind) for kind in CURVE_DIGESTS]
    + [pytest.param(kind, True, id=f"{kind}-subdivisions-first") for kind in CURVE_DIGESTS],
)
def test_curve_output_bytes_pinned(kind, subdivisions_first):
    # order, ends orientation, flags and cells0 of every input, pinned by
    # sha256; the same bytes whether each locus or every subdivision comes first
    polys = pinned_inputs(kind)
    if subdivisions_first:
        subs = [newton_subdivision(g) for g in polys]
        pairs = zip([corner_locus(g) for g in polys], subs)
    else:
        pairs = ((corner_locus(g), newton_subdivision(g)) for g in polys)
    out = "\n".join(curve_bytes(wc, sub) for wc, sub in pairs)
    assert hashlib.sha256(out.encode()).hexdigest() == CURVE_DIGESTS[kind]


def lifted(terms):
    """Integer terms lifted as the gift-wrap lifts them: (x, y, h, i) in
    increasing exponent order, i the position."""
    return [(m[0], m[1], h, i) for i, (m, h) in enumerate(sorted(terms))]


def start_edge_inputs(rng):
    """Tie-dense pools, negative exponents, and supports whose first
    boundary edge from the least exponent holds three to five exponents,
    a middle one lifted above, on or below the chord of its neighbours."""
    for _ in range(900):
        n = rng.randint(2, 14)
        exps = {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n)}
        pool = rng.choice(((-1, 0, 1), (0,), (-3, -2, -1, 0, 1, 2, 3)))
        yield [(m, rng.choice(pool)) for m in exps], None
    for _ in range(1500):
        p = (rng.randint(-3, 3), rng.randint(-3, 3))
        d = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2), (1, -3), (3, 2)))
        k = rng.randint(3, 5)
        line = [(p[0] + t * d[0], p[1] + t * d[1]) for t in range(k)]
        heights = [rng.randint(-4, 4) for _ in line]
        mid = rng.randrange(1, k - 1)
        lift = rng.choice((-1, 0, 1))  # the middle exponent: below, on or above its chord
        if lift:
            heights[mid] = (heights[mid - 1] + heights[mid + 1]) // 2 + lift
        else:
            heights[mid + 1] = 2 * heights[mid] - heights[mid - 1]
        terms = dict(zip(line, heights))
        # others strictly left of p -> p + d and after p, so that the line
        # is the boundary edge that leaves p counterclockwise
        for _ in range(rng.randint(0, 8)):
            m = (p[0] + rng.randint(0, 6), p[1] + rng.randint(-6, 6))
            if m > p and d[0] * (m[1] - p[1]) - d[1] * (m[0] - p[0]) > 0:
                terms.setdefault(m, rng.randint(-4, 4))
        yield list(terms.items()), lift


def test_start_edge_matches_upper_chain_of_first_hull_edge():
    # one scan against the previous route: the first edge of the upper
    # chain over the first two corners of the hull; a tie goes to the
    # farther point, so a rule that kept the nearer one fails here
    rng = random.Random(181)
    seen = {"collinear": 0, -1: 0, 0: 0, 1: 0}
    inputs = 0
    for terms, lift in start_edge_inputs(rng):
        inputs += 1
        pts = lifted(terms)
        at = {t[:2]: t for t in pts}
        corners = hull_vertices(at)
        start = curve._start_edge(pts)
        if len(corners) == 2:
            assert start[2]
            seen["collinear"] += 1
            continue
        assert start == (*upper_chain(pts, at[corners[0]], at[corners[1]])[0][:2], False)
        if lift is not None:
            seen[lift] += 1
    assert inputs >= 2000
    assert min(seen.values()) >= 100, seen


def collinear_lifts(rng):
    """Lifted points on one lattice line, vertical and negative slopes
    included, their heights from a tie pool, on one line, on a concave
    curve or wide apart."""
    steps = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -3), (2, -1), (3, 2))
    for _ in range(2400):
        step = rng.choice(steps)
        base = (rng.randint(-3, 3), rng.randint(-3, 3))
        ts = rng.sample(range(-6, 7), rng.randint(2, 9))
        kind = rng.choice(("pool", "line", "concave", "wide"))
        slope, level = rng.randint(-3, 3), rng.randint(-5, 5)
        heights = {
            "pool": lambda t: rng.choice((-1, 0, 1)),
            "line": lambda t: slope * t + level + rng.choice((0, 0, -1)),
            "concave": lambda t: level - t * t + slope * t,
            "wide": lambda t: rng.randint(-40, 40),
        }[kind]
        terms = [((base[0] + t * step[0], base[1] + t * step[1]), heights(t)) for t in ts]
        yield step, lifted(terms)


def test_line_chain_matches_upper_chain():
    # the collinear chain, one steepest-rise scan from each chain end,
    # against the hull of the points keyed by position and height
    rng = random.Random(197)
    seen = {"vertical": 0, "negative slope": 0, "tied edge": 0, "one edge": 0}
    inputs = 0
    for step, pts in collinear_lifts(rng):
        inputs += 1
        chain = curve._line_chain(pts)
        assert chain == upper_chain(pts, pts[0], pts[-1])
        assert curve._start_edge(pts) == (*chain[0][:2], True)
        seen["vertical"] += step[0] == 0
        seen["negative slope"] += step[0] * step[1] < 0
        seen["tied edge"] += any(len(tags) > 2 for _, _, tags in chain)
        seen["one edge"] += len(chain) == 1
    assert inputs >= 2000
    assert min(seen.values()) >= 200, seen


def test_locus_and_subdivision_share_one_gift_wrap(monkeypatch):
    # a section's locus and its subdivision read one wrap, kept for the
    # last polynomial by identity only: an equal copy is wrapped afresh
    wraps = []
    wrap = curve._gift_wrap

    def counted(g):
        wraps.append(g)
        return wrap(g)

    monkeypatch.setattr(curve, "_gift_wrap", counted)
    p2 = projective_plane()
    rng = random.Random(173)
    g, h = general_section(rng), general_section(rng)
    locus, _ = divisor_of_section(p2, g)
    sub = newton_subdivision(g)
    assert len(wraps) == 1
    wraps.clear()
    newton_subdivision(h)
    corner_locus(h)
    assert len(wraps) == 1
    wraps.clear()
    for f in (g, h, g):
        corner_locus(f)
    assert wraps == [g, h, g]
    wraps.clear()
    copy = TropPolynomial(2, g.terms())
    assert copy == g and copy is not g
    assert corner_locus(copy) == locus and newton_subdivision(copy) == sub
    assert wraps == [copy]


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


def test_curve_functions_reject_other_dimensions_and_the_empty_polynomial():
    trivariate = TropPolynomial(3, [((0, 0, 0), 0), ((1, 0, 0), 0), ((0, 0, 1), 1)])
    with pytest.raises(ValueError, match="implemented for two variables"):
        corner_locus(trivariate)
    with pytest.raises(ValueError, match="no ray degrees"):
        degree_from_polygon(TropPolynomial(2), (1, 0))


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


def test_is_balanced_rejects_broken_36_term_locus():
    # one segment heavier, one ray reversed, one ray gone: each unbalances
    # the locus, so the one-pass sum cannot be vacuously zero
    wc = corner_locus(general_section(random.Random(167)))
    assert is_balanced(wc) and wc.segments and wc.rays
    seg = wc.segments[len(wc.segments) // 2]
    heavier = (seg._replace(weight=seg.weight + 1),)
    i = wc.segments.index(seg)
    assert not is_balanced(wc._replace(segments=wc.segments[:i] + heavier + wc.segments[i + 1:]))
    ray = wc.rays[-1]
    flipped = ray._replace(direction=(-ray.direction[0], -ray.direction[1]))
    assert not is_balanced(wc._replace(rays=wc.rays[:-1] + (flipped,)))
    assert not is_balanced(wc._replace(rays=wc.rays[1:]))


def test_gift_wrap_with_reversed_cell_rings_raises(monkeypatch):
    # a clockwise cell ring records the wrong side of each edge, so the
    # same cell is found again and again; the wrap must stop after one
    # scan per directed pair of exponents instead of spinning
    p2 = projective_plane()
    gens = global_sections(p2, ToricDivisor(p2, (0, 0, 2))).generators
    g = TropPolynomial(2, [(m, 0) for m in gens])
    assert len(g) == 6
    rings = []

    def reversed_cell_rings(points):
        hull = hull_vertices(points)
        if isinstance(points, tuple):  # a cell's exponents, not a dict of lifted points
            rings.append(hull)
            return hull[::-1]
        return hull

    monkeypatch.setattr("troptoric.curve.hull_vertices", reversed_cell_rings)
    with pytest.raises(RuntimeError):
        corner_locus(g)
    assert 2 <= len(rings) <= 6 * 5
    # the failed wrap left nothing for g to be answered from
    monkeypatch.undo()
    assert corner_locus(g) == corner_locus(TropPolynomial(2, g.terms()))


def test_balancing_on_random_polynomials():
    rng = random.Random(103)
    polys = [random_polynomial(rng) for _ in range(150)] + tie_dense_and_collinear(137)
    for g in polys:
        wc = corner_locus(g)
        assert is_balanced(wc)


def test_duality_counts():
    rng = random.Random(107)
    polys = [random_polynomial(rng) for _ in range(120)] + tie_dense_and_collinear(139)
    for g in polys:
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
            pts = lattice_points(d)
            if len(pts) < 2:
                continue
            g = TropPolynomial(2, [(m, rng.randint(-4, 4)) for m in pts])
            for ray in f.rays:
                assert degree_from_polygon(g, ray) == degree_along_ray(g, ray)


def test_locus_rays_are_intersection_numbers_of_the_newton_divisor():
    # Where the fan refines the normal fan of the Newton polygon P (every
    # ray of the locus points along some -u_rho), C_f . D_rho = D_P . D_rho
    # with D_P = -(ray part): the weight of the locus rays in direction
    # -u_rho, a line counting once in each of its two directions
    rng = random.Random(1)
    sections = checks = 0
    for _ in range(300):
        f = random_blowup_fan(rng)
        d = ToricDivisor(f, tuple(rng.randint(0, 3) for _ in f.rays))
        pts = lattice_points(d)
        if len(pts) < 2:
            continue
        g = TropPolynomial(2, [(m, rng.randint(-6, 6)) for m in rng.sample(pts, rng.randint(2, len(pts)))])
        locus, ray_part = divisor_of_section(f, g)
        assert ray_part.coeffs == tuple(degree_along_ray(g, u) for u in f.rays)
        ends = [(r.direction, r.weight) for r in locus.rays]
        for l in locus.lines:
            ends += [(l.direction, l.weight), ((-l.direction[0], -l.direction[1]), l.weight)]
        if any((-x, -y) not in f.rays for (x, y), _ in ends):
            continue
        sections += 1
        d_p = ToricDivisor(f, tuple(-a for a in ray_part.coeffs))
        for u in f.rays:
            weight = sum(w for direction, w in ends if direction == (-u[0], -u[1]))
            assert weight == pairing(f, d_p, ray_divisor(f, u))
            checks += 1
    assert sections >= 100 and checks >= 500, (sections, checks)


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


def test_corner_locus_order():
    # segments by ends (each pair increasing), rays by (vertex, direction),
    # lines by (anchor, direction)
    g = TropPolynomial(2, [((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((1, 1), -1)])
    assert corner_locus(g).to_dict() == {
        "vertices": [[0, 0], [1, 1]],
        "segments": [{"ends": [0, 1], "weight": 1}],
        "rays": [
            {"vertex": 0, "direction": [-1, 0], "weight": 1},
            {"vertex": 0, "direction": [0, -1], "weight": 1},
            {"vertex": 1, "direction": [0, 1], "weight": 1},
            {"vertex": 1, "direction": [1, 0], "weight": 1},
        ],
        "lines": [],
    }
    parallel = corner_locus(TropPolynomial(2, [((0, 0), 0), ((1, 0), 0), ((2, 0), -10)]))
    assert [(l.anchor, l.direction) for l in parallel.lines] == [
        ((Fraction(0), Fraction(0)), (0, -1)),
        ((Fraction(10), Fraction(0)), (0, -1)),
    ]
    rng = random.Random(149)
    for g in [random_polynomial(rng) for _ in range(60)] + tie_dense_and_collinear(151, 20):
        wc = corner_locus(g)
        assert all(s.ends[0] < s.ends[1] for s in wc.segments)
        assert [s.ends for s in wc.segments] == sorted(s.ends for s in wc.segments)
        assert [(r.vertex, r.direction) for r in wc.rays] == sorted((r.vertex, r.direction) for r in wc.rays)
        assert [(l.anchor, l.direction) for l in wc.lines] == sorted((l.anchor, l.direction) for l in wc.lines)


def test_weighted_complex_to_dict():
    wc = corner_locus(tropical_line())
    d = wc.to_dict()
    assert d["vertices"] == [[0, 0]]
    assert len(d["rays"]) == 3 and d["segments"] == [] and d["lines"] == []


def test_curve_records_are_tuples_of_their_fields():
    # reprs, hashes and keyword construction as the frozen dataclasses
    # had them, and the tuple's _replace and natural order
    seg = SegmentEdge(ends=(0, 1), weight=2)
    ray = RayEdge(vertex=0, direction=(-1, 0), weight=1)
    line = LineEdge(anchor=(Fraction(1, 2), Fraction(0)), direction=(0, -1), weight=3)
    assert repr(seg) == "SegmentEdge(ends=(0, 1), weight=2)"
    assert repr(ray) == "RayEdge(vertex=0, direction=(-1, 0), weight=1)"
    assert repr(line) == "LineEdge(anchor=(Fraction(1, 2), Fraction(0, 1)), direction=(0, -1), weight=3)"
    wc = WeightedComplex(vertices=((Fraction(0), Fraction(0)),), rays=(ray,))
    assert repr(wc) == (
        "WeightedComplex(vertices=((Fraction(0, 1), Fraction(0, 1)),), segments=(), "
        "rays=(RayEdge(vertex=0, direction=(-1, 0), weight=1),), lines=())"
    )
    assert WeightedComplex(vertices=()) == WeightedComplex((), (), (), ())
    assert WeightedComplex(vertices=()).is_empty and not wc.is_empty
    for r, fields in ((seg, ((0, 1), 2)), (ray, (0, (-1, 0), 1)), (line, (line.anchor, (0, -1), 3))):
        assert hash(r) == hash(fields) and r == fields and tuple(r) == fields
    assert hash(wc) == hash((wc.vertices, (), (ray,), ()))
    assert seg._replace(weight=5) == SegmentEdge((0, 1), 5) and seg.weight == 2
    assert wc._replace(rays=()) == WeightedComplex(wc.vertices)
    rng = random.Random(173)
    for g in [random_polynomial(rng) for _ in range(30)] + tie_dense_and_collinear(179, 10):
        locus = corner_locus(g)
        for edges in (locus.segments, locus.rays, locus.lines):
            assert list(edges) == sorted(edges)
