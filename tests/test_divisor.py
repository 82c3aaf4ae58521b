import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import _primitive_pool, fm_lattice_points, lattice_count, pair_search_equivalence, random_blowup_fan, random_divisor, random_fan
from troptoric.curve import degree_from_polygon, hull_vertices
from troptoric.divisor import (
    ToricDivisor,
    UnboundedPolytopeError,
    _floor_sum,
    _lattice_count_pair,
    _rows,
    canonical_divisor,
    degree_along_ray,
    divisor_from_dict,
    divisor_of_section,
    h0,
    lattice_points,
    linearly_equivalent,
    polytope,
    polytope_vertices,
    principal_divisor,
    ray_divisor,
    zero_divisor,
)
from troptoric.fan import Cone, Fan, blow_up, hirzebruch, product_p1_p1, projective_plane
from troptoric.jsonutil import ParseError
from troptoric.sections import SectionModule, global_sections
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


def test_divisor_coeff_and_negation():
    p2 = projective_plane()
    d = ToricDivisor(p2, (2, -3, 5))
    assert [d.coeff(u) for u in ((1, 0), (0, 1), (-1, -1))] == [2, -3, 5]
    with pytest.raises(ValueError, match="is not a ray of the fan"):
        d.coeff((1, 1))
    assert -d == ToricDivisor(p2, (-2, 3, -5))
    assert -d + d == zero_divisor(p2) and -(-d) == d


def test_linearly_equivalent_examples():
    p2 = projective_plane()
    d1 = ray_divisor(p2, (1, 0))
    d2 = ray_divisor(p2, (0, 1))
    assert linearly_equivalent(d1, d2) == (1, -1)
    assert linearly_equivalent(d1, d1) == (0, 0)
    assert linearly_equivalent(d1, 2 * d1) is None
    # a ray of consecutive Fibonacci numbers of 251 digits: Euclid's
    # algorithm takes about 1,200 steps, past the recursion limit
    a, b = 0, 1
    while len(str(a)) < 251:
        a, b = b, a + b
    line = Fan((Cone(((a, b),)), Cone(((-a, -b),))))
    m = linearly_equivalent(ToricDivisor(line, (5, -5)), zero_divisor(line))
    assert m is not None and principal_divisor(m, line).coeffs == (5, -5)
    # the fan with no rays has one divisor, the empty one, and every m
    # solves the empty system
    origin = Fan((Cone(()),))
    assert linearly_equivalent(zero_divisor(origin), ToricDivisor(origin, ())) == (0, 0)


def test_linearly_equivalent_respects_principal_shifts():
    rng = random.Random(17)
    for f in (projective_plane(), hirzebruch(1), product_p1_p1()):
        for _ in range(30):
            d = random_divisor(rng, f, -4, 4)
            m = (rng.randint(-3, 3), rng.randint(-3, 3))
            assert linearly_equivalent(d + principal_divisor(m, f), d) == m


def test_linearly_equivalent_against_pair_search():
    # random_fan fans, and fans of 1-cones on one ray, on a line (all rays
    # parallel) or on a line and one more ray; d2 is d1 shifted by a
    # principal divisor, that shifted and then nudged, or drawn afresh
    rng = random.Random(2024)
    pool = _primitive_pool(3)
    drawn = Counter()
    for trial in range(5000):
        if trial % 5:
            f = random_fan(rng, scale=3)
        else:
            e = rng.choice(pool)
            rays = [e, (-e[0], -e[1]), rng.choice(pool)][: rng.randint(1, 3)]
            rng.shuffle(rays)
            f = Fan(tuple(Cone((r,)) for r in dict.fromkeys(rays)))
        for _ in range(5):
            d1 = random_divisor(rng, f)
            how = rng.choice(("shifted", "nudged", "fresh"))
            if how == "fresh":
                d2 = random_divisor(rng, f)
            else:
                d2 = d1 - principal_divisor((rng.randint(-4, 4), rng.randint(-4, 4)), f)
                if how == "nudged":
                    k = rng.randrange(len(f.rays))
                    d2 = ToricDivisor(f, tuple(c + (i == k) for i, c in enumerate(d2.coeffs)))
            m = linearly_equivalent(d1, d2)
            assert m == pair_search_equivalence(d1, d2)
            if m is not None:
                assert d1 - d2 == principal_divisor(m, f)
            drawn[how, m is not None] += 1
    assert drawn == {
        ("shifted", True): 8233,
        ("nudged", True): 1961,
        ("nudged", False): 6478,
        ("fresh", True): 2056,
        ("fresh", False): 6272,
    }


def test_polytope_examples():
    p2 = projective_plane()
    h = ray_divisor(p2, (-1, -1))
    assert h.fan.bounded
    assert set(polytope_vertices(h)) == {
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    }
    assert polytope_vertices(zero_divisor(p2)) == ((Fraction(0), Fraction(0)),)
    single = Fan((Cone(((1, 0),)),))
    half = zero_divisor(single)
    assert not half.fan.bounded and polytope_vertices(half) == ()


def test_polytope_vertices_satisfy_inequalities():
    rng = random.Random(23)
    for f in (projective_plane(), hirzebruch(2)):
        for _ in range(40):
            d = random_divisor(rng, f, -4, 4)
            for v in polytope_vertices(d):
                tight = 0
                for ex, ey, a in polytope(d):
                    val = ex * v[0] + ey * v[1] + a
                    assert val >= 0
                    tight += val == 0
                assert tight >= 2


def test_lattice_points_examples():
    p2 = projective_plane()
    h = ray_divisor(p2, (-1, -1))
    assert lattice_points(h) == ((0, 0), (1, 0), (0, 1))
    assert len(lattice_points(2 * h)) == 6
    empty = -1 * ray_divisor(p2, (1, 0))
    assert lattice_points(empty) == ()


def test_lattice_points_unbounded():
    single = Fan((Cone(((1, 0),)),))
    with pytest.raises(UnboundedPolytopeError):
        lattice_points(zero_divisor(single))
    # unbounded but empty: m1 >= 1 and m1 <= -1
    line = Fan((Cone(((1, 0),)), Cone(((-1, 0),))))
    d = ToricDivisor(line, (-1, -1))
    assert polytope(d) == ((1, 0, -1), (-1, 0, -1))
    assert not d.fan.bounded
    assert lattice_points(d) == ()


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
            d = random_divisor(rng, f, -3, 3)
            assert d.fan.bounded == bounded
            assert polytope(d) == tuple((ex, ey, a) for (ex, ey), a in zip(f.rays, d.coeffs))


def test_polytope_equality_ignores_read_vertices():
    d = ToricDivisor(hirzebruch(2), (2, -1, 3, 1))
    p = polytope(d)
    assert polytope_vertices(d) == ((Fraction(-2), Fraction(1)), (Fraction(5), Fraction(1)))
    # reading the vertices stores nothing: P(D) is its plain inequality tuple
    q = polytope(d)
    assert p == q == ((1, 0, 2), (0, 1, -1), (-1, 2, 3), (0, -1, 1)) and hash(p) == hash(q)


P2_REPR = (
    "Fan(max_cones=(Cone(rays=((1, 0), (0, 1))), Cone(rays=((0, 1), (-1, -1))), Cone(rays=((-1, -1), (1, 0)))),"
    " rays=((1, 0), (0, 1), (-1, -1)))"
)


def test_value_classes_are_frozen_records_of_their_fields():
    # Cone, Fan, ToricDivisor and SectionModule: equality, hash and repr
    # over their fields alone, keyword or positional construction, and no
    # field assignment or deletion
    f, g = projective_plane(), projective_plane()
    d, e = ToricDivisor(f, (0, 0, 1)), ToricDivisor(g, [0, 0, 1])
    s, t = global_sections(f, d), global_sections(g, e)
    cone = f.max_cones[0]
    assert repr(f) == P2_REPR
    assert repr(cone) == "Cone(rays=((1, 0), (0, 1)))"
    assert repr(d) == f"ToricDivisor(fan={P2_REPR}, coeffs=(0, 0, 1))"
    assert repr(s) == f"SectionModule(fan={P2_REPR}, divisor={d!r}, generators=((0, 0), (1, 0), (0, 1)))"
    # facts kept outside the fields, read on one side only
    assert f._ccw == (0, 1, 2) and len(f.cycle_terms) == 3
    assert {"cycle_terms", "_ccw"} <= vars(f).keys() and "cycle_terms" not in vars(g)
    values = {
        cone: (Cone([[1, 0], [0, 1]]), Cone(rays=((1, 0), (0, 1))), (cone.rays,)),
        f: (g, Fan(max_cones=f.max_cones, rays=f.rays), (f.max_cones, f.rays)),
        d: (e, ToricDivisor(fan=g, coeffs=(0, 0, 1)), (f, (0, 0, 1))),
        s: (t, SectionModule(fan=g, divisor=e, generators=s.generators), (f, d, s.generators)),
    }
    for a, (b, keyword, fields) in values.items():
        for c in (b, keyword):
            assert a is not c and a == c and not a != c
            assert hash(a) == hash(c) and repr(a) == repr(c)
        assert a != fields and a.__eq__(fields) is NotImplemented
    assert values.keys() == {Cone(((1, 0), (0, 1))), g, e, t}
    # one field differs: the rays in another order, a coefficient
    assert Fan(f.max_cones, (f.rays[1], f.rays[0], f.rays[2])) != f
    assert ToricDivisor(f, (0, 1, 0)) != d
    # defaults: a cone with no rays, rays derived in first-appearance order
    assert Cone() == Cone(rays=()) and Cone().rays == () and Cone().dim == 0
    assert Fan(()) == Fan(max_cones=(), rays=()) and Fan(()).rays == ()
    assert Fan(f.max_cones[::-1]).rays == ((-1, -1), (1, 0), (0, 1))
    for obj, names in (
        (cone, ("rays",)),
        (f, ("max_cones", "rays")),
        (d, ("fan", "coeffs")),
        (s, ("fan", "divisor", "generators")),
    ):
        for name in names:
            kept = getattr(obj, name)
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(obj, name, kept)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(obj, name)
            assert getattr(obj, name) is kept


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda f: Cone(((2, 4),)), ValueError, "ray generator (2, 4) is not primitive"),
        (lambda f: Cone(((1, 0), (-1, 0))), ValueError, "2-ray cone generators must be linearly independent"),
        (lambda f: Cone(((1, 0), (1, 0), (0, 1))), ValueError, "plane cones have at most two rays"),
        (lambda f: Cone(((1.0, 0),)), TypeError, "lattice vectors must have integer coordinates"),
        (lambda f: Cone((1,)), TypeError, "a lattice vector must be a pair [x, y], got 1"),
        (lambda f: Fan(((1, 0),)), TypeError, "max_cones must contain Cone instances"),
        (lambda f: Fan((Cone(((1, 0), (0, 1))), Cone(((0, 1), (1, 0))))), ValueError, "duplicate maximal cone"),
        (lambda f: Fan((Cone(()), Cone(((1, 0),)))), ValueError, "the origin cone is redundant beside other cones"),
        (lambda f: Fan((Cone(((1, 0), (0, 1))), Cone(((1, 0),)))), ValueError, "cones 0 and 1 do not intersect in a common face"),
        (lambda f: Fan(f.max_cones, f.rays[:2]), ValueError, "explicit ray list must enumerate the fan's rays"),
        (lambda f: Fan(f.max_cones, ((1, 0), (0, 1), (True, 0))), TypeError, "lattice vectors must have integer coordinates"),
        (lambda f: ToricDivisor(f, (0, 0)), ValueError, "one coefficient per fan ray is required"),
        (lambda f: ToricDivisor(f, (0, 0, True)), TypeError, "divisor coefficients must be integers"),
    ],
)
def test_value_classes_validate_on_construction(build, error, message):
    with pytest.raises(error) as info:
        build(projective_plane())
    assert type(info.value) is error and str(info.value) == message


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
            assert int(h0(f, d)) == len(lattice_points(d))
    # coefficient scale 60 on blown-up fans; every fifth divisor is also
    # checked against box enumeration, which shares no code with the rows
    for _ in range(3):
        f = random_blowup_fan(rng)
        for k in range(20):
            d = random_divisor(rng, f, -60, 60)
            n = int(h0(f, d))
            assert n == len(lattice_points(d))
            if k % 5 == 0:
                assert n == len(fm_lattice_points(polytope(d)))


def test_h0_infinite_and_errors():
    single = Fan((Cone(((1, 0),)),))
    with pytest.raises(UnboundedPolytopeError):
        h0(single, zero_divisor(single))
    # bounded but not complete: three 1-cones whose rays span the plane
    rays = ((1, 0), (0, 1), (-1, -1))
    spread = Fan(tuple(Cone((r,)) for r in rays))
    n = h0(spread, ToricDivisor(spread, (2, 0, 1)))
    assert type(n) is int and n == 10
    # a line: P(D) is a vertical strip, empty or unbounded
    line = Fan((Cone(((1, 0),)), Cone(((-1, 0),))))
    n = h0(line, ToricDivisor(line, (-1, -1)))
    assert type(n) is int and n == 0
    with pytest.raises(UnboundedPolytopeError):
        h0(line, ToricDivisor(line, (0, 0)))
    nonsmooth = Fan((Cone(((1, 0), (1, 2))),))
    with pytest.raises(ValueError):
        h0(nonsmooth, zero_divisor(nonsmooth))


def _wide_fan():
    # the sampled sweep benchmark's fan: F2 blown up at cones 0 then 1
    f = hirzebruch(2)
    f = blow_up(f, f.max_cones[0])
    return blow_up(f, f.max_cones[1])


def _dense_fan():
    # the exhaustive sweep benchmark's fan: P2 blown up at two torus-fixed points
    f = projective_plane()
    f = blow_up(f, f.max_cones[0])
    return blow_up(f, next(c for c in f.max_cones if f.rays[-1] not in c.rays))


def _steep_fan():
    # a blow-up of P2 with rays (2, 1) and (-2, -1), whose chains need
    # floor sums with modulus 2
    f = projective_plane()
    for k in (0, 0, 3, 4):
        f = blow_up(f, f.max_cones[k])
    return f


def test_h0_row_plan_at_scale_80():
    # the fan's row plan against box enumeration at coefficient scale 80:
    # F2 blown up at cones 0 then 1, P1xP1, whose opposite rays give the
    # plan a y-free bound a_0 + a_2 >= 0, F3, P2 blown up at two points
    # and a blow-up of P2 with rays of |x| = 2
    pp = product_p1_p1()
    assert pp.row_plan.fixed == ((0, 0, 1, 2, 1),)
    assert {(2, 1), (-2, -1)} <= set(_steep_fan().rays)
    rng = random.Random(109)
    cut_by_fixed = 0
    for f in (_wide_fan(), pp, hirzebruch(3), _dense_fan(), _steep_fan()):
        divisors = [random_divisor(rng, f, -80, 80) for _ in range(12)]
        divisors += [ToricDivisor(f, tuple(rng.choice((-80, 80)) for _ in f.rays)) for _ in range(3)]
        for d in divisors:
            points = fm_lattice_points(polytope(d))
            assert h0(f, d) == len(points), d.coeffs
            assert set(lattice_points(d)) == points
            cut_by_fixed += f is pp and d.coeffs[0] + d.coeffs[2] < 0
    assert cut_by_fixed >= 3  # P(D) found empty by the fixed bound alone


def test_floor_sum_matches_direct_sum():
    rng = random.Random(127)
    big = 10**40
    cases = [(0, 7, -3, 5), (0, 1, 0, 0), (5, 1, -4, -9), (6, 4, 0, -1)]
    for _ in range(1500):
        cases.append((rng.randrange(40), rng.randrange(1, 60), rng.randrange(-300, 300), rng.randrange(-300, 300)))
    for _ in range(300):
        cases.append((rng.randrange(40), rng.randrange(1, big), rng.randrange(-big, big), rng.randrange(-big, big)))
        cases.append((rng.randrange(40), 1, rng.randrange(-big, big), rng.randrange(-big, big)))
        cases.append((rng.randrange(40), rng.randrange(1, 9), rng.randrange(-big, big), rng.randrange(-big, big)))
    assert sum(n == 0 for n, _, _, _ in cases) >= 10 and sum(m == 1 for _, m, _, _ in cases) >= 300
    assert sum(a < 0 and b < 0 for _, _, a, b in cases) >= 300
    for n, m, a, b in cases:
        assert _floor_sum(n, m, a, b) == sum((a * t + b) // m for t in range(n)), (n, m, a, b)


def test_h0_floor_sums_match_rows():
    # the count (floor sums along the row plan's chains) against the rows
    # that lattice_points walks: the points listed at scale 3 and 80, the
    # row lengths summed at scale 10^4, where P(D) is too large to list
    rng = random.Random(131)
    fans = [projective_plane(), product_p1_p1(), hirzebruch(2), hirzebruch(3), _dense_fan(), _wide_fan(), _steep_fan()]
    fans += [random_blowup_fan(rng, 4) for _ in range(6)]
    assert any(abs(x) >= 2 for f in fans for x, _ in f.rays)
    shapes = {"empty": 0, "one point": 0, "one row": 0}
    for f in fans:
        divisors = []
        for s, n in ((3, 24), (80, 8), (10**4, 3)):
            divisors += [(s, random_divisor(rng, f, -s, s)) for _ in range(n)]
            # coefficients >= 0 put the origin in P(D), so it is not empty
            divisors += [(s, random_divisor(rng, f, 0, s)) for _ in range(2)]
        # one point, {m}, at scale 10^4: the zero divisor shifted by div(x^m)
        m = (rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4))
        divisors.append((10**4, principal_divisor(m, f)))
        for s, d in divisors:
            rows = list(_rows(f.row_plan, d.coeffs))
            count = sum(hi - lo + 1 for _, lo, hi in rows)
            if s < 10**4:
                assert count == len(lattice_points(d))
            assert h0(f, d) == count, (f.rays, d.coeffs)
            shapes["empty"] += count == 0
            shapes["one point"] += count == 1
            shapes["one row"] += len(rows) == 1 and count > 1
    # one row of 2*10^4 + 1 points, away from the origin
    pp = product_p1_p1()
    d = ToricDivisor(pp, (10**4 - 7, 3, 10**4 + 7, -3))
    assert h0(pp, d) == 2 * 10**4 + 1 == len(lattice_points(d))
    assert all(n > 0 for n in shapes.values()), shapes


def test_lattice_count_pair_is_two_counts():
    # (h0(D), h0(K-D)) from one pass over the y-bounds and at most one
    # pair of chain sums, against two counts, each with its own y-range:
    # 20,250 tuples at scales 3, 80 and 10^6 on P1xP1, F0 to F3, the dense
    # fan, whose plan has two y-free bounds, and seeded blow-ups of P2;
    # a seeded sample of them against box enumeration
    rng = random.Random(151)
    fans = [product_p1_p1()] + [hirzebruch(k) for k in range(4)] + [_dense_fan()]
    fans += [random_blowup_fan(rng, 4) for _ in range(12)]
    assert len(_dense_fan().row_plan.fixed) == 2
    shapes = Counter()
    sample = []
    for f in fans:
        plan = f.row_plan
        for s in (3, 80, 10**6):
            for _ in range(375):
                a = tuple(rng.randint(-s, s) for _ in f.rays)
                b = tuple(-1 - c for c in a)
                pair = _lattice_count_pair(plan, a)
                assert pair == (lattice_count(plan, a), lattice_count(plan, b)), (f.rays, a)
                shapes["D", pair[0] > 0] += 1
                shapes["K-D", pair[1] > 0] += 1
                # K - D's y-free bounds alone decide that it is empty
                shapes["fixed"] += any(wi * b[i] + wj * b[j] < 0 for _, i, wi, j, wj in plan.fixed)
                if s < 10**6 and rng.random() < 0.01:
                    sample.append((f, a, b, pair))
    assert shapes["D", True] + shapes["D", False] == 20_250 and min(shapes.values()) >= 1000, shapes
    assert len(sample) >= 100
    for f, a, b, pair in sample:
        d = [(ex, ey, c) for (ex, ey), c in zip(f.rays, a)]
        k = [(ex, ey, c) for (ex, ey), c in zip(f.rays, b)]
        assert pair == (len(fm_lattice_points(d)), len(fm_lattice_points(k))), (f.rays, a)


def test_h0_closed_forms_at_scale_10_18():
    # exact big-int counts: h0(sH) on P2 and h0(a F1 + b F2) on P1xP1
    s = 10**18
    p2 = projective_plane()
    assert h0(p2, s * ray_divisor(p2, (-1, -1))) == (s + 1) * (s + 2) // 2
    pp = product_p1_p1()
    d = s * ray_divisor(pp, (1, 0)) + (3 * s + 1) * ray_divisor(pp, (0, 1))
    assert h0(pp, d) == (s + 1) * (3 * s + 2)


def test_h0_on_fans_without_a_bounded_plan():
    # unbounded P(D): 0 when it is empty over the rationals and
    # UnboundedPolytopeError when it is not, as box enumeration decides;
    # the theorem reads only the opposite pair of rays, if there is one.
    # Three 1-cones spanning the plane are bounded and walked by rows.
    def nonempty(f, d):
        try:
            points = fm_lattice_points(polytope(d))
        except ValueError:  # nonempty and unbounded
            with pytest.raises(UnboundedPolytopeError):
                lattice_points(d)
            if f.smooth:
                with pytest.raises(UnboundedPolytopeError):
                    h0(f, d)
            return True
        assert points == set() and lattice_points(d) == ()
        assert not f.smooth or h0(f, d) == 0
        return False

    unbounded = [
        Fan((Cone(((1, 0),)),)),
        Fan((Cone(((1, 0),)), Cone(((-1, 0),)))),
        Fan((Cone(((0, 1),)), Cone(((0, -1),)))),
        Fan((Cone(((1, 0), (0, 1))),)),
        Fan((Cone(((1, 0), (0, 1))), Cone(((0, 1), (-1, 0))))),
        Fan((Cone(((1, 1),)), Cone(((-1, -1),)), Cone(((0, 1),)))),
    ]
    for f in unbounded:
        assert not f.bounded
        for coeffs in itertools.product(range(-2, 3), repeat=len(f.rays)):
            nonempty(f, ToricDivisor(f, coeffs))
    rng = random.Random(2021)
    drawn = {"empty": 0, "nonempty": 0, "nonempty, opposite pair": 0, "on a smooth fan": 0}
    for _ in range(2500):
        f = random_fan(rng)
        while f.bounded:
            f = random_fan(rng)
        drawn["on a smooth fan"] += f.smooth
        opposite = any((-x, -y) in f.rays for x, y in f.rays)
        if not nonempty(f, random_divisor(rng, f, -3, 3)):
            assert opposite
            drawn["empty"] += 1
        else:
            drawn["nonempty, opposite pair" if opposite else "nonempty"] += 1
    assert drawn == {"empty": 458, "nonempty": 1491, "nonempty, opposite pair": 551, "on a smooth fan": 1748}
    spread = Fan(tuple(Cone((r,)) for r in ((1, 0), (0, 1), (-1, -1))))
    for coeffs in itertools.product(range(-2, 3), repeat=3):
        d = ToricDivisor(spread, coeffs)
        assert h0(spread, d) == len(fm_lattice_points(polytope(d)))


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
            d = random_divisor(rng, f, -5, 5)
            assert set(lattice_points(d)) == fm_lattice_points(polytope(d))


def test_integral_vertices_are_the_hull_of_the_lattice_points():
    # an independent route to the vertices of P(D): a lattice polygon is
    # the convex hull of its lattice points, and the monotone chain of
    # `curve.hull_vertices` shares no code with the pairwise line search
    rng = random.Random(11)
    checked = 0
    for _ in range(2000):
        f = random_blowup_fan(rng)
        d = random_divisor(rng, f, -3, 8)
        vertices = polytope_vertices(d)
        if not vertices or any(x.denominator != 1 or y.denominator != 1 for x, y in vertices):
            continue
        assert set(vertices) == set(hull_vertices(lattice_points(d))), (f.rays, d.coeffs)
        checked += 1
    assert checked > 1000


def test_degree_along_ray_examples():
    f = tropical_line()
    assert degree_along_ray(f, (-1, -1)) == -1
    assert degree_along_ray(f, (1, 0)) == 0
    g = TropPolynomial(2, [((3, -2), 5)])
    assert degree_along_ray(g, (0, 1)) == -2
    with pytest.raises(ValueError):
        degree_along_ray(TropPolynomial(2), (1, 0))
    # bivariate only, as for divisor_of_section: not the first two
    # coordinates of three, and no IndexError for one
    for h in (TropPolynomial(3, [((1, 2, 3), 0), ((0, 5, -1), 1)]), TropPolynomial(1, [((1,), 0), ((2,), 1)])):
        for degree in (degree_along_ray, degree_from_polygon):
            with pytest.raises(ValueError, match="two variables"):
                degree(h, (1, 0))


def test_sections_satisfy_divisor_bound():
    # every monomial from P(D) has deg(x^m)_ray + a_ray >= 0
    rng = random.Random(47)
    for f in (projective_plane(), hirzebruch(1)):
        for _ in range(30):
            d = random_divisor(rng, f, 0, 4)
            pts = lattice_points(d)
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


def test_divisor_of_section_errors():
    p2 = projective_plane()
    with pytest.raises(ValueError, match="the zero section has no divisor decomposition"):
        divisor_of_section(p2, TropPolynomial(2))
    with pytest.raises(ValueError, match="sections are bivariate here"):
        divisor_of_section(p2, TropPolynomial(3, [((1, 2, 3), 0), ((0, 5, -1), 1)]))


def test_divisor_json_round_trip():
    p2 = projective_plane()
    d = ToricDivisor(p2, (2, 0, -1))
    assert divisor_from_dict(p2, d.to_dict()) == d
    # what to_dict could write, divisor_from_dict reads: no bool or float
    for coeffs in ((True, 0, 0), (1.0, 0, 0)):
        with pytest.raises(TypeError):
            ToricDivisor(p2, coeffs)
    for n in (True, 2.0):
        with pytest.raises(TypeError):
            n * d
    # a divisor adds and subtracts only a divisor, on either side
    for other in (1, (2, 0, -1)):
        for combine in (lambda: d + other, lambda: d - other, lambda: other + d, lambda: other - d):
            with pytest.raises(TypeError):
                combine()
    with pytest.raises(ValueError):
        divisor_from_dict(p2, {"coeffs": {"0": 1, "1": 0}})
    with pytest.raises(ValueError):
        divisor_from_dict(p2, {"coeffs": {"0": 1, "1": 0, "2": 0, "3": 9}})
    for coeffs in ({"0": True, "1": 0, "2": 1}, {"0": 1.5, "1": 0, "2": 1}, [1, 0, 1]):
        with pytest.raises(ParseError):
            divisor_from_dict(p2, {"coeffs": coeffs})
    for data in ([2, 0, -1], {"coefs": {"0": 2, "1": 0, "2": -1}}):
        with pytest.raises(ParseError, match="'coeffs'"):
            divisor_from_dict(p2, data)
