"""Acceptance suite: exact reproduction of the library's defining formulas
plus the property sweeps, one test per criterion, each printing a pass
line with its measured runtime and asserting its stated budget."""

import itertools
import random
import time
from fractions import Fraction

from oracles import fm_lattice_points, laplace_det, random_trop_rows, sampled_slope_count
from troptoric.curve import corner_locus, degree_from_polygon, is_balanced
from troptoric.divisor import (
    ToricDivisor,
    canonical_divisor,
    degree_along_ray,
    h0,
    lattice_points,
    polytope,
    principal_divisor,
    ray_divisor,
)
from troptoric.fan import blow_up, fan_from_dict, hirzebruch, product_p1_p1, projective_plane
from troptoric.intersect import (
    intersection_matrix,
    pairing,
    ray_intersection,
    rr_check,
    self_intersection,
)
from troptoric.sections import global_sections, h0_a, h0_b, passes_through, vandermonde_section
from troptoric.trop import TropPolynomial, trop_det

SEED = 20250809


def _finish(label, limit_s, t0):
    elapsed = time.time() - t0
    print(f"criterion {label}: PASS [{elapsed:.2f}s < {limit_s}s]")
    assert elapsed < limit_s


def standard_fans():
    fans = [projective_plane(), product_p1_p1()] + [hirzebruch(a) for a in range(4)]
    rng = random.Random(SEED)
    for _ in range(3):
        f = projective_plane()
        for _ in range(rng.randint(1, 3)):
            f = blow_up(f, f.max_cones[rng.randrange(len(f.max_cones))])
        fans.append(f)
    return fans


def test_criterion_1_h0_closed_forms():
    t0 = time.time()
    p2 = projective_plane()
    h = ray_divisor(p2, (-1, -1))
    for d in range(11):
        assert int(h0(p2, d * h)) == (d + 1) * (d + 2) // 2
    pp = product_p1_p1()
    f1, f2 = ray_divisor(pp, (1, 0)), ray_divisor(pp, (0, 1))
    for a in range(9):
        for b in range(9):
            assert int(h0(pp, a * f1 + b * f2)) == (a + 1) * (b + 1)
    _finish("1 (h0 closed forms)", 1, t0)


def test_criterion_2_sandwich():
    t0 = time.time()
    fans = [projective_plane(), product_p1_p1(), hirzebruch(1), hirzebruch(2), hirzebruch(3)]
    rng = random.Random(SEED)
    for f in fans:
        r = len(f.rays)
        for coeffs in itertools.product(range(-3, 4), repeat=r):
            d = ToricDivisor(f, coeffs)
            module = global_sections(f, d)
            assert set(module.generators) == fm_lattice_points(polytope(d))
            assert sampled_slope_count(module, rng) == h0_a(module) == int(h0(f, d)) == h0_b(module)
    _finish("2 (h0_a = h0 = h0_b sandwich)", 10, t0)


def test_criterion_3_intersection_table():
    t0 = time.time()
    p2 = projective_plane()
    for r in p2.rays:
        assert self_intersection(p2, r) == 1
    for a in range(4):
        f = hirzebruch(a)
        assert [self_intersection(f, r) for r in f.rays] == [0, -a, 0, a]
    rng = random.Random(SEED)
    for _ in range(5):
        f = projective_plane()
        for _ in range(rng.randint(1, 3)):
            cone = f.max_cones[rng.randrange(len(f.max_cones))]
            f = blow_up(f, cone)
            exceptional = f.rays[-1]
            assert self_intersection(f, exceptional) == -1
    for f in standard_fans():
        cone_sets = {frozenset(c.rays) for c in f.max_cones}
        m = intersection_matrix(f)
        for i, r1 in enumerate(f.rays):
            for j, r2 in enumerate(f.rays):
                if i == j:
                    continue
                expected = 1 if frozenset((r1, r2)) in cone_sets else 0
                assert ray_intersection(f, r1, r2) == expected == m[i][j]
    _finish("3 (intersection table)", 1, t0)


def test_criterion_4_riemann_roch_inequality():
    t0 = time.time()
    p2 = projective_plane()
    for coeffs in itertools.product(range(-5, 6), repeat=3):
        assert rr_check(p2, ToricDivisor(p2, coeffs)).holds
    for a in range(4):
        f = hirzebruch(a)
        for coeffs in itertools.product(range(-3, 4), repeat=4):
            assert rr_check(f, ToricDivisor(f, coeffs)).holds
    rng = random.Random(SEED)
    for _ in range(10):
        f = projective_plane()
        for _ in range(rng.randint(1, 3)):
            f = blow_up(f, f.max_cones[rng.randrange(len(f.max_cones))])
        r = len(f.rays)
        for _ in range(10_000):
            d = ToricDivisor(f, tuple(rng.randint(-5, 5) for _ in range(r)))
            assert rr_check(f, d).holds
    _finish("4 (Riemann-Roch inequality, exhaustive + random)", 120, t0)


def test_criterion_5_equality_cases():
    t0 = time.time()
    p2 = projective_plane()
    h = ray_divisor(p2, (-1, -1))
    for d in range(-3, 11):
        report = rr_check(p2, d * h)
        assert report.defect == 0 and report.holds
    _finish("5 (defect = 0 for multiples of the hyperplane)", 1, t0)


def _divisors_by_rank(f, coeff_range=3):
    found = {}
    for coeffs in itertools.product(range(-coeff_range, coeff_range + 1), repeat=len(f.rays)):
        d = ToricDivisor(f, coeffs)
        l = int(h0(f, d))
        if 2 <= l <= 6 and l not in found:
            found[l] = d
    return found


def test_criterion_6_vandermonde_pass_through():
    t0 = time.time()
    rng = random.Random(SEED)
    for f in (projective_plane(), product_p1_p1()):
        for l, d in sorted(_divisors_by_rank(f).items()):
            module = global_sections(f, d)
            assert module.rank == l
            for _ in range(200):
                pts = [
                    (
                        Fraction(rng.randint(-24, 24), rng.randint(1, 5)),
                        Fraction(rng.randint(-24, 24), rng.randint(1, 5)),
                    )
                    for _ in range(l - 1)
                ]
                section = vandermonde_section(module, pts)
                assert all(passes_through(section, p) for p in pts)
    _finish("6 (Vandermonde sections pass through their points)", 30, t0)


def test_criterion_7_balancing_and_decomposition():
    t0 = time.time()
    rng = random.Random(SEED)
    for _ in range(500):
        n_terms = rng.randint(2, 9)
        exponents = set()
        while len(exponents) < n_terms:
            exponents.add((rng.randint(0, 4), rng.randint(0, 4)))
        g = TropPolynomial(
            2,
            [(m, Fraction(rng.randint(-30, 30), rng.randint(1, 4))) for m in exponents],
        )
        assert is_balanced(corner_locus(g))
        for f in (projective_plane(), product_p1_p1(), hirzebruch(2)):
            for ray in f.rays:
                assert degree_from_polygon(g, ray) == degree_along_ray(g, ray)
    _finish("7 (balancing and ray-degree decomposition)", 30, t0)


def test_criterion_8_parity_and_bilinearity():
    t0 = time.time()
    rng = random.Random(SEED)
    for f in standard_fans():
        k = canonical_divisor(f)
        r = len(f.rays)
        for _ in range(1000):
            d1 = ToricDivisor(f, tuple(rng.randint(-5, 5) for _ in range(r)))
            d2 = ToricDivisor(f, tuple(rng.randint(-5, 5) for _ in range(r)))
            assert pairing(f, d1, d1 - k) % 2 == 0
            assert pairing(f, d1, d2) == pairing(f, d2, d1)
            assert pairing(f, d1 + d2, d2) == pairing(f, d1, d2) + pairing(f, d2, d2)
            m = (rng.randint(-3, 3), rng.randint(-3, 3))
            assert pairing(f, d1 + principal_divisor(m, f), d2) == pairing(f, d1, d2)
    _finish("8 (parity, symmetry, bilinearity, class invariance)", 10, t0)


def test_criterion_9_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(SEED)
    for _ in range(1000):
        k = rng.randint(1, 6)
        rows = random_trop_rows(rng, k)
        value, tie = trop_det(rows)
        oracle_value, oracle_count = laplace_det(rows)
        assert value == oracle_value
        assert tie == (oracle_count >= 2 or oracle_value is None)
    fans = standard_fans()
    for _ in range(1000):
        f = fans[rng.randrange(len(fans))]
        d = ToricDivisor(f, tuple(rng.randint(-5, 5) for _ in f.rays))
        assert set(lattice_points(d)) == fm_lattice_points(polytope(d))
    _finish("9 (determinant and lattice-point oracles)", 30, t0)


def test_criterion_10_h0_at_scale():
    # h0 is a sum of floor sums, so its cost does not grow with the scale
    t0 = time.time()
    p2 = projective_plane()
    s = 10**6
    d = s * ray_divisor(p2, (-1, -1))
    assert h0(p2, d) == (s + 1) * (s + 2) // 2
    report = rr_check(p2, d)
    assert report.h0_D == (s + 1) * (s + 2) // 2 and report.defect == 0
    _finish("10 (h0 and the Riemann-Roch check of 10^6 H on P2)", 0.1, t0)


def test_criterion_11_vandermonde_at_rank_45():
    # all cofactors of a section come from one assignment, O(l^3)
    rng = random.Random(SEED)
    p2 = projective_plane()
    module = global_sections(p2, 8 * ray_divisor(p2, (-1, -1)))
    assert module.rank == 45
    batches = [
        [
            (Fraction(rng.randint(-40, 40), rng.randint(1, 4)), Fraction(rng.randint(-40, 40), rng.randint(1, 4)))
            for _ in range(44)
        ]
        for _ in range(10)
    ]
    t0 = time.time()
    for pts in batches:
        section = vandermonde_section(module, pts)
        assert all(passes_through(section, p) for p in pts)
    _finish("11 (ten Vandermonde sections of O(8H) on P2, rank 45)", 1, t0)


def test_criterion_12_validation_of_a_long_chain():
    # validation is one counterclockwise sort and one pass over the cones
    rng = random.Random(SEED)
    rays = [(1, k) for k in range(1001)] + [(0, 1), (-1, -1)]
    n = len(rays)
    cycle = [[i, (i + 1) % n] for i in range(n)]
    order = rng.sample(range(n), n)
    where = {i: k for k, i in enumerate(order)}
    data = {
        "rays": [list(rays[i]) for i in order],
        "max_cones": [rng.sample([where[i], where[j]], 2) for i, j in rng.sample(cycle, n)],
    }
    t0 = time.time()
    f = fan_from_dict(data)
    assert f.complete and f.smooth
    matrix = intersection_matrix(f)
    assert sum(matrix[i][i] for i in range(n)) == 12 - 3 * n == -2997
    _finish("12 (a smooth complete fan on 1,003 shuffled rays)", 0.5, t0)
