"""Independent oracles and seeded generators shared by the test modules.

These deliberately avoid the code paths they check: the determinant
oracle is a recursive Laplace expansion that counts the optimal
permutations (production solves an assignment problem and reads ties off
the optimal dual potentials), the lattice oracle projects with
Fourier-Motzkin and filters a box (production walks the integer rows
of P(D), and decides whether an unbounded P(D) is empty from the fan's
opposite pair of rays), the upper-hull oracle tries every triple of exponents for a
lifted plane with no point above it and reads each 2-cell and its dual
locus vertex off that plane (production gift-wraps the upper faces, one
scan per edge), the boundary oracle checks that the whole support lies
on one side of an edge's line (production counts the faces on the edge:
fewer than two iff on the boundary), the
slope-count oracle evaluates the generators at random untied points
(production returns the rank, which is the theorem the oracle samples),
the fan-validity oracle tries every pair of cones for a common face
(production sorts the rays once and checks that each 2-cone spans the
gap from one ray to the next), the completeness oracle walks the rays in
counterclockwise order (production counts the cones), the neighbour
oracle scans the cones for the ones holding a ray (production reads the
cycle of rays sorted once at validation), the equivalence oracle solves
<m, e> = t on the first pair of independent rays by Cramer's rule, with a
branch for fans whose rays are all parallel (production solves in one
unimodular basis built from the first ray), the spanning
oracle probes directions perpendicular to the rays (production checks
each gap between consecutive rays), the Riemann-Roch oracle builds K - D and D - K as
divisors, halves the pairing as a Fraction and counts both h0 by box enumeration
(production works in integers on the coefficient tuple and walks rows),
the single count takes one y-range at a time (production counts D and
K - D from one pass over the y-bounds),
the pairing oracle sums all n^2 entries of the dense intersection matrix
(production sums the cycle form, n terms over the counterclockwise cycle),
the h1 oracle sums the toric cohomology formula over the lattice
points of alternating four-ray polygons (production reads the defect of
the Riemann-Roch inequality, which equals h1 by Serre duality), and the
JSON-file oracle reads in text mode with universal newlines (production
reads the bytes, decodes them and translates the newlines itself).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction

from troptoric.divisor import ToricDivisor, _count_rows, _ext_gcd, _y_ranges, canonical_divisor
from troptoric.fan import Cone, Fan, _as_vec, blow_up, ccw_sorted_rays, det2, dot, primitive, projective_plane
from troptoric.intersect import pairing
from troptoric.jsonutil import ParseError
from troptoric.sections import generator_value
from troptoric.trop import TropPolynomial, trop_det


def laplace_det(rows):
    """(value, n_optimal) by Laplace expansion along the first column.

    value is a Fraction or None (-infinity); n_optimal counts the
    permutations attaining the maximum, with the convention that an
    all--infinity determinant is attained by every permutation.
    """
    k = len(rows)
    if k == 1:
        v = rows[0][0]
        return (v, 1)
    best = None
    count = 0
    for i in range(k):
        head = rows[i][0]
        if head is None:
            continue
        minor = [
            [rows[r][c] for c in range(1, k)] for r in range(k) if r != i
        ]
        sub_v, sub_n = laplace_det(minor)
        if sub_v is None:
            continue
        total = head + sub_v
        if best is None or total > best:
            best = total
            count = sub_n
        elif total == best:
            count += sub_n
    if best is None:
        return (None, math.factorial(k))
    return (best, count)


def vandermonde_oracle(module, points) -> TropPolynomial:
    """The Vandermonde section through the points: the coefficient of
    generator i is trop_det of the Fraction matrix (s_j(p_k)) without
    column i, one determinant per generator."""
    gens = module.generators
    rows = [[generator_value(m, p) for m in gens] for p in points]
    return TropPolynomial(
        2, [(m, trop_det([row[:i] + row[i + 1:] for row in rows])[0]) for i, m in enumerate(gens)]
    )


def fraction_support(f: TropPolynomial, x):
    """(value, exponents attaining it) of f at x, by Fraction sums."""
    values = {e: c + sum(ei * Fraction(xi) for ei, xi in zip(e, x)) for e, c in f.terms()}
    best = max(values.values())
    return best, frozenset(e for e, v in values.items() if v == best)


def _fm_projection(ineqs, keep):
    """Exact bounds of the polytope's projection onto coordinate ``keep``.

    Returns (feasible, lo, hi) with lo/hi Fractions or None for unbounded.
    """
    rows = []
    for ex, ey, a in ineqs:
        if keep == 0:
            rows.append((ex, ey, a))
        else:
            rows.append((ey, ex, a))
    one_var = [(ck, Fraction(a)) for ck, ce, a in rows if ce == 0]
    pos = [(ck, ce, a) for ck, ce, a in rows if ce > 0]
    neg = [(ck, ce, a) for ck, ce, a in rows if ce < 0]
    for k1, p, a1 in pos:
        for k2, q, a2 in neg:
            one_var.append((-q * k1 + p * k2, Fraction(-q * a1 + p * a2)))
    lo = hi = None
    for ck, c in one_var:
        if ck == 0:
            if c < 0:
                return (False, None, None)
        elif ck > 0:
            bound = -c / ck
            if lo is None or bound > lo:
                lo = bound
        else:
            bound = -c / ck
            if hi is None or bound < hi:
                hi = bound
    if lo is not None and hi is not None and lo > hi:
        return (False, None, None)
    return (True, lo, hi)


def fm_lattice_points(ineqs):
    """Integer points via Fourier-Motzkin box projection plus filtering."""
    feasible_x, xlo, xhi = _fm_projection(ineqs, 0)
    feasible_y, ylo, yhi = _fm_projection(ineqs, 1)
    if not feasible_x or not feasible_y:
        return set()
    if None in (xlo, xhi, ylo, yhi):
        raise ValueError("unbounded polytope")
    points = set()
    for x in range(math.ceil(xlo), math.floor(xhi) + 1):
        for y in range(math.ceil(ylo), math.floor(yhi) + 1):
            if all(ex * x + ey * y + a >= 0 for ex, ey, a in ineqs):
                points.add((x, y))
    return points


def lattice_count(plan, a) -> int:
    """|P(D) ∩ M| for the coefficients ``a`` on a fan with row plan
    ``plan``, whose rays positively span the plane: its own y-range, then
    the floor sums along its rows.  A reference for the pair count, which
    takes D's and K - D's y-ranges from one pass, at scales where no row
    walk can go."""
    y_lo, y_hi, _, _ = _y_ranges(plan, a)
    return _count_rows(plan, a, y_lo, y_hi) if y_lo <= y_hi else 0


def interior_contains(c: Cone, v) -> bool:
    """Strict interior for 2-ray cones, open ray for 1-ray cones."""
    if c.dim == 0:
        return False
    if c.dim == 1:
        u = c.rays[0]
        return det2(u, v) == 0 and dot(u, v) > 0
    u1, u2 = c.rays
    d = det2(u1, u2)
    return det2(v, u2) * d > 0 and det2(u1, v) * d > 0


def face_compatible(a: Cone, b: Cone) -> bool:
    """Whether two cones with distinct ray sets meet in a common face of
    both, neither being a face of the other: two salient plane cones do
    iff neither holds a generator of the other in its relative interior
    and neither is redundantly nested."""
    if a.dim < b.dim:
        a, b = b, a
    if a.dim == 2 and b.dim == 2:
        return not any(interior_contains(a, r) for r in b.rays) and not any(
            interior_contains(b, r) for r in a.rays
        )
    if a.dim == 2 and b.dim == 1:
        ray = b.rays[0]
        if interior_contains(a, ray):
            return False
        return ray not in a.rays  # a listed maximal ray must not be a face
    if a.dim == 1 and b.dim == 1:
        return True  # distinct primitive rays meet only at the origin
    return False  # the origin cone is a face of everything: redundant


def rejected_pairs(cones) -> list[tuple[int, int]]:
    """Every pair i < j of cones, all with distinct ray sets, that do not
    meet in a common face."""
    return [(i, j) for i, j in itertools.combinations(range(len(cones)), 2) if not face_compatible(cones[i], cones[j])]


def pairwise_fan_error(cones) -> str | None:
    """The ValueError text with which `Fan` rejects the cones, by trying
    every pair for a common face, or None when they form a fan."""
    if len({frozenset(c.rays) for c in cones}) < len(cones):
        return "duplicate maximal cone"
    if any(c.dim == 0 for c in cones) and len(cones) > 1:
        return "the origin cone is redundant beside other cones"
    pairs = rejected_pairs(cones)
    return f"cones {pairs[0][0]} and {pairs[0][1]} do not intersect in a common face" if pairs else None


def ccw_complete(f) -> bool:
    """Whether the maximal cones cover the plane, by a walk around the
    rays: at least three rays, as many cones as rays, all 2-dimensional,
    and each counterclockwise-consecutive pair of rays turns by less than
    pi and spans a maximal cone."""
    rays = ccw_sorted_rays(f.rays)
    n = len(rays)
    if n < 3 or len(f.max_cones) != n:
        return False
    if any(c.dim != 2 for c in f.max_cones):
        return False
    cone_sets = {frozenset(c.rays) for c in f.max_cones}
    for i in range(n):
        u, v = rays[i], rays[(i + 1) % n]
        if det2(u, v) <= 0:
            return False
        if frozenset((u, v)) not in cone_sets:
            return False
    return True


def cone_neighbours(f, ray) -> tuple:
    """The rays sharing a maximal cone with ``ray``, by scanning the
    cones, in the order of ``max_cones``."""
    return tuple(r for c in f.max_cones if ray in c.rays for r in c.rays if r != ray)


def pair_search_equivalence(d1: ToricDivisor, d2: ToricDivisor):
    """m with d1 - d2 = div(x^m), or None: Cramer's rule on the first pair
    of linearly independent rays, checked on every ray; when all rays are
    parallel to the first one e, t*p with <p, e> = 1 if the targets agree."""
    rays = d1.fan.rays
    targets = tuple(a - b for a, b in zip(d1.coeffs, d2.coeffs))
    if not rays:
        return (0, 0)
    pair = next(((i, j) for i, j in itertools.combinations(range(len(rays)), 2) if det2(rays[i], rays[j])), None)
    if pair is None:
        e, t = rays[0], targets[0]
        if any(c != (t if ray == e else -t) for ray, c in zip(rays, targets)):
            return None
        g, px, py = _ext_gcd(e[0], e[1])
        assert g == 1
        return (t * px, t * py)
    i, j = pair
    ei, ej = rays[i], rays[j]
    d = det2(ei, ej)
    nx = targets[i] * ej[1] - targets[j] * ei[1]
    ny = targets[j] * ei[0] - targets[i] * ej[0]
    if nx % d or ny % d:
        return None
    m = (nx // d, ny // d)
    if any(dot(m, ray) != c for ray, c in zip(rays, targets)):
        return None
    return m


def positively_spans(vectors) -> bool:
    """Whether the vectors positively span the plane, by probing
    directions: they do iff no nonzero d has <d, v> >= 0 for every v.
    Such a cone of directions, when it is not the whole plane, has a
    boundary ray perpendicular to one of the vectors, so only those are
    tried."""
    vectors = list(vectors)
    if not vectors:
        return False
    for ex, ey in vectors:
        for d in ((-ey, ex), (ey, -ex)):
            if all(d[0] * fx + d[1] * fy >= 0 for fx, fy in vectors):
                return False
    return True


@functools.cache
def _primitive_pool(scale) -> tuple:
    """The distinct primitive rays with coordinates in [-scale, scale], sorted."""
    return tuple(sorted({primitive((x, y)) for x in range(-scale, scale + 1) for y in range(-scale, scale + 1) if x or y}))


def random_fan(rng, max_rays=6, scale=2) -> Fan:
    """A valid fan on up to ``max_rays`` distinct primitive rays with
    coordinates in [-scale, scale], its cones and rays listed in random
    order.  A ray's opposite joins it with probability 1/4, so that
    opposite pairs are common.  Half the draws put a 2-cone on each
    counterclockwise gap of less than pi, on every one or on each with
    probability 3/4, so that complete fans are common; the other half
    propose 2-cones on random pairs of rays and redraw until `Fan`
    accepts them.  Every ray left out of a 2-cone is a 1-cone."""
    pool = _primitive_pool(scale)
    while True:
        rays = rng.sample(pool, rng.randint(1, max_rays))
        for u in rays[:]:
            if (-u[0], -u[1]) not in rays and rng.random() < 0.25:
                rays.append((-u[0], -u[1]))
        if rng.random() < 0.5:
            ordered = ccw_sorted_rays(rays)
            keep = rng.choice((1, 0.75))
            pairs = [(ordered[k - 1], u) for k, u in enumerate(ordered) if det2(ordered[k - 1], u) > 0]
            pairs = [p for p in pairs if rng.random() < keep]
        else:
            pairs = [(u, v) for u, v in itertools.combinations(rays, 2) if det2(u, v) != 0]
            pairs = rng.sample(pairs, rng.randint(0, len(pairs)))
        covered = {u for p in pairs for u in p}
        cones = [Cone(p) for p in pairs] + [Cone((u,)) for u in rays if u not in covered]
        rng.shuffle(cones)
        rng.shuffle(rays)
        try:
            return Fan(tuple(cones), tuple(rays))
        except ValueError:
            continue


def cone_by_cone_fan(d) -> Fan:
    """`fan.fan_from_dict` written out on its own: every ray coerced, one
    `Cone` per listed cone, each testing all its rays, then `Fan` on the
    explicit ray list, which coerces the rays again.  The reference that
    `fan_from_dict`, the one construction path for fans, must keep
    matching, fan for fan and error for error."""
    for key in ("rays", "max_cones"):
        if not isinstance(d, dict) or key not in d:
            raise ParseError(f"a fan must be a JSON object with a {key!r} key")
        if not isinstance(d[key], list):
            raise ParseError(f"{key} must be a list, got {d[key]!r}")
    try:
        rays = [_as_vec(r) for r in d["rays"]]
    except TypeError as exc:
        raise ParseError(str(exc)) from None
    cones = []
    for idxs in d["max_cones"]:
        if not isinstance(idxs, list):
            raise ParseError(f"a cone must be a list of ray indices, got {idxs!r}")
        members = []
        for i in idxs:
            if isinstance(i, bool) or not isinstance(i, int):
                raise ParseError(f"cone ray indices must be integers, got {i!r}")
            if not 0 <= i < len(rays):
                raise ValueError(f"cone ray index {i} out of range")
            members.append(rays[i])
        cones.append(Cone(tuple(members)))
    return Fan(tuple(cones), tuple(rays))


def random_cone_set(rng, max_rays=6, scale=2) -> tuple[Cone, ...]:
    """Cones on distinct primitive rays with coordinates in
    [-scale, scale], built without `Fan`, about half of them a fan.  Each
    draw starts from the 2-cones on some counterclockwise gaps of less than
    pi and 1-cones on the rays they leave out, a fan.  Two draws in three
    then break it in one of six ways: a 2-cone on two random rays
    (overlapping or nesting others, or holding a ray strictly inside), a
    2-cone spread over two gaps, a 1-cone on a 2-cone's ray, a 1-cone
    strictly inside a 2-cone, a cone listed twice, or the origin cone
    beside the others.  Cones and the rays of each cone come in random
    order."""
    pool = _primitive_pool(scale)
    rays = rng.sample(pool, rng.randint(1, max_rays))
    ordered = ccw_sorted_rays(rays)
    two = [(ordered[k - 1], u) for k, u in enumerate(ordered) if det2(ordered[k - 1], u) > 0 and rng.random() < 0.75]
    covered = {u for p in two for u in p}
    cones = two + [(u,) for u in rays if u not in covered]
    if rng.random() < 2 / 3:
        way = rng.randrange(6)
        if way == 0:
            u, v = rng.sample(pool, 2)
            while det2(u, v) == 0:
                u, v = rng.sample(pool, 2)
            cones.append((u, v))
        elif way == 1 and len(ordered) >= 3:
            k = rng.randrange(len(ordered))
            if det2(ordered[k - 2], ordered[k]) > 0:
                cones.append((ordered[k - 2], ordered[k]))
        elif way == 2 and two:
            cones.append((rng.choice(rng.choice(two)),))
        elif way == 3 and two:
            (x1, y1), (x2, y2) = rng.choice(two)
            cones.append((primitive((x1 + x2, y1 + y2)),))
        elif way == 4:
            cones.append(rng.choice(cones))
        elif way == 5:
            cones.append(())
    rng.shuffle(cones)
    return tuple(Cone(tuple(rng.sample(c, len(c)))) for c in cones)


def rr_oracle(fan, d: ToricDivisor) -> dict:
    """The fields of rr_check(fan, d), each computed apart: h0 by box
    enumeration, K from canonical_divisor, D - K as a ToricDivisor, and
    the pairing term D(D-K)/2 as a Fraction, never rounded."""

    def count(divisor):
        ineqs = [(e[0], e[1], a) for e, a in zip(fan.rays, divisor.coeffs)]
        return len(fm_lattice_points(ineqs))

    k = canonical_divisor(fan)
    h0_d, h0_k_minus_d = count(d), count(k - d)
    pairing_term = Fraction(pairing(fan, d, d - k), 2)
    euler = 1
    rhs = euler + pairing_term
    defect = Fraction(h0_d + h0_k_minus_d) - rhs
    return {
        "h0_D": h0_d,
        "h0_K_minus_D": h0_k_minus_d,
        "euler": euler,
        "pairing_term": pairing_term,
        "rhs": rhs,
        "defect": defect,
        "holds": defect >= 0,
    }


def dense_pairing(matrix, a, b) -> int:
    """sum a_i b_j M_ij over all n^2 entries of the matrix M."""
    return sum(x * y * m for x, row in zip(a, matrix) for y, m in zip(b, row))


def h1_oracle(fan, d: ToricDivisor) -> int:
    """h1(D) on a smooth complete fan by the toric cohomology formula
    (Cox, Little and Schenck, Toric Varieties, Thm 9.1.3): the sum over m
    of c(m) - 1, where c(m) counts the cyclic arcs of rays with
    <m, e> + a < 0, over the m with c(m) >= 2.

    Those m are the lattice points of the polygons cut out by four rays
    in cyclic order, alternately >= and <; a < is written as the integer
    inequality (-e, -a - 1), and both phases are tried.  Each polygon is
    bounded, since a linear form changes sign at most twice around the
    circle, so fm_lattice_points counts it.
    """
    pairs = sorted(zip(fan.rays, d.coeffs), key=lambda p: math.atan2(p[0][1], p[0][0]))
    witnesses = set()
    for quad in itertools.combinations(pairs, 4):
        for phase in (0, 1):
            ineqs = [
                (e[0], e[1], a) if (k + phase) % 2 == 0 else (-e[0], -e[1], -a - 1)
                for k, (e, a) in enumerate(quad)
            ]
            witnesses |= fm_lattice_points(ineqs)

    def arcs(m):
        neg = [m[0] * e[0] + m[1] * e[1] + a < 0 for e, a in pairs]
        return sum(neg[i] and not neg[i - 1] for i in range(len(neg)))

    return sum(arcs(m) - 1 for m in witnesses)


def upper_hull_dual(g: TropPolynomial) -> dict:
    """Each 2-cell of the Newton subdivision, from lifted supporting planes,
    mapped to its dual locus vertex.

    A triple of exponents with 2-dimensional span lies on an upper face
    iff every lifted point is weakly below the plane z = alpha*x + beta*y
    + gamma through the lifted triple; the cell is then the set of
    on-plane exponents, and its monomials all attain the maximum at
    (-alpha, -beta).
    """
    terms = list(g.terms())
    n = len(terms)
    cells = {}
    for i in range(n):
        mi, ci = terms[i]
        for j in range(i + 1, n):
            mj, cj = terms[j]
            for k in range(j + 1, n):
                mk, ck = terms[k]
                d = (mj[0] - mi[0]) * (mk[1] - mi[1]) - (mj[1] - mi[1]) * (
                    mk[0] - mi[0]
                )
                if d == 0:
                    continue
                alpha = Fraction(
                    (cj - ci) * (mk[1] - mi[1]) - (ck - ci) * (mj[1] - mi[1]), d
                )
                beta = Fraction(
                    (ck - ci) * (mj[0] - mi[0]) - (cj - ci) * (mk[0] - mi[0]), d
                )
                gamma = ci - alpha * mi[0] - beta * mi[1]
                on_plane = []
                below = True
                for m, c in terms:
                    level = alpha * m[0] + beta * m[1] + gamma
                    if c > level:
                        below = False
                        break
                    if c == level:
                        on_plane.append(m)
                if below:
                    cells[frozenset(on_plane)] = (-alpha, -beta)
    return cells


def upper_hull_cells2(g: TropPolynomial):
    """The set of 2-cells of the Newton subdivision (keys of upper_hull_dual)."""
    return set(upper_hull_dual(g))


def on_newton_boundary(support, family) -> bool:
    """Whether a subdivision edge lies on the boundary of the Newton polygon.

    The edge's line passes through two distinct points of ``family``; it
    is a boundary line iff every exponent of ``support`` lies weakly on
    one side of it.
    """
    a, b = sorted(family)[:2]
    n = (a[1] - b[1], b[0] - a[0])  # normal of the line through a and b
    level = n[0] * a[0] + n[1] * a[1]
    sides = [n[0] * m[0] + n[1] * m[1] - level for m in support]
    return all(s >= 0 for s in sides) or all(s <= 0 for s in sides)


def sampled_slope_count(module, rng, samples=3, max_draws=1000):
    """Number of distinct generator values at random untied points.

    A drawn point is rejected when two generators take the same value
    there, and the count is returned once ``samples`` points have been
    accepted.  At an accepted point the generators are pairwise distinct
    affine functions near it, so the count is the local slope count.
    Raises RuntimeError after ``max_draws`` draws; that is what happens
    when two generators coincide, since then every draw ties.
    """
    if not module.generators:
        return 0
    accepted = 0
    for _ in range(max_draws):
        x = (random_fraction(rng, -40, 40, 7), random_fraction(rng, -40, 40, 7))
        values = {generator_value(m, x) for m in module.generators}
        if len(values) == len(module.generators):
            accepted += 1
            if accepted == samples:
                return len(values)
    raise RuntimeError(f"fewer than {samples} untied points in {max_draws} draws")


def random_fraction(rng, lo=-20, hi=20, max_den=6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_trop_rows(rng, k, neg_inf_prob=0.15, pool=None):
    """k x k grid of Fraction-or-None entries for determinant tests.

    Finite entries come from ``pool`` when given (a small pool makes tied
    optima common), otherwise from random_fraction.
    """
    return [
        [
            None
            if rng.random() < neg_inf_prob
            else (random_fraction(rng) if pool is None else Fraction(rng.choice(pool)))
            for _ in range(k)
        ]
        for _ in range(k)
    ]


def random_divisor(rng, fan, lo=-5, hi=5) -> ToricDivisor:
    return ToricDivisor(fan, tuple(rng.randint(lo, hi) for _ in fan.rays))


def random_blowup_fan(rng, max_blowups=3):
    f = projective_plane()
    for _ in range(rng.randint(1, max_blowups)):
        f = blow_up(f, f.max_cones[rng.randrange(len(f.max_cones))])
    return f


def random_polynomial(rng, max_terms=8, exp_range=4, max_den=4, pool=None) -> TropPolynomial:
    """Coefficients come from ``pool`` when given: a small pool such as
    (-1, 0, 1) puts four or more lifted points on one plane often, so the
    subdivision has polygonal cells."""
    n_terms = rng.randint(2, max_terms)
    exponents = set()
    while len(exponents) < n_terms:
        exponents.add((rng.randint(0, exp_range), rng.randint(0, exp_range)))
    return TropPolynomial(
        2,
        [
            (m, Fraction(rng.randint(-30, 30), rng.randint(1, max_den)) if pool is None else rng.choice(pool))
            for m in exponents
        ],
    )


def random_collinear_polynomial(rng, max_terms=6) -> TropPolynomial:
    """Terms on one lattice line, exponents possibly negative: no 2-cells."""
    step = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -3)))
    base = (rng.randint(-3, 3), rng.randint(-3, 3))
    return TropPolynomial(
        2,
        [
            ((base[0] + t * step[0], base[1] + t * step[1]), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            for t in rng.sample(range(-4, 5), rng.randint(2, max_terms))
        ],
    )


def text_mode_load_json(path):
    """`jsonutil.load_json` as a text-mode read: json.load on the file
    opened as UTF-8 text, universal newlines on."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from exc
