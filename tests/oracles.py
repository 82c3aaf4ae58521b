"""Independent oracles and seeded generators shared by the test modules.

These deliberately avoid the code paths they check: the determinant
oracle is a recursive Laplace expansion that counts the optimal
permutations (production solves an assignment problem and reads ties off
the optimal dual potentials), the lattice oracle projects with
Fourier-Motzkin and filters a box (production walks the integer rows
of P(D)), the upper-hull oracle finds subdivision 2-cells from lifted
planes (production dualizes tie lines), the boundary oracle checks that
the whole support lies on one side of an edge's line (production reads
the flag off the dual cell: unbounded iff on the boundary), and the
slope-count oracle evaluates the generators at random untied points
(production returns the rank, which is the theorem the oracle samples).
"""

from __future__ import annotations

import math
from fractions import Fraction

from troptoric.divisor import ToricDivisor
from troptoric.fan import blow_up, projective_plane
from troptoric.sections import generator_value
from troptoric.trop import TropPolynomial


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


def upper_hull_cells2(g: TropPolynomial):
    """2-cells of the Newton subdivision from lifted supporting planes.

    A triple of exponents with 2-dimensional span lies on an upper face
    iff every lifted point is weakly below the plane through the lifted
    triple; the cell is then the set of on-plane exponents.
    """
    terms = list(g.terms())
    n = len(terms)
    cells = set()
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
                # plane z = alpha*x + beta*y + gamma through the lifted triple
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
                    cells.add(frozenset(on_plane))
    return cells


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


def random_polynomial(rng, max_terms=8, exp_range=4, max_den=4) -> TropPolynomial:
    n_terms = rng.randint(2, max_terms)
    exponents = set()
    while len(exponents) < n_terms:
        exponents.add((rng.randint(0, exp_range), rng.randint(0, exp_range)))
    return TropPolynomial(
        2,
        [
            (m, Fraction(rng.randint(-30, 30), rng.randint(1, max_den)))
            for m in exponents
        ],
    )
