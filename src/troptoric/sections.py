"""Global sections of O(D) as a monomial tropical module.

On a smooth toric surface the sections are generated by the monomials
x^m for m in P(D) ∩ M (one generator per lattice point, canonical
coefficient 0).  The generators have pairwise distinct exponents, so the
local slope count is the rank at every point and both slope-count
estimates of h0 (h0_a and h0_b) equal the rank; each function states
this theorem and proves it in its docstring.  The module also builds
interpolating sections from tropical Vandermonde cofactors and decides
the cycle-sum genericity predicate for point configurations.  A
Vandermonde section works on plain integers: the points are scaled by
one common denominator, and all its cofactors, the maximal minors of
the integer matrix, come from one assignment (`trop._maximal_minors`).
`SectionModule` is a frozen value by `fan._frozen`, as the fan and the
divisor it holds are, so `troptoric sections` loads no `dataclasses`,
`inspect` or `typing`.

The section F through p_1..p_{l-1} passes through every p_k: at least
two terms attain its maximum there.  Proof (the duplicated-row argument
behind tropical Cramer's rule; Richter-Gebert, Sturmfels and Theobald,
*First steps in tropical geometry*, 2005): expanding along the first
row, F(p_k) = max_j (minor_j + s_j(p_k)) is the tropical determinant of
the l x l matrix whose first row is (s_j(p_k))_j and whose other rows
are the points' rows, so row k appears twice in it.  A permutation of
weight F(p_k) that sends the first row to column j shows that term j
attains the maximum.  An optimal permutation sends the first row to
some j and the other copy of row k to some j' != j; swapping the two
images keeps the weight, as the rows are equal, so term j' attains the
maximum too.  Scaling every entry by s keeps the maximising terms, so
every pass-through flag of `_vandermonde_minors` is true, and a false
one reports a fault in `trop._maximal_minors`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .divisor import ToricDivisor, _same_fan, lattice_points
from .fan import Fan, Vec, _frozen, dot
from .trop import TropPolynomial, _maximal_minors, as_fraction, supporting_monomials


@_frozen("fan", "divisor", "generators")
class SectionModule:
    """The section module of a divisor, given by its generator exponents.

    Generators are exactly the lattice points of P(D), in lattice-point
    order; they are pairwise distinct, hence each one is extremal.
    Proof: the generator x^m is the affine function y -> <m, y> of slope
    m.  It cannot agree on all of R^2 with a pointwise max of tropical
    multiples of generators whose slopes all differ from m: either one
    of them dominates everywhere, and then the max has the wrong slope,
    or the max is kinked somewhere, and then it is not affine.  (Terms
    sharing an exponent would be tropical multiples of one another and
    merge into one generator; distinct exponents rule that out here.)
    A frozen value: equality, hash and repr read ``fan``, ``divisor`` and
    ``generators``.
    """

    def __init__(self, fan: Fan, divisor: ToricDivisor, generators: tuple[Vec, ...]):
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "generators", generators)

    @property
    def rank(self) -> int:
        return len(self.generators)


def global_sections(fan: Fan, d: ToricDivisor) -> SectionModule:
    """The monomial generators of the sections of O(D).

    Its rank is h0(D).  Raises UnboundedPolytopeError (a ValueError) when
    P(D) is unbounded and nonempty, as h0 and lattice_points do: the
    module is not finitely generated.
    """
    _same_fan(fan, d)
    if not fan.smooth:
        raise ValueError("global sections require a smooth fan")
    return SectionModule(fan, d, lattice_points(d))


def _point(x) -> tuple[Fraction, Fraction]:
    if len(x) != 2:
        raise ValueError("points live in the plane")
    return (as_fraction(x[0]), as_fraction(x[1]))


def generator_value(m: Vec, x) -> Fraction:
    """Value of the canonical generator x^m (coefficient 0) at x."""
    p = _point(x)
    return m[0] * p[0] + m[1] * p[1]


def local_slope_count(module: SectionModule, x) -> int:
    """Number of generators distinct near x up to tropical scaling: the rank.

    Proof: the generator x^m is the affine function y -> <m, y> of slope
    m, and two affine functions differ by a constant (a tropical scalar)
    near x iff their slopes agree.  The generators are the pairwise
    distinct lattice points of P(D), so no two of them are tropical
    multiples of each other near x, and the count is the number of
    generators whatever x is.  The point still has to be a plane point.
    """
    if not module.generators:
        raise ValueError("the zero module has no local slope count")
    _point(x)
    return module.rank


def h0_a(module: SectionModule) -> int:
    """Largest k such that k sections stay pairwise distinct near every point.

    Equals the rank.  Proof: by local_slope_count the generators stay
    pairwise distinct near every point, so h0_a >= rank.  Near a point
    where one term of a section attains the maximum alone, the section
    is a tropical multiple of that term's generator; at a point where
    the generator values are pairwise distinct this holds for every
    section, so more than rank sections cannot stay pairwise distinct
    there, and h0_a <= rank.  The zero module gives 0.
    """
    return module.rank


def h0_b(module: SectionModule) -> int:
    """Minimum over points of the local slope count of the full module.

    Equals the rank.  Proof: by local_slope_count the count is the rank
    at every point, so the minimum is the rank (max = min).  The zero
    module gives 0.
    """
    return module.rank


def _vandermonde_minors(gens, points) -> tuple[int, list[int], list[bool]]:
    """(s, minors, through): the Vandermonde interpolation of the
    generator exponents ``gens`` through the l-1 ``points``, all in ints.

    Each point is a pair of coordinates, each coordinate a pair of ints
    (p, q) with q > 0, the rational p/q, as `cli._parse_points` reads it
    from JSON; ``points`` may be any iterable, read after the generator
    count is checked.  s is the lcm of the q's, the point's scaled
    coordinates are the ints p*(s//q), rows[k][j] = <m_j, s*p_k>, and
    minors[j], the max-plus minor of ``rows`` without column j, is s
    times the coefficient of x^{m_j}.  through[k] says whether the
    maximum of minors[j] + rows[k][j] over j is attained twice: the test
    of `passes_through`, at scale s, in O(l) additions.  With each p/q in
    lowest terms, s is the lcm of the coordinates' denominators, so equal
    rationals give equal (s, minors, through) however they are spelt.
    All l minors come from one assignment and one shortest-path pass
    (`trop._maximal_minors`), so this costs O(l^3), not l determinants.
    """
    l = len(gens)
    if l < 2:
        raise ValueError("interpolation needs at least two generators")
    pts = list(points)
    if len(pts) != l - 1:
        raise ValueError(f"expected {l - 1} points, got {len(pts)}")
    s = lcm(*(q for point in pts for _, q in point))
    rows = []
    for (xp, xq), (yp, yq) in pts:
        x, y = xp * (s // xq), yp * (s // yq)
        rows.append([mx * x + my * y for mx, my in gens])
    minors = _maximal_minors(rows)
    values = [[m + r for m, r in zip(minors, row)] for row in rows]
    return s, minors, [v.count(max(v)) >= 2 for v in values]


def _ratio_point(x) -> tuple[tuple[int, int], tuple[int, int]]:
    # a plane point as the (numerator, denominator) pairs of its coordinates
    px, py = _point(x)
    return (px.numerator, px.denominator), (py.numerator, py.denominator)


def vandermonde_section(module: SectionModule, points) -> TropPolynomial:
    """The interpolating section through l-1 prescribed points.

    With generators s_1..s_l, the coefficient of s_i is the tropical
    determinant of the (l-1)x(l-1) matrix (s_j(p_k)) over j != i, i.e.
    the cofactor of the i-th column of the Vandermonde matrix.  The
    divisor of the returned section passes through every input point
    (proof in the module docstring).  The cofactors are those of
    `_vandermonde_minors`, divided by its common scale s; the points go
    in as the numerator and denominator pairs of their coordinates, so
    the CLI's integer route and this one share one kernel.
    """
    gens = module.generators
    s, minors, _ = _vandermonde_minors(gens, map(_ratio_point, points))
    return TropPolynomial(2, zip(gens, (Fraction(m, s) for m in minors)))


def passes_through(section: TropPolynomial, x) -> bool:
    """Whether the divisor of the section passes through x.

    True iff at least two monomials attain the maximum at x (exact tie),
    i.e. the section is non-smooth there.
    """
    return len(supporting_monomials(section, _point(x))) >= 2


def is_generic_configuration(module: SectionModule, points) -> bool:
    """Whether no cycle sum over the generators vanishes on the points.

    Checks every ordered sequence of k >= 2 distinct generator indices
    i_1..i_k against every assignment of k distinct points x_1..x_k,
    testing sum_j (s_{i_j}(x_j) - s_{i_{j+1}}(x_j)) != 0 exactly (indices
    cyclic).  Repeated coordinates among the given points defeat
    genericity: a 2-cycle on two coinciding points telescopes to zero.
    Brute force, exponential in the generator count, hence the hard cap.
    """
    gens = module.generators
    L = len(gens)
    if L > 7:
        raise ValueError("generator count too large for the brute-force search")
    pts = [_point(p) for p in points]
    if L < 2 or not pts:
        return True
    values = [[generator_value(m, p) for m in gens] for p in pts]
    for k in range(2, min(L, len(pts)) + 1):
        for idx_seq in itertools.permutations(range(L), k):
            if idx_seq[0] != min(idx_seq):
                continue  # cycle sums are rotation-invariant
            steps = list(zip(idx_seq, idx_seq[1:] + idx_seq[:1]))  # (i_j, i_{j+1})
            for pt_seq in itertools.permutations(range(len(pts)), k):
                if sum(values[x][i] - values[x][i_next] for x, (i, i_next) in zip(pt_seq, steps)) == 0:
                    return False
    return True
