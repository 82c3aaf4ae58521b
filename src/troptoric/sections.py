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
maximum too.  Scaling every entry by s keeps the maximising terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .divisor import ToricDivisor, _same_fan, lattice_points, polytope
from .fan import Fan, Vec, dot
from .trop import TropPolynomial, _common_scale, _maximal_minors, as_fraction, supporting_monomials


@dataclass(frozen=True)
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
    """

    fan: Fan
    divisor: ToricDivisor
    generators: tuple[Vec, ...]

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
    return SectionModule(fan, d, lattice_points(polytope(d)))


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


def _vandermonde_minors(gens, points) -> tuple[int, list[list[int]], list[int]]:
    """(s, rows, minors): the Vandermonde interpolation of the generator
    exponents ``gens`` through the l-1 ``points``, all in ints.

    s is the lcm of the points' coordinate denominators, rows[k][j] =
    <m_j, s*p_k>, and minors[j], the max-plus minor of ``rows`` without
    column j, is s times the coefficient of x^{m_j}.  All l minors come
    from one assignment and one shortest-path pass
    (`trop._maximal_minors`), so this costs O(l^3), not l determinants.
    """
    l = len(gens)
    if l < 2:
        raise ValueError("interpolation needs at least two generators")
    pts = [_point(p) for p in points]
    if len(pts) != l - 1:
        raise ValueError(f"expected {l - 1} points, got {len(pts)}")
    s, coords = _common_scale([c for p in pts for c in p])
    rows = [[mx * px + my * py for mx, my in gens] for px, py in zip(coords[::2], coords[1::2])]
    return s, rows, _maximal_minors(rows)


def vandermonde_section(module: SectionModule, points) -> TropPolynomial:
    """The interpolating section through l-1 prescribed points.

    With generators s_1..s_l, the coefficient of s_i is the tropical
    determinant of the (l-1)x(l-1) matrix (s_j(p_k)) over j != i, i.e.
    the cofactor of the i-th column of the Vandermonde matrix.  The
    divisor of the returned section passes through every input point
    (proof in the module docstring).  The cofactors are those of
    `_vandermonde_minors`, divided by its common scale s.
    """
    gens = module.generators
    s, _, minors = _vandermonde_minors(gens, points)
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
            for pt_seq in itertools.permutations(range(len(pts)), k):
                total = Fraction(0)
                for j in range(k):
                    i_cur = idx_seq[j]
                    i_next = idx_seq[(j + 1) % k]
                    total += values[pt_seq[j]][i_cur] - values[pt_seq[j]][i_next]
                if total == 0:
                    return False
    return True
