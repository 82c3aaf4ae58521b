"""Intersection numbers on smooth complete toric surfaces and the
Riemann-Roch inequality verifier.

The intersection numbers are a fact of the fan, read off its
counterclockwise cycle once and cached on it (`Fan.cycle_terms`, which
proves them); the functions here check their arguments and read them,
and only those that return matrix entries build the dense
`Fan.intersection_numbers`.  The verifier compares
h0(D) + h0(K-D) against chi(O_X) + D(D-K)/2 with chi(O_X) = 1, all in
integers, from three parts that `rr_check` and `troptoric sweep` call on
a coefficient tuple: D(D-K) is the cycle form below (`_cycle_form`), the
two counts take one pass over the y-bounds of the fan's row plan
(`Fan.row_plan`) and, by the vanishing theorem below, at most one pair
of floor sums along its chains (`divisor._lattice_count_pair`), and
`_report_fields` checks D(D-K) even and gives the report's fields.  So
each divisor costs only integer arithmetic on its coefficient tuple, in
a number of steps that grows with the log of its coefficients.  An
exhaustive sweep counts each Picard class once, by the class theorem
below.  Every report, from `rr` and from both kinds of sweep, is written
as JSON by `_report_text`.

Theorem: on a smooth complete toric surface D(D-K) is even, since
Riemann-Roch gives chi(O(D)) = 1 + D(D-K)/2 and chi(O(D)) = h0 - h1 + h2
is an integer; and h0(D), h0(K-D) are finite, since the rays of a
complete fan positively span the plane, so P(D) and P(K-D) are bounded.

Theorem (the cycle form): on a smooth complete fan with n rays, D(D-K)
is the sum over the rays i of a_i*(b_i*a_i + 2*a_next(i) + b_i + 2), where
b_i = D_i.D_i and next(i) is the ray after i in the counterclockwise
cycle.  Proof: -K is the sum of the ray divisors, so D(D-K) = D.D +
sum_i a_i*(D_i.(-K)), and D_i.(-K) = b_i + 2 (`Fan.cycle_terms`).  Two
distinct ray divisors meet once iff they are cycle neighbours, so for
any D' with coefficients c, D.D' is the sum over the rays i of
a_i*(b_i*c_i + c_next(i)) + a_next(i)*c_i, each neighbour pair counted
once, from the ray before it (`pairing`), and D.D is the sum of
b_i*a_i^2 + 2*a_i*a_next(i).  So one divisor costs n products.

Theorem (vanishing): when the rays u_i of a fan positively span the
plane, P(D) and P(K-D) are never both nonempty, even as real polygons;
so h0(D) > 0 implies h0(K-D) = 0, the toric shadow of h0(K) = 0 on a
rational surface (Cox, Little and Schenck, Toric Varieties, §9.1).
Proof: positive spanning gives sum_i l_i*u_i = 0 with every l_i > 0.
K - D has coefficients -1 - a_i, so m in P(D) and m' in P(K-D) give
<m, u_i> >= -a_i and <m', u_i> >= 1 + a_i, hence <m + m', u_i> >= 1 for
every i, and 0 = sum_i l_i*<m + m', u_i> > 0, a contradiction.  So at
most one of the two counts has rows to sum (`divisor._lattice_count_pair`).

Theorem (classes): h0(D) and h0(K-D) depend only on the Picard class of
D, and the class of D is decided by its key: D minus the principal
divisor that zeroes the coefficients of the two rays u_p, u_q of one
smooth cone, that is the tuple a_i - a_p*<m_p, u_i> - a_q*<m_q, u_i>,
with m_p, m_q its dual frame (`fan.dual_frame`).  Proof: div(m) has
coefficients <m, u_i>, so P(D + div(m)) = {x : <x + m, u_i> + a_i >= 0}
= P(D) - m, a lattice translate with as many lattice points, and K - D
moves by -div(m) the same way.  The key is D + div(m) for m = -a_p*m_p -
a_q*m_q, so it is linearly equivalent to D; and two keys that differ by
some div(m) are zero at p and q, so <m, u_p> = <m, u_q> = 0 and m = 0, as
u_p, u_q is a basis.  The proof uses only the rays: the counts of a class
do not depend on the intersection numbers, so wrong planted ones change
only D(D-K), which the cycle form gives tuple by tuple.  The key is
affine in the coefficients, and zero at p and q; a box swept with the
last ray's coefficient c innermost, by a cone that avoids that ray, has
keys that are the key of the other coefficients followed by c plus a
constant (`cli._sweep_box`).
"""

from __future__ import annotations

from typing import NamedTuple

from .divisor import ToricDivisor, _lattice_count_pair, _same_fan
from .fan import Fan, _as_vec


def ray_intersection(fan: Fan, ray1, ray2) -> int:
    """D_ray1 . D_ray2 for distinct rays: 1 iff some cone has both as rays."""
    m = fan.intersection_numbers
    r1, r2 = _as_vec(ray1), _as_vec(ray2)
    if r1 == r2:
        raise ValueError("equal rays: use self_intersection")
    return m[fan.ray_index(r1)][fan.ray_index(r2)]


def self_intersection(fan: Fan, ray) -> int:
    """D_ray . D_ray: the integer b with u1 + u2 + b*u = 0, where u1, u2
    are the two rays adjacent to u."""
    i = fan.ray_index(ray)
    return fan.intersection_numbers[i][i]


def intersection_matrix(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """The symmetric matrix of D_i . D_j in ray order: the fan's cached
    ``intersection_numbers`` tuple itself.  ValueError unless the fan is
    smooth and complete."""
    return fan.intersection_numbers


def pairing(fan: Fan, d1: ToricDivisor, d2: ToricDivisor) -> int:
    """The bilinear intersection pairing sum a_i c_j (D_i . D_j), summed
    over the counterclockwise cycle by the cycle form above."""
    _same_fan(fan, d1, d2)
    terms = fan.cycle_terms  # ValueError unless smooth and complete
    a, c = d1.coeffs, d2.coeffs
    total = 0
    for i, j, b, _ in terms:
        total += a[i] * (b * c[i] + c[j]) + a[j] * c[i]
    return total


class RRReport(NamedTuple):
    """One Riemann-Roch inequality check, all in integers: both h0 values,
    chi, the pairing term D(D-K)/2, rhs = chi + D(D-K)/2 and the defect
    h0(D) + h0(K-D) - rhs."""

    h0_D: int
    h0_K_minus_D: int
    euler: int
    pairing_term: int
    rhs: int
    defect: int
    holds: bool

    def to_dict(self) -> dict:
        """The fields by name, in declaration order: JSON ints and a bool."""
        return self._asdict()


def _report_text(fields) -> str:
    """The JSON text json.dumps writes for RRReport(*fields).to_dict(), as
    one f-string: an int's JSON text is its str, and ``holds`` is true or
    false.  The only writer of a report, for `rr` and both kinds of sweep;
    ints past the interpreter's digit limit need `jsonutil.full_int_text`."""
    h0_d, h0_k_minus_d, euler, pairing_term, rhs, defect, holds = fields
    return (
        f'{{"h0_D": {h0_d}, "h0_K_minus_D": {h0_k_minus_d}, "euler": {euler}, '
        f'"pairing_term": {pairing_term}, "rhs": {rhs}, "defect": {defect}, '
        f'"holds": {"true" if holds else "false"}}}'
    )


def _cycle_form(steps, a) -> int:
    """D(D-K) for the coefficients ``a``: the cycle form above, summed
    over ``steps``, a fan's ``cycle_terms`` (i, next(i), b_i, s_i), with
    s_i = b_i + 2."""
    twice = 0
    for i, j, b, s in steps:
        c = a[i]
        twice += c * (b * c + 2 * a[j] + s)
    return twice


def _report_fields(twice: int, h0_d: int, h0_k_minus_d: int) -> tuple:
    """The fields of an `RRReport`, in declaration order, from D(D-K) and
    the two counts; ArithmeticError when D(D-K) is odd.

    D(D-K) is even on a smooth complete surface, so only wrong terms
    planted in ``cycle_terms`` can make it odd: mod 2 the cycle form is
    sum_i a_i*(b_i + s_i), since a_i^2 = a_i, and so is the dense
    a.M.(a + 1) when b_i and s_i are the diagonal and row sums of a
    symmetric M.
    """
    if twice % 2:
        raise ArithmeticError(f"D(D-K) = {twice} is odd: the intersection numbers are wrong")
    pairing_term = twice // 2
    # chi(O_X) = 1: the higher cohomology of O_X vanishes on a complete
    # toric variety (Cox, Little and Schenck, Toric Varieties, §9.2)
    euler = 1
    rhs = euler + pairing_term
    defect = h0_d + h0_k_minus_d - rhs
    return h0_d, h0_k_minus_d, euler, pairing_term, rhs, defect, defect >= 0


def rr_check(fan: Fan, d: ToricDivisor) -> RRReport:
    """Verify h0(D) + h0(K-D) >= chi + D(D-K)/2 for one divisor: the cycle
    form (`_cycle_form`) and the two counts (`divisor._lattice_count_pair`)
    on the coefficient tuple of D.  ValueError unless the fan is smooth
    and complete.

    Every field is an int by the integrality theorem above; an odd D(D-K)
    can only come from wrong intersection numbers and raises
    ArithmeticError.
    """
    steps = fan.cycle_terms  # ValueError unless smooth and complete
    _same_fan(fan, d)
    a = d.coeffs
    return RRReport._make(_report_fields(_cycle_form(steps, a), *_lattice_count_pair(fan.row_plan, a)))
