"""Toric divisors, the polytope P(D), lattice-point enumeration, and h0.

A toric divisor is an integer coefficient per ray of a fan.  Its polytope
P(D) = {m : <m, e_ray> + a_ray >= 0} is a function of the divisor alone:
`polytope` reads the inequalities off it, `polytope_vertices` finds the
vertices, pairwise line intersections in homogeneous integer coordinates,
on each call, and whether P(D) is bounded is the fan's fact (its
recession cone is trivial iff the rays positively span the plane,
`Fan.bounded`).

Both the count and the listing read the row plan: the Fourier-Motzkin
elimination of x, which depends only on the rays, so a fan computes it
once (`Fan.row_plan`).  The integer y-range is read off the plan's y-bounds
(`_y_ranges`), and row y runs from lo(y) to hi(y), where hi is the minimum
over the rays with x < 0 and -lo the minimum over the rays with x > 0 of
floor((ey*y + a_i)/|ex|).  h0 counts by floor sums: along each chain of
the plan the minimum is one ray on each of at most n pieces, and a piece
sums in O(log scale) steps by the Euclid-like reduction, so no polytope,
vertex, row or point is built.  The cost grows with the log of the
coefficients and linearly with the number of y-bounds, which is one per
pair of a ray with x > 0 and a ray with x < 0, so quadratic in the rays
at worst.  There is one count, `_lattice_count_pair`, on bare
coefficient tuples, for h0 and the Riemann-Roch verifier: one pass over
the y-bounds gives D's and K - D's y-ranges, and at most one holds rows,
so it sums one pair of chains at most.  lattice_points walks the rows
(`_rows`) to list the points, and so cross-checks the count.  Neither h0
nor lattice_points reads a vertex: an unbounded P(D) is nonempty iff
a_u + a_-u >= 0 for the one pair of opposite rays u, -u, if the fan has
one (`_walkable` proves it), and then both raise UnboundedPolytopeError.
"""

from __future__ import annotations

import math

from .fan import Fan, RowPlan, Vec, _as_vec, _frozen, det2, dot
from .jsonutil import ParseError

# Fraction (fractions) and TropPolynomial (trop) appear in annotations only,
# which stay unevaluated strings: a sweep never loads either module

# An inequality (ex, ey, a) means ex*x + ey*y + a >= 0.
Inequality = tuple[int, int, int]


class UnboundedPolytopeError(ValueError):
    """Raised when a nonempty unbounded polytope has no finite point count."""


@_frozen("fan", "coeffs")
class ToricDivisor:
    """An integer combination of the ray divisors, stored in fan ray order.

    A frozen value: equality, hash and repr read ``fan`` and ``coeffs``.
    """

    def __init__(self, fan: Fan, coeffs: tuple[int, ...]):
        coeffs = tuple(coeffs)
        if len(coeffs) != len(fan.rays):
            raise ValueError("one coefficient per fan ray is required")
        for c in coeffs:
            # bool is an int subclass, but JSON true/false is not a coefficient
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError("divisor coefficients must be integers")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, ray) -> int:
        return self.coeffs[self.fan.ray_index(ray)]

    def __add__(self, other: "ToricDivisor") -> "ToricDivisor":
        if not isinstance(other, ToricDivisor):
            return NotImplemented
        _same_fan(self.fan, other)
        return ToricDivisor(self.fan, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ToricDivisor") -> "ToricDivisor":
        if not isinstance(other, ToricDivisor):
            return NotImplemented
        _same_fan(self.fan, other)
        return ToricDivisor(self.fan, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ToricDivisor":
        return ToricDivisor(self.fan, tuple(-a for a in self.coeffs))

    def __rmul__(self, n: int) -> "ToricDivisor":
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        return ToricDivisor(self.fan, tuple(n * a for a in self.coeffs))

    def to_dict(self) -> dict:
        return {"coeffs": {str(i): c for i, c in enumerate(self.coeffs)}}


def _same_fan(fan: Fan, *divisors: ToricDivisor) -> None:
    # equal fans are interchangeable; `is` first, since comparing fans costs
    for d in divisors:
        if d.fan is not fan and d.fan != fan:
            raise ValueError("divisor does not live on the given fan")


def divisor_from_dict(fan: Fan, d: dict) -> ToricDivisor:
    """Inverse of ToricDivisor.to_dict.  ParseError (a ValueError) for
    malformed input: not an object with a ``coeffs`` key, ``coeffs`` that
    is not an object, a missing or unknown ray index, or a coefficient
    that is not an int (JSON booleans and floats included)."""
    if not isinstance(d, dict) or "coeffs" not in d:
        raise ParseError("a divisor must be a JSON object with a 'coeffs' key")
    raw = d["coeffs"]
    if not isinstance(raw, dict):
        raise ParseError(f"divisor coeffs must be an object keyed by ray index, got {raw!r}")
    coeffs = []
    for i in range(len(fan.rays)):
        key = str(i)
        if key not in raw:
            raise ParseError(f"missing coefficient for ray index {i}")
        c = raw[key]
        if isinstance(c, bool) or not isinstance(c, int):
            raise ParseError(f"divisor coefficients must be integers, got {c!r}")
        coeffs.append(c)
    if len(raw) != len(fan.rays):
        raise ParseError("divisor has coefficients for unknown ray indices")
    return ToricDivisor(fan, tuple(coeffs))


def ray_divisor(fan: Fan, ray) -> ToricDivisor:
    """The divisor D_ray: coefficient 1 on the given ray, 0 elsewhere."""
    i = fan.ray_index(ray)
    return ToricDivisor(fan, tuple(1 if j == i else 0 for j in range(len(fan.rays))))


def zero_divisor(fan: Fan) -> ToricDivisor:
    return ToricDivisor(fan, (0,) * len(fan.rays))


def principal_divisor(m, fan: Fan) -> ToricDivisor:
    """div(x^m) = sum over rays of <m, e_ray> D_ray."""
    m = _as_vec(m)
    return ToricDivisor(fan, tuple(dot(m, e) for e in fan.rays))


def canonical_divisor(fan: Fan) -> ToricDivisor:
    """K = -(sum of all ray divisors): every coefficient is -1."""
    return ToricDivisor(fan, (-1,) * len(fan.rays))


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g.  Iterative, as
    Euclid's step count grows with the digits (about 1,200 steps on
    consecutive Fibonacci numbers of 251 digits)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def linearly_equivalent(d1: ToricDivisor, d2: ToricDivisor) -> Vec | None:
    """m with d1 - d2 = div(x^m), or None when the integer system
    <m, e_i> = t_i, t = d1 - d2, has no solution.

    Solved in one unimodular basis.  Proof: e = e_0 is primitive, so
    `_ext_gcd` gives an integer p with <p, e> = 1; with f = (-e_y, e_x),
    <f, e> = 0 and det(p, f) = <p, e> = 1, so (p, f) is a basis of Z^2 and
    the integer m with <m, e> = t_0 are exactly m = t_0*p + k*f, k an
    integer.  Then <m, e_i> = t_0*<p, e_i> + k*<f, e_i>.  The first ray
    with <f, e_i> != 0 fixes k, and no integer solution exists unless k is
    an integer; the floor of k fails that ray's equation when it is not.
    If there is no such ray, every ray is +-e and k = 0 serves as well as
    any.  Either way some m solves the system iff this one satisfies every
    ray's equation.
    """
    _same_fan(d1.fan, d2)
    rays = d1.fan.rays
    targets = tuple(a - b for a, b in zip(d1.coeffs, d2.coeffs))
    if not rays:
        return (0, 0)
    (ex, ey), t0 = rays[0], targets[0]
    _, px, py = _ext_gcd(ex, ey)
    k = 0
    for e, t in zip(rays, targets):
        w = det2((ex, ey), e)  # <f, e_i>
        if w:
            k = (t - t0 * dot((px, py), e)) // w
            break
    m = (t0 * px - k * ey, t0 * py + k * ex)
    if any(dot(m, e) != t for e, t in zip(rays, targets)):
        return None
    return m


def polytope(d: ToricDivisor) -> tuple[Inequality, ...]:
    """P(D): one inequality (ex, ey, a), <m, e_ray> + a_ray >= 0, per ray,
    in ray order."""
    return tuple((e[0], e[1], a) for e, a in zip(d.fan.rays, d.coeffs))


def polytope_vertices(d: ToricDivisor) -> tuple[tuple[Fraction, Fraction], ...]:
    """The vertices of P(D), sorted: the pairwise intersections of its
    boundary lines that satisfy every inequality, found in homogeneous
    integer coordinates.  No vertex on a bounded P(D) means it is empty."""
    import fractions  # on first use, as in `jsonutil.parse_rational`

    ineqs = polytope(d)
    found = {}
    n = len(ineqs)
    for i in range(n):
        ei_x, ei_y, ai = ineqs[i]
        for j in range(i + 1, n):
            ej_x, ej_y, aj = ineqs[j]
            w = ei_x * ej_y - ei_y * ej_x
            if w == 0:
                continue
            # solve ei.m = -ai, ej.m = -aj in homogeneous coordinates
            nx = aj * ei_y - ai * ej_y
            ny = ai * ej_x - aj * ei_x
            if w < 0:
                nx, ny, w = -nx, -ny, -w
            ok = True
            for ex, ey, a in ineqs:
                if ex * nx + ey * ny + a * w < 0:
                    ok = False
                    break
            if ok:
                g = math.gcd(math.gcd(abs(nx), abs(ny)), w)
                found[(nx // g, ny // g, w // g)] = None
    verts = [(fractions.Fraction(nx, w), fractions.Fraction(ny, w)) for nx, ny, w in found]
    verts.sort()
    return tuple(verts)


def _y_ranges(plan: RowPlan, a) -> tuple[int, int, int, int]:
    """(y_lo, y_hi, k_lo, k_hi): the integer heights of the bounded
    systems with row plan ``plan`` and coefficients ``a`` and -1 - a, the
    coefficients of D and of K - D.  Each is empty (lo > hi) when its
    system is, and otherwise every row in it has real width >= 0.

    A y-bound (cy, i, wi, j, wj) reads cy*y + L >= 0 with the form
    L = wi*a_i + wj*a_j, and on -1 - a its form is -(wi + wj) - L; so each
    form is computed once and gives both bounds.
    """
    _, _, lower, upper, fixed = plan
    # a bounded system has bounds on both sides in y, and in x on each row
    y_lo = k_lo = y_hi = k_hi = None
    for cy, i, wi, j, wj in lower:
        form = wi * a[i] + wj * a[j]
        y, k = -(form // cy), -((-wi - wj - form) // cy)
        if y_lo is None or y > y_lo:
            y_lo = y
        if k_lo is None or k > k_lo:
            k_lo = k
    for cy, i, wi, j, wj in upper:
        form = wi * a[i] + wj * a[j]
        y, k = form // -cy, (-wi - wj - form) // -cy
        if y_hi is None or y < y_hi:
            y_hi = y
        if k_hi is None or k < k_hi:
            k_hi = k
    for _, i, wi, j, wj in fixed:
        form = wi * a[i] + wj * a[j]
        if form < 0:
            y_lo, y_hi = 1, 0
        if -wi - wj - form < 0:
            k_lo, k_hi = 1, 0
    return y_lo, y_hi, k_lo, k_hi


def _rows(plan: RowPlan, a):
    """(y, lo, hi) for every row with an integer point of the bounded
    system with row plan ``plan`` and coefficients ``a``, in increasing y:
    the integer points are lo <= x <= hi at height y."""
    y_lo, y_hi, _, _ = _y_ranges(plan, a)
    pos = [(ex, ey, a[i]) for i, ex, ey in plan.pos]
    neg = [(ex, ey, a[i]) for i, ex, ey in plan.neg]
    for y in range(y_lo, y_hi + 1):
        lo = hi = None
        for ex, ey, c in pos:
            b = -((ey * y + c) // ex)
            if lo is None or b > lo:
                lo = b
        for ex, ey, c in neg:
            b = (ey * y + c) // ex
            if hi is None or b < hi:
                hi = b
        if lo <= hi:
            yield y, lo, hi


def _walkable(fan: Fan, a) -> bool:
    """Whether the integer points of {m : <m, e_i> + a_i >= 0}, with
    normals e_i the fan's rays (distinct and primitive), can be walked by
    rows: True when it is bounded, False when it is unbounded and empty;
    UnboundedPolytopeError when it is unbounded and nonempty.

    Theorem: when the normals do not positively span the plane, the set
    is nonempty iff a_u + a_-u >= 0 for the opposite pair u, -u among
    them, if there is one.  Proof: some closed half-plane
    {e : <d, e> >= 0} holds the normals.  If some open one does, the set
    contains a translate of the open cone {m : <m, e_i> > 0 for all i},
    which holds integer points.  Otherwise the boundary line of the
    closed one holds normals on both sides of 0 (tilting d toward normals
    on one side only would open it), so it holds exactly one opposite
    pair u, -u, and <d, e> > 0 for every other normal e.  Then
    a_u + a_-u < 0 makes <m, u> >= -a_u and <m, u> <= a_-u contradict.
    Otherwise take d primitive and integral (it is normal to u) and m0
    integral with <m0, u> = -a_u, as u is primitive: m0 + k*d lies in
    the set for every large k.
    """
    if fan.bounded:
        return True
    index = {e: i for i, e in enumerate(fan.rays)}
    for i, (ex, ey) in enumerate(fan.rays):
        j = index.get((-ex, -ey))
        if j is not None and a[i] + a[j] < 0:
            return False
    raise UnboundedPolytopeError("P(D) is unbounded and nonempty")


def lattice_points(d: ToricDivisor) -> tuple[Vec, ...]:
    """All integer points of P(D), sorted by (y, x).

    Raises UnboundedPolytopeError when P(D) is unbounded and nonempty;
    an empty P(D) (bounded or not) yields the empty tuple.  The rows come
    from the fan's row plan.
    """
    fan, a = d.fan, d.coeffs
    if not _walkable(fan, a):
        return ()
    return tuple((x, y) for y, lo, hi in _rows(fan.row_plan, a) for x in range(lo, hi + 1))


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of (a*t + b) // m over 0 <= t < n, for n >= 0 and m >= 1.

    Euclid-like reduction (Beck and Robins, *Computing the Continuous
    Discretely*, ch. 1-2): with 0 <= a, b < m, the sum counts the lattice
    points under a segment, and swapping the axes leaves the same kind of
    sum with modulus a.  O(log m) steps; a single one when m = 1.
    """
    total = 0
    while True:
        q, a = divmod(a, m)
        r, b = divmod(b, m)
        total += q * (n * (n - 1) // 2) + r * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _chain_sum(chain, a, y_lo: int, y_hi: int) -> int:
    """The sum over y_lo <= y <= y_hi of the minimum over the chain's rays
    (i, |ex|, ey) of (ey*y + a_i) // |ex|, for y_lo <= y_hi.

    The chain is in the order in which its rays take over the minimum
    (`RowPlan`), with distinct slopes, as a fan's distinct primitive rays
    have, so the lower envelope is one stack pass: a ray becomes the
    minimum at the first integer y past its last tie with the ray before
    it, and a ray that never leads inside the range is dropped.  Each
    piece of the envelope is then one floor sum.
    """
    pieces = []  # (|ex|, ey, a_i, first y at which the ray is the minimum)
    for i, ex, ey in chain:
        c = a[i]
        start = y_lo
        while pieces:
            px, py, pc, ps = pieces[-1]
            # the last y with (py*y + pc)/px <= (ey*y + c)/ex; py*ex > ey*px
            last = (c * px - pc * ex) // (py * ex - ey * px)
            if last >= ps:
                start = last + 1
                break
            pieces.pop()
        if start <= y_hi:
            pieces.append((ex, ey, c, start))
    total = 0
    end = y_hi
    for ex, ey, c, start in reversed(pieces):
        total += _floor_sum(end - start + 1, ex, ey, ey * start + c)
        end = start - 1
    return total


def _count_rows(plan: RowPlan, a, y_lo: int, y_hi: int) -> int:
    """The integer points of rows y_lo to y_hi, a nonempty y-range of the
    bounded system with row plan ``plan`` and coefficients ``a``.

    Row y holds hi - lo + 1 points, with hi the minimum over ``neg`` and
    -lo the minimum over ``pos`` of (ey*y + a_i) // |ex|; every row of the
    y-range has real width >= 0, so hi - lo + 1 >= 0 there, and the count
    is two chain sums plus the number of rows, unclamped.
    """
    return _chain_sum(plan.pos, a, y_lo, y_hi) + _chain_sum(plan.neg, a, y_lo, y_hi) + y_hi - y_lo + 1


def _lattice_count_pair(plan: RowPlan, a) -> tuple[int, int]:
    """(|P(D) ∩ M|, |P(K-D) ∩ M|) for the divisor D with coefficients
    ``a`` on a fan with row plan ``plan``, whose rays must positively span
    the plane: one pass over the y-bounds (`_y_ranges`), since K - D has
    coefficients -1 - a and so each bound's form for D gives K - D's, and
    at most one pair of chain sums.

    P(D) and P(K-D) are never both nonempty, even as real polygons (the
    vanishing theorem, proved in `intersect`), and a nonempty integer
    y-range holds a row of real width >= 0, a real point.  So at most one
    of the two y-ranges is nonempty, and the list -1 - a is built only
    when it is K - D's.
    """
    y_lo, y_hi, k_lo, k_hi = _y_ranges(plan, a)
    if y_lo <= y_hi:
        return _count_rows(plan, a, y_lo, y_hi), 0
    if k_lo <= k_hi:
        return 0, _count_rows(plan, [-1 - c for c in a], k_lo, k_hi)
    return 0, 0


def h0(fan: Fan, d: ToricDivisor) -> int:
    """h0(X, D) = |P(D) ∩ M| on a smooth fan.

    Counted by floor sums, the first of `_lattice_count_pair`.  P(D) can
    only be unbounded when the fan's rays do not positively span the
    plane: then h0 is 0 if P(D) is empty, and UnboundedPolytopeError is
    raised if it is not (`_walkable`), so the pair's precondition holds.
    """
    _same_fan(fan, d)
    if not fan.smooth:
        raise ValueError("h0 requires a smooth fan")
    if not _walkable(fan, d.coeffs):
        return 0
    return _lattice_count_pair(fan.row_plan, d.coeffs)[0]


def degree_along_ray(g: TropPolynomial, ray) -> int:
    """Degree of g along the ray divisor: min <m, e_ray> over the support."""
    if g.is_empty:
        raise ValueError("empty polynomial has no ray degrees")
    if g.dimension != 2:
        raise ValueError("ray degrees are implemented for two variables")
    ray = _as_vec(ray)
    return min(dot(m, ray) for m in g.support)


def divisor_of_section(fan: Fan, g: TropPolynomial):
    """Split div(g) into its inner corner locus and its ray-divisor part.

    Returns (corner_locus(g), sum over rays of deg(g)_ray D_ray), each
    deg(g)_ray = min <m, u_ray> over the support, as `degree_along_ray`
    computes it.
    """
    from .curve import corner_locus

    if g.is_empty:
        raise ValueError("the zero section has no divisor decomposition")
    if g.dimension != 2:
        raise ValueError("sections are bivariate here")
    inner = corner_locus(g)
    support = g.support  # a new tuple on every read: read once, for every ray
    ray_part = ToricDivisor(fan, tuple(min(m[0] * u + m[1] * v for m in support) for u, v in fan.rays))
    return inner, ray_part
