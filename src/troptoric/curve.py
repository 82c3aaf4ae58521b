"""Corner loci of bivariate tropical polynomials as weighted plane curves.

Lift each exponent m of max_m(c_m + <m, x>) to height c_m.  The upper
faces of the lift project to the regular subdivision of the Newton
polygon, and the corner locus is its dual (Maclagan and Sturmfels, 3.1;
De Loera, Rambau and Santos, Triangulations, ch. 2): a vertex per face,
a segment per edge of two faces, a ray along the outward normal per
boundary edge, and a line per edge of the lifted upper chain when the
exponents are collinear.  A 1-cell's weight is the lattice length of its
dual edge, which is exactly what makes the locus balanced.

The faces are found in integers.  The terms are read once, in sorted
order; coefficients are scaled by the lcm of their denominators and the
i-th exponent is lifted once to a flat tuple (x, y, h, i).  The faces are
gift-wrapped from a boundary edge, which one linear scan finds
(`_start_edge`): the least exponent is a corner, a Jarvis step gives the
boundary line that leaves it counterclockwise, and the steepest rise
along that line gives the first edge of the lifted upper chain.  When
the exponents are collinear there are no faces, and the same scan,
repeated from the end of each edge it finds, gives the whole chain
(`_line_chain`).  Otherwise one inline scan of the lifted points per
directed edge finds the plane of the face on its left and collects its
cell, coplanar points in one cell.  Directed edges are keyed by their
pairs of term positions, so no exponent tuple is hashed while wrapping.
A face gets an integer id when it is found, and the ids are ranked once
by the dual vertices, compared as integer pairs over a common
denominator, so no Fraction is hashed or compared.  A triangle's ring is the edge it was found from and its one
left point, and its edges carry no family: the exponents on such an edge
are its two ends.

A section's locus and its subdivision come from one wrap, memoised in a
single slot: the last polynomial wrapped, held by strong reference and
matched by identity, with its hull as tuples of tuples.  Holding the
polynomial keeps its id from passing to a new object, and
`TropPolynomial` has no mutator, so a match has the same terms; the
tuples keep either caller from changing what the other reads; a wrap
that raises leaves the slot as it was.  The slot serves the one reuse
callers have, ``corner_locus(g)`` and ``newton_subdivision(g)`` in a
row, and goes no wider on purpose: a cache keyed by equality hashes
every polynomial (tens of microseconds at 10-36 terms), a cache of many
objects keeps them all alive to serve only inputs met again, and an
equal but distinct copy simply costs a second wrap.

The outputs are returned records, so `collections.namedtuple` subclasses
(see `fan`): each hashes, orders and compares as the tuple of its fields.
"""

from __future__ import annotations

import collections
import math
from fractions import Fraction

from .fan import Vec, det2, dot, primitive
from .jsonutil import format_point
from .trop import TropPolynomial, _common_scale


class SegmentEdge(collections.namedtuple("SegmentEdge", "ends weight")):
    """A bounded edge between two vertices, ``ends`` an increasing index pair."""

    __slots__ = ()


class RayEdge(collections.namedtuple("RayEdge", "vertex direction weight")):
    """A half-infinite edge anchored at a vertex, by its index."""

    __slots__ = ()


class LineEdge(collections.namedtuple("LineEdge", "anchor direction weight")):
    """A full line; occurs only when every exponent is collinear (no vertices)."""

    __slots__ = ()


class WeightedComplex(
    collections.namedtuple("WeightedComplex", "vertices segments rays lines", defaults=((), (), ()))
):
    """A weighted rational 1-complex in the plane: the corner locus."""

    __slots__ = ()

    @property
    def is_empty(self) -> bool:
        return not (self.vertices or self.segments or self.rays or self.lines)

    def to_dict(self) -> dict:
        return {
            "vertices": [format_point(v) for v in self.vertices],
            "segments": [{"ends": list(s.ends), "weight": s.weight} for s in self.segments],
            "rays": [
                {"vertex": r.vertex, "direction": list(r.direction), "weight": r.weight}
                for r in self.rays
            ],
            "lines": [
                {"anchor": format_point(l.anchor), "direction": list(l.direction), "weight": l.weight}
                for l in self.lines
            ],
        }


class SubdivisionEdge(collections.namedtuple("SubdivisionEdge", "points boundary")):
    """A 1-cell of the Newton subdivision: a maximal collinear tying family."""

    __slots__ = ()


class NewtonSubdivision(collections.namedtuple("NewtonSubdivision", "points cells2 edges cells0")):
    """The regular subdivision of the Newton polygon induced by the lift."""

    __slots__ = ()


def _require_bivariate(g: TropPolynomial):
    if g.is_empty:
        raise ValueError("empty polynomial has no corner locus")
    if g.dimension != 2:
        raise ValueError("corner loci are implemented for two variables")


def _start_edge(lift):
    """(p, e, flat): the first edge p -> e of the lifted upper chain along
    the boundary edge of the Newton polygon that leaves p = lift[0]
    counterclockwise, or along the line of the points when they are
    collinear, which flat tells.

    The lifted points are (x, y, h, tag) in increasing (x, y) order, so p
    is a corner and every other point lies in the half-plane after it:
    their directions from p span less than a half-turn.  One scan keeps
    the candidate e of the most clockwise direction seen (a Jarvis step
    from p) and, among the points in that direction, the one of steepest
    rise from p, the farthest on ties.  A point comes after every nearer
    one in its direction, so a tie goes to the later point.  Once the
    final direction is met the candidate never leaves it, so every point
    on the boundary line is compared in it.
    """
    p = lift[0]
    px, py, ph, _ = p
    e = lift[1]
    ex, ey = e[0] - px, e[1] - py
    rise, run = e[2] - ph, ex or ey  # run: a positive length along the direction
    flat = True
    for s in lift[2:]:
        x, y = s[0] - px, s[1] - py
        t = ex * y - ey * x
        if t < 0:  # s is right of p -> e: a new, more clockwise direction
            e, ex, ey, rise, run = s, x, y, s[2] - ph, x or y
            flat = False
        elif t:
            flat = False
        elif (s[2] - ph) * run >= rise * (x or y):
            e, rise, run = s, s[2] - ph, x or y
    return p, e, flat


def _line_chain(lift):
    """(start, end, tags) for each edge of the lifted upper chain of
    collinear points, lifted as in `_start_edge` and tagged by their
    positions in lift, from lift[0] to lift[-1].

    Each edge is the steepest rise from the end of the last, farthest on
    ties (`_start_edge` on the points from there on), so no later point
    is on it; its tags are those of the points from its start to its end
    at its slope, every point being weakly below the chain.
    """
    chain = []
    i = 0
    while i < len(lift) - 1:
        p, e, _ = _start_edge(lift[i:])
        rise, run = e[2] - p[2], e[0] - p[0] or e[1] - p[1]
        tags = tuple(s[3] for s in lift[i:e[3] + 1] if (s[2] - p[2]) * run == rise * (s[0] - p[0] or s[1] - p[1]))
        chain.append((p, e, tags))
        i = e[3]
    return chain


_held = None  # (g, its hull): the one polynomial last wrapped, kept alive


def _lifted_hull(g: TropPolynomial):
    """``_gift_wrap(g)``, memoised for the last g wrapped (see the module
    docstring): a locus and a subdivision of one polynomial share a wrap."""
    global _held
    held = _held
    if held is not None and held[0] is g:
        return held[1]
    hull = _gift_wrap(g)
    _held = (g, hull)
    return hull


def _gift_wrap(g: TropPolynomial):
    """(cells, edges) of the upper hull of the exponents lifted to their
    coefficients, both tuples of tuples.

    The terms are read once, in sorted order, and the i-th exponent is
    lifted to the flat integer tuple (m[0], m[1], h, i), h = c_m times the
    lcm of the coefficients' denominators.  The wrap starts from
    `_start_edge` and keys each directed edge of a face by its pair of
    term positions; exponents are looked up only for the output.  Faces
    get integer ids as the gift-wrap finds them and are ranked by their
    dual vertex at the end.  cells lists (x, y, d, exponents on the face)
    in rank order, the dual vertex being (x / d, y / d); edges lists (a, b,
    family, ranks): the ends, the exponents on the edge and the ranks of
    its faces, the face left of a -> b first.  Collinear support has no
    faces; its edges are those of the lifted upper chain, a before b.
    """
    terms = list(g.terms())
    exps = [m for m, _ in terms]
    scale, heights = _common_scale([c for _, c in terms])
    lift = [(m[0], m[1], h, i) for i, (m, h) in enumerate(zip(exps, heights))]
    if len(lift) == 1:
        return (), ()
    p, q, flat = _start_edge(lift)
    if flat:
        return (), tuple(
            (exps[a[3]], exps[b[3]], tuple(exps[i] for i in tags), ()) for a, b, tags in _line_chain(lift)
        )
    faces = []  # face id -> (x, y, d, exponents on the face), dual vertex (x / d, y / d)
    left = {}  # directed edge (i, j) of a face, as term positions -> face id
    families = {}  # (i, j) -> exponents on the edge, for the edges of polygonal cells only
    todo = [(p, q)]  # the Newton polygon lies left of its ccw boundary
    # each scan records its directed edge in left, or finds it on the
    # boundary, whose reverse is recorded once: one scan per directed pair
    scans = len(lift) * (len(lift) - 1)
    while todo:
        p, q = todo.pop()
        if (p[3], q[3]) in left:
            continue
        if not scans:
            raise RuntimeError("the gift-wrap of the lifted hull did not close")
        scans -= 1
        # The face left of p -> q lies on the plane n.x = level through p,
        # q and the left point that leaves no lifted point above it.  Each
        # update raises the plane, so a left point on the final plane sets
        # it or comes after it is set: one scan collects the cell's left
        # points.  No point right of p -> q is on it, as p -> q is an edge
        # of the hull; the points on its line join the cell afterwards.
        px, py, ph, _ = p
        ux, uy, uh = q[0] - px, q[1] - py, q[2] - ph
        side = ux * py - uy * px  # s is left of p -> q iff ux*y - uy*x > side
        nx = ny = nz = 0
        level = -1  # no plane yet: every left point is above it
        cell = []
        line = []
        for s in lift:
            x, y, h, _ = s
            t = ux * y - uy * x
            if t > side:
                z = nx * x + ny * y + nz * h
                if z > level:
                    wx, wy, wh = x - px, y - py, h - ph
                    nx, ny, nz = uy * wh - uh * wy, uh * wx - ux * wh, ux * wy - uy * wx
                    level = nx * px + ny * py + nz * ph
                    cell = [s]
                elif z == level:
                    cell.append(s)
            elif t == side:
                line.append(s)
        if not nz:
            continue  # p -> q is on the boundary of the Newton polygon
        cell += [s for s in line if nx * s[0] + ny * s[1] + nz * s[2] == level]
        # the plane is z = c - <v, m> (heights unscaled) for v = (nx, ny)
        # / (nz * scale), so exactly the monomials of the cell attain the
        # maximum at v
        face = len(faces)
        faces.append((nx, ny, nz * scale, tuple(exps[s[3]] for s in cell)))
        if len(cell) == 3:  # the one left point closes a ccw triangle
            r = cell[0]
            i, j, k = p[3], q[3], r[3]
            left[i, j] = left[j, k] = left[k, i] = face
            todo += ((q, p), (r, q), (p, r))
            continue
        hull = hull_vertices(tuple(cell))  # ccw corners, as lifted points
        for a, b in zip(hull, hull[1:] + hull[:1]):
            dx, dy = b[0] - a[0], b[1] - a[1]
            edge = (a[3], b[3])
            left[edge] = face
            families[edge] = tuple(exps[s[3]] for s in cell if dx * (s[1] - a[1]) == dy * (s[0] - a[0]))
            todo.append((b, a))
    # the dual vertices (x / d, y / d) sort as the integer pairs (x * k, y * k), k = lcm / d
    lcm = math.lcm(*(d for _, _, d, _ in faces))
    keys = [(x * (lcm // d), y * (lcm // d)) for x, y, d, _ in faces]
    order = sorted(range(len(faces)), key=keys.__getitem__)
    rank = [0] * len(faces)
    for r, face in enumerate(order):
        rank[face] = r
    edges = []
    for (i, j), face in left.items():
        twin = left.get((j, i))
        if twin is None:
            ranks = (rank[face],)
        elif i < j:  # positions order as the exponents do
            ranks = (rank[face], rank[twin])
        else:
            continue
        a, b = exps[i], exps[j]
        edges.append((a, b, families.get((i, j)) or (a, b), ranks))
    return tuple(faces[f] for f in order), tuple(edges)


def corner_locus(g: TropPolynomial) -> WeightedComplex:
    """The corner locus of g as a weighted 1-complex.

    One vertex per 2-cell of the dual subdivision, in increasing order; one
    segment per edge of two cells, with its ends in increasing index order;
    one ray per boundary edge of a cell, along the edge's outward normal;
    one full line per edge of the lifted upper chain when all exponents
    are collinear.  Weights are the lattice lengths of the dual edges.
    Each kind sorts as tuples, so segments by ``ends``, rays by ``(vertex,
    direction)`` and lines by ``(anchor, direction)``, as each of these is
    unique in a locus.  A single monomial has an empty locus.
    """
    _require_bivariate(g)
    cells, edges = _lifted_hull(g)
    segments = []
    rays = []
    lines = []
    for a, b, _, ranks in edges:
        weight = math.gcd(b[0] - a[0], b[1] - a[1])
        if len(ranks) == 2:
            i, j = ranks
            segments.append(SegmentEdge((i, j) if i < j else (j, i), weight))
            continue
        normal = ((b[1] - a[1]) // weight, (a[0] - b[0]) // weight)  # primitive, right of a -> b
        if ranks:
            rays.append(RayEdge(ranks[0], normal, weight))
        else:  # anchored where a and b tie nearest the origin: <n, x> = rhs
            n = (a[0] - b[0], a[1] - b[1])
            rhs = g.coeff(b) - g.coeff(a)
            anchor = (Fraction(rhs * n[0], dot(n, n)), Fraction(rhs * n[1], dot(n, n)))
            lines.append(LineEdge(anchor, normal, weight))
    return WeightedComplex(
        tuple((Fraction(x, d), Fraction(y, d)) for x, y, d, _ in cells),
        tuple(sorted(segments)),
        tuple(sorted(rays)),
        tuple(sorted(lines)),
    )


def newton_subdivision(g: TropPolynomial) -> NewtonSubdivision:
    """The regular subdivision of the Newton polygon of g.

    Exponents are lifted to their coefficients; cells are the projections
    of upper-hull faces, in the order of their dual locus vertices.  By
    duality (Maclagan and Sturmfels, Introduction to Tropical Geometry,
    3.1) an edge lies on the boundary of the Newton polygon iff its dual
    cell of the locus is unbounded, that is iff fewer than two faces
    contain it.  Edges come in lexicographic order of their sorted
    exponents; ``cells0`` holds the corners of every cell, sorted.
    """
    _require_bivariate(g)
    points = tuple(g.terms())
    if len(points) == 1:
        return NewtonSubdivision(points, (), (), (points[0][0],))
    cells, edges = _lifted_hull(g)
    # each edge's family is sorted once, as its key: distinct edges have
    # distinct point sets, so this is the order of the sorted points
    flagged = (
        SubdivisionEdge(frozenset(family), len(ranks) < 2)
        for _, _, family, ranks in sorted(edges, key=lambda e: sorted(e[2]))
    )
    # every corner of a cell or an edge is an end of an edge
    corners = {m for a, b, _, _ in edges for m in (a, b)}
    return NewtonSubdivision(
        points,
        tuple(frozenset(cell) for _, _, _, cell in cells),
        tuple(flagged),
        tuple(sorted(corners)),
    )


def hull_vertices(points) -> list[Vec]:
    """Vertices of the convex hull of integer points, counterclockwise.

    Monotone chain; collinear input yields the two extremes, a singleton
    yields itself.  A point may carry more entries after its two
    coordinates (the gift-wrap passes lifted points), provided no two
    points share their coordinates.
    """
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts
    return _left_chain(pts)[:-1] + _left_chain(reversed(pts))[:-1]


def _left_chain(pts) -> list[Vec]:
    """The hull chain of points in sorted or reverse-sorted order: each
    point pops the ones it leaves without a strict left turn."""
    chain: list[Vec] = []
    for p in pts:
        while len(chain) >= 2 and det2(
            (chain[-1][0] - chain[-2][0], chain[-1][1] - chain[-2][1]),
            (p[0] - chain[-2][0], p[1] - chain[-2][1]),
        ) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def degree_from_polygon(g: TropPolynomial, ray: Vec) -> int:
    """min <m, e_ray> over the Newton polygon, read off its hull vertices.

    An independent route to the ray degree: the minimum of a linear form
    over the polygon is attained at a hull vertex.
    """
    if g.is_empty:
        raise ValueError("empty polynomial has no ray degrees")
    if g.dimension != 2:
        raise ValueError("ray degrees are implemented for two variables")
    hull = hull_vertices(g.support)
    return min(dot(m, ray) for m in hull)


def is_balanced(c: WeightedComplex) -> bool:
    """Whether the weighted outgoing primitive directions sum to zero at
    every vertex.  Vacuously true for the empty complex; lines have no
    vertices and impose no condition.

    One pass: a segment of weight w adds w times the primitive direction
    from ends[0] to ends[1] at ends[0] and subtracts it at ends[1]; a ray
    adds w times its direction at its vertex.  A vertex (x, y) is read as
    (X, Y) / D with D = x.den * y.den, so the direction from vertex 0 to
    vertex 1 is the integer vector (X1 * D0 - X0 * D1, Y1 * D0 - Y0 * D1)
    up to a positive factor.
    """
    scaled = [
        (x.numerator * y.denominator, y.numerator * x.denominator, x.denominator * y.denominator)
        for x, y in c.vertices
    ]
    sx = [0] * len(scaled)
    sy = [0] * len(scaled)
    for seg in c.segments:
        i, j = seg.ends
        x0, y0, d0 = scaled[i]
        x1, y1, d1 = scaled[j]
        dx, dy = primitive((x1 * d0 - x0 * d1, y1 * d0 - y0 * d1))
        sx[i] += seg.weight * dx
        sy[i] += seg.weight * dy
        sx[j] -= seg.weight * dx
        sy[j] -= seg.weight * dy
    for ray in c.rays:
        sx[ray.vertex] += ray.weight * ray.direction[0]
        sy[ray.vertex] += ray.weight * ray.direction[1]
    return not any(sx) and not any(sy)
