"""Corner loci of bivariate tropical polynomials as weighted plane curves.

Lift each exponent m of max_m(c_m + <m, x>) to height c_m.  The upper
faces of the lift project to the regular subdivision of the Newton
polygon, and the corner locus is its dual (Maclagan and Sturmfels, 3.1;
De Loera, Rambau and Santos, Triangulations, ch. 2): a vertex per face,
a segment per edge of two faces, a ray along the outward normal per
boundary edge, and a line per edge of the lifted upper chain when the
exponents are collinear.  A 1-cell's weight is the lattice length of its
dual edge, which is exactly what makes the locus balanced.  The faces are
found once, in integers: coefficients are scaled by the lcm of their
denominators and the faces are gift-wrapped from a boundary edge, one
scan of 3x3 orientation signs per edge, coplanar points in one cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fan import Vec, det2, dot, primitive
from .jsonutil import format_rational
from .trop import TropPolynomial

Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class SegmentEdge:
    """A bounded edge between two vertices of the complex."""

    ends: tuple[int, int]
    weight: int


@dataclass(frozen=True)
class RayEdge:
    """A half-infinite edge anchored at a vertex."""

    vertex: int
    direction: Vec
    weight: int


@dataclass(frozen=True)
class LineEdge:
    """A full line; occurs only when every exponent is collinear (no vertices)."""

    anchor: Point
    direction: Vec
    weight: int


@dataclass(frozen=True)
class WeightedComplex:
    """A weighted rational 1-complex in the plane: the corner locus."""

    vertices: tuple[Point, ...]
    segments: tuple[SegmentEdge, ...] = ()
    rays: tuple[RayEdge, ...] = ()
    lines: tuple[LineEdge, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (self.vertices or self.segments or self.rays or self.lines)

    def to_dict(self) -> dict:
        def pt(p):
            return [format_rational(p[0]), format_rational(p[1])]

        return {
            "vertices": [pt(v) for v in self.vertices],
            "segments": [{"ends": list(s.ends), "weight": s.weight} for s in self.segments],
            "rays": [
                {"vertex": r.vertex, "direction": list(r.direction), "weight": r.weight}
                for r in self.rays
            ],
            "lines": [
                {"anchor": pt(l.anchor), "direction": list(l.direction), "weight": l.weight}
                for l in self.lines
            ],
        }


@dataclass(frozen=True)
class SubdivisionEdge:
    """A 1-cell of the Newton subdivision: a maximal collinear tying family."""

    points: frozenset
    boundary: bool


@dataclass(frozen=True)
class NewtonSubdivision:
    """The regular subdivision of the Newton polygon induced by the lift."""

    points: tuple[tuple[Vec, Fraction], ...]
    cells2: tuple[frozenset, ...]
    edges: tuple[SubdivisionEdge, ...]
    cells0: tuple[Vec, ...]


def _require_bivariate(g: TropPolynomial):
    if g.is_empty:
        raise ValueError("empty polynomial has no corner locus")
    if g.dimension != 2:
        raise ValueError("corner loci are implemented for two variables")


def _lifted(height, s, p):
    """The lifted exponent s minus the lifted exponent p, in integers."""
    return (s[0] - p[0], s[1] - p[1], height[s] - height[p])


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _upper_chain(height, a, b):
    """(start, end, family) for each edge of the upper chain of the lifted
    exponents on the line through a and b, in order from a toward b."""
    d = (b[0] - a[0], b[1] - a[1])
    line = {}  # (position along d, height) -> exponent
    for m in height:
        w = _lifted(height, m, a)
        if det2(d, w) == 0:
            line[(dot(w, d), w[2])] = m
    ring = hull_vertices(line)  # ccw: lower chain to the far end, then back
    chain = [ring[0]] + ring[:ring.index(max(ring)) - 1:-1]
    # every lifted point is weakly below the chain, so a point on the line
    # of a chain edge lies on that edge
    return [
        (line[s], line[e], frozenset(
            m for p, m in line.items() if det2((e[0] - s[0], e[1] - s[1]), (p[0] - s[0], p[1] - s[1])) == 0
        ))
        for s, e in zip(chain, chain[1:])
    ]


def _lifted_hull(g: TropPolynomial):
    """(cells, edges) of the upper hull of the exponents lifted to their
    coefficients.  cells lists (dual vertex, exponents on the face), sorted
    by vertex; edges lists (a, b, family, duals): the ends, the exponents on
    the edge and the dual vertices of its faces, the face left of a -> b
    first.  Collinear support has no faces; its edges are those of the
    lifted upper chain, a before b."""
    scale = math.lcm(*(c.denominator for _, c in g.terms()))
    height = {m: c.numerator * (scale // c.denominator) for m, c in g.terms()}
    if len(height) == 1:
        return [], []
    corners = hull_vertices(height)
    chain = _upper_chain(height, corners[0], corners[1])
    if len(corners) == 2:
        return [], [(a, b, family, ()) for a, b, family in chain]
    cells = []
    left = {}  # directed edge (a, b) of a face -> (family, dual vertex of the face)
    todo = [chain[0][:2]]  # the Newton polygon lies left of its ccw boundary
    while todo:
        p, q = todo.pop()
        if (p, q) in left:
            continue
        # the face left of p -> q lies on the plane through p, q and the
        # left point that leaves no lifted point above it
        u = _lifted(height, q, p)
        normal = None
        for s in height:
            w = _lifted(height, s, p)
            if det2(u, w) > 0 and (normal is None or _dot3(normal, w) > 0):
                normal = (
                    u[1] * w[2] - u[2] * w[1],
                    u[2] * w[0] - u[0] * w[2],
                    u[0] * w[1] - u[1] * w[0],
                )
        if normal is None:
            continue  # p -> q is on the boundary of the Newton polygon
        cell = frozenset(s for s in height if _dot3(normal, _lifted(height, s, p)) == 0)
        # the plane is z = c - <v, m> (heights unscaled), so exactly the
        # monomials of the cell attain the maximum at v
        vertex = (Fraction(normal[0], normal[2] * scale), Fraction(normal[1], normal[2] * scale))
        cells.append((vertex, cell))
        ring = hull_vertices(cell)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            d = (b[0] - a[0], b[1] - a[1])
            left[(a, b)] = (frozenset(s for s in cell if det2(d, (s[0] - a[0], s[1] - a[1])) == 0), vertex)
            todo.append((b, a))
    edges = []
    for (a, b), (family, vertex) in left.items():
        twin = left.get((b, a))
        if twin is None or a < b:
            edges.append((a, b, family, (vertex,) if twin is None else (vertex, twin[1])))
    cells.sort(key=lambda c: c[0])
    return cells, edges


def corner_locus(g: TropPolynomial) -> WeightedComplex:
    """The corner locus of g as a weighted 1-complex.

    One vertex per 2-cell of the dual subdivision, in increasing order; one
    segment per edge of two cells, with its ends in increasing index order;
    one ray per boundary edge of a cell, along the edge's outward normal;
    one full line per edge of the lifted upper chain when all exponents
    are collinear.  Weights are the lattice lengths of the dual edges.
    Segments are sorted by ``ends``, rays by ``(vertex, direction)`` and
    lines by ``(anchor, direction)``.  A single monomial has an empty locus.
    """
    _require_bivariate(g)
    cells, edges = _lifted_hull(g)
    vertices = tuple(v for v, _ in cells)
    index = {v: i for i, v in enumerate(vertices)}
    segments = []
    rays = []
    lines = []
    for a, b, _, duals in edges:
        weight = math.gcd(b[0] - a[0], b[1] - a[1])
        normal = primitive((b[1] - a[1], a[0] - b[0]))  # right of a -> b
        if len(duals) == 2:
            segments.append(SegmentEdge(tuple(sorted(index[v] for v in duals)), weight))
        elif duals:
            rays.append(RayEdge(index[duals[0]], normal, weight))
        else:  # anchored where a and b tie nearest the origin: <n, x> = rhs
            n = (a[0] - b[0], a[1] - b[1])
            rhs = g.coeff(b).value - g.coeff(a).value
            anchor = (Fraction(rhs * n[0], dot(n, n)), Fraction(rhs * n[1], dot(n, n)))
            lines.append(LineEdge(anchor, normal, weight))
    return WeightedComplex(
        vertices,
        tuple(sorted(segments, key=lambda s: s.ends)),
        tuple(sorted(rays, key=lambda r: (r.vertex, r.direction))),
        tuple(sorted(lines, key=lambda l: (l.anchor, l.direction))),
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
    cells2 = tuple(cell for _, cell in cells)
    families = tuple(family for _, _, family, _ in edges)
    flagged = (SubdivisionEdge(family, len(duals) < 2) for _, _, family, duals in edges)
    corners = {m for cell in cells2 + families for m in hull_vertices(cell)}
    return NewtonSubdivision(
        points, cells2, tuple(sorted(flagged, key=lambda e: sorted(e.points))), tuple(sorted(corners))
    )


def hull_vertices(points) -> list[Vec]:
    """Vertices of the convex hull of integer points, counterclockwise.

    Monotone chain; collinear input yields the two extremes, a singleton
    yields itself.
    """
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts
    lower: list[Vec] = []
    for p in pts:
        while len(lower) >= 2 and det2(
            (lower[-1][0] - lower[-2][0], lower[-1][1] - lower[-2][1]),
            (p[0] - lower[-2][0], p[1] - lower[-2][1]),
        ) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and det2(
            (upper[-1][0] - upper[-2][0], upper[-1][1] - upper[-2][1]),
            (p[0] - upper[-2][0], p[1] - upper[-2][1]),
        ) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def degree_from_polygon(g: TropPolynomial, ray: Vec) -> int:
    """min <m, e_ray> over the Newton polygon, read off its hull vertices.

    An independent route to the ray degree: the minimum of a linear form
    over the polygon is attained at a hull vertex.
    """
    if g.is_empty:
        raise ValueError("empty polynomial has no ray degrees")
    hull = hull_vertices(g.support)
    return min(dot(m, ray) for m in hull)


def _primitive_rational_direction(dx: Fraction, dy: Fraction) -> Vec:
    scale = dx.denominator * dy.denominator
    return primitive((int(dx * scale), int(dy * scale)))


def is_balanced(c: WeightedComplex) -> bool:
    """Whether the weighted outgoing primitive directions sum to zero at
    every vertex.  Vacuously true for the empty complex; lines have no
    vertices and impose no condition."""
    for v_idx, v in enumerate(c.vertices):
        sx = sy = 0
        for seg in c.segments:
            if v_idx in seg.ends:
                other = c.vertices[seg.ends[1] if seg.ends[0] == v_idx else seg.ends[0]]
                d = _primitive_rational_direction(other[0] - v[0], other[1] - v[1])
                sx += seg.weight * d[0]
                sy += seg.weight * d[1]
        for ray in c.rays:
            if ray.vertex == v_idx:
                sx += ray.weight * ray.direction[0]
                sy += ray.weight * ray.direction[1]
        if sx != 0 or sy != 0:
            return False
    return True
