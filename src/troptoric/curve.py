"""Corner loci of bivariate tropical polynomials as weighted plane curves.

The corner locus (non-smooth set) of max_m(c_m + <m, x>) is computed by
analyzing, for every pair of exponents, the part of their tie line on
which both attain the global maximum.  Each nondegenerate such part is a
1-cell of the locus, dual to an edge of the regular subdivision of the
Newton polygon obtained by lifting exponent m to height c_m and taking
upper faces.  A 1-cell's weight is the lattice length of its dual edge,
which is exactly what makes the locus balanced (weighted primitive
outgoing directions sum to zero at every vertex).  An edge lies on the
boundary of the Newton polygon iff its dual 1-cell is unbounded, so the
subdivision reads its boundary flags off the tie cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fan import Vec, det2, dot, primitive
from .jsonutil import format_rational
from .trop import TropPolynomial, supporting_monomials

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


@dataclass(frozen=True)
class _TieCell:
    family: frozenset
    direction: Vec  # primitive direction of the tie line in the plane
    lo: Point | None  # finite endpoint on the -direction side, None if unbounded
    hi: Point | None
    anchor: Point
    weight: int
    dual_direction: Vec  # primitive direction of the dual subdivision edge


def _require_bivariate(g: TropPolynomial):
    if g.is_empty:
        raise ValueError("empty polynomial has no corner locus")
    if g.dimension != 2:
        raise ValueError("corner loci are implemented for two variables")


def _family_weight(family, dual_dir: Vec) -> int:
    base = next(iter(family))
    ks = []
    for m in family:
        diff = (m[0] - base[0], m[1] - base[1])
        if dual_dir[0] != 0:
            ks.append(diff[0] // dual_dir[0])
        else:
            ks.append(diff[1] // dual_dir[1])
    return max(ks) - min(ks)


def _analyze(g: TropPolynomial):
    """Locus vertices plus tie cells, shared by corner_locus and the subdivision."""
    terms = list(g.terms())
    cells: dict[frozenset, _TieCell] = {}
    if len(terms) < 2:
        return [], []
    for i in range(len(terms)):
        a, ca = terms[i]
        for j in range(i + 1, len(terms)):
            b, cb = terms[j]
            n = (a[0] - b[0], a[1] - b[1])
            rhs = cb - ca  # tie line: <n, x> = rhs
            nn = n[0] * n[0] + n[1] * n[1]
            p0 = (Fraction(rhs * n[0], nn), Fraction(rhs * n[1], nn))
            d = primitive((-n[1], n[0]))
            lo = hi = None  # parameter bounds for x = p0 + t*d
            feasible = True
            for k in range(len(terms)):
                if k == i or k == j:
                    continue
                m, cm = terms[k]
                dm = (m[0] - a[0], m[1] - a[1])
                s = dot(dm, d)
                r = (ca - cm) - (dm[0] * p0[0] + dm[1] * p0[1])
                # constraint: t*s <= r
                if s == 0:
                    if r < 0:
                        feasible = False
                        break
                elif s > 0:
                    bound = r / s
                    if hi is None or bound < hi:
                        hi = bound
                else:
                    bound = r / s
                    if lo is None or bound > lo:
                        lo = bound
            if not feasible:
                continue
            if lo is not None and hi is not None and lo >= hi:
                continue  # empty, or a single point (a locus vertex, found elsewhere)
            if lo is None and hi is None:
                t_mid = Fraction(0)
            elif lo is None:
                t_mid = hi - 1
            elif hi is None:
                t_mid = lo + 1
            else:
                t_mid = (lo + hi) / 2
            x_mid = (p0[0] + t_mid * d[0], p0[1] + t_mid * d[1])
            family = frozenset(supporting_monomials(g, x_mid))
            if family in cells:
                continue
            lo_pt = (p0[0] + lo * d[0], p0[1] + lo * d[1]) if lo is not None else None
            hi_pt = (p0[0] + hi * d[0], p0[1] + hi * d[1]) if hi is not None else None
            dual_dir = primitive((b[0] - a[0], b[1] - a[1]))
            cells[family] = _TieCell(
                family=family,
                direction=d,
                lo=lo_pt,
                hi=hi_pt,
                anchor=p0,
                weight=_family_weight(family, dual_dir),
                dual_direction=dual_dir,
            )
    tie_cells = list(cells.values())
    vert_set = set()
    for c in tie_cells:
        if c.lo is not None:
            vert_set.add(c.lo)
        if c.hi is not None:
            vert_set.add(c.hi)
    vertices = sorted(vert_set)
    return vertices, tie_cells


def corner_locus(g: TropPolynomial) -> WeightedComplex:
    """The corner locus of g as a weighted 1-complex.

    One vertex per 2-cell of the dual subdivision, one segment/ray per
    dual edge (a full line when all exponents are collinear), weights =
    dual lattice lengths.  A single monomial has an empty locus.
    """
    _require_bivariate(g)
    vertices, tie_cells = _analyze(g)
    index = {v: i for i, v in enumerate(vertices)}
    segments = []
    rays = []
    lines = []
    for c in tie_cells:
        if c.lo is not None and c.hi is not None:
            segments.append(SegmentEdge((index[c.lo], index[c.hi]), c.weight))
        elif c.lo is not None:
            rays.append(RayEdge(index[c.lo], c.direction, c.weight))
        elif c.hi is not None:
            neg = (-c.direction[0], -c.direction[1])
            rays.append(RayEdge(index[c.hi], neg, c.weight))
        else:
            lines.append(LineEdge(c.anchor, c.direction, c.weight))
    return WeightedComplex(
        tuple(vertices), tuple(segments), tuple(rays), tuple(lines)
    )


def newton_subdivision(g: TropPolynomial) -> NewtonSubdivision:
    """The regular subdivision of the Newton polygon of g.

    Exponents are lifted to their coefficients; cells are the projections
    of upper-hull faces.  By duality (Maclagan and Sturmfels, Introduction
    to Tropical Geometry, 3.1) an edge lies on the boundary of the Newton
    polygon iff its dual tie cell is unbounded, a ray or a line, so the
    boundary flag is read off the cell.
    """
    _require_bivariate(g)
    points = tuple(g.terms())
    if len(points) == 1:
        return NewtonSubdivision(points, (), (), (points[0][0],))
    vertices, tie_cells = _analyze(g)
    cells2 = tuple(frozenset(supporting_monomials(g, v)) for v in vertices)
    edges = tuple(
        SubdivisionEdge(c.family, c.lo is None or c.hi is None)
        for c in tie_cells
    )
    corners: list[Vec] = []
    for cell in cells2:
        for m in hull_vertices(cell):
            if m not in corners:
                corners.append(m)
    for c in tie_cells:
        for m in _family_extremes(c.family, c.dual_direction):
            if m not in corners:
                corners.append(m)
    return NewtonSubdivision(points, cells2, edges, tuple(sorted(corners)))


def _family_extremes(family, dual_dir: Vec):
    ranked = sorted(family, key=lambda m: dot(m, dual_dir))
    return (ranked[0], ranked[-1])


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
