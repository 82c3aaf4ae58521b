"""Toric divisors, the polytope P(D), lattice-point enumeration, and h0.

A toric divisor is an integer coefficient per ray of a fan.  Its polytope
P(D) = {m : <m, e_ray> + a_ray >= 0} is its inequalities, kept as
integer data.  Whether it is bounded is a fact of the fan (its recession
cone is trivial iff the rays positively span the plane), and its vertices,
pairwise line intersections in homogeneous integer coordinates, are found
only when they are read.

Lattice points are walked row by row: the integer y-range comes from
eliminating x pairwise (exact Fourier-Motzkin on integers), and each row's
x-range from the inequalities at that height; one routine reads both
ranges off their one-variable systems by floor divisions.  h0 sums the
row lengths straight from the inequalities, so it builds no polytope,
vertex or point.  Neither h0 nor lattice_points reads a vertex: an
unbounded P(D) is nonempty iff its system is feasible, which the same
elimination decides.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .fan import Fan, Vec, _as_vec, det2, dot
from .jsonutil import ParseError
from .trop import TropPolynomial

# An inequality (ex, ey, a) means ex*x + ey*y + a >= 0.
Inequality = tuple[int, int, int]


class UnboundedPolytopeError(ValueError):
    """Raised when a nonempty unbounded polytope has no finite point count."""


@dataclass(frozen=True)
class ToricDivisor:
    """An integer combination of the ray divisors, stored in fan ray order."""

    fan: Fan
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if len(coeffs) != len(self.fan.rays):
            raise ValueError("one coefficient per fan ray is required")
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError("divisor coefficients must be integers")
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, ray) -> int:
        return self.coeffs[self.fan.ray_index(ray)]

    def _check_same_fan(self, other: "ToricDivisor"):
        if self.fan is not other.fan and self.fan != other.fan:
            raise ValueError("divisors live on different fans")

    def __add__(self, other: "ToricDivisor") -> "ToricDivisor":
        self._check_same_fan(other)
        return ToricDivisor(self.fan, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ToricDivisor") -> "ToricDivisor":
        self._check_same_fan(other)
        return ToricDivisor(self.fan, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ToricDivisor":
        return ToricDivisor(self.fan, tuple(-a for a in self.coeffs))

    def __rmul__(self, n: int) -> "ToricDivisor":
        if not isinstance(n, int):
            return NotImplemented
        return ToricDivisor(self.fan, tuple(n * a for a in self.coeffs))

    def to_dict(self) -> dict:
        return {"coeffs": {str(i): c for i, c in enumerate(self.coeffs)}}


def divisor_from_dict(fan: Fan, d: dict) -> ToricDivisor:
    """Inverse of ToricDivisor.to_dict: TypeError for ``coeffs`` that is not
    an object or a coefficient that is not an int (JSON booleans and floats
    included), ParseError (a ValueError) for a missing or unknown ray
    index.  All of them are malformed input: the CLI exits 1."""
    raw = d["coeffs"]
    if not isinstance(raw, dict):
        raise TypeError(f"divisor coeffs must be an object keyed by ray index, got {raw!r}")
    coeffs = []
    for i in range(len(fan.rays)):
        key = str(i)
        if key not in raw:
            raise ParseError(f"missing coefficient for ray index {i}")
        c = raw[key]
        if isinstance(c, bool) or not isinstance(c, int):
            raise TypeError(f"divisor coefficients must be integers, got {c!r}")
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
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def linearly_equivalent(d1: ToricDivisor, d2: ToricDivisor) -> Vec | None:
    """m with d1 - d2 = div(x^m), or None when the integer system has no solution.

    Solves two independent ray equations exactly and verifies the rest;
    the rational solution is unique when the rays span the plane, so a
    non-integral candidate means no solution at all.
    """
    d1._check_same_fan(d2)
    rays = d1.fan.rays
    targets = tuple(a - b for a, b in zip(d1.coeffs, d2.coeffs))
    if not rays:
        return (0, 0)
    pair = None
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            if det2(rays[i], rays[j]) != 0:
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        # All rays parallel to one primitive direction e (each ray is +-e).
        e = rays[0]
        t = targets[0]
        for ray, c in zip(rays, targets):
            sign = 1 if ray == e else -1
            if c != sign * t:
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
    for ray, c in zip(rays, targets):
        if dot(m, ray) != c:
            return None
    return m


@dataclass(frozen=True)
class DivisorPolytope:
    """P(D) as inequalities <m, e_ray> + a_ray >= 0.

    ``bounded`` is True iff the recession cone {m : <m, e_ray> >= 0} is
    trivial.  ``vertices``, the feasible pairwise intersections of the
    boundary lines (none on a bounded polytope means it is empty), are
    found on first read and cached outside equality and hashing.
    """

    inequalities: tuple[Inequality, ...]
    bounded: bool

    @functools.cached_property
    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return _enumerate_vertices(self.inequalities)


def _enumerate_vertices(ineqs) -> tuple[tuple[Fraction, Fraction], ...]:
    found = {}
    n = len(ineqs)
    for i in range(n):
        ei_x, ei_y, ai = ineqs[i]
        for j in range(i + 1, n):
            ej_x, ej_y, aj = ineqs[j]
            d = ei_x * ej_y - ei_y * ej_x
            if d == 0:
                continue
            # solve ei.m = -ai, ej.m = -aj in homogeneous coordinates
            nx = aj * ei_y - ai * ej_y
            ny = ai * ej_x - aj * ei_x
            if d < 0:
                nx, ny, d = -nx, -ny, -d
            ok = True
            for ex, ey, a in ineqs:
                if ex * nx + ey * ny + a * d < 0:
                    ok = False
                    break
            if ok:
                g = math.gcd(math.gcd(abs(nx), abs(ny)), d)
                found[(nx // g, ny // g, d // g)] = None
    verts = [(Fraction(nx, d), Fraction(ny, d)) for nx, ny, d in found]
    verts.sort()
    return tuple(verts)


def _eliminate_x(ineqs) -> list[Inequality]:
    """The exact projection onto y, as inequalities cy*y + c >= 0 written
    (cy, 0, c).

    Fourier-Motzkin: the inequalities without x, plus every pair with
    opposite x-signs, scaled by positive integers so that x cancels.
    """
    out = [(ey, 0, a) for ex, ey, a in ineqs if ex == 0]
    neg = [(ex, ey, a) for ex, ey, a in ineqs if ex < 0]
    for px, py, pa in ineqs:
        if px > 0:
            for nx, ny, na in neg:
                out.append((px * ny - nx * py, 0, px * na - nx * pa))
    return out


def _feasible(ineqs) -> bool:
    """Exact feasibility of the 2-variable system over the rationals."""
    lo = hi = None
    for cy, _, c in _eliminate_x(ineqs):
        if cy == 0:
            if c < 0:
                return False
        elif cy > 0:
            bound = Fraction(-c, cy)
            if lo is None or bound > lo:
                lo = bound
        else:
            bound = Fraction(-c, cy)
            if hi is None or bound < hi:
                hi = bound
    return lo is None or hi is None or lo <= hi


def _inequalities(d: ToricDivisor) -> tuple[Inequality, ...]:
    return tuple((e[0], e[1], a) for e, a in zip(d.fan.rays, d.coeffs))


def polytope(d: ToricDivisor) -> DivisorPolytope:
    """P(D): one inequality <m, e_ray> + a_ray >= 0 per ray."""
    return DivisorPolytope(_inequalities(d), d.fan.bounded)


def _row_interval(ineqs, y: int) -> tuple[int, int] | None:
    # integer x-range of the slice at height y, None when the slice is empty;
    # callers guarantee a bounded system, so both bounds always exist
    lo = hi = None
    for ex, ey, a in ineqs:
        c = ey * y + a
        if ex == 0:
            if c < 0:
                return None
        elif ex > 0:
            bound = -(c // ex)  # ceil(-c/ex)
            if lo is None or bound > lo:
                lo = bound
        else:
            bound = c // (-ex)  # floor(-c/ex)
            if hi is None or bound < hi:
                hi = bound
    assert lo is not None and hi is not None
    if lo > hi:
        return None
    return (lo, hi)


def _rows(ineqs):
    """(y, lo, hi) for every row of a bounded system with an integer point,
    in increasing y: the integer points are lo <= x <= hi at height y."""
    # the projection (cy, 0, c) is a system in y alone, so its integer
    # range is the row interval of that system at any height
    y_range = _row_interval(_eliminate_x(ineqs), 0)
    if y_range is None:
        return
    for y in range(y_range[0], y_range[1] + 1):
        x_range = _row_interval(ineqs, y)
        if x_range is not None:
            yield (y,) + x_range


def lattice_points(p: DivisorPolytope) -> tuple[Vec, ...]:
    """All integer points of a bounded polytope, sorted by (y, x).

    Raises UnboundedPolytopeError when the polytope is unbounded and
    nonempty; an empty polytope (bounded or not) yields the empty tuple.
    """
    if not p.bounded:
        if _feasible(p.inequalities):
            raise UnboundedPolytopeError("polytope is unbounded")
        return ()
    return tuple(
        (x, y) for y, lo, hi in _rows(p.inequalities) for x in range(lo, hi + 1)
    )


class H0Value:
    """h0 as an exact count, or infinity when P(D) is unbounded and nonempty."""

    __slots__ = ("count",)

    def __init__(self, count: int | None):
        self.count = count

    @classmethod
    def finite(cls, n: int) -> "H0Value":
        if n < 0:
            raise ValueError("h0 counts are nonnegative")
        return cls(int(n))

    @classmethod
    def infinite(cls) -> "H0Value":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.count is not None

    def __int__(self) -> int:
        if self.count is None:
            raise ValueError("h0 is infinite")
        return self.count

    def __eq__(self, other):
        if isinstance(other, H0Value):
            return self.count == other.count
        if isinstance(other, int):
            return self.count == other
        return NotImplemented

    def __hash__(self):
        return hash(self.count)

    def __repr__(self):
        return "H0Value(oo)" if self.count is None else f"H0Value({self.count})"

    def to_json(self):
        return "infinite" if self.count is None else self.count


def h0(fan: Fan, d: ToricDivisor) -> H0Value:
    """h0(X, D) = |P(D) ∩ M| on a smooth fan, infinite when P(D) is
    nonempty and unbounded.

    Counted row by row from the inequalities; P(D) can only be unbounded
    when the fan's rays do not positively span the plane.
    """
    if d.fan is not fan and d.fan != fan:
        raise ValueError("divisor does not live on the given fan")
    if not fan.smooth:
        raise ValueError("h0 requires a smooth fan")
    ineqs = _inequalities(d)
    if not fan.bounded:
        return H0Value.infinite() if _feasible(ineqs) else H0Value.finite(0)
    return H0Value.finite(sum(hi - lo + 1 for _, lo, hi in _rows(ineqs)))


def degree_along_ray(g: TropPolynomial, ray) -> int:
    """Degree of g along the ray divisor: min <m, e_ray> over the support."""
    if g.is_empty:
        raise ValueError("empty polynomial has no ray degrees")
    ray = _as_vec(ray)
    return min(dot(m, ray) for m in g.support)


def divisor_of_section(fan: Fan, g: TropPolynomial):
    """Split div(g) into its inner corner locus and its ray-divisor part.

    Returns (corner_locus(g), sum over rays of deg(g)_ray D_ray).
    """
    from .curve import corner_locus

    if g.is_empty:
        raise ValueError("the zero section has no divisor decomposition")
    if g.dimension != 2:
        raise ValueError("sections are bivariate here")
    inner = corner_locus(g)
    ray_part = ToricDivisor(fan, tuple(degree_along_ray(g, r) for r in fan.rays))
    return inner, ray_part
