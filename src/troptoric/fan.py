"""Rank-2 lattices, smooth rational cones, complete fans, and blow-ups.

Everything is integer arithmetic on primitive ray generators; angular
order and completeness are decided by cross-product signs, never by
floating point.  Fans are validated eagerly: pairwise intersections of
maximal cones must be common faces.

A fan's fixed facts are computed once, on first use, and cached on the
instance outside its equality and hash: whether it is smooth, complete
and bounded (its rays positively span the plane, so every P(D) is
bounded), and its intersection numbers.  Two ray divisors meet once iff
their rays span a cone; the self-intersection of a ray with primitive
generator u and neighbours u1, u2 is the integer b solving
u1 + u2 + b*u = 0, verified exactly by substitution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd

Vec = tuple[int, int]


def det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _as_vec(v) -> Vec:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise TypeError(f"a lattice vector must be a pair [x, y], got {v!r}")
    x, y = v
    # bool is an int subclass, but JSON true/false is not a coordinate
    if any(not isinstance(c, int) or isinstance(c, bool) for c in (x, y)):
        raise TypeError("lattice vectors must have integer coordinates")
    return (x, y)


def positively_spans(vectors) -> bool:
    """True iff the vectors positively span the plane.

    Equivalently no nonzero direction d has <d, v> >= 0 for every v: such
    a cone of directions, when it is not the whole plane, has a boundary
    ray perpendicular to one of the vectors, so only those are tried.
    """
    vectors = list(vectors)
    if not vectors:
        return False
    for ex, ey in vectors:
        for d in ((-ey, ex), (ey, -ex)):
            if all(d[0] * fx + d[1] * fy >= 0 for fx, fy in vectors):
                return False
    return True


def primitive(v) -> Vec:
    """v divided by the gcd of its coordinates (sign preserved)."""
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("the zero vector has no primitive representative")
    g = gcd(x, y)
    return (x // g, y // g)


@dataclass(frozen=True)
class Cone:
    """A strictly convex rational cone in the plane.

    Given by 0, 1, or 2 primitive ray generators; a 2-ray cone must have
    linearly independent generators (no half-planes or lines).
    """

    rays: tuple[Vec, ...] = ()

    def __post_init__(self):
        rays = tuple(_as_vec(r) for r in self.rays)
        if len(rays) > 2:
            raise ValueError("plane cones have at most two rays")
        for r in rays:
            if r != primitive(r):
                raise ValueError(f"ray generator {r} is not primitive")
        if len(rays) == 2 and det2(rays[0], rays[1]) == 0:
            raise ValueError("2-ray cone generators must be linearly independent")
        object.__setattr__(self, "rays", rays)

    @property
    def dim(self) -> int:
        return len(self.rays)

    def interior_contains(self, v) -> bool:
        """Strict interior for 2-ray cones, open ray for 1-ray cones."""
        if self.dim == 0:
            return False
        if self.dim == 1:
            u = self.rays[0]
            return det2(u, v) == 0 and dot(u, v) > 0
        u1, u2 = self.rays
        d = det2(u1, u2)
        return det2(v, u2) * d > 0 and det2(u1, v) * d > 0


def is_smooth(c: Cone) -> bool:
    """True iff the generators extend to a Z-basis (2D: |det| = 1)."""
    if c.dim < 2:
        return True  # generators are primitive by construction
    return abs(det2(c.rays[0], c.rays[1])) == 1


def dual_frame(c: Cone) -> list[Vec]:
    """The dual basis m_i with <m_i, u_j> = delta_ij, integral by smoothness."""
    if c.dim != 2:
        raise ValueError("dual frames are defined for 2-dimensional cones")
    if not is_smooth(c):
        raise ValueError("dual frames require a smooth cone")
    u1, u2 = c.rays
    d = det2(u1, u2)  # +1 or -1, so 1/d == d
    m1 = (u2[1] * d, -u2[0] * d)
    m2 = (-u1[1] * d, u1[0] * d)
    return [m1, m2]


def _face_compatible(a: Cone, b: Cone) -> bool:
    # Assumes a and b have distinct ray sets.  Two salient plane cones
    # intersect in a common face iff neither contains a generator of the
    # other in its (relative) interior and neither is redundantly nested.
    if a.dim < b.dim:
        a, b = b, a
    if a.dim == 2 and b.dim == 2:
        return not any(a.interior_contains(r) for r in b.rays) and not any(
            b.interior_contains(r) for r in a.rays
        )
    if a.dim == 2 and b.dim == 1:
        ray = b.rays[0]
        if a.interior_contains(ray):
            return False
        return ray not in a.rays  # a listed maximal ray must not be a face
    if a.dim == 1 and b.dim == 1:
        return True  # distinct primitive rays meet only at the origin
    return False  # the origin cone is a face of everything: redundant


@dataclass(frozen=True)
class Fan:
    """A fan in the plane, stored by its maximal cones.

    ``rays`` is the deduplicated ray list; it is derived from the cones in
    first-appearance order unless an explicit order is supplied (it must
    then be a permutation of the derived set).  Validity is checked at
    construction: no duplicate cones, pairwise intersections are common
    faces, no redundant non-maximal cones.
    """

    max_cones: tuple[Cone, ...]
    rays: tuple[Vec, ...] = ()

    def __post_init__(self):
        cones = tuple(self.max_cones)
        for c in cones:
            if not isinstance(c, Cone):
                raise TypeError("max_cones must contain Cone instances")
        seen: set[frozenset] = set()
        for c in cones:
            key = frozenset(c.rays)
            if key in seen:
                raise ValueError("duplicate maximal cone")
            seen.add(key)
        if any(c.dim == 0 for c in cones) and len(cones) > 1:
            raise ValueError("the origin cone is redundant beside other cones")
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                if not _face_compatible(cones[i], cones[j]):
                    raise ValueError(
                        f"cones {i} and {j} do not intersect in a common face"
                    )
        derived: list[Vec] = []
        for c in cones:
            for r in c.rays:
                if r not in derived:
                    derived.append(r)
        rays = tuple(_as_vec(r) for r in self.rays)
        if rays:
            if len(set(rays)) != len(rays) or set(rays) != set(derived):
                raise ValueError("explicit ray list must enumerate the fan's rays")
        else:
            rays = tuple(derived)
        object.__setattr__(self, "max_cones", cones)
        object.__setattr__(self, "rays", rays)

    # Fixed facts, computed on first use.  cached_property stores them in
    # the instance __dict__, outside the dataclass fields, so equality and
    # hashing still see only max_cones and rays.

    @functools.cached_property
    def smooth(self) -> bool:
        return all(is_smooth(c) for c in self.max_cones)

    @functools.cached_property
    def complete(self) -> bool:
        return is_complete(self)

    @functools.cached_property
    def bounded(self) -> bool:
        """True iff the rays positively span the plane: then every P(D),
        whose recession cone is {m : <m, e_ray> >= 0}, is bounded."""
        return positively_spans(self.rays)

    @functools.cached_property
    def intersection_numbers(self) -> tuple[tuple[int, ...], ...]:
        """D_i . D_j in ray order; ValueError unless smooth and complete."""
        if not self.smooth:
            raise ValueError("intersection theory requires a smooth fan")
        if not self.complete:
            raise ValueError("intersection theory requires a complete fan")
        index = {r: i for i, r in enumerate(self.rays)}
        n = len(self.rays)
        rows = [[0] * n for _ in range(n)]
        for c in self.max_cones:
            i, j = index[c.rays[0]], index[c.rays[1]]
            rows[i][j] = rows[j][i] = 1
        # on a complete fan the counterclockwise neighbours are the
        # adjacent rays
        ordered = ccw_sorted_rays(self.rays)
        for k, u in enumerate(ordered):
            i = index[u]
            rows[i][i] = _self_intersection(u, ordered[k - 1], ordered[(k + 1) % n])
        return tuple(tuple(row) for row in rows)

    def is_smooth(self) -> bool:
        return self.smooth

    def ray_index(self, ray) -> int:
        ray = _as_vec(ray)
        try:
            return self.rays.index(ray)
        except ValueError:
            raise ValueError(f"{ray} is not a ray of the fan") from None


def _half(v) -> int:
    # 0 for angles in [0, pi), 1 for [pi, 2*pi)
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angle_cmp(u, v) -> int:
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = det2(u, v)
    return -1 if c > 0 else (1 if c < 0 else 0)


def ccw_sorted_rays(rays) -> list[Vec]:
    """Rays sorted counterclockwise starting from angle 0, exactly."""
    return sorted(rays, key=functools.cmp_to_key(_angle_cmp))


def is_complete(f: Fan) -> bool:
    """True iff the maximal cones cover the plane.

    Checked combinatorially: every maximal cone is 2-dimensional, the
    counterclockwise-consecutive ray pairs each span a maximal cone, and
    the cone count matches the ray count (so nothing is left over).
    """
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


def _self_intersection(u, u1, u2) -> int:
    """The integer b with u1 + u2 + b*u = 0, for u between neighbours u1, u2.

    Existence follows from smoothness and completeness; the solution is
    verified by substitution rather than trusted from a division.
    """
    s = (u1[0] + u2[0], u1[1] + u2[1])
    k = 0 if u[0] else 1
    b, r = divmod(-s[k], u[k])
    if r or s[0] + b * u[0] or s[1] + b * u[1]:
        raise ValueError("no integer self-intersection: fan is not smooth/complete")
    return b


def adjacent_rays(f: Fan, ray) -> tuple[Vec, Vec]:
    """The two rays spanning a maximal cone together with ``ray``."""
    ray = _as_vec(ray)
    if ray not in f.rays:
        raise ValueError(f"{ray} is not a ray of the fan")
    if not f.complete:
        raise ValueError("adjacent rays require a complete fan")
    others = [
        r for c in f.max_cones if ray in c.rays for r in c.rays if r != ray
    ]
    assert len(others) == 2
    return (others[0], others[1])


def blow_up(f: Fan, cone: Cone) -> Fan:
    """Star subdivision of a smooth 2-dimensional maximal cone.

    Replaces cone(u1, u2) by cone(u1, u1+u2) and cone(u1+u2, u2); the new
    ray u1+u2 is primitive because |det(u1, u2)| = 1, and smoothness and
    completeness are preserved.
    """
    target_idx = None
    want = frozenset(_as_vec(r) for r in cone.rays)
    for i, c in enumerate(f.max_cones):
        if frozenset(c.rays) == want:
            target_idx = i
            break
    if target_idx is None:
        raise ValueError("cone is not a maximal cone of the fan")
    target = f.max_cones[target_idx]
    if target.dim != 2:
        raise ValueError("only 2-dimensional cones can be blown up")
    if not is_smooth(target):
        raise ValueError("blow-up requires a smooth cone")
    u1, u2 = target.rays
    w = (u1[0] + u2[0], u1[1] + u2[1])
    new_cones = (
        f.max_cones[:target_idx]
        + (Cone((u1, w)), Cone((w, u2)))
        + f.max_cones[target_idx + 1 :]
    )
    return Fan(new_cones, f.rays + (w,))


def projective_plane() -> Fan:
    """The fan of P^2: rays (1,0), (0,1), (-1,-1)."""
    r = ((1, 0), (0, 1), (-1, -1))
    cones = (Cone((r[0], r[1])), Cone((r[1], r[2])), Cone((r[2], r[0])))
    return Fan(cones, r)


def hirzebruch(a: int) -> Fan:
    """The Hirzebruch surface fan: rays (1,0), (0,1), (-1,a), (0,-1)."""
    a = int(a)
    if a < 0:
        raise ValueError("hirzebruch parameter must be nonnegative")
    r = ((1, 0), (0, 1), (-1, a), (0, -1))
    cones = (
        Cone((r[0], r[1])),
        Cone((r[1], r[2])),
        Cone((r[2], r[3])),
        Cone((r[3], r[0])),
    )
    return Fan(cones, r)


def product_p1_p1() -> Fan:
    """The fan of P^1 x P^1: rays (1,0), (0,1), (-1,0), (0,-1)."""
    return hirzebruch(0)


def fan_to_dict(f: Fan) -> dict:
    """JSON form: ray list plus cones as ray-index tuples."""
    index = {r: i for i, r in enumerate(f.rays)}
    return {
        "rays": [list(r) for r in f.rays],
        "max_cones": [[index[r] for r in c.rays] for c in f.max_cones],
    }


def fan_from_dict(d: dict) -> Fan:
    """Inverse of fan_to_dict: TypeError when ``rays`` or ``max_cones`` is
    not a list, for a ray that is not a pair of ints, a cone that is not a
    list or an index that is not an int (JSON booleans included),
    ValueError for an index outside the ray list."""
    for key in ("rays", "max_cones"):
        if not isinstance(d[key], list):
            raise TypeError(f"{key} must be a list, got {d[key]!r}")
    rays = [_as_vec(r) for r in d["rays"]]
    cones = []
    for idxs in d["max_cones"]:
        if not isinstance(idxs, list):
            raise TypeError(f"a cone must be a list of ray indices, got {idxs!r}")
        members = []
        for i in idxs:
            if isinstance(i, bool) or not isinstance(i, int):
                raise TypeError(f"cone ray indices must be integers, got {i!r}")
            if not 0 <= i < len(rays):
                raise ValueError(f"cone ray index {i} out of range")
            members.append(rays[i])
        cones.append(Cone(tuple(members)))
    return Fan(tuple(cones), tuple(rays))
