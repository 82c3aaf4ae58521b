"""Rank-2 lattices, smooth rational cones, complete fans, and blow-ups.

Everything is integer arithmetic on primitive ray generators; angular
order is decided by cross-product signs, never by floating point.  Fans
are validated eagerly, as a counterclockwise cycle: with the rays sorted
once, each 2-cone must span the gap from one ray to the next, and no
1-cone may lie on a 2-cone's ray (`Fan`).  So a fan is complete iff it
has as many maximal cones as rays, all 2-dimensional (`is_complete`).
Its rays positively span the plane iff every gap is less than pi, which
`Fan.bounded` reads off the kept cycle, as the row plan reads its chains
(arcs of the cycle), so a fan sorts its rays once.

A fan's fixed facts are computed once, on first use, and cached on the
instance outside its equality and hash by `_fact`, the package's one
fact cache, a descriptor that takes no lock: whether it is smooth,
complete and bounded (its rays positively span the plane, so every P(D)
is bounded), its intersection numbers, and its row plan.  The intersection
numbers are kept as the counterclockwise cycle alone (`Fan.cycle_terms`):
two ray divisors meet once iff their rays are cycle neighbours (on a
complete fan, its 2-cones), and a ray with cycle neighbours u1, u2 has
self-intersection -det(u1, u2).  So at most 3n of the n^2 entries are
nonzero on n rays, and no dense matrix is kept.

Every P(D) on a fan, {m : <m, e_i> + a_i >= 0}, has the same normals, so
the Fourier-Motzkin elimination of x that bounds its rows is a fact of the
fan too.  The row plan (`Fan.row_plan`) keeps the rays with x > 0 and x < 0,
which bound x on a row, each side in the order in which its rays take
over the bound as y grows, and the y-bounds of the elimination as weights
on the coefficients a; a divisor then counts its points by floor sums
along the two chains, with integer arithmetic on its coefficient tuple.

A record of the package is one of two kinds, so no module loads
`dataclasses`, and with it `inspect`.  A value that a caller constructs
and passes in (`Cone`, `Fan`, `divisor.ToricDivisor` and
`sections.SectionModule`) is frozen by one definition, the class
decorator `_frozen`: its own `__init__` validates it, equality, hash and
repr read the named fields, as a frozen dataclass's, and it is never
equal to a tuple.  Of the four, only `Fan` caches facts in its
`__dict__`.  A record that a function returns (`RowPlan`,
`intersect.RRReport` and the edges, loci and subdivisions of `curve`) is
a `collections.namedtuple` subclass with empty `__slots__`: a tuple of
its fields.
"""

from __future__ import annotations

import collections
import functools
import operator
from math import gcd

from .jsonutil import ParseError

Vec = tuple[int, int]


class RowPlan(collections.namedtuple("RowPlan", "pos neg lower upper fixed")):
    """The coefficient-free part of {m : <m, e_i> + a_i >= 0}, cut into rows.

    ``pos`` and ``neg`` hold the rays with x > 0 and x < 0 as
    (i, |ex|, ey): at height y they give x >= ceil(-(ey*y + a_i)/|ex|) and
    x <= floor((ey*y + a_i)/|ex|).  Each is a chain, an arc of the fan's
    cycle, in decreasing slope ey/|ex|: the order in which its rays take
    over the minimum of (ey*y + a_i)/|ex| as y grows, whatever the a_i.
    The y-bounds (cy, i, wi, j, wj) read
    cy*y + wi*a_i + wj*a_j >= 0: one per ray with x = 0 (weight 0 on its
    second index) and one per pair of opposite x-signs, scaled so that x
    cancels.  ``lower`` has cy > 0, ``upper`` cy < 0, and ``fixed`` cy = 0,
    a condition on the coefficients alone (as for opposite rays).  All
    five fields are tuples of int tuples.
    """

    __slots__ = ()


def det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _as_vec(v) -> Vec:
    # a fan's own rays are already int pairs, and a JSON ray is an int
    # list: exact-type tests first (no bool), so that these pass cheaply,
    # as they do again when fan_from_dict hands its rays to Cone and Fan
    kind = type(v)
    if (kind is tuple or kind is list) and len(v) == 2:
        x, y = v
        if type(x) is int and type(y) is int:
            return v if kind is tuple else (x, y)
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise TypeError(f"a lattice vector must be a pair [x, y], got {v!r}")
    x, y = v
    # bool is an int subclass, but JSON true/false is not a coordinate
    if any(not isinstance(c, int) or isinstance(c, bool) for c in (x, y)):
        raise TypeError("lattice vectors must have integer coordinates")
    return (x, y)


def primitive(v) -> Vec:
    """v divided by the gcd of its coordinates (sign preserved)."""
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("the zero vector has no primitive representative")
    g = gcd(x, y)
    return (x // g, y // g)


class _fact:
    """A fixed fact of a `Fan`: the method computes it on the first
    read, which stores it in the instance ``__dict__`` under the method's
    name.  A non-data descriptor, so later reads find the stored value
    there and never call this class.  Unlike ``functools.cached_property``
    before Python 3.12 it takes no lock: a fact is pure, so two threads
    racing on the first read at worst compute it twice."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.compute.__name__] = self.compute(obj)
        return value


def _frozen(*fields):
    """A class decorator that makes the class a frozen value of ``fields``.

    Equality (with another instance of the class alone), hash and repr
    read the named fields in order, as a frozen dataclass's would, and
    assigning or deleting any attribute raises AttributeError.  The class
    keeps its own ``__init__``, which sets the fields with
    ``object.__setattr__``; facts cached in the instance ``__dict__``
    stay outside equality, hash and repr.  A decorator, not a base class,
    so that each class holds the five methods in its own ``__dict__``.

    For a value that a caller constructs and passes in; a record that a
    function returns is a namedtuple instead (see the module docstring).
    """
    get = operator.attrgetter(*fields)
    values = get if len(fields) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def decorate(cls):
        for method in (__eq__, __hash__, __repr__, __setattr__, __delattr__):
            setattr(cls, method.__name__, method)
        return cls

    return decorate


@_frozen("rays")
class Cone:
    """A strictly convex rational cone in the plane.

    Given by 0, 1, or 2 primitive ray generators; a 2-ray cone must have
    linearly independent generators (no half-planes or lines).  A frozen
    value: equality, hash and repr read ``rays`` alone.
    """

    def __init__(self, rays: tuple[Vec, ...] = ()):
        rays = tuple(map(_as_vec, rays))
        if len(rays) > 2:
            raise ValueError("plane cones have at most two rays")
        for x, y in rays:
            # an int pair is primitive iff the gcd of its coordinates is 1
            if gcd(x, y) != 1:
                primitive((x, y))  # raises for the zero vector, whose gcd is 0
                raise ValueError(f"ray generator {(x, y)} is not primitive")
        if len(rays) == 2 and det2(rays[0], rays[1]) == 0:
            raise ValueError("2-ray cone generators must be linearly independent")
        object.__setattr__(self, "rays", rays)

    @property
    def dim(self) -> int:
        return len(self.rays)


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


@_frozen("max_cones", "rays")
class Fan:
    """A fan in the plane, stored by its maximal cones.

    ``rays`` is the deduplicated ray list; it is derived from the cones in
    first-appearance order unless an explicit order is supplied (it must
    then be a permutation of the derived set).  A frozen value: equality,
    hash and repr read ``max_cones`` and ``rays`` alone.  Validity is
    checked at construction with one counterclockwise sort of the rays and
    one pass over the cones, by the theorem below; the cycle is kept, as
    positions in ``rays`` from angle 0, outside equality, hash and repr.

    Theorem: distinct cones on primitive rays, each 2-cone with
    det(u, v) != 0, form a fan iff the origin cone is the only cone when it
    is listed, no ray of a 1-cone is a ray of another cone, and each 2-cone
    {u, v}, ordered so that det(u, v) > 0, has v right after u in the
    counterclockwise order of all the fan's rays.  Proof: two distinct
    cones meet in a common face iff neither is the origin cone (a face of
    every cone, so never maximal beside another), neither is a 1-cone on a
    ray of the other (a face, not maximal), and neither holds a ray of the
    other strictly inside.  With det(u, v) > 0 the 2-cone {u, v} is the
    sector from u counterclockwise to v, narrower than pi.  If v is right
    after u, no ray lies strictly inside it.  If not, the ray w right after
    u comes before v, so it does, and w is a ray of some other cone, which
    meets this one in no common face.  So each 2-cone spans one gap between
    consecutive rays, and no two share a gap, since they would be one cone
    listed twice.  A conflict names this 2-cone with the first cone listing
    w, or a 1-cone with the first other cone listing its ray: a pair that
    meets in no common face, so the only such pair when there is one.
    """

    def __init__(self, max_cones: tuple[Cone, ...], rays: tuple[Vec, ...] = ()):
        cones = tuple(max_cones)
        for c in cones:
            if not isinstance(c, Cone):
                raise TypeError("max_cones must contain Cone instances")
        if len({frozenset(c.rays) for c in cones}) < len(cones):
            raise ValueError("duplicate maximal cone")
        # len(c.rays), not the dim property, which costs a call per read
        if any(not c.rays for c in cones) and len(cones) > 1:
            raise ValueError("the origin cone is redundant beside other cones")
        # the first cone listing each ray, in first-appearance order
        first: dict[Vec, int] = {}
        for j, c in enumerate(cones):
            for r in c.rays:
                i = first.setdefault(r, j)
                if i != j and (len(c.rays) == 1 or len(cones[i].rays) == 1):
                    raise _no_common_face(i, j)
        ccw = ccw_sorted_rays(first)
        after = dict(zip(ccw, ccw[1:] + ccw[:1]))
        for j, c in enumerate(cones):
            if len(c.rays) == 2:
                u, v = c.rays if det2(*c.rays) > 0 else c.rays[::-1]
                if after[u] != v:  # after[u] lies strictly inside c
                    i = first[after[u]]
                    raise _no_common_face(min(i, j), max(i, j))
        # the explicit rays are coerced after the cones are checked, so a
        # conflict of the cones is reported first
        rays = tuple(map(_as_vec, rays))
        if rays:
            if len(set(rays)) != len(rays) or set(rays) != first.keys():
                raise ValueError("explicit ray list must enumerate the fan's rays")
        else:
            rays = tuple(first)
        index = {r: i for i, r in enumerate(rays)}
        object.__setattr__(self, "max_cones", cones)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "_ccw", tuple(index[r] for r in ccw))

    # Fixed facts, computed on first use.  _fact stores them in the
    # instance __dict__, as __init__ stores _ccw, where equality, hashing
    # and repr, which read only max_cones and rays, never look.

    @_fact
    def smooth(self) -> bool:
        return all(is_smooth(c) for c in self.max_cones)

    @_fact
    def complete(self) -> bool:
        return is_complete(self)

    @_fact
    def bounded(self) -> bool:
        """True iff the rays positively span the plane: then every P(D),
        whose recession cone is {m : <m, e_ray> >= 0}, is bounded.

        Theorem: that holds iff det(u, v) > 0 for every pair of
        counterclockwise-consecutive rays u, v, that is iff every gap
        between them is less than pi.  Proof: vectors positively span the
        plane iff no closed half-plane holds them all.  A gap of pi or more
        leaves all the rays in the closed half-plane on its other side;
        conversely the open complement of a closed half-plane that holds
        them all lies inside one gap.  A single ray has one gap, the full
        turn, with det(u, u) = 0, and no rays span nothing.  So the cycle
        kept by validation decides it.
        """
        rays, cycle = self.rays, self._ccw
        return bool(cycle) and all(det2(rays[cycle[k - 1]], rays[i]) > 0 for k, i in enumerate(cycle))

    @_fact
    def cycle_terms(self) -> tuple[tuple[int, int, int, int], ...]:
        """(i, j, b_i, b_i + 2) for each ray i in counterclockwise order,
        with j the ray after i, b_i = D_i . D_i and b_i + 2 = D_i . -K: the
        terms of the cycle form of D(D-K) (`intersect`); ValueError unless
        smooth and complete.

        Theorem: D_i . D_j is 1 for cycle neighbours and 0 for other
        i != j, b_i = -det(u_prev, u_next), and D_i . -K = b_i + 2.
        Proof: the 2-cones of a complete fan are the n pairs of cycle
        neighbours (`is_complete`), and two ray divisors meet, once, iff
        their rays span a cone.  Smoothness gives det(u1, u) = det(u, u2)
        = 1 for the neighbours u1, u2 of u, so u1 + u2 = det(u1, u2)*u in
        the basis (u1, u), and D_u . D_u = b with u1 + u2 + b*u = 0 is
        -det(u1, u2) (Cox, Little and Schenck, Toric Varieties, ch. 10).
        -K is the sum of the ray divisors, n >= 3 of them (rays that
        positively span the plane), so each ray has two distinct
        neighbours and D_i . -K = b_i + 2.
        """
        if not self.smooth:
            raise ValueError("intersection theory requires a smooth fan")
        if not self.complete:
            raise ValueError("intersection theory requires a complete fan")
        rays, cycle = self.rays, self._ccw
        after = cycle[1:] + cycle[:1]
        b = [-det2(rays[h], rays[j]) for h, j in zip(cycle[-1:] + cycle[:-1], after)]
        return tuple((i, j, b_i, b_i + 2) for i, j, b_i in zip(cycle, after, b))

    @_fact
    def row_plan(self) -> RowPlan:
        """The row plan of every P(D) on this fan: of the systems
        <m, e_i> + a_i >= 0 on its rays e_i, for every coefficient tuple a.
        Its chains are arcs of the kept cycle, which runs counterclockwise
        from angle 0: ``neg`` in cycle order, ``pos`` clockwise from pi/2
        to -pi/2 (the y >= 0 part reversed, then the y < 0 part reversed).
        Proof that each falls in slope ey/|ex|: at angle t a ray with x < 0
        has slope -tan(t), falling as t runs over (pi/2, 3*pi/2), and one
        with x > 0 has slope tan(t), falling as t turns clockwise to -pi/2.
        """
        rays = self.rays
        cycle = [(i, *rays[i]) for i in self._ccw]
        neg = tuple((i, -ex, ey) for i, ex, ey in cycle if ex < 0)
        right = [(i, ex, ey) for i, ex, ey in reversed(cycle) if ex > 0]
        pos = tuple([r for r in right if r[2] >= 0] + [r for r in right if r[2] < 0])
        # px*x + py*y + a_i >= 0 times nx, plus -nx*x + ny*y + a_j >= 0 times px
        bounds = [(ey, i, 1, i, 0) for i, (ex, ey) in enumerate(rays) if ex == 0]
        bounds += [(nx * py + px * ny, i, nx, j, px) for i, px, py in pos for j, nx, ny in neg]
        return RowPlan(
            pos,
            neg,
            tuple(b for b in bounds if b[0] > 0),
            tuple(b for b in bounds if b[0] < 0),
            tuple(b for b in bounds if b[0] == 0),
        )

    def is_smooth(self) -> bool:
        return self.smooth

    def ray_index(self, ray) -> int:
        ray = _as_vec(ray)
        try:
            return self.rays.index(ray)
        except ValueError:
            raise ValueError(f"{ray} is not a ray of the fan") from None


def _no_common_face(i: int, j: int) -> ValueError:
    return ValueError(f"cones {i} and {j} do not intersect in a common face")


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

    Theorem: a fan with n > 0 rays is complete iff it has n maximal
    cones, all 2-dimensional.  Proof: by the theorem that `Fan` checks,
    each 2-cone spans the gap between two counterclockwise-consecutive
    rays, and distinct cones span distinct gaps, since equal gaps would
    be duplicate cones.  n rays leave n gaps, so n 2-cones cover them all,
    and fewer leave one uncovered.  A complete fan has no 1-cone, which
    would be a face of the 2-cone over one of its gaps, and a fan with
    no rays covers only the origin.
    """
    return len(f.max_cones) == len(f.rays) > 0 and all(c.dim == 2 for c in f.max_cones)


def adjacent_rays(f: Fan, ray) -> tuple[Vec, Vec]:
    """The two rays spanning a maximal cone together with ``ray`` on a
    complete fan: its neighbours (u1, u2) in the counterclockwise cycle,
    the clockwise one first, so det(u1, ray) > 0 and det(ray, u2) > 0."""
    i = f.ray_index(ray)
    if not f.complete:
        raise ValueError("adjacent rays require a complete fan")
    cycle = f._ccw
    k = cycle.index(i)
    return f.rays[cycle[k - 1]], f.rays[cycle[(k + 1) % len(cycle)]]


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
    if not isinstance(a, int) or isinstance(a, bool):
        raise TypeError(f"hirzebruch parameter must be an int, got {a!r}")
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
    """Inverse of fan_to_dict: ParseError (a ValueError) for input that is
    not an object, lacks ``rays`` or ``max_cones`` or has either not a list,
    for a ray that is not a pair of ints, a cone that is not a list or an
    index that is not an int (JSON booleans included); ValueError for an
    index outside the ray list or cones that do not form a fan.

    Each cone is read in turn, its indices checked and then its `Cone`
    built, so of two faults in different cones the earlier cone's is
    reported; `Fan` then checks the cones together."""
    for key in ("rays", "max_cones"):
        if not isinstance(d, dict) or key not in d:
            raise ParseError(f"a fan must be a JSON object with a {key!r} key")
        if not isinstance(d[key], list):
            raise ParseError(f"{key} must be a list, got {d[key]!r}")
    try:
        rays = [_as_vec(r) for r in d["rays"]]
    except TypeError as exc:
        raise ParseError(str(exc)) from None
    n = len(rays)
    cones = []
    for idxs in d["max_cones"]:
        if not isinstance(idxs, list):
            raise ParseError(f"a cone must be a list of ray indices, got {idxs!r}")
        for i in idxs:
            if isinstance(i, bool) or not isinstance(i, int):
                raise ParseError(f"cone ray indices must be integers, got {i!r}")
            if not 0 <= i < n:
                raise ValueError(f"cone ray index {i} out of range")
        cones.append(Cone([rays[i] for i in idxs]))
    return Fan(cones, rays)
