"""Intersection numbers on smooth complete toric surfaces and the
Riemann-Roch inequality verifier.

Two distinct ray divisors meet once iff their rays span a cone; the
self-intersection of a ray with primitive generator u and neighbors
u1, u2 is the integer b solving u1 + u2 + b*u = 0, verified exactly by
substitution.  The verifier compares h0(D) + h0(K-D) against
chi(O_X) + D(D-K)/2 with chi(O_X) = 1 and reports the defect as an exact
rational.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .divisor import H0Value, ToricDivisor, canonical_divisor, h0
from .fan import Fan, Vec, _as_vec, adjacent_rays, is_complete
from .jsonutil import format_rational


@functools.lru_cache(maxsize=None)
def _require_smooth_complete(fan: Fan):
    if not fan.is_smooth():
        raise ValueError("intersection theory requires a smooth fan")
    if not is_complete(fan):
        raise ValueError("intersection theory requires a complete fan")


def ray_intersection(fan: Fan, ray1, ray2) -> int:
    """D_ray1 . D_ray2 for distinct rays: 1 iff some cone has both as rays."""
    _require_smooth_complete(fan)
    r1, r2 = _as_vec(ray1), _as_vec(ray2)
    if r1 == r2:
        raise ValueError("equal rays: use self_intersection")
    for r in (r1, r2):
        if r not in fan.rays:
            raise ValueError(f"{r} is not a ray of the fan")
    for c in fan.max_cones:
        if r1 in c.rays and r2 in c.rays:
            return 1
    return 0


def self_intersection(fan: Fan, ray) -> int:
    """D_ray . D_ray: the integer b with u1 + u2 + b*u = 0.

    u1, u2 are the two rays adjacent to u; existence and uniqueness of b
    follow from smoothness and completeness, and the solution is verified
    by substitution rather than trusted from a division.
    """
    _require_smooth_complete(fan)
    u = _as_vec(ray)
    u1, u2 = adjacent_rays(fan, u)
    s = (u1[0] + u2[0], u1[1] + u2[1])
    if u[0] != 0:
        if s[0] % u[0]:
            raise ValueError("no integer self-intersection: fan is not smooth/complete")
        b = -s[0] // u[0]
    else:
        if s[1] % u[1]:
            raise ValueError("no integer self-intersection: fan is not smooth/complete")
        b = -s[1] // u[1]
    if s[0] + b * u[0] != 0 or s[1] + b * u[1] != 0:
        raise ValueError("no integer self-intersection: fan is not smooth/complete")
    return b


@dataclass(frozen=True)
class IntersectionMatrix:
    """Symmetric matrix of ray-divisor intersection numbers, in ray order."""

    fan: Fan
    entries: tuple[tuple[int, ...], ...]

    def entry(self, ray1, ray2) -> int:
        return self.entries[self.fan.ray_index(ray1)][self.fan.ray_index(ray2)]


@functools.lru_cache(maxsize=None)
def intersection_matrix(fan: Fan) -> IntersectionMatrix:
    _require_smooth_complete(fan)
    rays = fan.rays
    n = len(rays)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(self_intersection(fan, rays[i]))
            else:
                row.append(ray_intersection(fan, rays[i], rays[j]))
        rows.append(tuple(row))
    return IntersectionMatrix(fan, tuple(rows))


def pairing(fan: Fan, d1: ToricDivisor, d2: ToricDivisor) -> int:
    """The bilinear intersection pairing sum a_i b_j (D_i . D_j)."""
    if d1.fan != fan or d2.fan != fan:
        raise ValueError("divisors do not live on the given fan")
    m = intersection_matrix(fan).entries
    total = 0
    for i, a in enumerate(d1.coeffs):
        if a == 0:
            continue
        row = m[i]
        for j, b in enumerate(d2.coeffs):
            if b:
                total += a * b * row[j]
    return total


@dataclass(frozen=True)
class RRReport:
    """One Riemann-Roch inequality check: both h0 values, the pairing
    term D(D-K)/2, chi, and the exact defect LHS - RHS."""

    h0_D: H0Value
    h0_K_minus_D: H0Value
    euler: int
    pairing_term: Fraction
    rhs: Fraction
    defect: Fraction
    holds: bool

    def to_dict(self) -> dict:
        return {
            "h0_D": self.h0_D.to_json(),
            "h0_K_minus_D": self.h0_K_minus_D.to_json(),
            "euler": self.euler,
            "pairing_term": format_rational(self.pairing_term),
            "rhs": format_rational(self.rhs),
            "defect": format_rational(self.defect),
            "holds": self.holds,
        }


def rr_check(fan: Fan, d: ToricDivisor) -> RRReport:
    """Verify h0(D) + h0(K-D) >= chi + D(D-K)/2 for one divisor.

    On a complete fan both h0 values are finite (P(D) is bounded), so the
    defect is an exact rational and equality cases are detected bit-exactly.
    """
    _require_smooth_complete(fan)
    k = canonical_divisor(fan)
    h0_d = h0(fan, d)
    h0_k_minus_d = h0(fan, k - d)
    pairing_term = Fraction(pairing(fan, d, d - k), 2)
    # chi(O_X) = 1: the higher cohomology of O_X vanishes on a complete
    # toric variety (Cox, Little and Schenck, Toric Varieties, §9.2)
    euler = 1
    rhs = euler + pairing_term
    defect = Fraction(int(h0_d) + int(h0_k_minus_d)) - rhs
    return RRReport(
        h0_D=h0_d,
        h0_K_minus_D=h0_k_minus_d,
        euler=euler,
        pairing_term=pairing_term,
        rhs=rhs,
        defect=defect,
        holds=defect >= 0,
    )
