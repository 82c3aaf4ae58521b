"""Intersection numbers on smooth complete toric surfaces and the
Riemann-Roch inequality verifier.

The intersection numbers are a fact of the fan, computed once per fan and
cached on it (`Fan.intersection_numbers`); the functions here check
their arguments and read them.  The verifier compares h0(D) + h0(K-D)
against chi(O_X) + D(D-K)/2 with chi(O_X) = 1 and reports the defect as
an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divisor import H0Value, ToricDivisor, h0
from .fan import Fan, _as_vec
from .jsonutil import format_rational


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


@dataclass(frozen=True)
class IntersectionMatrix:
    """Symmetric matrix of ray-divisor intersection numbers, in ray order."""

    fan: Fan
    entries: tuple[tuple[int, ...], ...]

    def entry(self, ray1, ray2) -> int:
        return self.entries[self.fan.ray_index(ray1)][self.fan.ray_index(ray2)]


def intersection_matrix(fan: Fan) -> IntersectionMatrix:
    return IntersectionMatrix(fan, fan.intersection_numbers)


def pairing(fan: Fan, d1: ToricDivisor, d2: ToricDivisor) -> int:
    """The bilinear intersection pairing sum a_i b_j (D_i . D_j)."""
    for d in (d1, d2):
        if d.fan is not fan and d.fan != fan:
            raise ValueError("divisors do not live on the given fan")
    m = fan.intersection_numbers
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
    fan.intersection_numbers  # ValueError unless smooth and complete
    h0_d = h0(fan, d)
    # K = -(sum of the ray divisors): K - D and D - K have coefficients
    # -1 - a and a + 1
    k_minus_d = ToricDivisor(fan, tuple(-1 - a for a in d.coeffs))
    d_minus_k = ToricDivisor(fan, tuple(a + 1 for a in d.coeffs))
    h0_k_minus_d = h0(fan, k_minus_d)
    pairing_term = Fraction(pairing(fan, d, d_minus_k), 2)
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
