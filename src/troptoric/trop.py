"""Exact max-plus arithmetic: tropical values, polynomials, determinants.

The tropical semifield is Q ∪ {-oo} with max as addition and ordinary +
as multiplication.  Every finite value is a `fractions.Fraction`; floats
are rejected outright, because the predicates built on top of this module
(ties between monomials, pass-through tests) are meaningless under
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Sequence


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to a Fraction.

    Floats (including inf/nan) are rejected: the core is exact-only.
    """
    if isinstance(x, float):
        raise TypeError("floating-point input rejected; use int, Fraction, or 'p/q'")
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@total_ordering
@dataclass(frozen=True)
class TropValue:
    """An element of the tropical semifield: an exact rational, or -infinity.

    ``value`` is None for -infinity, otherwise a Fraction.  The total order
    puts -infinity at the bottom, so the tropical sum is max in this order.
    """

    value: Fraction | None = None

    def __post_init__(self):
        if self.value is not None:
            object.__setattr__(self, "value", as_fraction(self.value))

    @property
    def is_neg_inf(self) -> bool:
        return self.value is None

    def __lt__(self, other):
        if not isinstance(other, TropValue):
            return NotImplemented
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return self.value < other.value

    def __repr__(self):
        return "TropValue(-oo)" if self.value is None else f"TropValue({self.value})"


NEG_INF = TropValue()


def trop(x) -> TropValue:
    """Coerce to TropValue; None means -infinity."""
    if isinstance(x, TropValue):
        return x
    if x is None:
        return NEG_INF
    return TropValue(as_fraction(x))


def trop_add(a, b) -> TropValue:
    """Tropical sum: max(a, b), with -infinity as the neutral element."""
    a, b = trop(a), trop(b)
    return a if b < a else b


def trop_mul(a, b) -> TropValue:
    """Tropical product: a + b, with -infinity absorbing."""
    a, b = trop(a), trop(b)
    if a.value is None or b.value is None:
        return NEG_INF
    return TropValue(a.value + b.value)


@dataclass(frozen=True)
class TropMonomial:
    """One tropical term c "·" x^m: the affine function c + <m, x>."""

    exponent: tuple[int, ...]
    coeff: TropValue

    def __post_init__(self):
        exp = tuple(self.exponent)
        for e in exp:
            if not isinstance(e, int):
                raise TypeError("exponents must be integers")
        object.__setattr__(self, "exponent", exp)
        object.__setattr__(self, "coeff", trop(self.coeff))


class TropPolynomial:
    """A tropical Laurent polynomial max_m (c_m + <m, x>) in n variables.

    Stored in canonical form: duplicate exponents are merged by taking the
    larger coefficient and -infinity coefficients are dropped, so two
    polynomials compare equal exactly when they keep the same terms.
    The empty polynomial is the constant -infinity.
    """

    __slots__ = ("_dim", "_coeffs")

    def __init__(self, dimension: int, terms: Iterable = ()):
        dim = int(dimension)
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        coeffs: dict[tuple[int, ...], Fraction] = {}
        for term in terms:
            if isinstance(term, TropMonomial):
                mono = term
            else:
                exp, cv = term
                mono = TropMonomial(tuple(exp), trop(cv))
            if len(mono.exponent) != dim:
                raise ValueError("exponent dimension mismatch")
            if mono.coeff.value is None:
                continue
            old = coeffs.get(mono.exponent)
            if old is None or mono.coeff.value > old:
                coeffs[mono.exponent] = mono.coeff.value
        self._dim = dim
        self._coeffs = coeffs

    @property
    def dimension(self) -> int:
        return self._dim

    @property
    def is_empty(self) -> bool:
        return not self._coeffs

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        """Stored exponents, sorted lexicographically."""
        return tuple(sorted(self._coeffs))

    def terms(self):
        """Iterate (exponent, Fraction coefficient) pairs in sorted order."""
        for exp in sorted(self._coeffs):
            yield exp, self._coeffs[exp]

    def coeff(self, exponent) -> TropValue:
        c = self._coeffs.get(tuple(exponent))
        return NEG_INF if c is None else TropValue(c)

    def evaluate(self, x: Sequence) -> TropValue:
        return evaluate(self, x)

    def scaled(self, t) -> "TropPolynomial":
        """Tropical scalar multiple: add t to every coefficient."""
        t = as_fraction(t)
        return TropPolynomial(self._dim, ((e, c + t) for e, c in self._coeffs.items()))

    def times_monomial(self, m, t=0) -> "TropPolynomial":
        """Tropical product with t·x^m: shift exponents by m, coefficients by t."""
        m = tuple(int(e) for e in m)
        if len(m) != self._dim:
            raise ValueError("exponent dimension mismatch")
        t = as_fraction(t)
        return TropPolynomial(
            self._dim,
            (
                (tuple(a + b for a, b in zip(e, m)), c + t)
                for e, c in self._coeffs.items()
            ),
        )

    def __len__(self):
        return len(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, TropPolynomial):
            return NotImplemented
        return self._dim == other._dim and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self._dim, frozenset(self._coeffs.items())))

    def __repr__(self):
        if not self._coeffs:
            return f"TropPolynomial({self._dim}, -oo)"
        body = ", ".join(f"{e}:{c}" for e, c in self.terms())
        return f"TropPolynomial({self._dim}, {{{body}}})"


def evaluate(f: TropPolynomial, x: Sequence) -> TropValue:
    """Value of f at x: max over monomials, -infinity for the empty polynomial."""
    if len(x) != f.dimension:
        raise ValueError("dimension mismatch")
    xs = tuple(as_fraction(c) for c in x)
    best: Fraction | None = None
    for exp, c in f._coeffs.items():
        v = c
        for e, xc in zip(exp, xs):
            v += e * xc
        if best is None or v > best:
            best = v
    return NEG_INF if best is None else TropValue(best)


def supporting_monomials(f: TropPolynomial, x: Sequence) -> frozenset:
    """Exponents whose monomial attains evaluate(f, x), compared exactly.

    The set is nonempty for a nonempty polynomial and has two or more
    elements exactly on the corner locus of f.
    """
    if f.is_empty:
        raise ValueError("empty polynomial has no supporting monomials")
    if len(x) != f.dimension:
        raise ValueError("dimension mismatch")
    xs = tuple(as_fraction(c) for c in x)
    best: Fraction | None = None
    winners: list[tuple[int, ...]] = []
    for exp, c in f._coeffs.items():
        v = c
        for e, xc in zip(exp, xs):
            v += e * xc
        if best is None or v > best:
            best = v
            winners = [exp]
        elif v == best:
            winners.append(exp)
    return frozenset(winners)


@dataclass(frozen=True)
class TropMatrix:
    """A square grid of tropical values."""

    entries: tuple[tuple[TropValue, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(trop(v) for v in row) for row in self.entries)
        if not rows:
            raise ValueError("matrix must have size at least 1")
        k = len(rows)
        if any(len(row) != k for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)


def trop_det(m: TropMatrix) -> tuple[TropValue, bool]:
    """Max-plus determinant (tropical permanent) with exact tie detection.

    Returns (value, tie) where value = max over permutations sigma of
    sum_i t[sigma(i)][i] and tie is True when at least two permutations
    attain the maximum, or when the maximum is -infinity.

    The maximum is a max-weight assignment, solved in O(k^3) by shortest
    augmenting paths with dual potentials (Kuhn 1955; Butkovic,
    *Max-linear Systems*, 2010, ch. 1).  Finite entries are scaled by the
    lcm of their denominators, which keeps the set of optimal permutations,
    so the search runs on exact integers; -infinity entries are forbidden.
    The optimum is non-unique exactly when the edges made tight by the
    optimal potentials contain an alternating cycle (Richter-Gebert,
    Sturmfels and Theobald, *First steps in tropical geometry*, 2005):
    every optimal permutation uses tight edges only, and any alternating
    cycle of tight edges turns the optimal permutation into another one.
    """
    if not isinstance(m, TropMatrix):
        m = TropMatrix(tuple(m))
    k = m.size
    vals = [[v.value for v in row] for row in m.entries]
    finite = [x for row in vals for x in row if x is not None]
    if not finite:
        return NEG_INF, True
    scale = math.lcm(*(x.denominator for x in finite))
    scaled = [
        [None if x is None else x.numerator * (scale // x.denominator) for x in row]
        for row in vals
    ]
    # minimisation form: nonnegative integer costs, with a forbidden edge
    # priced above every assignment that avoids forbidden edges
    finite_scaled = [x for row in scaled for x in row if x is not None]
    top = max(finite_scaled)
    forbidden = k * (top - min(finite_scaled)) + 1
    cost = [[forbidden if x is None else top - x for x in row] for row in scaled]
    owner, u, v = _min_cost_assignment(cost)
    if any(scaled[owner[j]][j] is None for j in range(k)):
        return NEG_INF, True
    value = Fraction(sum(scaled[owner[j]][j] for j in range(k)), scale)
    # tight (i, j) off the optimum lets row i take column j from owner[j]
    succ = [
        [
            owner[j]
            for j in range(k)
            if owner[j] != i and scaled[i][j] is not None and cost[i][j] == u[i] + v[j]
        ]
        for i in range(k)
    ]
    return TropValue(value), _has_cycle(succ)


def _min_cost_assignment(cost):
    """Min-cost perfect matching of a square integer cost matrix.

    Adds one row at a time along a shortest augmenting path, keeping dual
    potentials with u[i] + v[j] <= cost[i][j] everywhere and equality on
    matched edges.  Returns (owner, u, v) with owner[j] the row matched to
    column j.
    """
    k = len(cost)
    u = [0] * k
    v = [0] * (k + 1)  # column k is the root slot of the row being added
    owner = [-1] * (k + 1)
    for i in range(k):
        owner[k] = i
        j0 = k
        used = [False] * (k + 1)
        minv = [cost[i][j] - u[i] - v[j] for j in range(k)]
        way = [k] * k
        while True:
            used[j0] = True
            i0 = owner[j0]
            row, ui0 = cost[i0], u[i0]
            delta = j1 = None
            for j in range(k):
                if not used[j]:
                    cur = row[j] - ui0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if delta is None or minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(k + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if owner[j0] == -1:
                break
        while j0 != k:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    return owner[:k], u, v


def _has_cycle(succ) -> bool:
    """Whether the directed graph given by successor lists has a cycle."""
    indegree = [0] * len(succ)
    for targets in succ:
        for t in targets:
            indegree[t] += 1
    stack = [i for i, d in enumerate(indegree) if d == 0]
    removed = 0
    while stack:
        i = stack.pop()
        removed += 1
        for t in succ[i]:
            indegree[t] -= 1
            if indegree[t] == 0:
                stack.append(t)
    return removed < len(succ)


def is_extremal(gens: Iterable[TropMonomial], g: TropMonomial) -> bool:
    """Whether g is extremal among the monomial generators ``gens``: always.

    Generators sharing an exponent are tropical scalar multiples of one
    another, so they merge into a single generator (coefficient = max) and
    g stands for its merged class.  A merged generator is always extremal:
    an affine function of slope m cannot agree on all of R^n with a
    pointwise max of affine functions whose slopes all differ from m,
    since either a single other slope dominates everywhere (wrong slope)
    or the max is genuinely kinked (not affine).  Only membership of g
    among the generators is checked.
    """
    if g not in gens:
        raise ValueError("g is not one of the generators")
    return True
