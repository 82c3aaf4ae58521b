"""Exact max-plus arithmetic: tropical polynomials and determinants.

The tropical semifield is Q ∪ {-oo} with max as addition and ordinary +
as multiplication.  Its elements are plain values: None is -oo and every
finite value is a `fractions.Fraction`, read by `as_fraction` from an
int, a Fraction or a string in the CLI's one rational grammar.  Floats
are rejected outright, because the predicates built on top of this module
(ties between monomials, pass-through tests) are meaningless under rounding.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .jsonutil import parse_ratio


def as_fraction(x) -> Fraction:
    """x as a Fraction: a Fraction as it is, or an int or a string read by
    `jsonutil.parse_ratio`, the CLI's one grammar, so any other string
    ('1.5', '1e5', ' 1') raises ParseError, a ValueError, before a number is
    built.  TypeError for any other type: a float, a bool, a Decimal, None."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise TypeError(f"expected an int, a Fraction or a 'p/q' string, got {type(x).__name__}")
    return Fraction(*parse_ratio(x))


def _exponent(exp, dimension: int) -> tuple[int, ...]:
    """exp as a tuple of ``dimension`` ints; TypeError for any other
    entry (a bool or float included), ValueError for another length."""
    exp = tuple(exp)
    if any(not isinstance(e, int) or isinstance(e, bool) for e in exp):
        raise TypeError("exponents must be integers")
    if len(exp) != dimension:
        raise ValueError("exponent dimension mismatch")
    return exp


class TropPolynomial:
    """A tropical Laurent polynomial max_m (c_m + <m, x>) in n variables.

    Stored in canonical form: duplicate exponents are merged by taking the
    larger coefficient and -infinity coefficients are dropped, so two
    polynomials compare equal exactly when they keep the same terms.  The
    terms are sorted by exponent once, on construction, so ``terms`` and
    ``support`` read them in that order without sorting again.
    The empty polynomial is the constant -infinity.  ``terms`` are
    (exponent, coefficient) pairs with integer exponents and a coefficient
    that is None (-infinity) or anything `as_fraction` accepts.
    """

    __slots__ = ("_dim", "_coeffs")

    def __init__(self, dimension: int, terms: Iterable = ()):
        if not isinstance(dimension, int) or isinstance(dimension, bool):
            raise TypeError("dimension must be an int")
        if dimension < 0:
            raise ValueError("dimension must be nonnegative")
        coeffs: dict[tuple[int, ...], Fraction] = {}
        for exp, c in terms:
            exp = _exponent(exp, dimension)
            if c is None:
                continue
            c = as_fraction(c)
            old = coeffs.get(exp)
            if old is None or c > old:
                coeffs[exp] = c
        self._dim = dimension
        self._coeffs = dict(sorted(coeffs.items(), key=operator.itemgetter(0)))  # exponents are distinct

    @property
    def dimension(self) -> int:
        return self._dim

    @property
    def is_empty(self) -> bool:
        return not self._coeffs

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        """Stored exponents, sorted lexicographically."""
        return tuple(self._coeffs)

    def terms(self):
        """Iterate (exponent, Fraction coefficient) pairs in sorted order."""
        return iter(self._coeffs.items())

    def coeff(self, exponent) -> Fraction | None:
        """The coefficient of x^exponent, None (-infinity) when absent."""
        return self._coeffs.get(tuple(exponent))

    def evaluate(self, x: Sequence) -> Fraction | None:
        return evaluate(self, x)

    def scaled(self, t) -> "TropPolynomial":
        """Tropical scalar multiple: add t to every coefficient."""
        t = as_fraction(t)
        return TropPolynomial(self._dim, ((e, c + t) for e, c in self._coeffs.items()))

    def times_monomial(self, m, t=0) -> "TropPolynomial":
        """Tropical product with t·x^m: shift exponents by m, coefficients by t."""
        m = _exponent(m, self._dim)
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


def _common_scale(values) -> tuple[int, list[int]]:
    """(s, [s * x for x in values]): s is the lcm of the denominators of
    the Fractions ``values`` (1 for none), so every s * x is an int, and
    the ints keep the order and the ties of the values."""
    s = math.lcm(*(x.denominator for x in values))
    return s, [x.numerator * (s // x.denominator) for x in values]


def _scaled_values(f: TropPolynomial, x: Sequence) -> tuple[int, list]:
    """(s, [(exponent, s * (c + <exponent, x>)), ...]) over the terms of f,
    as ints at one common scale s of the coefficients and of x."""
    if len(x) != f.dimension:
        raise ValueError("dimension mismatch")
    coeffs = f._coeffs
    s, ints = _common_scale([*coeffs.values(), *(as_fraction(c) for c in x)])
    sx = ints[len(coeffs):]
    return s, [(exp, c + sum(map(operator.mul, exp, sx))) for exp, c in zip(coeffs, ints)]


def evaluate(f: TropPolynomial, x: Sequence) -> Fraction | None:
    """Value of f at x: max over monomials, None (-infinity) for the empty polynomial."""
    s, values = _scaled_values(f, x)
    if not values:
        return None
    return Fraction(max(v for _, v in values), s)


def supporting_monomials(f: TropPolynomial, x: Sequence) -> frozenset:
    """Exponents whose monomial attains evaluate(f, x), compared exactly.

    The set is nonempty for a nonempty polynomial and has two or more
    elements exactly on the corner locus of f.
    """
    if f.is_empty:
        raise ValueError("empty polynomial has no supporting monomials")
    _, values = _scaled_values(f, x)
    best = max(v for _, v in values)
    return frozenset(exp for exp, v in values if v == best)


def trop_det(rows: Sequence[Sequence]) -> tuple[Fraction | None, bool]:
    """Max-plus determinant (tropical permanent) with exact tie detection.

    ``rows`` is a square, nonempty matrix of entries that are None
    (-infinity) or anything `as_fraction` accepts; an empty or non-square
    matrix raises ValueError and a float entry TypeError.  Returns
    (value, tie) where value = max over permutations sigma of
    sum_i t[sigma(i)][i], None for -infinity, and tie is True when at
    least two permutations attain the maximum, or when the maximum is
    -infinity.

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
    vals = [[None if x is None else as_fraction(x) for x in row] for row in rows]
    k = len(vals)
    if not k:
        raise ValueError("matrix must have size at least 1")
    if any(len(row) != k for row in vals):
        raise ValueError("matrix must be square")
    finite = [x for row in vals for x in row if x is not None]
    if not finite:
        return None, True
    scale, ints = _common_scale(finite)
    it = iter(ints)
    scaled = [[None if x is None else next(it) for x in row] for row in vals]
    # minimisation form: nonnegative integer costs, with a forbidden edge
    # priced above every assignment that avoids forbidden edges
    top = max(ints)
    forbidden = k * (top - min(ints)) + 1
    cost = [[forbidden if x is None else top - x for x in row] for row in scaled]
    owner, u, v = _min_cost_assignment(cost)
    if any(scaled[owner[j]][j] is None for j in range(k)):
        return None, True
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
    return value, _has_cycle(succ)


def _maximal_minors(rows) -> list[int]:
    """The k+1 maximal max-plus minors of a k x (k+1) integer matrix,
    k >= 1: entry i is the max-plus determinant of ``rows`` without
    column i.

    One assignment and one shortest-path pass give all of them (Burkard,
    Dell'Amico and Martello, *Assignment Problems*, 2009, ch. 4 and 6).
    In the minimisation form cost = -w, match the k rows into the k+1
    columns: `_min_cost_assignment` leaves one column c free and gives
    potentials u, v with reduced costs rc = cost - u - v >= 0, zero on
    matched edges, with v <= 0 and v[c] = 0.  Add a zero row z, of cost
    0 and potential 0: its reduced costs are -v >= 0, zero on c, so z on
    c completes the optimum to an optimal perfect matching of the square
    matrix, of cost opt = sum(u) + sum(v).  A perfect matching that gives
    column i to z costs minus the weight of a permutation of the minor
    without column i, so the cheapest one costs -M_i, and any perfect
    matching costs opt plus the sum of its reduced costs.  Proof of the
    formula below: the symmetric difference of a matching that puts z on
    column i with the optimum is a set of alternating cycles.  The one
    through z runs z -> i -> owner[i] -> j -> owner[j] -> ... -> c -> z,
    its matched edges cost 0, and every other cycle adds only reduced
    costs >= 0, so forcing z onto i costs exactly one alternating cycle:
    -v[i] plus a shortest path from column i to column c whose steps go
    from a column j to owner[j] and across an unmatched edge to a column
    j', for rc[owner[j]][j'].  Nonnegative steps make a shortest walk a
    simple path, so one O(k^2) Dijkstra toward c gives every dist[i],
    with dist[c] = 0, and M_i = -opt + v[i] - dist[i].  The path ends at
    c, so it never steps from z, and z is never built.
    """
    cost = [[-x for x in row] for row in rows]
    owner, u, v = _min_cost_assignment(cost)
    rc = [[x - ui - vj for x, vj in zip(row, v)] for row, ui in zip(cost, u)]
    c = owner.index(-1)
    # Dijkstra over the reversed steps j -> j', from c
    dist = [0 if i < 0 else rc[i][c] for i in owner]
    todo = [j for j in range(len(v)) if j != c]
    while todo:
        j = min(todo, key=dist.__getitem__)
        todo.remove(j)
        dj = dist[j]
        for j2 in todo:
            d = rc[owner[j2]][j] + dj
            if d < dist[j2]:
                dist[j2] = d
    total = -sum(u) - sum(v)
    return [total + vj - d for vj, d in zip(v, dist)]


def _min_cost_assignment(cost):
    """Min-cost matching of the k rows of a k x m integer cost matrix,
    1 <= k <= m, into distinct columns.

    Adds one row at a time along a shortest augmenting path, keeping dual
    potentials with u[i] + v[j] <= cost[i][j] everywhere and equality on
    matched edges.  Returns (owner, u, v) with owner[j] the row matched to
    column j, -1 on the m - k free columns.  v <= 0, and v = 0 on every
    free column: a column loses potential only inside a search tree, by
    a step's delta, which is >= 0 on every step but a search's first,
    when the tree holds the root slot alone; and a column joins a tree
    only when it is matched, and stays matched.
    """
    k, m = len(cost), len(cost[0])
    u = [0] * k
    v = [0] * (m + 1)  # column m is the root slot of the row being added
    owner = [-1] * (m + 1)
    for i in range(k):
        owner[m] = i
        j0 = m
        used = [False] * (m + 1)
        minv = [cost[i][j] - u[i] - v[j] for j in range(m)]
        way = [m] * m
        while True:
            used[j0] = True
            i0 = owner[j0]
            row, ui0 = cost[i0], u[i0]
            delta = j1 = None
            for j in range(m):
                if not used[j]:
                    cur = row[j] - ui0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if delta is None or minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if owner[j0] == -1:
                break
        while j0 != m:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    return owner[:m], u, v[:m]


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
