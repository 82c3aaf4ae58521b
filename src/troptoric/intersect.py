"""Intersection numbers on smooth complete toric surfaces, the
Riemann-Roch inequality verifier and the sweeps that run it.

The intersection numbers are a fact of the fan, read off its
counterclockwise cycle once and cached on it (`Fan.cycle_terms`, which
proves them); the functions here check their arguments and read them,
and `intersection_matrix` builds the dense matrix from them on each call.
The verifier compares h0(D) + h0(K-D) against chi(O_X) + D(D-K)/2 with
chi(O_X) = 1, all in integers, from three parts that `rr_check` and the
sweeps call on a coefficient tuple: D(D-K) is the cycle form below
(`_cycle_form`), the two counts take one pass over the y-bounds of the
fan's row plan (`Fan.row_plan`) and, by the vanishing theorem below, at
most one pair of floor sums along its chains (`divisor._lattice_count_pair`),
and `_report_fields` checks D(D-K) even and gives the report's fields.  So
each divisor costs integer arithmetic on its coefficient tuple, in a
number of steps that grows with the log of its coefficients and
linearly with the number of y-bounds of the row plan (one per pair of a
ray with x > 0 and a ray with x < 0).  `sweep`,
behind `troptoric sweep`, runs a box of tuples whole (`_sweep_box`, which
counts each Picard class once by the class theorem below) or a seeded
sample of it (`_sweep_sample`), and writes one JSON line per tuple.  Every
report, from `rr` and from both kinds of sweep, is written by `_report_text`.

Theorem: on a smooth complete toric surface D(D-K) is even, since
Riemann-Roch gives chi(O(D)) = 1 + D(D-K)/2 and chi(O(D)) = h0 - h1 + h2
is an integer; and h0(D), h0(K-D) are finite, since the rays of a
complete fan positively span the plane, so P(D) and P(K-D) are bounded.

Theorem (the cycle form): on a smooth complete fan with n rays, D(D-K)
is the sum over the rays i of a_i*(b_i*a_i + 2*a_next(i) + b_i + 2), where
b_i = D_i.D_i and next(i) is the ray after i in the counterclockwise
cycle.  Proof: -K is the sum of the ray divisors, so D(D-K) = D.D +
sum_i a_i*(D_i.(-K)), and D_i.(-K) = b_i + 2 (`Fan.cycle_terms`).  Two
distinct ray divisors meet once iff they are cycle neighbours, so for
any D' with coefficients c, D.D' is the sum over the rays i of
a_i*(b_i*c_i + c_next(i)) + a_next(i)*c_i, each neighbour pair counted
once, from the ray before it (`pairing`), and D.D is the sum of
b_i*a_i^2 + 2*a_i*a_next(i).  So one divisor costs n products.

Theorem (vanishing): when the rays u_i of a fan positively span the
plane, P(D) and P(K-D) are never both nonempty, even as real polygons;
so h0(D) > 0 implies h0(K-D) = 0, the toric shadow of h0(K) = 0 on a
rational surface (Cox, Little and Schenck, Toric Varieties, §9.1).
Proof: positive spanning gives sum_i l_i*u_i = 0 with every l_i > 0.
K - D has coefficients -1 - a_i, so m in P(D) and m' in P(K-D) give
<m, u_i> >= -a_i and <m', u_i> >= 1 + a_i, hence <m + m', u_i> >= 1 for
every i, and 0 = sum_i l_i*<m + m', u_i> > 0, a contradiction.  So at
most one of the two counts has rows to sum (`divisor._lattice_count_pair`).

Theorem (classes): h0(D) and h0(K-D) depend only on the Picard class of
D, and the class of D is decided by its key: D minus the principal
divisor that zeroes the coefficients of the two rays u_p, u_q of one
smooth cone, that is the tuple a_i - a_p*<m_p, u_i> - a_q*<m_q, u_i>,
with m_p, m_q its dual frame (`fan.dual_frame`).  Proof: div(m) has
coefficients <m, u_i>, so P(D + div(m)) = {x : <x + m, u_i> + a_i >= 0}
= P(D) - m, a lattice translate with as many lattice points, and K - D
moves by -div(m) the same way.  The key is D + div(m) for m = -a_p*m_p -
a_q*m_q, so it is linearly equivalent to D; and two keys that differ by
some div(m) are zero at p and q, so <m, u_p> = <m, u_q> = 0 and m = 0, as
u_p, u_q is a basis.  The proof uses only the rays: the counts of a class
do not depend on the intersection numbers, so wrong planted ones change
only D(D-K), which the cycle form gives tuple by tuple.  The key is
affine in the coefficients, and zero at p and q; a box swept with the
last ray's coefficient c innermost, by a cone that avoids that ray, has
keys that are the key of the other coefficients followed by c plus a
constant (`_sweep_box`).
"""

from __future__ import annotations

import collections
import itertools
import operator

from .divisor import ToricDivisor, _lattice_count_pair, _same_fan
from .fan import Fan, _as_vec, dot, dual_frame

SWEEP_EXHAUSTIVE_LIMIT = 100_000
SWEEP_SAMPLE_SIZE = 10_000
# a sweep writes its lines in chunks of this many, so its output is never held whole
SWEEP_CHUNK_LINES = 2048


def ray_intersection(fan: Fan, ray1, ray2) -> int:
    """D_ray1 . D_ray2 for distinct rays: 1 iff they are neighbours in the
    counterclockwise cycle, that is iff some cone has both as rays."""
    terms = fan.cycle_terms  # ValueError unless smooth and complete
    r1, r2 = _as_vec(ray1), _as_vec(ray2)
    if r1 == r2:
        raise ValueError("equal rays: use self_intersection")
    pair = {fan.ray_index(r1), fan.ray_index(r2)}
    return int(any({i, j} == pair for i, j, _, _ in terms))


def self_intersection(fan: Fan, ray) -> int:
    """D_ray . D_ray: the integer b with u1 + u2 + b*u = 0, where u1, u2
    are the two rays adjacent to u."""
    k = fan.ray_index(ray)
    return next(b for i, _, b, _ in fan.cycle_terms if i == k)


def intersection_matrix(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """The symmetric matrix of D_i . D_j in ray order, built from the
    fan's ``cycle_terms`` on each call and kept nowhere.  ValueError
    unless the fan is smooth and complete."""
    terms = fan.cycle_terms
    rows = [[0] * len(terms) for _ in terms]
    for i, j, b, _ in terms:
        rows[i][j] = rows[j][i] = 1
        rows[i][i] = b
    return tuple(map(tuple, rows))


def pairing(fan: Fan, d1: ToricDivisor, d2: ToricDivisor) -> int:
    """The bilinear intersection pairing sum a_i c_j (D_i . D_j), summed
    over the counterclockwise cycle by the cycle form above."""
    _same_fan(fan, d1, d2)
    terms = fan.cycle_terms  # ValueError unless smooth and complete
    a, c = d1.coeffs, d2.coeffs
    total = 0
    for i, j, b, _ in terms:
        total += a[i] * (b * c[i] + c[j]) + a[j] * c[i]
    return total


class RRReport(collections.namedtuple("RRReport", "h0_D h0_K_minus_D euler pairing_term rhs defect holds")):
    """One Riemann-Roch inequality check, all in integers: both h0 values,
    chi, the pairing term D(D-K)/2, rhs = chi + D(D-K)/2 and the defect
    h0(D) + h0(K-D) - rhs, all ints, and ``holds``, a bool."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The fields by name, in declaration order: JSON ints and a bool."""
        return self._asdict()


def _report_text(fields) -> str:
    """The JSON text json.dumps writes for RRReport(*fields).to_dict(), as
    one f-string: an int's JSON text is its str, and ``holds`` is true or
    false.  The only writer of a report, for `rr` and both kinds of sweep;
    ints past the interpreter's digit limit need `jsonutil.full_int_text`."""
    h0_d, h0_k_minus_d, euler, pairing_term, rhs, defect, holds = fields
    return (
        f'{{"h0_D": {h0_d}, "h0_K_minus_D": {h0_k_minus_d}, "euler": {euler}, '
        f'"pairing_term": {pairing_term}, "rhs": {rhs}, "defect": {defect}, '
        f'"holds": {"true" if holds else "false"}}}'
    )


def _cycle_form(steps, a) -> int:
    """D(D-K) for the coefficients ``a``: the cycle form above, summed
    over ``steps``, a fan's ``cycle_terms`` (i, next(i), b_i, s_i), with
    s_i = b_i + 2."""
    twice = 0
    for i, j, b, s in steps:
        c = a[i]
        twice += c * (b * c + 2 * a[j] + s)
    return twice


def _report_fields(twice: int, h0_d: int, h0_k_minus_d: int) -> tuple:
    """The fields of an `RRReport`, in declaration order, from D(D-K) and
    the two counts; ArithmeticError when D(D-K) is odd.

    D(D-K) is even on a smooth complete surface, so only wrong terms
    planted in ``cycle_terms`` can make it odd: mod 2 the cycle form is
    sum_i a_i*(b_i + s_i), since a_i^2 = a_i, and so is the dense
    a.M.(a + 1) when b_i and s_i are the diagonal and row sums of a
    symmetric M.
    """
    if twice % 2:
        raise ArithmeticError(f"D(D-K) = {twice} is odd: the intersection numbers are wrong")
    pairing_term = twice // 2
    # chi(O_X) = 1: the higher cohomology of O_X vanishes on a complete
    # toric variety (Cox, Little and Schenck, Toric Varieties, §9.2)
    euler = 1
    rhs = euler + pairing_term
    defect = h0_d + h0_k_minus_d - rhs
    return h0_d, h0_k_minus_d, euler, pairing_term, rhs, defect, defect >= 0


def rr_check(fan: Fan, d: ToricDivisor) -> RRReport:
    """Verify h0(D) + h0(K-D) >= chi + D(D-K)/2 for one divisor: the cycle
    form (`_cycle_form`) and the two counts (`divisor._lattice_count_pair`)
    on the coefficient tuple of D.  ValueError unless the fan is smooth
    and complete.

    Every field is an int by the integrality theorem above; an odd D(D-K)
    can only come from wrong intersection numbers and raises
    ArithmeticError.
    """
    steps = fan.cycle_terms  # ValueError unless smooth and complete
    _same_fan(fan, d)
    a = d.coeffs
    return RRReport._make(_report_fields(_cycle_form(steps, a), *_lattice_count_pair(fan.row_plan, a)))


def _sweep_line(index: int, coeffs, fields) -> str:
    """The JSON line json.dumps writes for {"index": index, "coeffs":
    list(coeffs), "report": RRReport(*fields).to_dict()}, and its newline."""
    return f'{{"index": {index}, "coeffs": {list(coeffs)}, "report": {_report_text(fields)}}}\n'


def _uniform_draws(seed: int, lo: int, hi: int):
    """An endless stream of integers drawn uniformly from lo..hi, lo <= hi:
    the values of random.Random(seed).randrange(lo, hi + 1), call after
    call, for the same random bits.

    randrange(lo, hi + 1) is lo + _randbelow(width) with width = hi - lo
    + 1, and _randbelow draws getrandbits(k), k = width.bit_length(),
    until the draw is below width.  This is that rejection loop, without
    randrange's argument checks on every call.
    """
    import random  # on first use: only a sampled sweep draws

    bits = random.Random(seed).getrandbits
    width = hi - lo + 1
    k = width.bit_length()
    while True:
        x = bits(k)
        while x >= width:
            x = bits(k)
        yield lo + x


def _sweep_box(f: Fan, values: range, write) -> tuple[int, int | None, int]:
    """(count, min_defect, violations) for every tuple of values^r on the
    smooth complete fan f, in itertools.product order, whose lines go to
    ``write`` in chunks of whole prefixes, each written once it holds at
    least SWEEP_CHUNK_LINES lines: the lines `_sweep_line` writes for
    `rr_check`'s fields, with each Picard class counted once.

    The box is walked as an odometer: the first r - 1 coefficients are a
    prefix, and the last ray's coefficient c runs over ``values`` inside
    it.  Each prefix computes, once: D(D-K) at c = 0 by the cycle form, to
    which each c adds c*(b_L*c + 2*(a_prev + a_next) + s_L) for the last
    ray L and its cycle neighbours; the class key of the class theorem in
    `intersect`, on a cone that avoids L, which is the prefix's key with
    c plus a shift last; and the text of the prefix's coefficients.  The
    principal divisor that makes the key, and so the shift, depends only
    on the prefix's coefficients a_p, a_q on that cone, and is read from
    a table built once for the box's values.  The memo is keyed once per
    prefix, on the prefix's key, to the row of that key's entries, each
    kept per c + shift and D(D-K) with the report's text, and the counts
    are taken once per entry.  On a true fan D(D-K) is a class invariant,
    so that is once per class; planted terms can make it vary within a
    class, and then the class is counted again, so the lines are still
    `rr_check`'s.  Every tuple's D(D-K) is checked even, as
    `intersect._report_fields` checks each value before it is kept.  The
    memo holds at most one entry per tuple; the output is never held
    whole.
    """
    steps, plan, rays = f.cycle_terms, f.row_plan, f.rays
    last = len(rays) - 1
    # cycle_terms runs over the cycle, so L is once an i and once a j
    ((_, following, b_last, s_last),) = [t for t in steps if t[0] == last]
    (preceding,) = [t[0] for t in steps if t[1] == last]
    cone = next(c for c in f.max_cones if rays[last] not in c.rays)
    p, q = map(rays.index, cone.rays)
    m_p, m_q = dual_frame(cone)
    w_p, w_q = [dot(m_p, u) for u in rays], [dot(m_q, u) for u in rays]
    # (a_p, a_q) -> (the prefix's part of div(a_p*m_p + a_q*m_q), the
    # shift of c): the key is the prefix minus the first, then c plus the second
    principal = {
        (a_p, a_q): (
            tuple(a_p * w_p[i] + a_q * w_q[i] for i in range(last)),
            -a_p * w_p[last] - a_q * w_q[last],
        )
        for a_p in values
        for a_q in values
    }
    last_texts = [(c, f", {c}") for c in values]
    rows = {}  # class key of the prefix -> {(c + shift, D(D-K)): (defect, the line's text after c)}
    lines = []
    violations = 0
    index = 0
    for prefix in itertools.product(values, repeat=last):
        offsets, shift = principal[prefix[p], prefix[q]]
        key = tuple(map(operator.sub, prefix, offsets))
        row = rows.get(key)
        if row is None:
            row = rows[key] = {}
        twice0 = _cycle_form(steps, prefix + (0,))
        slope = 2 * (prefix[preceding] + prefix[following]) + s_last
        head = f"{list(prefix)}"[:-1]
        for c, c_text in last_texts:
            twice = twice0 + c * (b_last * c + slope)
            tail = row.get((c + shift, twice))
            if tail is None:
                fields = _report_fields(twice, *_lattice_count_pair(plan, prefix + (c,)))
                tail = row[c + shift, twice] = fields[5], f'], "report": {_report_text(fields)}}}\n'
            if tail[0] < 0:  # a report holds iff its defect is >= 0
                violations += 1
            lines.append(f'{{"index": {index}, "coeffs": {head}{c_text}{tail[1]}')
            index += 1
        if len(lines) >= SWEEP_CHUNK_LINES:
            _write_lines(write, lines)
            lines = []
    _write_lines(write, lines)
    min_defect = min((defect for row in rows.values() for defect, _ in row.values()), default=None)
    return index, min_defect, violations


def _sweep_sample(f: Fan, seed: int, lo: int, hi: int, write) -> tuple[int, int | None, int]:
    """(count, min_defect, violations) for SWEEP_SAMPLE_SIZE tuples drawn
    uniformly from lo..hi, whose lines go to ``write`` in chunks of
    SWEEP_CHUNK_LINES: each line is `_sweep_line` of `rr_check`'s fields."""
    steps, plan = f.cycle_terms, f.row_plan
    # zip takes r values in turn from the one stream: each tuple holds
    # the next r draws, in order
    values = _uniform_draws(seed, lo, hi)
    coeff_iter = itertools.islice(zip(*[values] * len(f.rays)), SWEEP_SAMPLE_SIZE)
    lines = []
    min_defect = None
    violations = 0
    count = 0
    # the tuples are ints of the fan's length by construction, so they go
    # to rr_check's parts as they are, with no ToricDivisor built around them
    for coeffs in coeff_iter:
        fields = _report_fields(_cycle_form(steps, coeffs), *_lattice_count_pair(plan, coeffs))
        defect = fields[5]
        if min_defect is None or defect < min_defect:
            min_defect = defect
        if defect < 0:  # a report holds iff its defect is >= 0
            violations += 1
        lines.append(_sweep_line(count, coeffs, fields))
        count += 1
        if len(lines) == SWEEP_CHUNK_LINES:
            _write_lines(write, lines)
            lines = []
    _write_lines(write, lines)
    return count, min_defect, violations


def _write_lines(write, lines) -> None:
    # one write per chunk, each line with its newline
    if lines:
        write("".join(lines))


def sweep(f: Fan, lo: int, hi: int, seed: int, write) -> tuple[str, int, int | None, int]:
    """(mode, count, min_defect, violations) of the reports on coefficient
    tuples over lo..hi on the fan f, written to ``write``: the whole box
    (`_sweep_box`, "exhaustive") when it holds at most SWEEP_EXHAUSTIVE_LIMIT
    tuples, else SWEEP_SAMPLE_SIZE drawn from ``seed`` (`_sweep_sample`,
    "sampled").  ValueError before the first write unless f is smooth and
    complete, even over an empty range.  Ints past the interpreter's digit
    limit need `jsonutil.full_int_text`."""
    # a width w >= 2 gives w**17 > SWEEP_EXHAUSTIVE_LIMIT, so capping the
    # exponent at 17 keeps the decision and the power small on any fan
    exponent = min(len(f.rays), SWEEP_EXHAUSTIVE_LIMIT.bit_length())
    if max(hi - lo + 1, 0) ** exponent <= SWEEP_EXHAUSTIVE_LIMIT:
        return ("exhaustive", *_sweep_box(f, range(lo, hi + 1), write))
    return ("sampled", *_sweep_sample(f, seed, lo, hi, write))
