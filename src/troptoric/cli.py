"""troptoric: scriptable JSON frontend for the tropical toric toolkit.

Subcommands: fan (builtin / validate / blowup), h0, rr, sections, sweep.
Output is deterministic for identical inputs and --seed; rationals are
emitted as 'p/q' strings, integers as JSON numbers.

Exit codes: 0 success, 1 parse or usage error, 2 precondition violation,
3 Riemann-Roch inequality violation, 4 internal error, 141 stdout closed
by its reader.  Malformed input is a ParseError (exit 1); any other error
inside the library propagates out of `main` with its traceback, and the
console entry point `run` prints that traceback and exits 4, so a bug is
never reported as a parse error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import re
import sys

from .divisor import UnboundedPolytopeError, _lattice_count_pair, divisor_from_dict, h0, lattice_points, polytope_vertices
from .fan import Fan, blow_up, dot, dual_frame, fan_from_dict, fan_to_dict, hirzebruch, is_smooth, product_p1_p1, projective_plane
from .intersect import _cycle_form, _report_fields, _report_text, rr_check
from .jsonutil import ParseError, format_point, format_ratio, full_int_text, load_json, parse_ratio

DEFAULT_SEED = 314159
EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_VIOLATION = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE

SWEEP_EXHAUSTIVE_LIMIT = 100_000
SWEEP_SAMPLE_SIZE = 10_000
# a sweep writes its lines in chunks of this many, so its output is never held whole
SWEEP_CHUNK_LINES = 2048
# h0 and sections list P(D) up to this many points, about 0.2 GB, else exit 2
MAX_LISTED_POINTS = 10**6


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; our convention reserves 2 for
    # precondition violations, so usage problems are parse errors (1)
    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _load_fan(path: str) -> Fan:
    return fan_from_dict(load_json(path))


def _builtin_fan(name: str, param):
    key = name.lower()
    if key == "hirzebruch":
        if param is None:
            raise ValueError("hirzebruch needs a parameter, e.g. 'fan builtin hirzebruch 2'")
        return hirzebruch(param)
    if key in ("p2", "projective_plane"):
        make = projective_plane
    elif key in ("p1xp1", "product_p1_p1"):
        make = product_p1_p1
    else:
        raise ValueError(f"unknown builtin fan {name!r}")
    if param is not None:
        raise ValueError(f"builtin fan {name!r} takes no parameter, got {param}")
    return make()


def _parse_points(raw) -> list:
    """The plane points of a JSON list of [x, y] pairs, each coordinate
    as `parse_ratio` reads it: a pair of ints (p, q) in lowest terms with
    q > 0, the form `sections._vandermonde_minors` takes, so no Fraction
    is built.  ParseError for anything else, at the first bad point."""
    if not isinstance(raw, list):
        raise ParseError("points must be a JSON list of [x, y] pairs")
    points = []
    for p in raw:
        if not isinstance(p, list) or len(p) != 2:
            raise ParseError(f"a point must be a pair [x, y], got {p!r}")
        points.append((parse_ratio(p[0]), parse_ratio(p[1])))
    return points


def cmd_fan(args) -> int:
    if args.fan_cmd == "builtin":
        f = _builtin_fan(args.name, args.param)
        args.write(json.dumps(fan_to_dict(f)) + "\n")
        return EXIT_OK
    if args.fan_cmd == "validate":
        try:
            f = fan_from_dict(load_json(args.fan))
        except ParseError:
            raise  # malformed input, exit 1, not an invalid fan
        except ValueError as exc:
            args.write(json.dumps({"valid": False, "error": str(exc)}) + "\n")
            return EXIT_PRECONDITION
        offending = next((i for i, c in enumerate(f.max_cones) if not is_smooth(c)), None)
        report = {
            "valid": True,
            "smooth": f.smooth,
            "complete": f.complete,
            "offending_cone": offending,
        }
        args.write(json.dumps(report) + "\n")
        return EXIT_OK
    if args.fan_cmd == "blowup":
        f = _load_fan(args.fan)
        if not 0 <= args.cone < len(f.max_cones):
            raise ValueError(f"cone index {args.cone} out of range")
        g = blow_up(f, f.max_cones[args.cone])
        with full_int_text():  # u1 + u2 can be one digit longer than u1 and u2
            args.write(json.dumps(fan_to_dict(g)) + "\n")
        return EXIT_OK
    raise AssertionError


def _listable_h0(f: Fan, d) -> int:
    """h0(D), scale-free; ValueError (exit 2) above MAX_LISTED_POINTS."""
    count = h0(f, d)
    if count > MAX_LISTED_POINTS:
        with full_int_text():
            raise ValueError(f"h0 = {count}: P(D) has more lattice points than the {MAX_LISTED_POINTS} that are listed")
    return count


def cmd_h0(args) -> int:
    f = _load_fan(args.fan)
    d = divisor_from_dict(f, load_json(args.divisor))
    try:
        count = _listable_h0(f, d)
    except UnboundedPolytopeError:
        count = None
    with full_int_text():
        payload = {
            "h0": "infinite" if count is None else count,
            "lattice_points": None if count is None else [list(m) for m in lattice_points(d)],
            "polytope_vertices": [format_point(v) for v in polytope_vertices(d)],
        }
        args.write(json.dumps(payload) + "\n")
    return EXIT_OK


def cmd_rr(args) -> int:
    f = _load_fan(args.fan)
    d = divisor_from_dict(f, load_json(args.divisor))
    report = rr_check(f, d)
    with full_int_text():  # the pairing term is quadratic in the coefficients
        args.write(_report_text(report) + "\n")
    return EXIT_OK if report.holds else EXIT_VIOLATION


def cmd_sections(args) -> int:
    """The generators, h0_a and h0_b, and with --vandermonde the
    interpolating section through the points: each coefficient and one
    pass-through flag per point, read off the integer matrix of
    `sections._vandermonde_minors` with no Fraction or TropPolynomial.
    The path is integer from the JSON text on: `_parse_points` reads each
    coordinate as a reduced pair of ints, which the kernel scales by their
    common denominator.

    Coefficient j is minors[j]/s.  Point k's flag says whether the
    maximum of minors[j] + rows[k][j] over j is attained twice: the test
    of `sections.passes_through`, at scale s.  Every flag is true (the
    proof is in the `sections` module docstring), so a false one reports
    a fault in `trop._maximal_minors`; the check costs O(l^2) additions.
    """
    from .sections import _vandermonde_minors, global_sections, h0_a, h0_b

    f = _load_fan(args.fan)
    d = divisor_from_dict(f, load_json(args.divisor))
    _listable_h0(f, d)
    module = global_sections(f, d)
    points = None
    if args.vandermonde is not None:
        points = _parse_points(load_json(args.vandermonde))
    with full_int_text():
        payload = {
            "generators": [list(m) for m in module.generators],
            "h0_a": h0_a(module),
            "h0_b": h0_b(module),
        }
        if points is not None:
            s, rows, minors = _vandermonde_minors(module.generators, points)
            payload["coefficients"] = [format_ratio(m, s) for m in minors]
            values = [[m + r for m, r in zip(minors, row)] for row in rows]
            payload["pass_through"] = [v.count(max(v)) >= 2 for v in values]
        args.write(json.dumps(payload) + "\n")
    return EXIT_OK


# ASCII digits only, as in parse_ratio: \d takes any Unicode digit
_INT_RE = re.compile("-?[0-9]+")
_RANGE_RE = re.compile(rf"({_INT_RE.pattern})\.\.({_INT_RE.pattern})")


def _cli_int(text: str) -> int:
    # the argparse type of every int argument, --range's grammar: int()
    # alone would also read ' 7', '1_0', '+5' and any Unicode digit
    if not _INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer like -3, got {text!r}")
    return int(text)


def _coeff_range(text: str) -> tuple[int, int]:
    # an argparse type: a malformed range is a usage error, exit 1;
    # fullmatch, as $ would also match before a final newline
    match = _RANGE_RE.fullmatch(text)
    if not match:
        raise argparse.ArgumentTypeError(f"range must look like '-3..3', got {text!r}")
    return int(match.group(1)), int(match.group(2))


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


def cmd_sweep(args) -> int:
    f = _load_fan(args.fan)
    lo, hi = args.range
    with full_int_text():
        # both branches read the fan's cycle terms before their first
        # write: ValueError unless smooth and complete, even over an empty
        # range.  A width w >= 2 gives w**17 > SWEEP_EXHAUSTIVE_LIMIT, so
        # capping the exponent at 17 keeps the decision and the power
        # small on any fan
        exponent = min(len(f.rays), SWEEP_EXHAUSTIVE_LIMIT.bit_length())
        if max(hi - lo + 1, 0) ** exponent <= SWEEP_EXHAUSTIVE_LIMIT:
            mode = "exhaustive"
            count, min_defect, violations = _sweep_box(f, range(lo, hi + 1), args.write)
        else:
            mode = "sampled"
            count, min_defect, violations = _sweep_sample(f, args.seed, lo, hi, args.write)
        summary = {
            "summary": {
                "mode": mode,
                "seed": args.seed,
                "count": count,
                "min_defect": min_defect,
                "violations": violations,
            }
        }
        args.write(json.dumps(summary) + "\n")
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


@functools.cache  # built once per process: it costs as much as a small command
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The main parser and its subcommand parsers by name."""
    # SUPPRESS defaults keep a subcommand's unparsed flags from clobbering
    # values already parsed before the subcommand name
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_cli_int, default=argparse.SUPPRESS, help="seed for sampled sweeps")
    common.add_argument("--json-out", metavar="PATH", default=argparse.SUPPRESS, help="also write the JSON output to PATH")

    parser = _Parser(prog="troptoric", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p_fan = sub.add_parser("fan", help="builtin fans, validation, blow-ups", parents=[common])
    fan_sub = p_fan.add_subparsers(dest="fan_cmd", required=True)
    p_builtin = fan_sub.add_parser("builtin", help="emit a builtin fan", parents=[common])
    p_builtin.add_argument("name", help="p2 | p1xp1 | hirzebruch")
    p_builtin.add_argument("param", nargs="?", type=_cli_int, default=None)
    p_validate = fan_sub.add_parser("validate", help="check a fan JSON file", parents=[common])
    p_validate.add_argument("fan")
    p_blowup = fan_sub.add_parser("blowup", help="star-subdivide a maximal cone", parents=[common])
    p_blowup.add_argument("fan")
    p_blowup.add_argument("cone", type=_cli_int)

    p_h0 = sub.add_parser("h0", help="lattice-point count of P(D)", parents=[common])
    p_h0.add_argument("fan")
    p_h0.add_argument("divisor")

    p_rr = sub.add_parser("rr", help="Riemann-Roch inequality report", parents=[common])
    p_rr.add_argument("fan")
    p_rr.add_argument("divisor")

    p_sections = sub.add_parser("sections", help="section module generators", parents=[common])
    p_sections.add_argument("fan")
    p_sections.add_argument("divisor")
    p_sections.add_argument("--vandermonde", metavar="POINTS_JSON")

    p_sweep = sub.add_parser("sweep", help="Riemann-Roch reports over a coefficient range", parents=[common])
    p_sweep.add_argument("fan")
    p_sweep.add_argument("--range", required=True, type=_coeff_range, help="coefficient range, e.g. -3..3")
    return parser, sub.choices


_HANDLERS = {
    "fan": cmd_fan,
    "h0": cmd_h0,
    "rr": cmd_rr,
    "sections": cmd_sections,
    "sweep": cmd_sweep,
}


def _join_range_flag(argv):
    # '--range -3..3' would be read as a flag named '-3..3'; join it eagerly
    out = []
    it = iter(argv)
    for a in it:
        if a == "--range":
            try:
                out.append(f"--range={next(it)}")
                continue
            except StopIteration:
                pass
        out.append(a)
    return out


def _parse_args(argv):
    """The main parser's namespace for argv, parsed by the subcommand's
    own parser when argv starts with a subcommand name: about half the
    work of the main parser, which hands that parser the same arguments.
    Anything else, and anything that parser leaves over, goes to the main
    parser, which writes the usage errors."""
    argv = _join_range_flag(argv)
    parser, subparsers = _parsers()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


class _Output:
    """The sink a handler writes its output through: stdout, looked up at
    each write, and the --json-out file, if a path is given, opened on
    the first write.  An error on the file is kept, not raised, so that
    stdout is still written whole; `main` reports it after the handler."""

    def __init__(self, path):
        self.path = path
        self.file = None
        self.error = None

    def write(self, text: str) -> None:
        sys.stdout.write(text)
        if not self.path or self.error is not None:
            return
        try:
            if self.file is None:
                self.file = open(self.path, "w", encoding="utf-8")
            self.file.write(text)
        except OSError as exc:
            self.error = exc

    def close(self) -> None:
        if self.file is not None:
            try:
                self.file.close()
            except OSError as exc:
                self.error = self.error or exc


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    Each subcommand is one handler in `_HANDLERS`, called with the parsed
    namespace alone.  `main` puts the output sink on it as ``args.write``:
    each call writes its text to stdout, looked up at the call, and to the
    --json-out file, opened at the first call.  A handler writes its whole
    output through ``args.write``, newlines included, and returns its exit
    code.  It raises every ParseError and ValueError before its first
    write, so a refused command leaves stdout empty and makes no
    --json-out file.  A sweep writes as it goes, SWEEP_CHUNK_LINES lines
    at a time, so its memory does not grow with its output; a sweep that
    stops early, on a closed stdout or an internal error, leaves in the
    --json-out file the whole lines written so far and no summary line.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    args.seed = getattr(args, "seed", DEFAULT_SEED)
    args.json_out = getattr(args, "json_out", None)
    out = _Output(args.json_out)
    args.write = out.write
    try:
        code = _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"troptoric: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"troptoric: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    finally:
        out.close()
    if out.error is not None:
        print(f"troptoric: cannot write --json-out: {out.error}", file=sys.stderr)
        return EXIT_PARSE
    return code


def run(argv=None) -> int:
    """The console entry point: ``main``, with any exception it lets
    through (a bug, never malformed input) printed with its traceback and
    reported as exit 4, apart from 1, the code for parse errors.  A
    reader that closes stdout early (``| head``) is no error: the exit is
    141, as for a process that SIGPIPE ends, with nothing on stderr."""
    try:
        code = main(argv)
        sys.stdout.flush()  # so a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # fd 1 goes to devnull, so the flush at interpreter exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except Exception as exc:
        sys.excepthook(type(exc), exc, exc.__traceback__)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(run())
