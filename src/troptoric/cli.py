"""troptoric: scriptable JSON frontend for the tropical toric toolkit.

Subcommands: fan (builtin / validate / blowup), h0, rr, sections, sweep.
A handler parses its files, calls the library (a sweep: `intersect.sweep`)
and writes its JSON.  Output is deterministic for identical inputs and
--seed; rationals are emitted as 'p/q' strings, integers as JSON numbers.

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
import json
import os
import re
import sys

from .divisor import UnboundedPolytopeError, divisor_from_dict, h0, lattice_points, polytope_vertices
from .fan import Fan, blow_up, fan_from_dict, fan_to_dict, hirzebruch, is_smooth, product_p1_p1, projective_plane
from .intersect import _report_text, rr_check, sweep
from .jsonutil import ParseError, format_point, format_ratio, full_int_text, load_json, parse_ratio

DEFAULT_SEED = 314159
EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_VIOLATION = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE

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
    # alone would also read ' 7', '1_0', '+5' and any Unicode digit, and
    # past the interpreter's digit limit it raises a bare ValueError,
    # which argparse would report by this function's name
    if not _INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer like -3, got {text!r}")
    try:
        return int(text)
    except ValueError:
        n, limit = len(text.lstrip("-")), sys.get_int_max_str_digits()
        raise argparse.ArgumentTypeError(f"an integer of {n} digits is past the limit of {limit} digits") from None


def _coeff_range(text: str) -> tuple[int, int]:
    # an argparse type: a malformed range is a usage error, exit 1;
    # fullmatch, as $ would also match before a final newline
    match = _RANGE_RE.fullmatch(text)
    if not match:
        raise argparse.ArgumentTypeError(f"range must look like '-3..3', got {text!r}")
    return _cli_int(match.group(1)), _cli_int(match.group(2))


def cmd_sweep(args) -> int:
    f = _load_fan(args.fan)
    lo, hi = args.range
    with full_int_text():
        mode, count, min_defect, violations = sweep(f, lo, hi, args.seed, args.write)
        summary = {"mode": mode, "seed": args.seed, "count": count, "min_defect": min_defect, "violations": violations}
        args.write(json.dumps({"summary": summary}) + "\n")
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
    --json-out file.  A sweep writes as it goes, in chunks of
    `intersect.SWEEP_CHUNK_LINES` lines, so its memory does not grow with its output; a sweep that
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
