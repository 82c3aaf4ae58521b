"""troptoric: scriptable JSON frontend for the tropical toric toolkit.

Subcommands: fan (builtin / validate / blowup), h0, rr, sections, sweep.
Output is deterministic for identical inputs and --seed; rationals are
emitted as 'p/q' strings, integers as JSON numbers.

Exit codes: 0 success, 1 parse error, 2 precondition violation,
3 Riemann-Roch inequality violation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import sys

from .divisor import ToricDivisor, divisor_from_dict, h0, lattice_points, polytope
from .fan import Fan, blow_up, fan_from_dict, fan_to_dict, hirzebruch, is_smooth, product_p1_p1, projective_plane
from .intersect import rr_check
from .jsonutil import ParseError, format_rational, parse_rational
from .sections import global_sections, h0_a, h0_b, passes_through, vandermonde_section

DEFAULT_SEED = 314159
EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_VIOLATION = 3

SWEEP_EXHAUSTIVE_LIMIT = 100_000
SWEEP_SAMPLE_SIZE = 10_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; our convention reserves 2 for
    # precondition violations, so usage problems are parse errors (1)
    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_fan(path: str) -> Fan:
    return fan_from_dict(_load_json(path))


def _builtin_fan(name: str, param):
    key = name.lower()
    if key in ("p2", "projective_plane"):
        return projective_plane()
    if key in ("p1xp1", "product_p1_p1"):
        return product_p1_p1()
    if key == "hirzebruch":
        if param is None:
            raise ValueError("hirzebruch needs a parameter, e.g. 'fan builtin hirzebruch 2'")
        return hirzebruch(param)
    raise ValueError(f"unknown builtin fan {name!r}")


def _pt_json(p):
    return [format_rational(p[0]), format_rational(p[1])]


def _parse_points(raw) -> list:
    if not isinstance(raw, list):
        raise ParseError("points must be a JSON list of [x, y] pairs")
    points = []
    for p in raw:
        if not isinstance(p, list) or len(p) != 2:
            raise ParseError(f"a point must be a pair [x, y], got {p!r}")
        try:
            points.append((parse_rational(p[0]), parse_rational(p[1])))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return points


def cmd_fan(args) -> tuple[list[str], int]:
    if args.fan_cmd == "builtin":
        f = _builtin_fan(args.name, args.param)
        return [json.dumps(fan_to_dict(f))], EXIT_OK
    if args.fan_cmd == "validate":
        data = _load_json(args.fan)  # malformed JSON propagates as a parse error
        try:
            f = fan_from_dict(data)
        except ValueError as exc:
            return [json.dumps({"valid": False, "error": str(exc)})], EXIT_PRECONDITION
        offending = None
        for i, c in enumerate(f.max_cones):
            if not is_smooth(c):
                offending = i
                break
        report = {
            "valid": True,
            "smooth": f.smooth,
            "complete": f.complete,
            "offending_cone": offending,
        }
        return [json.dumps(report)], EXIT_OK
    if args.fan_cmd == "blowup":
        f = _load_fan(args.fan)
        if not 0 <= args.cone < len(f.max_cones):
            raise ValueError(f"cone index {args.cone} out of range")
        g = blow_up(f, f.max_cones[args.cone])
        return [json.dumps(fan_to_dict(g))], EXIT_OK
    raise AssertionError


def cmd_h0(args) -> tuple[list[str], int]:
    f = _load_fan(args.fan)
    d = divisor_from_dict(f, _load_json(args.divisor))
    value = h0(f, d)
    p = polytope(d)
    payload = {
        "h0": value.to_json(),
        "lattice_points": [list(m) for m in lattice_points(p)] if value.is_finite else None,
        "polytope_vertices": [_pt_json(v) for v in p.vertices],
    }
    return [json.dumps(payload)], EXIT_OK


def cmd_rr(args) -> tuple[list[str], int]:
    f = _load_fan(args.fan)
    d = divisor_from_dict(f, _load_json(args.divisor))
    report = rr_check(f, d)
    return [json.dumps(report.to_dict())], EXIT_OK if report.holds else EXIT_VIOLATION


def cmd_sections(args) -> tuple[list[str], int]:
    f = _load_fan(args.fan)
    d = divisor_from_dict(f, _load_json(args.divisor))
    module = global_sections(f, d)
    payload = {
        "generators": [list(m) for m in module.generators],
        "h0_a": h0_a(module),
        "h0_b": h0_b(module),
    }
    if args.vandermonde is not None:
        points = _parse_points(_load_json(args.vandermonde))
        section = vandermonde_section(module, points)
        payload["coefficients"] = [
            format_rational(section.coeff(m).value) for m in module.generators
        ]
        payload["pass_through"] = [bool(passes_through(section, p)) for p in points]
    return [json.dumps(payload)], EXIT_OK


_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _coeff_range(text: str) -> tuple[int, int]:
    # an argparse type: a malformed range is a usage error, exit 1
    match = _RANGE_RE.match(text)
    if not match:
        raise argparse.ArgumentTypeError(f"range must look like '-3..3', got {text!r}")
    return int(match.group(1)), int(match.group(2))


def cmd_sweep(args) -> tuple[list[str], int]:
    f = _load_fan(args.fan)
    lo, hi = args.range
    r = len(f.rays)
    width = hi - lo + 1
    count = width**r if width > 0 else 0
    lines = []
    min_defect = None
    violations = 0
    emitted = 0
    if 0 < count <= SWEEP_EXHAUSTIVE_LIMIT:
        mode = "exhaustive"
        coeff_iter = itertools.product(range(lo, hi + 1), repeat=r)
    elif count == 0:
        mode = "exhaustive"
        coeff_iter = iter(())
    else:
        mode = "sampled"
        rng = random.Random(args.seed)
        coeff_iter = (
            tuple(rng.randint(lo, hi) for _ in range(r))
            for _ in range(SWEEP_SAMPLE_SIZE)
        )
    for coeffs in coeff_iter:
        report = rr_check(f, ToricDivisor(f, coeffs))
        if min_defect is None or report.defect < min_defect:
            min_defect = report.defect
        if not report.holds:
            violations += 1
        lines.append(
            json.dumps({"index": emitted, "coeffs": list(coeffs), "report": report.to_dict()})
        )
        emitted += 1
    summary = {
        "summary": {
            "mode": mode,
            "seed": args.seed,
            "count": emitted,
            "min_defect": None if min_defect is None else format_rational(min_defect),
            "violations": violations,
        }
    }
    lines.append(json.dumps(summary))
    return lines, EXIT_OK if violations == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS defaults keep a subcommand's unparsed flags from clobbering
    # values already parsed before the subcommand name
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="seed for sampled sweeps")
    common.add_argument("--json-out", metavar="PATH", default=argparse.SUPPRESS, help="also write the JSON output to PATH")
    common.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS, help="print convention notes to stderr")

    parser = _Parser(prog="troptoric", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p_fan = sub.add_parser("fan", help="builtin fans, validation, blow-ups", parents=[common])
    fan_sub = p_fan.add_subparsers(dest="fan_cmd", required=True)
    p_builtin = fan_sub.add_parser("builtin", help="emit a builtin fan", parents=[common])
    p_builtin.add_argument("name", help="p2 | p1xp1 | hirzebruch")
    p_builtin.add_argument("param", nargs="?", type=int, default=None)
    p_validate = fan_sub.add_parser("validate", help="check a fan JSON file", parents=[common])
    p_validate.add_argument("fan")
    p_blowup = fan_sub.add_parser("blowup", help="star-subdivide a maximal cone", parents=[common])
    p_blowup.add_argument("fan")
    p_blowup.add_argument("cone", type=int)

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
    return parser


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


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_join_range_flag(argv))
    args.seed = getattr(args, "seed", None)
    if args.seed is None:
        args.seed = int(os.environ.get("TROPTORIC_SEED", DEFAULT_SEED))
    args.json_out = getattr(args, "json_out", None)
    args.verbose = getattr(args, "verbose", False)
    if args.verbose:
        print(
            "note: weighted complexes are balanced with the vector convention "
            "sum_i w(F_i) v_i = 0 at every vertex",
            file=sys.stderr,
        )
    try:
        lines, code = _HANDLERS[args.command](args)
    # OSError covers a missing, unreadable or directory input file;
    # UnicodeDecodeError is a ValueError, named so that it exits 1, not 2
    except (ParseError, json.JSONDecodeError, OSError, UnicodeDecodeError, KeyError, TypeError) as exc:
        print(f"troptoric: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"troptoric: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    text = "\n".join(lines)
    print(text)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
