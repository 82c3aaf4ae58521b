"""A seeded boundary fuzzer for the CLI, run in process through `cli.run`.

Each case mutates the structure of a valid fan, divisor or point file (a
value replaced by one of another type, an entry dropped, duplicated or
swapped, a key added) and runs one of `fan validate`, `fan blowup`, `h0`,
`rr`, `sections`, `sections --vandermonde` and `sweep` on it; sweeps run
over small boxes, so that they take the exhaustive path.  A Vandermonde
case on a divisor with h0 >= 2 draws exactly h0 - 1 points, so that an
unmutated one interpolates.  No case may end in exit 4, an internal
error, and on exit 0 stdout must be the library's own answer for the same
files.  Coefficients stay far below Python's digit limit.
"""

import copy
import itertools
import json
import random

import pytest

from troptoric import cli
from troptoric.divisor import ToricDivisor, UnboundedPolytopeError, divisor_from_dict, h0, lattice_points, polytope
from troptoric.fan import blow_up, fan_from_dict, fan_to_dict, hirzebruch, is_smooth, projective_plane
from troptoric.intersect import rr_check
from troptoric.jsonutil import format_rational, parse_rational
from troptoric.sections import global_sections, h0_a, h0_b, passes_through, vandermonde_section

CASES = 300


def _fans():
    p2 = projective_plane()
    b1 = blow_up(p2, p2.max_cones[0])
    b2 = blow_up(b1, b1.max_cones[1])
    return [
        fan_to_dict(p2),
        fan_to_dict(b2),
        fan_to_dict(hirzebruch(0)),
        fan_to_dict(hirzebruch(2)),
        {"rays": [[1, 0], [-1, 0]], "max_cones": [[0], [1]]},  # a line: P(D) unbounded
        {"rays": [[1, 0], [0, 1], [-1, -2]], "max_cones": [[0, 1], [1, 2], [2, 0]]},  # not smooth
    ]


FANS = _fans()
POINTS = [[0, 0], ["1/2", 3], [-2, "5/3"], [4, -1], ["-7/2", "-1/4"], [1, 1], [3, "2/5"], ["-1/3", 6], [5, -3]]


def random_points(rng, count):
    """``count`` points, each of one of three kinds: rational (denominators
    up to 7), tie-dense small integers, or a copy of an earlier point."""
    points = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 2 and points:
            points.append(list(rng.choice(points)))
        elif kind == 1:
            points.append([rng.randint(-2, 2), rng.randint(-2, 2)])
        else:
            points.append([f"{rng.randint(-30, 30)}/{rng.randint(1, 7)}" for _ in range(2)])
    return points


def section_count(fan_data, divisor_data):
    """h0 of a valid divisor on a valid fan, else None."""
    try:
        f = fan_from_dict(fan_data)
        return h0(f, divisor_from_dict(f, divisor_data))
    except ValueError:
        return None


def random_value(rng):
    return rng.choice(
        [
            rng.randint(-6, 6),
            rng.randint(-10**30, 10**30),
            True,
            None,
            1.5,
            "x",
            "1/2",
            "-3",
            [],
            {},
            [rng.randint(-3, 3), rng.randint(-3, 3)],
            [[0, 1]],
        ]
    )


def mutate(rng, value):
    """``value`` with one structural change somewhere inside it."""
    value = copy.deepcopy(value)
    holder, key = None, None
    node = value
    # walk down to a random container or leaf
    while isinstance(node, (list, dict)) and node and rng.random() < 0.7:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        holder, key = node, rng.choice(keys)
        node = holder[key]
    if holder is None:
        return random_value(rng) if rng.random() < 0.3 else value
    kind = rng.randrange(5)
    if kind == 0:
        holder[key] = random_value(rng)
    elif kind == 1:
        del holder[key]
    elif kind == 2 and isinstance(holder, list):
        holder.insert(key, copy.deepcopy(holder[key]))
    elif kind == 3 and isinstance(holder, list) and len(holder) > 1:
        other = rng.randrange(len(holder))
        holder[key], holder[other] = holder[other], holder[key]
    elif isinstance(holder, dict):
        holder[rng.choice(["extra", "9", str(rng.randint(0, 6))])] = random_value(rng)
    elif isinstance(node, int) and not isinstance(node, bool):
        holder[key] = node + rng.choice([-1, 1])
    return value


def random_divisor(rng, fan_data):
    n = len(fan_data["rays"]) if isinstance(fan_data, dict) and isinstance(fan_data.get("rays"), list) else 3
    return {"coeffs": {str(i): rng.randint(-4, 6) for i in range(n)}}


def expected_output(argv, files):
    """The library's answer for a CLI call that exited 0: its stdout."""
    command = argv[0]
    if command == "fan":
        f = fan_from_dict(files["fan"])
        if argv[1] == "validate":
            offending = next((i for i, c in enumerate(f.max_cones) if not is_smooth(c)), None)
            report = {"valid": True, "smooth": f.smooth, "complete": f.complete, "offending_cone": offending}
            return json.dumps(report) + "\n"
        return json.dumps(fan_to_dict(blow_up(f, f.max_cones[int(argv[3])]))) + "\n"
    f = fan_from_dict(files["fan"])
    d = divisor_from_dict(f, files["divisor"])
    if command == "rr":
        return json.dumps(rr_check(f, d).to_dict()) + "\n"
    if command == "h0":
        p = polytope(d)
        try:
            count = h0(f, d)
        except UnboundedPolytopeError:
            count = None
        payload = {
            "h0": "infinite" if count is None else count,
            "lattice_points": None if count is None else [list(m) for m in lattice_points(p)],
            "polytope_vertices": [[format_rational(x), format_rational(y)] for x, y in p.vertices],
        }
        return json.dumps(payload) + "\n"
    module = global_sections(f, d)
    payload = {"generators": [list(m) for m in module.generators], "h0_a": h0_a(module), "h0_b": h0_b(module)}
    if "points" in files:
        points = [(parse_rational(x), parse_rational(y)) for x, y in files["points"]]
        section = vandermonde_section(module, points)
        payload["coefficients"] = [format_rational(section.coeff(m)) for m in module.generators]
        payload["pass_through"] = [bool(passes_through(section, p)) for p in points]
    return json.dumps(payload) + "\n"


def check_sweep(out, files, lo, hi):
    f = fan_from_dict(files["fan"])
    lines = out.splitlines()
    summary = json.loads(lines[-1])["summary"]
    records = [json.loads(line) for line in lines[:-1]]
    assert summary["count"] == len(records)
    if summary["mode"] == "exhaustive":
        box = itertools.product(range(lo, hi + 1), repeat=len(f.rays))
        assert [tuple(rec["coeffs"]) for rec in records] == list(box)
    defects = []
    for index, rec in enumerate(records):
        report = rr_check(f, ToricDivisor(f, tuple(rec["coeffs"])))
        assert rec == {"index": index, "coeffs": rec["coeffs"], "report": report.to_dict()}
        defects.append(report.defect)
    assert summary["violations"] == 0
    assert summary["min_defect"] == (min(defects) if defects else None)


def make_case(rng, k):
    fan_data = rng.choice(FANS)
    command = ["validate", "blowup", "h0", "rr", "sections", "vandermonde", "sweep"][k % 7]
    files = {"fan": fan_data}
    if command in ("h0", "rr", "sections", "vandermonde"):
        files["divisor"] = random_divisor(rng, fan_data)
    if command == "vandermonde":
        count = section_count(fan_data, files["divisor"])
        if count is not None and count >= 2:
            files["points"] = random_points(rng, count - 1)
        else:
            files["points"] = POINTS[: rng.randint(0, 9)]
    # mutate one file, or none, so that the valid paths stay covered
    target = rng.choice(list(files) + [None])
    if target is not None:
        files[target] = mutate(rng, files[target])
    return command, files


def run_case(tmp_path, capsys, rng, command, files):
    paths = {}
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    lo = hi = None
    if command == "validate":
        argv = ["fan", "validate", paths["fan"]]
    elif command == "blowup":
        argv = ["fan", "blowup", paths["fan"], str(rng.randint(-1, 5))]
    elif command == "sweep":
        lo = rng.randint(-3, 2)
        hi = lo + rng.randint(-1, 2)
        argv = ["sweep", paths["fan"], f"--range={lo}..{hi}"]
    elif command == "vandermonde":
        argv = ["sections", paths["fan"], paths["divisor"], "--vandermonde", paths["points"]]
    else:
        argv = [command, paths["fan"], paths["divisor"]]
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code != cli.EXIT_INTERNAL, (argv, files, captured.err)
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_PRECONDITION), (argv, files, captured.err)
    if code == cli.EXIT_OK:
        if command == "sweep":
            check_sweep(captured.out, files, lo, hi)
        else:
            assert captured.out == expected_output(argv, files), (argv, files)
    return code


@pytest.mark.parametrize("seed", [1, 2])
def test_cli_boundary_fuzz(tmp_path, capsys, seed):
    # a few hundred seeded cases, none an internal error, every exit-0
    # output the library's answer; every command and exit 0, 1 and 2 occur
    rng = random.Random(seed)
    seen = set()
    for k in range(CASES // 2):
        command, files = make_case(rng, k)
        seen.add((command, run_case(tmp_path, capsys, rng, command, files)))
    assert {code for _, code in seen} == {0, 1, 2}
    commands = {"validate", "blowup", "h0", "rr", "sections", "vandermonde", "sweep"}
    assert {command for command, code in seen if code == 0} == commands
