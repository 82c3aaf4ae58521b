import collections
import contextlib
import fractions
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from oracles import random_blowup_fan, random_divisor, rr_oracle, vandermonde_oracle
from troptoric import cli
from troptoric import divisor as divisor_module
from troptoric.cli import main
from troptoric.divisor import ToricDivisor, h0
from troptoric.fan import blow_up, fan_from_dict, fan_to_dict, hirzebruch, product_p1_p1, projective_plane
from troptoric.intersect import RRReport, rr_check
from troptoric.jsonutil import full_int_text
from troptoric.sections import global_sections, passes_through


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return str(path)


P2 = {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]}


def test_fan_builtin(capsys):
    code, out = run(capsys, "fan", "builtin", "p2")
    assert code == 0
    assert json.loads(out) == P2
    code, out = run(capsys, "fan", "builtin", "hirzebruch", "2")
    assert code == 0
    assert json.loads(out)["rays"] == [[1, 0], [0, 1], [-1, 2], [0, -1]]
    # a fan that takes no parameter refuses one, as hirzebruch refuses none
    for argv in (["p2", "5"], ["p1xp1", "7"], ["projective_plane", "0"], ["hirzebruch"]):
        assert main(["fan", "builtin", *argv]) == cli.EXIT_PRECONDITION == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("troptoric: ")


def test_fan_round_trip(capsys, tmp_path):
    code, out = run(capsys, "fan", "builtin", "p1xp1")
    path = write(tmp_path, "fan.json", out.strip())
    code, out2 = run(capsys, "fan", "validate", path)
    assert code == 0 and json.loads(out2)["valid"] is True
    # emitted fans are accepted back unchanged
    code, out3 = run(capsys, "fan", "blowup", path, "0")
    assert code == 0
    blown = json.loads(out3)
    assert len(blown["rays"]) == 5
    blown_path = write(tmp_path, "blown.json", blown)
    code, out4 = run(capsys, "fan", "validate", blown_path)
    assert code == 0 and json.loads(out4)["valid"] is True


def test_fan_validate_nonsmooth(capsys, tmp_path):
    fan = {"rays": [[1, 0], [1, 2], [0, 1]], "max_cones": [[0, 1], [1, 2]]}
    path = write(tmp_path, "fan.json", fan)
    code, out = run(capsys, "fan", "validate", path)
    report = json.loads(out)
    assert code == 0
    assert report["smooth"] is False and report["offending_cone"] == 0
    assert report["complete"] is False


def test_fan_validate_invalid_structure(capsys, tmp_path):
    cases = [
        # (1,1) lies strictly inside the first cone
        ([[1, 0], [0, 1], [1, 1]], [[0, 1], [0, 2]], "cones 0 and 1 do not intersect in a common face"),
        # a 1-cone on a 2-cone's ray
        ([[1, 0], [0, 1]], [[0, 1], [0]], "cones 0 and 1 do not intersect in a common face"),
        ([[1, 0]], [[0], []], "the origin cone is redundant beside other cones"),
    ]
    for rays, cones, error in cases:
        path = write(tmp_path, "fan.json", {"rays": rays, "max_cones": cones})
        code, out = run(capsys, "fan", "validate", path)
        assert code == 2
        assert out == json.dumps({"valid": False, "error": error}) + "\n"


def test_fan_validate_bool_rays_exit_1(capsys, tmp_path):
    fan = {"rays": [[True, 0], [0, True], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]}
    path = write(tmp_path, "fan.json", fan)
    assert run(capsys, "fan", "validate", path)[0] == 1


@pytest.mark.parametrize(
    "cones",
    [
        [[False, True], [True, 2], [2, False]],  # booleans as ray indices
        ["01", "12", "20"],  # strings as cones
        {"0": [0, 1], "1": [1, 2], "2": [2, 0]},  # an object, not a list
    ],
)
def test_fan_validate_malformed_cones_exit_1(capsys, tmp_path, cones):
    path = write(tmp_path, "fan.json", {"rays": P2["rays"], "max_cones": cones})
    assert run(capsys, "fan", "validate", path)[0] == 1


@pytest.mark.parametrize(
    "rays",
    [
        [[1, 0, 0], [0, 1], [-1, -1]],  # three coordinates
        [[1], [0, 1], [-1, -1]],  # one coordinate
        [10, [0, 1], [-1, -1]],  # a number, not a pair
        {"a": 1},  # an object, not a list
    ],
)
def test_fan_validate_malformed_rays_exit_1(capsys, tmp_path, rays):
    path = write(tmp_path, "fan.json", {"rays": rays, "max_cones": P2["max_cones"]})
    assert run(capsys, "fan", "validate", path)[0] == 1


def test_parse_error_exit_code(capsys, tmp_path):
    path = write(tmp_path, "bad.json", "{nope")
    assert run(capsys, "fan", "validate", path)[0] == 1
    assert run(capsys, "h0", path, path)[0] == 1
    # a directory given as an input file
    assert run(capsys, "fan", "validate", str(tmp_path))[0] == 1
    assert run(capsys, "h0", str(tmp_path), str(tmp_path))[0] == 1
    # a file that is not valid UTF-8
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'\xff\xfe{"rays": []}')
    assert run(capsys, "fan", "validate", str(binary))[0] == 1
    assert run(capsys, "h0", str(binary), str(binary))[0] == 1
    # an integer past the interpreter's digit limit, and nesting past its
    # recursion limit: json.load raises ValueError and RecursionError
    bad = ["[" * 100_000 + "]" * 100_000]
    if hasattr(sys, "get_int_max_str_digits"):
        bad.append('{"rays": [[1, 0], [0, ' + "7" * 5_000 + ']], "max_cones": [[0, 1]]}')
    for text in bad:
        path = write(tmp_path, "bad.json", text)
        code = main(["fan", "validate", path])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("troptoric: parse error: ")


@pytest.mark.parametrize(
    "fan, divisor, key",
    [
        ([[1, 0], [0, 1], [-1, -1]], None, "rays"),  # a list, not an object
        ({"max_cones": P2["max_cones"]}, None, "rays"),
        ({"rays": P2["rays"]}, None, "max_cones"),
        (P2, [0, 0, 1], "coeffs"),
        (P2, {"coefs": {"0": 0, "1": 0, "2": 1}}, "coeffs"),
    ],
)
def test_missing_key_exit_1(capsys, tmp_path, fan, divisor, key):
    fan_path = write(tmp_path, "fan.json", fan)
    div_path = write(tmp_path, "d.json", divisor or {"coeffs": {"0": 0, "1": 0, "2": 1}})
    runs = [["h0", fan_path, div_path]] + ([["fan", "validate", fan_path]] if divisor is None else [])
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("troptoric: parse error: ") and repr(key) in captured.err


def test_internal_key_error_propagates(tmp_path, monkeypatch):
    # a KeyError or TypeError from inside the library is a bug, not
    # malformed input
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 1}})
    for error in (KeyError, TypeError):

        def broken(args, error=error):
            raise error("internal")

        monkeypatch.setitem(cli._HANDLERS, "rr", broken)
        with pytest.raises(error):
            main(["rr", fan_path, div_path])


def test_run_exits_4_on_internal_error(capsys, tmp_path, monkeypatch):
    # the console entry point: a bug exits 4 with its traceback, apart
    # from exit 1 for malformed input, which run passes through
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 1}})
    bad_path = write(tmp_path, "bad.json", "{nope")
    assert cli.run(["rr", fan_path, div_path]) == 0
    assert cli.run(["fan", "validate", bad_path]) == 1
    capsys.readouterr()

    def broken(args):
        raise TypeError("internal")

    monkeypatch.setitem(cli._HANDLERS, "rr", broken)
    assert cli.run(["rr", fan_path, div_path]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "TypeError: internal" in captured.err


def test_h0_command(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 2}})
    code, out = run(capsys, "h0", fan_path, div_path)
    payload = json.loads(out)
    assert code == 0
    assert payload["h0"] == 6 and len(payload["lattice_points"]) == 6
    assert payload["lattice_points"] == [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]]
    k_path = write(tmp_path, "k.json", {"coeffs": {"0": -1, "1": -1, "2": -1}})
    code, out = run(capsys, "h0", fan_path, k_path)
    payload = json.loads(out)
    assert payload["h0"] == 0 and payload["lattice_points"] == []


@pytest.mark.parametrize(
    "coeffs",
    [
        {"0": True, "1": 0, "2": 1},  # boolean coefficient
        {"0": 1.5, "1": 0, "2": 1},  # float coefficient
        [1, 0, 1],  # not an object
        {"0": 1, "1": 0},  # missing ray index
        {"0": 1, "1": 0, "2": 0, "3": 9},  # unknown ray index
    ],
)
def test_h0_malformed_coeffs_exit_1(capsys, tmp_path, coeffs):
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": coeffs})
    assert run(capsys, "h0", fan_path, div_path)[0] == 1


def test_h0_infinite(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", {"rays": [[1, 0]], "max_cones": [[0]]})
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0}})
    code, out = run(capsys, "h0", fan_path, div_path)
    payload = json.loads(out)
    assert code == 0 and payload["h0"] == "infinite" and payload["lattice_points"] is None
    line_path = write(tmp_path, "line.json", {"rays": [[1, 0], [-1, 0]], "max_cones": [[0], [1]]})
    div_path = write(tmp_path, "d0.json", {"coeffs": {"0": 0, "1": 0}})
    code, out = run(capsys, "h0", line_path, div_path)
    assert code == 0
    assert out == '{"h0": "infinite", "lattice_points": null, "polytope_vertices": []}\n'
    div_path = write(tmp_path, "d1.json", {"coeffs": {"0": -1, "1": -1}})
    code, out = run(capsys, "h0", line_path, div_path)
    assert code == 0
    assert out == '{"h0": 0, "lattice_points": [], "polytope_vertices": []}\n'


B2 = {"rays": [[1, 0], [0, 1], [-1, -1], [1, 1], [1, 2]], "max_cones": [[0, 3], [3, 4], [4, 1], [1, 2], [2, 0]]}
F2 = {"rays": [[1, 0], [0, 1], [-1, 2], [0, -1]], "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}


@pytest.mark.parametrize(
    "fan, coeffs, expected",
    [
        (P2, [0, 0, 3], '{"h0": 10, "lattice_points": [[0, 0], [1, 0], [2, 0], [3, 0], [0, 1], [1, 1], [2, 1], '
         '[0, 2], [1, 2], [0, 3]], "polytope_vertices": [[0, 0], [0, 3], [3, 0]]}'),
        (F2, [2, -1, 3, 1], '{"h0": 8, "lattice_points": [[-2, 1], [-1, 1], [0, 1], [1, 1], [2, 1], [3, 1], '
         '[4, 1], [5, 1]], "polytope_vertices": [[-2, 1], [5, 1]]}'),
        # P^2 blown up at cone 0, then at cone 1 of the result
        (B2, [2, -1, 3, 0, 1], '{"h0": 14, "lattice_points": [[-1, 1], [0, 1], [1, 1], [2, 1], [-2, 2], [-1, 2], '
         '[0, 2], [1, 2], [-2, 3], [-1, 3], [0, 3], [-2, 4], [-1, 4], [-2, 5]], '
         '"polytope_vertices": [[-2, 2], [-2, 5], [-1, 1], [2, 1]]}'),
        # one 2-cone: P(D) is a quadrant with one vertex
        ({"rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}, [2, -1],
         '{"h0": "infinite", "lattice_points": null, "polytope_vertices": [[-2, 1]]}'),
        # a rational vertex, written as "p/q"
        (F2, [-2, -1, -1, 2], '{"h0": 2, "lattice_points": [[2, 2], [3, 2]], '
         '"polytope_vertices": [[2, "3/2"], [2, 2], [3, 2]]}'),
    ],
)
def test_h0_output_bytes_pinned(capsys, tmp_path, fan, coeffs, expected):
    fan_path = write(tmp_path, "fan.json", fan)
    div_path = write(tmp_path, "d.json", {"coeffs": {str(i): c for i, c in enumerate(coeffs)}})
    assert run(capsys, "h0", fan_path, div_path) == (0, expected + "\n")


def test_h0_nonsmooth_exit_2(capsys, tmp_path):
    fan = {"rays": [[1, 0], [1, 2], [-1, 0], [0, -1]], "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    fan_path = write(tmp_path, "fan.json", fan)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 0, "3": 0}})
    code = main(["h0", fan_path, div_path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("troptoric: ") and "smooth" in captured.err
    # sections counts P(D) before it lists it, so it gives h0's message
    assert main(["sections", fan_path, div_path]) == 2
    assert capsys.readouterr() == captured


@pytest.mark.parametrize("command", ["h0", "sections"])
def test_h0_above_the_listing_limit_exit_2(capsys, tmp_path, monkeypatch, command):
    # 10^5*H on P^2: h0 = (10^5 + 1)(10^5 + 2)/2 by floor sums, with no
    # point listed; a row walk fails the test at once instead of listing
    # 5*10^9 points until the host runs out of memory
    monkeypatch.setattr(divisor_module, "_rows", lambda plan, a: pytest.fail("P(D) was walked"))
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 10**5}})
    start = time.perf_counter()
    code = main([command, fan_path, div_path])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured
    assert "5000150001" in captured.err and str(cli.MAX_LISTED_POINTS) in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["h0", "sections"])
def test_listing_limit_is_inclusive(capsys, tmp_path, monkeypatch, command):
    # 3H has 10 points, listed at a limit of 10; 4H has 15, above it
    monkeypatch.setattr(cli, "MAX_LISTED_POINTS", 10)
    fan_path = write(tmp_path, "fan.json", P2)
    three = write(tmp_path, "3h.json", {"coeffs": {"0": 0, "1": 0, "2": 3}})
    four = write(tmp_path, "4h.json", {"coeffs": {"0": 0, "1": 0, "2": 4}})
    code, out = run(capsys, command, fan_path, three)
    listed = json.loads(out)["lattice_points" if command == "h0" else "generators"]
    assert code == 0 and len(listed) == 10
    assert main([command, fan_path, four]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "15" in captured.err and "10" in captured.err


# a 3,001-digit coefficient parses within the interpreter's digit limit,
# but the pairing term and h0 of N*H on P^2 have about 6,000 digits
HUGE = int("1" * 3001)


def test_rr_writes_ints_past_the_digit_limit(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", f'{{"coeffs": {{"0": 0, "1": 0, "2": {HUGE}}}}}')
    code = main(["rr", fan_path, div_path])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    with full_int_text():
        report = json.loads(captured.out)
    pairing_term = HUGE * (HUGE + 3) // 2  # (N*H).(N*H - K) = N^2 + 3N
    assert report == {
        "h0_D": (HUGE + 1) * (HUGE + 2) // 2,
        "h0_K_minus_D": 0,
        "euler": 1,
        "pairing_term": pairing_term,
        "rhs": pairing_term + 1,
        "defect": 0,
        "holds": True,
    }
    if hasattr(sys, "get_int_max_str_digits"):  # the limit is back once the report is written
        with pytest.raises(ValueError):
            str(pairing_term)


@pytest.mark.parametrize("command", ["h0", "sections"])
def test_listing_limit_message_writes_h0_past_the_digit_limit(capsys, tmp_path, command):
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", f'{{"coeffs": {{"0": 0, "1": 0, "2": {HUGE}}}}}')
    code = main([command, fan_path, div_path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    with full_int_text():
        assert captured.err.startswith(f"troptoric: h0 = {(HUGE + 1) * (HUGE + 2) // 2}: P(D) has more")


def test_rr_command(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 1}})
    code, out = run(capsys, "rr", fan_path, div_path)
    report = json.loads(out)
    assert code == 0
    assert report["h0_D"] == 3 and report["h0_K_minus_D"] == 0
    assert report["rhs"] == 3 and report["defect"] == 0 and report["holds"] is True


def test_rr_and_sweep_write_the_same_report(capsys, tmp_path):
    # rr and an exhaustive sweep write a report through the same writer
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 3, "1": 3, "2": 3}})
    code, report = run(capsys, "rr", fan_path, div_path)
    assert code == 0 and json.loads(report)["h0_D"] == 55 and json.loads(report)["pairing_term"] == 54
    code, out = run(capsys, "sweep", fan_path, "--range=3..3")
    assert code == 0 and out.splitlines()[0] == f'{{"index": 0, "coeffs": [3, 3, 3], "report": {report.strip()}}}'


def test_rr_incomplete_fan_exit_2(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", {"rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]})
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0}})
    assert run(capsys, "rr", fan_path, div_path)[0] == 2


def test_sections_command(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 1}})
    pts_path = write(tmp_path, "pts.json", [[0, 0], [1, 2]])
    code, out = run(capsys, "sections", fan_path, div_path, "--vandermonde", pts_path)
    payload = json.loads(out)
    assert code == 0
    assert payload["generators"] == [[0, 0], [1, 0], [0, 1]]
    assert payload["h0_a"] == payload["h0_b"] == 3
    assert payload["coefficients"] == [2, 2, 1]
    assert payload["pass_through"] == [True, True]


def test_sections_flags_are_computed(capsys, tmp_path, monkeypatch):
    # planted minors in which the last term dominates everywhere: no point
    # has a tie, so every flag must print false, not a constant true
    monkeypatch.setattr("troptoric.sections._maximal_minors", lambda rows: [10**9 * j for j in range(len(rows) + 1)])
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 2}})
    pts_path = write(tmp_path, "pts.json", [[0, 0], [1, 2], ["1/2", -3], [4, 4], [0, 0]])
    code, out = run(capsys, "sections", fan_path, div_path, "--vandermonde", pts_path)
    assert code == 0
    assert out.endswith('"pass_through": [false, false, false, false, false]}\n')
    # the points' common denominator is 2
    assert json.loads(out)["coefficients"] == [10**9 * j // 2 for j in range(6)]


def test_sections_empty_module(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "k.json", {"coeffs": {"0": -1, "1": -1, "2": -1}})
    code, out = run(capsys, "sections", fan_path, div_path)
    payload = json.loads(out)
    assert code == 0 and payload["generators"] == []


def test_sections_unbounded_exit_2(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", {"rays": [[1, 0]], "max_cones": [[0]]})
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0}})
    assert run(capsys, "sections", fan_path, div_path)[0] == 2


def test_sections_rational_points(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 1}})
    pts_path = write(tmp_path, "pts.json", [["1/2", 0], [0, "-3/4"]])
    code, out = run(capsys, "sections", fan_path, div_path, "--vandermonde", pts_path)
    payload = json.loads(out)
    assert code == 0 and payload["pass_through"] == [True, True]


@pytest.mark.parametrize(
    "coeffs, points, digest",
    [
        (
            {"0": 0, "1": 0, "2": 3},
            [[0, 0], [1, 3], [2, -1], [-1, 2], [3, 1], [-2, -3], [4, 5], [1, -4], [-3, 1]],
            "a131e836a09ee6561e624db829b18cc949ca7a908362af1ac23b16b9b0d6b0e4",
        ),
        (
            {"0": 0, "1": 0, "2": 2},
            [["1/2", "1/3"], ["-5/7", 2], [3, "-1/4"], ["2/3", "5/2"], [-1, "-7/5"]],
            "5198bd65fc9018da2a766a83df816875c6fbc729c4dd36228369106ed01eed5f",
        ),
    ],
    ids=["p2-3H-9-points", "p2-2H-rational"],
)
def test_vandermonde_output_bytes_pinned(capsys, tmp_path, coeffs, points, digest):
    # the whole stdout of an interpolation, with integer coefficients and
    # with "p/q" ones, pinned by its sha256
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": coeffs})
    pts_path = write(tmp_path, "pts.json", points)
    code, out = run(capsys, "sections", fan_path, div_path, "--vandermonde", pts_path)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert json.loads(out)["pass_through"] == [True] * len(points)


@pytest.mark.parametrize(
    "points",
    [
        [["1/0", 0], [1, 2]],  # zero denominator
        [["abc", 0], [1, 2]],  # not a rational
        [[0, 0, 99], [1, 2]],  # three coordinates
        [5, [1, 2]],  # not a list
        [["1e5000", 0], [1, 2]],  # an exponent: 5,001 digits past the limit
        [["1.5", 0], [1, 2]],  # a decimal point
        [[True, 0], [1, 2]],  # a JSON bool
        [[1.5, 0], [1, 2]],  # a JSON float
        [[2.0, 0], [1, 2]],  # a JSON float with an integer value
        [["1_000", 0], [1, 2]],  # an underscore, which int() takes
        [["", 0], [1, 2]],  # no digits
        [["+", 0], [1, 2]],  # a sign alone
        [["/3", 0], [1, 2]],  # no numerator
        [[" 1", 0], [1, 2]],  # a space, which int() strips
        [["1/-2", 0], [1, 2]],  # a signed denominator
        [["\u0661", 0], [1, 2]],  # ARABIC-INDIC DIGIT ONE, which int() takes
    ],
)
def test_sections_malformed_points_exit_1(capsys, tmp_path, points):
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 1}})
    pts_path = write(tmp_path, "pts.json", points)
    code = main(["sections", fan_path, div_path, "--vandermonde", pts_path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    # every case is malformed in its first point
    bad = points[0]
    if isinstance(bad, list) and len(bad) == 2:
        message = f"expected an exact rational, got {bad[0]!r}"
    else:
        message = f"a point must be a pair [x, y], got {bad!r}"
    assert captured.err == f"troptoric: parse error: {message}\n"


def test_sections_integer_route_matches_the_oracle(capsys, tmp_path, monkeypatch):
    # points written as unreduced "p/q" strings go through `cli.main` on
    # the integer route, which must build no Fraction; its coefficients and
    # flags must be those of the one-determinant-per-generator oracle
    rng = random.Random(33)
    builtins = [projective_plane(), product_p1_p1(), hirzebruch(1), hirzebruch(2)]
    made = []
    real_new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    ranks = collections.Counter()
    for case in range(300):
        f = builtins[case % 4] if case % 5 else random_blowup_fan(rng)
        while True:
            d = random_divisor(rng, f, -2, 3)
            if 2 <= h0(f, d) <= 10:
                break
        module = global_sections(f, d)
        ranks[module.rank] += 1
        points, texts = [], []
        for _ in range(module.rank - 1):
            point = [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(2)]
            points.append(point)
            factors = [rng.randint(2, 4) for _ in point]
            texts.append([f"{x.numerator * k}/{x.denominator * k}" for x, k in zip(point, factors)])
        fan_path = write(tmp_path, "fan.json", fan_to_dict(f))
        div_path = write(tmp_path, "d.json", d.to_dict())
        pts_path = write(tmp_path, "pts.json", texts)
        monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
        code = main(["sections", fan_path, div_path, "--vandermonde", pts_path])
        monkeypatch.undo()
        assert made == []
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        section = vandermonde_oracle(module, points)
        coeffs = dict(section.terms())
        assert [tuple(m) for m in payload["generators"]] == list(module.generators)
        assert [Fraction(str(c)) for c in payload["coefficients"]] == [coeffs[m] for m in module.generators]
        assert payload["pass_through"] == [passes_through(section, p) for p in points]
    assert set(ranks) == set(range(2, 11)), ranks


def test_sections_point_spellings_read_as_their_reduced_forms(capsys, tmp_path):
    # a sign, leading zeros and a common factor are accepted, and the
    # output is byte for byte that of the reduced spelling
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 2}})
    outs = []
    for name, points in [
        ("reduced", [["1/2", 3], [0, "1/2"], ["-2/3", 1], [3, "-1/4"], [-1, "-7/5"]]),
        ("unreduced", [["2/4", "+3"], ["-0", "007/014"], ["-6/9", "+1"], ["+3", "-2/8"], ["-1", "-14/10"]]),
    ]:
        pts_path = write(tmp_path, f"{name}.json", points)
        code, out = run(capsys, "sections", fan_path, div_path, "--vandermonde", pts_path)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["pass_through"] == [True] * 5


def test_sweep_exhaustive(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    code, out = run(capsys, "sweep", fan_path, "--range", "-1..1")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 28  # 27 reports plus summary
    summary = json.loads(lines[-1])["summary"]
    assert summary["count"] == 27 and summary["violations"] == 0
    assert summary["min_defect"] == 0 and type(summary["min_defect"]) is int
    assert all(json.loads(l)["report"]["holds"] for l in lines[:-1])


def test_sweep_p1xp1_625_reports(capsys, tmp_path):
    fan = {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]], "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    fan_path = write(tmp_path, "fan.json", fan)
    code, out = run(capsys, "sweep", fan_path, "--range", "-2..2")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 626
    summary = json.loads(lines[-1])["summary"]
    assert summary["count"] == 625 and summary["violations"] == 0
    # h1(O(a, b)) > 0 for some of these, so the defects are not all 0
    defects = [json.loads(l)["report"]["defect"] for l in lines[:-1]]
    assert max(defects) > 0 and all(type(x) is int for x in defects)
    assert summary["min_defect"] == min(defects) and type(summary["min_defect"]) is int


def test_sweep_sampled_mode(capsys, tmp_path):
    # 11^5 coefficient tuples exceed the exhaustive cutoff
    _, p2_json = run(capsys, "fan", "builtin", "p2")
    p2_path = write(tmp_path, "p2.json", p2_json.strip())
    _, blown = run(capsys, "fan", "blowup", p2_path, "0")
    blown_path = write(tmp_path, "blown.json", blown.strip())
    _, blown2 = run(capsys, "fan", "blowup", blown_path, "0")
    fan_path = write(tmp_path, "fan.json", blown2.strip())
    code, out = run(capsys, "sweep", fan_path, "--seed", "11", "--range", "-5..5")
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert code == 0
    assert summary["mode"] == "sampled" and summary["count"] == 10_000
    assert summary["seed"] == 11 and summary["violations"] == 0


P1XP1 = {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]], "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}
DENSE = {"rays": [[1, 0], [0, 1], [-1, -1], [1, 1], [-1, 0]], "max_cones": [[0, 3], [3, 1], [1, 4], [4, 2], [2, 0]]}
WIDE = {
    "rays": [[1, 0], [0, 1], [-1, 2], [0, -1], [1, 1], [1, 2]],
    "max_cones": [[0, 4], [4, 5], [5, 1], [1, 2], [2, 3], [3, 0]],
}


@pytest.mark.parametrize(
    "fan, argv, digest",
    [
        (DENSE, ["--range=-2..2"], "d3bfd19025dfd2809091a2a1b4b30bf88c25c0d848c9c63d57cd7f87958f5291"),
        (WIDE, ["--range=-80..80", "--seed", "5"], "94271924038661f3be1996b0a2d0ac31f6352b24b555194b40b567bf896b9028"),
        ("p1xp1", ["--range=-4..4"], "b40346e915e25c1823893ecac4578bf922b605ea9b414c3ea7902d77d40b1898"),
    ],
    ids=["dense", "wide-sampled", "p1xp1-builtin"],
)
def test_sweep_output_bytes_pinned(capsys, tmp_path, fan, argv, digest):
    # the whole stdout of an exhaustive sweep, a sampled one and one
    # through a builtin fan, each pinned by its sha256
    if isinstance(fan, str):
        code, out = run(capsys, "fan", "builtin", fan)
        assert code == 0 and json.loads(out) == P1XP1
        fan = out.strip()
    fan_path = write(tmp_path, "fan.json", fan)
    code, out = run(capsys, "sweep", fan_path, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    for line in out.splitlines():
        assert json.dumps(json.loads(line)) == line


def test_sweep_line_writes_false():
    # no sweep holds a violation, so the line of a failed report is
    # checked on constructed fields, in RRReport's order
    fields = (0, 2, 1, 5, 6, -4, False)
    line = cli._sweep_line(7, (-3, 0, 12), fields)
    report = RRReport(h0_D=0, h0_K_minus_D=2, euler=1, pairing_term=5, rhs=6, defect=-4, holds=False)
    assert line == json.dumps({"index": 7, "coeffs": [-3, 0, 12], "report": report.to_dict()}) + "\n"
    assert json.loads(line)["report"]["holds"] is False


@pytest.mark.parametrize(
    "seed, bounds, mode",
    [(1, "-2..2", "exhaustive"), (2, "-1..2", "exhaustive"), (3, "-80..80", "sampled"), (4, "-80..80", "sampled")],
)
def test_sweep_fields_are_rr_check_and_the_oracle(capsys, tmp_path, seed, bounds, mode):
    # every line of a sweep on a seeded blow-up of P2 is rr_check's report,
    # and a seeded sample of them is the box-enumeration oracle's
    rng = random.Random(seed)
    f = random_blowup_fan(rng)
    fan_path = write(tmp_path, "fan.json", fan_to_dict(f))
    code, out = run(capsys, "sweep", fan_path, f"--range={bounds}", "--seed", str(seed))
    lines = out.splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert code == 0 and summary["mode"] == mode and summary["count"] == len(lines) - 1
    records = [json.loads(line) for line in lines[:-1]]
    for rec in records:
        assert rec["report"] == rr_check(f, ToricDivisor(f, tuple(rec["coeffs"]))).to_dict()
    assert summary["min_defect"] == min(rec["report"]["defect"] for rec in records)
    for rec in rng.sample(records, 15):
        assert rec["report"] == rr_oracle(f, ToricDivisor(f, tuple(rec["coeffs"]))), rec["coeffs"]


def test_sweep_counts_planted_violations(capsys, tmp_path, monkeypatch):
    # no true report fails, so planted cycle terms with defect a_0 check the
    # running minimum, the violation count, the holds flags and exit 3 of
    # an exhaustive sweep: s_0 = 1, not 3, lowers D(D-K) by 2*a_0, and on
    # P2, where h1 = 0, the defect h0(D) + h0(K-D) - 1 - D(D-K)/2 is then a_0;
    # b_0 + s_0 stays even, so D(D-K) does
    fan_path = write(tmp_path, "fan.json", P2)
    planted = fan_from_dict(P2)
    planted.__dict__["cycle_terms"] = ((0, 1, 1, 1), (1, 2, 1, 3), (2, 0, 1, 3))
    monkeypatch.setattr(cli, "_load_fan", lambda path: planted)
    code, out = run(capsys, "sweep", fan_path, "--range=-1..1")
    lines = out.splitlines()
    assert code == cli.EXIT_VIOLATION == 3
    assert json.loads(lines[-1]) == {
        "summary": {"mode": "exhaustive", "seed": cli.DEFAULT_SEED, "count": 27, "min_defect": -1, "violations": 9}
    }
    for line in lines[:-1]:
        rec = json.loads(line)
        assert rec["report"]["defect"] == rec["coeffs"][0]
        assert rec["report"]["holds"] is (rec["coeffs"][0] >= 0)
    code, out = run(capsys, "sweep", fan_path, "--range=1..1")
    assert code == 0 and json.loads(out.splitlines()[-1])["summary"]["min_defect"] == 1


def test_sweep_counts_planted_violations_sampled(capsys, tmp_path, monkeypatch):
    # the planted cycle terms of the exhaustive test above, s_0 = 1, not 3,
    # give defect a_0 on P2 and check the same bookkeeping on 10,000 draws
    fan_path = write(tmp_path, "fan.json", P2)
    planted = fan_from_dict(P2)
    planted.__dict__["cycle_terms"] = ((0, 1, 1, 1), (1, 2, 1, 3), (2, 0, 1, 3))
    monkeypatch.setattr(cli, "_load_fan", lambda path: planted)
    code, out = run(capsys, "sweep", fan_path, "--range=-23..23")  # 47^3 tuples
    lines = out.splitlines()
    firsts = [json.loads(line)["coeffs"][0] for line in lines[:-1]]
    assert code == cli.EXIT_VIOLATION == 3
    assert json.loads(lines[-1]) == {
        "summary": {
            "mode": "sampled",
            "seed": cli.DEFAULT_SEED,
            "count": 10_000,
            "min_defect": -23,
            "violations": sum(a < 0 for a in firsts),
        }
    }
    for line in lines[:-1]:
        rec = json.loads(line)
        assert rec["report"]["defect"] == rec["coeffs"][0]
        assert rec["report"]["holds"] is (rec["coeffs"][0] >= 0)
    code, out = run(capsys, "sweep", fan_path, "--range=20..80")
    assert code == 0 and json.loads(out.splitlines()[-1])["summary"]["min_defect"] == 20


def test_sweep_raises_on_planted_odd_pairing(capsys, tmp_path, monkeypatch):
    # D(D-K) is even on every smooth complete surface, so an odd one means
    # wrong intersection numbers: a bug, exit 4 from the console entry point
    fan_path = write(tmp_path, "fan.json", P2)
    planted = fan_from_dict(P2)
    # (i, next(i), D_i.D_i, D_i.-K), the true terms but for s_0 = 2, not 3
    planted.__dict__["cycle_terms"] = ((0, 1, 1, 2), (1, 2, 1, 3), (2, 0, 1, 2))
    monkeypatch.setattr(cli, "_load_fan", lambda path: planted)
    with pytest.raises(ArithmeticError):
        main(["sweep", fan_path, "--range=0..1"])
    assert cli.run(["sweep", fan_path, "--range=0..1"]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "ArithmeticError" in captured.err


def rr_check_box_lines(f, lo, hi):
    # the plain route: rr_check on every tuple of the box, in order
    box = itertools.product(range(lo, hi + 1), repeat=len(f.rays))
    return [cli._sweep_line(index, a, rr_check(f, ToricDivisor(f, a))) for index, a in enumerate(box)]


def check_box(f, lo, hi):
    # the text the box writes through its sink, line for line
    written = []
    count, min_defect, violations = cli._sweep_box(f, range(lo, hi + 1), written.append)
    expected = rr_check_box_lines(f, lo, hi)
    assert "".join(written).splitlines(keepends=True) == expected and count == len(expected)
    defects = [json.loads(line)["report"]["defect"] for line in expected]
    assert min_defect == min(defects) and violations == sum(x < 0 for x in defects)


@pytest.mark.parametrize("fan, lo, hi", [(DENSE, -3, 3), (P2, -20, 20)], ids=["dense", "p2"])
def test_sweep_box_is_the_kernel_on_every_tuple(fan, lo, hi):
    # the class path, one count and one report text per Picard class,
    # against rr_check on each of 16,807 and 68,921 tuples
    check_box(fan_from_dict(fan), lo, hi)


def shuffled(rng, f):
    # the same fan with its rays listed in a random order, so that any ray
    # can be the last one, whose coefficient the box runs innermost
    d = fan_to_dict(f)
    order = rng.sample(range(len(d["rays"])), len(d["rays"]))
    where = {old: new for new, old in enumerate(order)}
    rays = [d["rays"][old] for old in order]
    return fan_from_dict({"rays": rays, "max_cones": [[where[i] for i in c] for c in d["max_cones"]]})


def test_sweep_box_is_the_kernel_on_blowup_fans():
    rng = random.Random(23)
    for k in range(20):
        f = random_blowup_fan(rng)
        if k % 2:
            f = shuffled(rng, f)
        width = max(w for w in range(2, 8) if w ** len(f.rays) <= 2500)
        lo = rng.randint(-4, 1)
        check_box(f, lo, lo + width - 1)


def test_sweep_box_is_the_kernel_on_planted_terms():
    # the class key reads only the rays, so planted cycle terms, wrong but
    # with every b_i + s_i even, change D(D-K) tuple by tuple but the lines
    # must still be rr_check's, reading the same terms
    rng = random.Random(29)
    fans = [fan_from_dict(DENSE), fan_from_dict(P2)] + [shuffled(rng, random_blowup_fan(rng)) for _ in range(6)]
    for f in fans:
        terms = []
        for i, j, _, _ in f.cycle_terms:
            b = rng.randint(-3, 3)
            terms.append((i, j, b, b + 2 * rng.randint(-2, 2)))
        f.__dict__["cycle_terms"] = tuple(terms)
        width = max(w for w in range(2, 8) if w ** len(f.rays) <= 2500)
        check_box(f, -width // 2, -width // 2 + width - 1)


def test_sweep_box_raises_on_any_odd_tuple():
    # s_k one off its true value makes D(D-K) odd exactly when a_k is
    # odd, whichever ray k is: the box raises at its first such tuple
    # and passes a box of even a_k
    for k in range(5):
        f = fan_from_dict(DENSE)
        f.__dict__["cycle_terms"] = tuple(
            (i, j, b, s + (i == k)) for i, j, b, s in fan_from_dict(DENSE).cycle_terms
        )
        with pytest.raises(ArithmeticError):
            cli._sweep_box(f, range(0, 2), [].append)
        with pytest.raises(ArithmeticError):
            rr_check(f, ToricDivisor(f, tuple(int(i == k) for i in range(5))))
        assert cli._sweep_box(f, range(2, 3), [].append)[0] == 1


def test_sweep_empty_range(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    code, out = run(capsys, "sweep", fan_path, "--range", "2..1")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 1
    assert json.loads(lines[0])["summary"]["count"] == 0


@pytest.mark.parametrize(
    "fan",
    [
        {"rays": [[1, 0], [-1, 0]], "max_cones": [[0], [1]]},  # incomplete
        {"rays": [[1, 0], [0, 1], [-1, -2]], "max_cones": [[0, 1], [1, 2], [2, 0]]},  # complete, not smooth
    ],
)
def test_sweep_empty_range_checks_the_fan(capsys, tmp_path, fan):
    # the fan must carry intersection theory even when no divisor is drawn
    fan_path = write(tmp_path, "fan.json", fan)
    outcomes = []
    for bounds in ("0..0", "1..0"):
        code = main(["sweep", fan_path, f"--range={bounds}"])
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    assert outcomes[0][0] == 2 and outcomes[0][1] == ""
    assert outcomes[0][2].startswith("troptoric: intersection theory requires")
    assert outcomes[1] == outcomes[0]


def test_sweep_mode_check_is_fast_on_many_rays_and_long_bounds(capsys, tmp_path):
    # 2,000 one-cones and bounds of 4,000 digits, within the input digit
    # limit: width**2000 would have about 8 million digits, so the mode is
    # decided on width**17 before the fan is refused
    fan = {"rays": [[1, k] for k in range(2000)], "max_cones": [[i] for i in range(2000)]}
    fan_path = write(tmp_path, "fan.json", fan)
    bound = "9" * 4000
    start = time.perf_counter()
    code = main(["sweep", fan_path, f"--range=-{bound}..{bound}"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("troptoric: intersection theory requires")
    assert elapsed < 1.0


@pytest.mark.parametrize("width", [1, 2, 3, 161, 256, 257, 2**20 + 1])
@pytest.mark.parametrize("seed", [5, 11, 314159])
def test_uniform_draws_are_randrange(width, seed):
    # a sampled sweep's coefficients come from getrandbits by randrange's
    # own rejection loop, so its stream must be randrange's, bit for bit:
    # widths at and around powers of 2, where the loop redraws most often
    lo = -(width // 2)
    rng = random.Random(seed)
    expected = [rng.randrange(lo, lo + width) for _ in range(2000)]
    assert list(itertools.islice(cli._uniform_draws(seed, lo, lo + width - 1), 2000)) == expected


def test_sweep_deterministic(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    _, out1 = run(capsys, "sweep", fan_path, "--seed", "5", "--range", "-1..1")
    _, out2 = run(capsys, "sweep", fan_path, "--seed", "5", "--range", "-1..1")
    assert out1 == out2


def test_json_out_flag(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    out_path = tmp_path / "result.json"
    code, out = run(capsys, "--json-out", str(out_path), "fan", "validate", fan_path)
    assert code == 0
    assert out_path.read_text().strip() == out.strip()


@pytest.mark.parametrize("target", ["dir", "missing/result.json"])
def test_json_out_unwritable_exit_1(capsys, tmp_path, target):
    # a directory, or a file whose parent directory does not exist
    (tmp_path / "dir").mkdir()
    fan_path = write(tmp_path, "fan.json", P2)
    code = main(["--json-out", str(tmp_path / target), "fan", "validate", fan_path])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["valid"] is True
    assert captured.err.startswith("troptoric: ") and captured.err.count("\n") == 1
    # a sweep streams its output: the file fails at the first chunk, and
    # stdout is still written whole
    sweep = ["sweep", write(tmp_path, "dense.json", DENSE), "--range=-3..3"]
    _, whole = run(capsys, *sweep)
    code = main(["--json-out", str(tmp_path / target)] + sweep)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == whole and len(whole.splitlines()) == 7**5 + 1
    assert captured.err.startswith("troptoric: cannot write --json-out: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "fan, argv",
    [(DENSE, ["--range=-3..3"]), (WIDE, ["--range=-80..80", "--seed", "5"])],
    ids=["exhaustive", "sampled"],
)
def test_sweep_json_out_is_its_stdout(capsys, tmp_path, fan, argv):
    # stdout and --json-out are written chunk by chunk from one sink
    out_path = tmp_path / "out.json"
    code, out = run(capsys, "sweep", write(tmp_path, "fan.json", fan), *argv, "--json-out", str(out_path))
    assert code == 0 and len(out.splitlines()) > cli.SWEEP_CHUNK_LINES
    assert out_path.read_bytes() == out.encode()


class _ClosesAfter:
    """A stdout whose reader goes away after ``n`` writes."""

    def __init__(self, n):
        self.n = n

    def write(self, text):
        if self.n == 0:
            raise BrokenPipeError
        self.n -= 1
        return len(text)

    def flush(self):
        pass


def _fail_after(n, fn):
    calls = itertools.count()

    def wrapped(*args):
        if next(calls) == n:
            raise RuntimeError("planted")
        return fn(*args)

    return wrapped


@pytest.mark.parametrize("stop", ["closed-stdout", "internal-error"])
def test_sweep_stopped_early_leaves_whole_lines_in_json_out(tmp_path, monkeypatch, stop):
    # a sweep that stops partway (exit 141 or 4 from the console script)
    # leaves the --json-out file incomplete: the whole lines of the chunks
    # written so far, and no summary line
    fan_path = write(tmp_path, "fan.json", WIDE)
    out_path = tmp_path / "out.json"
    argv = ["sweep", fan_path, "--range=-80..80", "--json-out", str(out_path)]
    if stop == "closed-stdout":
        expected_error, stdout = BrokenPipeError, _ClosesAfter(2)
    else:
        # the sampled sweep counts P(D) once per line: the call for line
        # 2 * SWEEP_CHUNK_LINES + 5 fails, after two chunks are written
        expected_error, stdout = RuntimeError, _Discard()
        monkeypatch.setattr(cli, "_lattice_count_pair", _fail_after(2 * cli.SWEEP_CHUNK_LINES + 5, cli._lattice_count_pair))
    with contextlib.redirect_stdout(stdout), pytest.raises(expected_error):
        main(argv)
    text = out_path.read_text()
    assert text.endswith("\n")
    lines = [json.loads(line) for line in text.splitlines()]
    assert [line["index"] for line in lines] == list(range(2 * cli.SWEEP_CHUNK_LINES))


@pytest.mark.parametrize("bounds", ["0..1", "-5000..5000"], ids=["exhaustive", "sampled"])
def test_sweep_refused_fan_writes_nothing(capsys, tmp_path, bounds):
    # every ParseError and ValueError comes before a sweep's first write:
    # an incomplete fan is exit 2 with nothing on stdout, and no
    # --json-out file is made
    fan_path = write(tmp_path, "fan.json", {"rays": [[1, 0], [-1, 0]], "max_cones": [[0], [1]]})
    out_path = tmp_path / "out.json"
    code = main(["sweep", fan_path, f"--range={bounds}", "--json-out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("troptoric: intersection theory requires")
    assert not out_path.exists()


class _Discard:
    """A stdout that keeps only the count of what it is given."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_sweep_memory_does_not_grow_with_its_output(tmp_path):
    # the 16,807 reports of a dense sweep are 2.67 MB of text; written in
    # chunks, the sweep's peak is its class memo and one chunk, not its
    # output (over 6 MB when the lines were joined and printed at exit)
    f = projective_plane()
    f = blow_up(f, f.max_cones[0])
    fan_path = write(tmp_path, "fan.json", fan_to_dict(blow_up(f, f.max_cones[1])))
    sink = _Discard()
    with contextlib.redirect_stdout(sink):
        # build the parser and import what a sweep runs before tracing,
        # so the bound covers the sweep alone
        assert main(["sweep", fan_path, "--range=0..0"]) == 0
        sink.chars = 0
        tracemalloc.start()
        try:
            code = main(["sweep", fan_path, "--range=-3..3"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and sink.chars > 2_600_000
    assert peak < 2_000_000


def test_closed_stdout_exits_141_quietly(tmp_path):
    # a reader that stops early (`| head`) is the normal end of a streamed
    # sweep: exit 141, as for a process SIGPIPE ends, and nothing on
    # stderr, whether stdout closes mid-sweep or before a short output's
    # last flush
    fan_path = write(tmp_path, "fan.json", P2)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    cmd = [sys.executable, "-m", "troptoric.cli"]
    proc = subprocess.Popen(
        cmd + ["sweep", fan_path, "--range=-20..20"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert json.loads(proc.stdout.readline())["index"] == 0
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_CLOSED_STDOUT == 141
    assert err == b""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(cmd + ["rr", fan_path, write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 1}})],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 141 and done.stderr == b""


def test_seed_ignores_environment(capsys, tmp_path, monkeypatch):
    # --seed is the only way to set the seed; no environment variable is read
    fan_path = write(tmp_path, "fan.json", P2)
    for value in ("99", "abc"):
        monkeypatch.setenv("TROPTORIC_SEED", value)
        code, out = run(capsys, "fan", "builtin", "p2")
        assert code == 0 and json.loads(out) == P2
        _, out = run(capsys, "sweep", fan_path, "--range", "0..0")
        assert json.loads(out.strip().splitlines()[-1])["summary"]["seed"] == cli.DEFAULT_SEED


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep"])  # missing required arguments
    assert err.value.code == 1


# a final newline ($ matched before it) and Arabic-Indic digits (\d took
# them) were once read as 1..2 and 1..3
@pytest.mark.parametrize("bad_range", ["3", "a..b", "1..2..3", "1..2\n", "\u0661..\u0663"])
def test_malformed_range_exit_1(capsys, tmp_path, bad_range):
    fan_path = write(tmp_path, "fan.json", P2)
    with pytest.raises(SystemExit) as err:
        main(["sweep", fan_path, "--range", bad_range])
    assert err.value.code == 1


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv); a SystemExit from
    argparse counts as its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parity_table(tmp_path):
    fan = write(tmp_path, "fan.json", P2)
    div = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 2}})
    pts = write(tmp_path, "pts.json", [[0, 0], ["1/2", 3], [-2, "5/3"], [4, -1], ["-7/2", "-1/4"]])
    out = str(tmp_path / "out.json")
    missing = str(tmp_path / "missing.json")
    return [
        ["fan", "builtin", "p2"],
        ["fan", "builtin", "hirzebruch", "2"],
        ["fan", "builtin", "p2", "5"],
        ["fan", "validate", fan],
        ["fan", "blowup", fan, "0"],
        ["fan", "blowup", fan, "zero"],
        ["h0", fan, div],
        ["rr", fan, div],
        ["sections", fan, div],
        ["sections", fan, div, "--vandermonde", pts],
        ["sections", fan, div, "--vander", pts],
        ["sweep", fan, "--range", "-1..1"],
        ["sweep", fan, "--range=-30..30", "--seed", "9"],
        ["--seed", "7", "sweep", fan, "--range", "-3..3"],
        ["--json-out", out, "rr", fan, div],
        ["rr", fan, div, "--json-out", out],
        ["fan", "builtin", "p1xp1", "--seed", "1", "--json-out", out],
        ["rr", missing, div],
        ["rr", "--", fan, div],
        ["-h"],
        ["sections", "-h"],
        ["fan", "-h"],
        ["fan", "builtin", "-h"],
        ["h0", fan],
        ["sweep", fan],
        ["sweep", fan, "--range"],
        ["sweep", fan, "--range", "3"],
        ["rr", fan, div, "--seed", "x"],
        ["h0", fan, div, "--seed"],
        ["sections", fan, div, "--vandermonde"],
        ["sections", fan, div, "extra"],
        ["fan", "validate", fan, "extra"],
        ["fan", "builtin", "p2", "--frobnicate"],
        ["fan"],
        ["frobnicate"],
        ["--seed", "3"],
        [],
    ]


def test_subcommand_parser_matches_the_main_parser(capsys, tmp_path, monkeypatch):
    # argv that starts with a subcommand name is parsed by that subcommand's
    # parser alone; with the subcommand map empty, every argv goes to the
    # main parser.  Both give the same exit code, stdout and stderr on
    # every entry, usage errors and help included
    table = parity_table(tmp_path)
    assert len(table) >= 25
    parser = cli.build_parser()
    for argv in table:
        direct = outcome(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parsers", lambda: (parser, {}))
            full = outcome(capsys, argv)
        assert direct == full, argv
    # a leftover argument is the main parser's usage error, not ignored
    code, out, err = outcome(capsys, table[8] + ["extra"])
    assert code == ("SystemExit", 1) and out == ""
    assert err.endswith("troptoric: error: unrecognized arguments: extra\n")


def test_subcommand_parser_skips_the_main_parser(capsys, tmp_path, monkeypatch):
    # valid argv starting with a subcommand never reaches the main parser
    fan = write(tmp_path, "fan.json", P2)
    monkeypatch.setattr(cli.build_parser(), "parse_args", lambda argv: pytest.fail("main parser ran"))
    assert run(capsys, "fan", "validate", fan)[0] == 0
    assert run(capsys, "sweep", fan, "--range", "-1..1", "--seed", "2")[0] == 0
