import json

import pytest

from troptoric.cli import main


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
    fan = {"rays": [[1, 0], [0, 1], [1, 1]], "max_cones": [[0, 1], [0, 2]]}
    path = write(tmp_path, "fan.json", fan)
    code, out = run(capsys, "fan", "validate", path)
    assert code == 2
    assert json.loads(out)["valid"] is False


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


def test_h0_command(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 2}})
    code, out = run(capsys, "h0", fan_path, div_path)
    payload = json.loads(out)
    assert code == 0
    assert payload["h0"] == 6 and len(payload["lattice_points"]) == 6
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


def test_rr_command(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 1}})
    code, out = run(capsys, "rr", fan_path, div_path)
    report = json.loads(out)
    assert code == 0
    assert report["h0_D"] == 3 and report["h0_K_minus_D"] == 0
    assert report["rhs"] == 3 and report["defect"] == 0 and report["holds"] is True


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
    "points",
    [
        [["1/0", 0], [1, 2]],  # zero denominator
        [["abc", 0], [1, 2]],  # not a rational
        [[0, 0, 99], [1, 2]],  # three coordinates
        [5, [1, 2]],  # not a list
    ],
)
def test_sections_malformed_points_exit_1(capsys, tmp_path, points):
    fan_path = write(tmp_path, "fan.json", P2)
    div_path = write(tmp_path, "d.json", {"coeffs": {"0": 0, "1": 0, "2": 1}})
    pts_path = write(tmp_path, "pts.json", points)
    assert run(capsys, "sections", fan_path, div_path, "--vandermonde", pts_path)[0] == 1


def test_sweep_exhaustive(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    code, out = run(capsys, "sweep", fan_path, "--range", "-1..1")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 28  # 27 reports plus summary
    summary = json.loads(lines[-1])["summary"]
    assert summary["count"] == 27 and summary["violations"] == 0
    assert summary["min_defect"] == 0
    assert all(json.loads(l)["report"]["holds"] for l in lines[:-1])


def test_sweep_p1xp1_625_reports(capsys, tmp_path):
    fan = {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]], "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    fan_path = write(tmp_path, "fan.json", fan)
    code, out = run(capsys, "sweep", fan_path, "--range", "-2..2")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 626
    summary = json.loads(lines[-1])["summary"]
    assert summary["count"] == 625 and summary["violations"] == 0


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


def test_sweep_empty_range(capsys, tmp_path):
    fan_path = write(tmp_path, "fan.json", P2)
    code, out = run(capsys, "sweep", fan_path, "--range", "2..1")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 1
    assert json.loads(lines[0])["summary"]["count"] == 0


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


def test_env_seed_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TROPTORIC_SEED", "99")
    fan_path = write(tmp_path, "fan.json", P2)
    _, out = run(capsys, "sweep", fan_path, "--range", "0..0")
    assert json.loads(out.strip().splitlines()[-1])["summary"]["seed"] == 99


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep"])  # missing required arguments
    assert err.value.code == 1


@pytest.mark.parametrize("bad_range", ["3", "a..b", "1..2..3"])
def test_malformed_range_exit_1(capsys, tmp_path, bad_range):
    fan_path = write(tmp_path, "fan.json", P2)
    with pytest.raises(SystemExit) as err:
        main(["sweep", fan_path, "--range", bad_range])
    assert err.value.code == 1
