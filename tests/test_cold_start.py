"""The package imports lazily: a subcommand loads only the modules it runs,
and every public name still resolves from `troptoric` itself."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import troptoric

SRC = str(Path(troptoric.__file__).resolve().parents[1])

# the public names of the package, by the submodule that defines each
OLD_EXPORTS = {
    "curve": ["WeightedComplex", "corner_locus", "is_balanced", "newton_subdivision"],
    "divisor": [
        "ToricDivisor",
        "UnboundedPolytopeError",
        "canonical_divisor",
        "degree_along_ray",
        "divisor_of_section",
        "h0",
        "lattice_points",
        "linearly_equivalent",
        "polytope",
        "polytope_vertices",
        "principal_divisor",
        "ray_divisor",
        "zero_divisor",
    ],
    "fan": [
        "Cone",
        "Fan",
        "adjacent_rays",
        "blow_up",
        "dual_frame",
        "hirzebruch",
        "is_complete",
        "is_smooth",
        "primitive",
        "product_p1_p1",
        "projective_plane",
    ],
    "intersect": ["RRReport", "intersection_matrix", "pairing", "ray_intersection", "rr_check", "self_intersection"],
    "sections": [
        "SectionModule",
        "global_sections",
        "h0_a",
        "h0_b",
        "is_generic_configuration",
        "local_slope_count",
        "passes_through",
        "vandermonde_section",
    ],
    "trop": ["TropPolynomial", "evaluate", "supporting_monomials", "trop_det"],
}


def python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=60)


def test_cli_import_loads_only_the_sweep_modules():
    code = (
        "import json, sys, troptoric.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('troptoric'))))"
    )
    done = python("-X", "dev", "-W", "error", "-c", code)
    assert done.returncode == 0, done.stderr
    sweep = ["troptoric"] + [f"troptoric.{m}" for m in ("cli", "divisor", "fan", "intersect", "jsonutil")]
    assert json.loads(done.stdout) == sweep


def test_cli_import_loads_no_dataclasses_or_fractions():
    # -S: a .pth file of the host's site-packages may import any of these;
    # typing and random too, which only the sampled sweep's draws need
    code = (
        "import json, sys, troptoric.cli; "
        "print(json.dumps(sorted({'dataclasses', 'decimal', 'fractions', 'inspect', 'random', 'typing'} & set(sys.modules))))"
    )
    done = python("-S", "-X", "dev", "-W", "error", "-c", code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_vandermonde_sections_load_no_dataclasses_or_typing(tmp_path):
    # the plane cubic through 9 points: SectionModule, like the fan and the
    # divisor it holds, is a frozen value without dataclasses, and trop's
    # annotations need no typing; an interpolation draws nothing at random
    # and draws no curve
    fan = {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]}
    points = [[0, 0], ["1/2", 3], [-2, "5/3"], [4, -1], ["-7/2", "-1/4"], [1, 1], [3, "2/5"], ["-1/3", 6], [5, -3]]
    (tmp_path / "p2.json").write_text(json.dumps(fan))
    (tmp_path / "3h.json").write_text(json.dumps({"coeffs": {"0": 0, "1": 0, "2": 3}}))
    (tmp_path / "pts9.json").write_text(json.dumps(points))
    code = (
        "import json, sys, troptoric.cli; "
        "code = troptoric.cli.main(['sections', 'p2.json', '3h.json', '--vandermonde', 'pts9.json']); "
        "print(json.dumps([code, sorted({'troptoric.curve', 'dataclasses', 'inspect', 'typing', 'random'} & set(sys.modules))]))"
    )
    done = python("-S", "-X", "dev", "-W", "error", "-c", code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    report, loaded = done.stdout.splitlines()
    assert json.loads(report)["pass_through"] == [True] * 9
    assert json.loads(loaded) == [0, []]


def test_curve_import_loads_no_dataclasses_or_typing():
    # the corner locus and the Newton subdivision are namedtuple records
    code = (
        "import json, sys, troptoric.curve; "
        "print(json.dumps(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules))))"
    )
    done = python("-S", "-X", "dev", "-W", "error", "-c", code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_h0_command_writes_rational_vertices(tmp_path):
    # fractions loads on first use: P(D) on F2 has the vertex (1, 1/2)
    fan = {"rays": [[1, 0], [0, 1], [-1, 2], [0, -1]], "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    (tmp_path / "f2.json").write_text(json.dumps(fan))
    (tmp_path / "d.json").write_text(json.dumps({"coeffs": {"0": -1, "1": 0, "2": 0, "3": 2}}))
    done = python("-S", "-X", "dev", "-W", "error", "-m", "troptoric.cli", "h0", "f2.json", "d.json", cwd=tmp_path)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == (
        '{"h0": 6, "lattice_points": [[1, 1], [2, 1], [1, 2], [2, 2], [3, 2], [4, 2]], '
        '"polytope_vertices": [[1, "1/2"], [1, 2], [4, 2]]}\n'
    )


def test_h0_command_loads_no_sections_or_trop(tmp_path):
    # h0 counts by floor sums and lists P(D) itself: no section module
    fan = {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]}
    (tmp_path / "p2.json").write_text(json.dumps(fan))
    (tmp_path / "3h.json").write_text(json.dumps({"coeffs": {"0": 0, "1": 0, "2": 3}}))
    code = (
        "import json, sys, troptoric.cli; "
        "code = troptoric.cli.main(['h0', 'p2.json', '3h.json']); "
        "print(json.dumps([code, sorted({'troptoric.sections', 'troptoric.trop'} & set(sys.modules))]))"
    )
    done = python("-X", "dev", "-W", "error", "-c", code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    report, loaded = done.stdout.splitlines()
    assert json.loads(report)["h0"] == 10
    assert json.loads(loaded) == [0, []]


def test_submodules_load_on_first_access():
    code = (
        "import sys, troptoric; "
        "assert 'troptoric.curve' not in sys.modules; "
        "m = troptoric.curve; "
        "print(m.__name__, 'troptoric.curve' in sys.modules)"
    )
    done = python("-X", "dev", "-W", "error", "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["troptoric.curve", "True"]


@pytest.mark.parametrize("module", sorted(OLD_EXPORTS))
def test_old_exports_resolve_to_their_submodule_objects(module):
    home = __import__(f"troptoric.{module}", fromlist=["_"])
    for name in OLD_EXPORTS[module]:
        assert getattr(troptoric, name) is getattr(home, name)
        assert name in troptoric.__all__


def test_dir_lists_every_export_before_any_is_read():
    done = python("-X", "dev", "-W", "error", "-c", "import json, troptoric; print(json.dumps(dir(troptoric)))")
    assert done.returncode == 0, done.stderr
    listed = set(json.loads(done.stdout))
    assert {name for names in OLD_EXPORTS.values() for name in names} <= listed
    assert {"cli", "curve", "sections", "trop", "__version__"} <= listed


def test_dir_lists_every_export_and_submodule():
    listed = dir(troptoric)
    assert listed == sorted(set(listed))
    assert set(troptoric.__all__) <= set(listed)
    assert {"cli", "curve", "divisor", "fan", "intersect", "jsonutil", "sections", "trop"} <= set(listed)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        troptoric.no_such_name
    assert not hasattr(troptoric, "_report_fields")


def test_module_run_emits_no_runpy_warning(tmp_path):
    # runpy warns when the package's import already loaded the module it
    # is asked to run; -W error turns that warning into a failure
    fan = {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]}
    (tmp_path / "p2.json").write_text(json.dumps(fan))
    done = python("-W", "error", "-m", "troptoric.cli", "sweep", "p2.json", "--range=-1..1", cwd=tmp_path)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout.splitlines()[-1])["summary"]["count"] == 27
