import json
import random
import re
from collections import Counter, namedtuple

import pytest

from oracles import (
    ccw_complete,
    cone_by_cone_fan,
    cone_neighbours,
    interior_contains,
    pairwise_fan_error,
    positively_spans,
    random_cone_set,
    random_blowup_fan,
    random_fan,
    rejected_pairs,
)
from troptoric import fan as fan_module
from troptoric.cli import main
from troptoric.divisor import ToricDivisor, h0, lattice_points
from troptoric.fan import (
    Cone,
    Fan,
    adjacent_rays,
    blow_up,
    ccw_sorted_rays,
    dual_frame,
    fan_from_dict,
    fan_to_dict,
    hirzebruch,
    is_complete,
    is_smooth,
    primitive,
    product_p1_p1,
    projective_plane,
)
from troptoric.fan import _as_vec, det2, dot
from troptoric.jsonutil import ParseError


def all_test_fans():
    fans = [projective_plane(), product_p1_p1(), hirzebruch(1), hirzebruch(2), hirzebruch(3)]
    rng = random.Random(2718)
    for _ in range(4):
        f = projective_plane()
        for _ in range(rng.randint(1, 5)):
            f = blow_up(f, f.max_cones[rng.randrange(len(f.max_cones))])
        fans.append(f)
    return fans


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((1, 0)) == (1, 0)
    assert primitive((-3, -3)) == (-1, -1)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_is_smooth_examples():
    assert is_smooth(Cone(((1, 0), (0, 1))))
    assert not is_smooth(Cone(((1, 0), (1, 2))))
    assert is_smooth(Cone(((0, 1), (-1, -1))))
    assert is_smooth(Cone(((1, 0),)))


def test_cone_rejects_bad_generators():
    with pytest.raises(ValueError):
        Cone(((2, 4),))  # not primitive
    with pytest.raises(ValueError):
        Cone(((1, 0), (-1, 0)))  # antiparallel
    with pytest.raises(ValueError):
        Cone(((1, 0), (1, 0), (0, 1)))  # too many rays


def test_cone_primitivity_messages():
    for ray in ((-2, 0), (0, -3), (3, -6)):
        with pytest.raises(ValueError) as err:
            Cone((ray,))
        assert str(err.value) == f"ray generator {ray} is not primitive"
    with pytest.raises(ValueError) as err:
        Cone(((0, 0),))
    assert str(err.value) == "the zero vector has no primitive representative"


def test_cone_accepts_exactly_the_primitive_rays():
    accepted = 0
    for x in range(-6, 7):
        for y in range(-6, 7):
            if x or y:
                r = (x, y)
                try:
                    Cone((r,))
                    ok = True
                except ValueError:
                    ok = False
                assert ok == (primitive(r) == r), r
                accepted += ok
    assert accepted == 96  # the 4 unit rays on the axes, 23 coprime pairs per open quadrant


def test_fan_checks_cones_before_explicit_rays():
    # the explicit rays are coerced after the cones are checked, so a
    # conflict of the cones is reported before a malformed ray
    overlapping = (Cone(((1, 0), (0, 1))), Cone(((1, 1), (-1, 1))))
    with pytest.raises(ValueError) as err:
        Fan(overlapping, ((1, 0), (0, 1), (1, True), (-1, 1)))
    assert str(err.value) == "cones 0 and 1 do not intersect in a common face"
    with pytest.raises(TypeError) as err:
        Fan((Cone(((1, 0), (0, 1))),), ((1, 0), (0, 1.0)))
    assert str(err.value) == "lattice vectors must have integer coordinates"


def test_builtins():
    p2 = projective_plane()
    assert len(p2.rays) == 3 and len(p2.max_cones) == 3
    assert set(hirzebruch(0).rays) == set(product_p1_p1().rays)
    for f in (p2, product_p1_p1(), hirzebruch(2)):
        assert f.is_smooth()
        assert is_complete(f)
    with pytest.raises(ValueError):
        hirzebruch(-1)


def test_is_complete():
    single = Fan((Cone(((1, 0), (0, 1))),))
    assert not is_complete(single)
    assert is_complete(hirzebruch(2))
    ray_fan = Fan((Cone(((1, 0),)),))
    assert not is_complete(ray_fan)
    assert not is_complete(Fan(())) and not is_complete(Fan((Cone(()),)))
    # the cone count against a walk around the rays
    rng = random.Random(2021)
    complete = 0
    for _ in range(5000):
        f = random_fan(rng)
        assert is_complete(f) == ccw_complete(f)
        assert pairwise_fan_error(f.max_cones) is None
        complete += is_complete(f)
    assert complete == 1028


def test_facts_are_computed_once_and_stored(monkeypatch):
    # fan._fact: the first read computes a fact into the instance __dict__,
    # where later reads find it; on the class it is the descriptor itself,
    # carrying the method's docstring
    f = hirzebruch(1)
    calls = []
    real = fan_module.is_complete

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(fan_module, "is_complete", counting)
    assert f.complete is True and f.complete is True
    assert calls == [f] and vars(f)["complete"] is True
    for name in ("smooth", "complete", "bounded", "cycle_terms", "intersection_numbers", "row_plan"):
        assert isinstance(vars(Fan)[name], fan_module._fact) and getattr(Fan, name) is vars(Fan)[name]
    assert Fan.bounded.__doc__.startswith("True iff the rays positively span the plane")


def test_cached_facts_outside_equality():
    f = hirzebruch(2)
    facts = (f.smooth, f.complete, f.bounded, f.intersection_numbers)
    fresh = hirzebruch(2)
    assert "intersection_numbers" in vars(f) and "intersection_numbers" not in vars(fresh)
    assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)
    assert facts == (fresh.smooth, fresh.complete, fresh.bounded, fresh.intersection_numbers)
    assert facts[:3] == (True, True, True)
    # the counterclockwise order kept by validation is no field either
    assert tuple(f.rays[i] for i in f._ccw) == tuple(ccw_sorted_rays(f.rays))
    assert "_ccw" in vars(f) and "_ccw" not in repr(f)
    blank = hirzebruch(2)
    object.__setattr__(blank, "_ccw", ())
    assert f == blank and hash(f) == hash(blank) and repr(f) == repr(blank)
    spread = Fan(tuple(Cone((r,)) for r in ((1, 0), (0, 1), (-1, -1))))
    assert (spread.smooth, spread.complete, spread.bounded) == (True, False, True)
    line = Fan((Cone(((1, 0),)), Cone(((-1, 0),))))
    assert (line.smooth, line.complete, line.bounded) == (True, False, False)
    with pytest.raises(ValueError):
        line.intersection_numbers
    assert not Fan(()).bounded
    # the gap test against probing directions perpendicular to the rays
    rng = random.Random(2021)
    drawn = {"complete": 0, "bounded, incomplete": 0, "unbounded": 0, "unbounded, opposite pair": 0}
    for _ in range(5000):
        f = random_fan(rng)
        assert f.bounded == positively_spans(f.rays)
        assert f.bounded or not f.complete
        if f.bounded:
            drawn["complete" if f.complete else "bounded, incomplete"] += 1
        elif any((-x, -y) in f.rays for x, y in f.rays):
            drawn["unbounded, opposite pair"] += 1
        else:
            drawn["unbounded"] += 1
    assert drawn == {"complete": 1028, "bounded, incomplete": 984, "unbounded": 1735, "unbounded, opposite pair": 1253}


def test_one_sort_per_fan(monkeypatch):
    # validation sorts the rays once; every later fact, the row plan's
    # chains included, reads the kept cycle
    f = projective_plane()
    for c in (0, 2, 4):
        f = blow_up(f, f.max_cones[c])
    data = fan_to_dict(f)
    calls, sorts = [], []
    sort = fan_module.ccw_sorted_rays
    monkeypatch.setattr(fan_module, "ccw_sorted_rays", lambda rays: calls.append(rays) or sort(rays))
    monkeypatch.setattr(fan_module, "sorted", lambda *args, **kw: sorts.append(args) or sorted(*args, **kw), raising=False)
    f = fan_from_dict(data)
    assert f.row_plan and f.cycle_terms and f.bounded
    assert len(sorts) == 1
    d = ToricDivisor(f, (2, -1, 3, 0, 1, 2))
    assert (f.smooth, f.complete, f.bounded) == (True, True, True)
    assert len(f.intersection_numbers) == len(f.rays) == 6
    assert len(lattice_points(d)) == h0(f, d) > 0
    assert len(calls) == len(sorts) == 1
    # the points of P(D) are walked along the fan's own row plan
    fresh = fan_from_dict(data)
    assert "row_plan" not in vars(fresh)
    lattice_points(ToricDivisor(fresh, d.coeffs))
    assert "row_plan" in vars(fresh)


def test_row_plan_chains_fall_in_slope():
    # the chains read off the cycle against the order the floor sums need:
    # consecutive entries (i, |ex|, ey) strictly fall in slope ey/|ex|
    rng = random.Random(2029)
    fans = [random_fan(rng, 8, 3) for _ in range(3000)]
    fans += [random_blowup_fan(rng, 12) for _ in range(200)]
    sides = Counter()
    for f in fans:
        plan = f.row_plan
        assert sorted(i for i, _, _ in plan.pos) == [i for i, (ex, _) in enumerate(f.rays) if ex > 0]
        assert sorted(i for i, _, _ in plan.neg) == [i for i, (ex, _) in enumerate(f.rays) if ex < 0]
        for side, chain in (("pos", plan.pos), ("neg", plan.neg)):
            for (_, ux, uy), (_, vx, vy) in zip(chain, chain[1:]):
                assert uy * vx > vy * ux, (f.rays, side, chain)
            sides[side] += len(chain) >= 3
    assert min(sides.values()) >= 500, sides


def test_adjacent_rays_examples():
    # (clockwise neighbour, counterclockwise neighbour)
    assert adjacent_rays(projective_plane(), (1, 0)) == ((-1, -1), (0, 1))
    assert adjacent_rays(hirzebruch(1), (0, 1)) == ((1, 0), (-1, 1))
    assert adjacent_rays(product_p1_p1(), (1, 0)) == ((0, -1), (0, 1))
    assert adjacent_rays(product_p1_p1(), [0, -1]) == ((-1, 0), (1, 0))


def test_adjacent_rays_errors():
    with pytest.raises(ValueError, match="is not a ray of the fan"):
        adjacent_rays(projective_plane(), (5, 1))
    with pytest.raises(TypeError):
        adjacent_rays(projective_plane(), (1.0, 0))
    incomplete = Fan((Cone(((1, 0), (0, 1))),))
    with pytest.raises(ValueError, match="is not a ray of the fan"):
        adjacent_rays(incomplete, (-1, -1))
    with pytest.raises(ValueError, match="adjacent rays require a complete fan"):
        adjacent_rays(incomplete, (1, 0))


def test_adjacency_against_cone_scan():
    # smooth complete fans from random_fan and blow-ups of P^2; the
    # neighbours and the intersection numbers against the cone scan
    rng = random.Random(2017)
    fans = [f for f in (random_fan(rng) for _ in range(5000)) if f.smooth and f.complete]
    fans += [random_blowup_fan(rng, 12) for _ in range(200)]
    assert len(fans) == 291
    for f in fans:
        index = {r: i for i, r in enumerate(f.rays)}
        rows = [[0] * len(f.rays) for _ in f.rays]
        for c in f.max_cones:
            i, j = index[c.rays[0]], index[c.rays[1]]
            rows[i][j] = rows[j][i] = 1
        for i, u in enumerate(f.rays):
            u1, u2 = adjacent_rays(f, u)
            assert {u1, u2} == set(cone_neighbours(f, u))
            assert det2(u1, u) > 0 and det2(u, u2) > 0
            # the b with u1 + u2 + b*u = 0, by division
            s = (u1[0] + u2[0], u1[1] + u2[1])
            b = -(dot(s, u) // dot(u, u))
            assert (s[0] + b * u[0], s[1] + b * u[1]) == (0, 0)
            rows[i][i] = b
        assert f.intersection_numbers == tuple(map(tuple, rows))


def test_blow_up_examples():
    p2 = projective_plane()
    b = blow_up(p2, Cone(((1, 0), (0, 1))))
    assert set(b.rays) == {(1, 0), (1, 1), (0, 1), (-1, -1)}
    assert b.is_smooth() and is_complete(b)
    b2 = blow_up(b, b.max_cones[0])
    assert len(b2.rays) == 5


def test_blow_up_errors():
    p2 = projective_plane()
    with pytest.raises(ValueError):
        blow_up(p2, Cone(((1, 0), (1, 1))))  # not a maximal cone
    ray_fan = Fan((Cone(((1, 0),)),))
    with pytest.raises(ValueError):
        blow_up(ray_fan, Cone(((1, 0),)))


def test_fan_invariants_under_blowups():
    for f in all_test_fans():
        assert f.is_smooth()
        assert is_complete(f)
        for r in f.rays:
            assert primitive(r) == r
        for c in f.max_cones:
            assert abs(det2(c.rays[0], c.rays[1])) == 1
        ordered = ccw_sorted_rays(f.rays)
        cone_sets = {frozenset(c.rays) for c in f.max_cones}
        for i in range(len(ordered)):
            pair = frozenset((ordered[i], ordered[(i + 1) % len(ordered)]))
            assert pair in cone_sets


def test_dual_frame_examples():
    assert dual_frame(Cone(((1, 0), (0, 1)))) == [(1, 0), (0, 1)]
    assert dual_frame(Cone(((0, 1), (-1, 2)))) == [(2, 1), (-1, 0)]
    assert dual_frame(Cone(((0, 1), (-1, -1)))) == [(-1, 1), (-1, 0)]


def test_dual_frame_is_dual_on_all_test_fans():
    for f in all_test_fans():
        for c in f.max_cones:
            frame = dual_frame(c)
            for i, m in enumerate(frame):
                for j, e in enumerate(c.rays):
                    assert dot(m, e) == (1 if i == j else 0)


def test_dual_frame_rejects_nonsmooth():
    with pytest.raises(ValueError):
        dual_frame(Cone(((1, 0), (1, 2))))
    with pytest.raises(ValueError):
        dual_frame(Cone(((1, 0),)))


def test_invalid_fans_rejected():
    # overlapping cones: (1,1) lies inside the first quadrant cone
    with pytest.raises(ValueError):
        Fan((Cone(((1, 0), (0, 1))), Cone(((1, 1), (-1, 1)))))
    # duplicate cone
    with pytest.raises(ValueError):
        Fan((Cone(((1, 0), (0, 1))), Cone(((0, 1), (1, 0)))))
    # redundant ray listed as maximal
    with pytest.raises(ValueError):
        Fan((Cone(((1, 0), (0, 1))), Cone(((1, 0),))))


def _conflict_kind(a, b) -> str:
    if a.dim < b.dim:
        a, b = b, a
    if b.dim == 1:
        return "ray inside a 2-cone" if interior_contains(a, b.rays[0]) else "1-cone on a 2-cone's ray"

    def within(c, d):
        return all(r in c.rays or interior_contains(c, r) for r in d.rays)

    return "nested" if within(a, b) or within(b, a) else "overlap"


def test_fan_validity_against_pairwise_oracle():
    # the one-pass cycle check accepts exactly the cone sets in which every
    # pair meets in a common face, and names a pair that does not
    rng = random.Random(2023)
    kinds = Counter()
    for _ in range(20000):
        cones = random_cone_set(rng)
        expected = pairwise_fan_error(cones)
        try:
            Fan(cones)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert (got is None) == (expected is None), cones
        named = re.fullmatch(r"cones (\d+) and (\d+) do not intersect in a common face", got or "")
        if named:
            pairs = rejected_pairs(cones)
            assert (int(named[1]), int(named[2])) in pairs, cones
            if len(pairs) == 1:
                assert got == expected
            kinds.update(_conflict_kind(cones[i], cones[j]) for i, j in pairs)
        else:
            assert got == expected
        kinds[got] += 1
    assert 0.4 < 1 - kinds[None] / 20000 < 0.6
    for kind in ("overlap", "nested", "ray inside a 2-cone", "1-cone on a 2-cone's ray",
                 "duplicate maximal cone", "the origin cone is redundant beside other cones"):
        assert kinds[kind] >= 100, (kind, kinds)


def test_fan_json_round_trip():
    for f in (projective_plane(), hirzebruch(2), blow_up(projective_plane(), Cone(((1, 0), (0, 1))))):
        d = fan_to_dict(f)
        assert fan_from_dict(json.loads(json.dumps(d))) == f
    with pytest.raises(ValueError):
        fan_from_dict({"rays": [[1, 0]], "max_cones": [[0, 3]]})
    for data, key in (([[1, 0], [0, 1]], "rays"), ({"max_cones": []}, "rays"), ({"rays": []}, "max_cones")):
        with pytest.raises(ParseError, match=repr(key)):
            fan_from_dict(data)


def test_malformed_cones_rejected():
    rays = [[1, 0], [0, 1], [-1, -1]]
    for cones in ([[False, True], [True, 2], [2, False]], ["01", "12", "20"], [[0, "1"], [1, 2], [2, 0]]):
        with pytest.raises(ParseError):
            fan_from_dict({"rays": rays, "max_cones": cones})


def test_as_vec_fast_path_keeps_the_checks():
    # a tuple of two exact ints passes as it is; everything else meets the
    # full check, with the same results and the same error texts
    v = (3, -4)
    assert _as_vec(v) is v
    for other in ([3, -4], namedtuple("Pair", "x y")(3, -4)):
        w = _as_vec(other)
        assert w == v and type(w) is tuple
    for bad, text in [
        ((1, True), "lattice vectors must have integer coordinates"),
        ((1.0, 0), "lattice vectors must have integer coordinates"),
        ([1, False], "lattice vectors must have integer coordinates"),
        ((1, 2, 3), "a lattice vector must be a pair [x, y], got (1, 2, 3)"),
        ((1,), "a lattice vector must be a pair [x, y], got (1,)"),
        ("ab", "a lattice vector must be a pair [x, y], got 'ab'"),
    ]:
        with pytest.raises(TypeError) as err:
            _as_vec(bad)
        assert str(err.value) == text


def test_bool_coordinates_rejected():
    # JSON true/false decode to bool, an int subclass
    with pytest.raises(ParseError):
        fan_from_dict({"rays": [[True, 0], [0, True], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]})
    with pytest.raises(TypeError):
        Cone(((1, 0), (0, False)))
    # wrong arity, a non-pair ray, and non-list containers
    cones = [[0, 1], [1, 2], [2, 0]]
    for rays in ([[1, 0, 0], [0, 1], [-1, -1]], [[1], [0, 1], [-1, -1]], [7, [0, 1], [-1, -1]], {"a": 1}):
        with pytest.raises(ParseError):
            fan_from_dict({"rays": rays, "max_cones": cones})
    with pytest.raises(ParseError):
        fan_from_dict({"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": {"0": [0, 1]}})
    with pytest.raises(TypeError):
        Cone(((1, 0, 0),))
    for a in (2.5, True, "2"):
        with pytest.raises(TypeError):
            hirzebruch(a)


# rays 3, 4 and 5 are not primitive: (2, 4), (2, 0) and the zero vector
PRECEDENCE_RAYS = [[1, 0], [0, 1], [-1, -1], [2, 4], [2, 0], [0, 0]]
NOT_PRIMITIVE = (ValueError, "ray generator (2, 4) is not primitive")


@pytest.mark.parametrize(
    "cones, error",
    [
        # a cone's own checks run when the cone is read, in cone order, so
        # whichever of the two faults comes first wins
        ([[0, 3], [1, True]], NOT_PRIMITIVE),
        ([[1, True], [0, 3]], (ParseError, "cone ray indices must be integers, got True")),
        ([[0, 3], [1, 9]], NOT_PRIMITIVE),
        ([[1, 9], [0, 3]], (ValueError, "cone ray index 9 out of range")),
        ([[0, 3], 5], NOT_PRIMITIVE),
        ([5, [0, 3]], (ParseError, "a cone must be a list of ray indices, got 5")),
        ([[0, 3], [0, 1, 2]], NOT_PRIMITIVE),
        ([[0, 1, 2], [0, 3]], (ValueError, "plane cones have at most two rays")),
        # the ray count is checked before the rays
        ([[3, 0, 1]], (ValueError, "plane cones have at most two rays")),
        # a duplicate is a fault of the fan, found after every cone is read
        ([[0, 3], [0, 1], [1, 0]], NOT_PRIMITIVE),
        ([[0, 1], [1, 0], [0, 3]], NOT_PRIMITIVE),
        # within a cone the rays are checked in order, before independence
        ([[4, 3]], (ValueError, "ray generator (2, 0) is not primitive")),
        ([[0, 4]], (ValueError, "ray generator (2, 0) is not primitive")),
        ([[5, 3]], (ValueError, "the zero vector has no primitive representative")),
        # a ray that no cone uses is never checked for primitivity
        ([[0, 1], [1, 2], [2, 0]], (ValueError, "explicit ray list must enumerate the fan's rays")),
        ([[0, 1], [1, 2], [2, 0], [1, 0]], (ValueError, "duplicate maximal cone")),
    ],
    ids=[
        "bool-index-after", "bool-index-before", "out-of-range-after", "out-of-range-before",
        "non-list-after", "non-list-before", "three-rays-after", "three-rays-before",
        "three-rays-holding-it", "duplicate-after", "duplicate-before", "two-in-one-cone",
        "dependent-pair", "zero-ray", "unused", "unused-duplicate",
    ],
)
def test_fan_from_dict_error_precedence(capsys, tmp_path, cones, error):
    # a fan malformed in two ways reports the same fault, through the
    # library and through `fan validate`
    data = {"rays": PRECEDENCE_RAYS, "max_cones": cones}
    cls, message = error
    with pytest.raises(ValueError) as err:
        fan_from_dict(data)
    assert type(err.value) is cls and str(err.value) == message
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(data))
    code = main(["fan", "validate", str(path)])
    captured = capsys.readouterr()
    if cls is ParseError:
        assert (code, captured.out) == (1, "")
        assert captured.err == f"troptoric: parse error: {message}\n"
    else:
        assert code == 2
        assert captured.out == json.dumps({"valid": False, "error": message}) + "\n"


def test_fan_from_dict_makes_no_primitive_call(monkeypatch):
    # a valid fan's rays are tested for primitivity by a gcd each, in the
    # Cones that fan_from_dict builds, with no primitive tuple built
    calls = Counter()
    for name in ("primitive", "gcd"):
        real = getattr(fan_module, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(fan_module, name, counted)
    expected = hirzebruch(2)
    data = fan_to_dict(expected)
    calls.clear()
    built = fan_from_dict(data)
    assert calls["primitive"] == 0 and calls["gcd"] > 0
    assert built == expected and built.row_plan == expected.row_plan
    assert all(type(c) is Cone for c in built.max_cones)


def _outcome(build, data):
    try:
        f = build(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return f, f._ccw


def test_fan_from_dict_matches_cone_by_cone_construction():
    # random cone sets, about half of them fans, written as JSON and then
    # spoilt in up to two places: a ray that is not primitive (a multiple
    # or the zero vector, used or not), an index that is a bool or out of
    # range, a cone that is not a list, has three rays or is listed twice.
    # fan_from_dict must give the fan, or the error, of one Cone per cone
    rng = random.Random(69)
    kinds = Counter()
    for _ in range(4000):
        cones = random_cone_set(rng)
        rays = list(dict.fromkeys(r for c in cones for r in c.rays))
        rng.shuffle(rays)
        rays = [list(r) for r in rays]
        max_cones = [[rays.index(list(r)) for r in c.rays] for c in cones]
        for _ in range(rng.choice((0, 1, 1, 2))):
            way = rng.randrange(8)
            lists = [c for c in max_cones if type(c) is list]
            if way == 0:
                k = rng.randrange(len(rays))
                rays[k] = [rng.choice((0, 2, 3)) * x for x in rays[k]]
            elif way == 1:
                rays.append(rng.choice(([0, 0], [2, 4], [-3, 0], [1, 1])))
            elif way == 2 and lists:
                rng.choice(lists).append(rng.choice((True, False)))
            elif way == 3 and lists:
                rng.choice(lists).append(rng.choice((len(rays), -1, 99)))
            elif way == 4:
                max_cones.insert(rng.randint(0, len(max_cones)), rng.choice((5, "01", None, {"0": 1})))
            elif way == 5:
                max_cones.insert(rng.randint(0, len(max_cones)), rng.sample(range(len(rays)), min(3, len(rays))))
            elif way == 6 and lists:
                max_cones.insert(rng.randint(0, len(max_cones)), list(rng.choice(lists)))
            elif way == 7:
                max_cones.insert(rng.randint(0, len(max_cones)), [rng.randrange(len(rays))] * 2)
        data = {"rays": rays, "max_cones": max_cones}
        want = _outcome(cone_by_cone_fan, data)
        assert _outcome(fan_from_dict, data) == want, data
        kinds[want[1] if want[0] in (ValueError, ParseError) else "fan"] += 1
    for kind in ("fan", "ray generator", "not primitive", "zero vector", "integers", "out of range",
                 "ray indices, got", "at most two rays", "duplicate", "explicit ray list", "common face",
                 "linearly independent"):
        assert sum(n for k, n in kinds.items() if kind in k) >= 20, (kind, kinds)
