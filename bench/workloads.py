"""Seeded inputs, timed operations and correctness checks for each workload.

Each workload is a closed loop with one caller: the next operation starts
when the last one has finished.  Inputs depend only on the seed.  Work is
done in units: one `troptoric sweep` process for the sweeps, one fixed
round of items for `interpolate` and `curves`, so every unit has the same
mix of operation sizes whatever the run length.

Timed operations call the package through module attributes
(`divisor.divisor_of_section`, `cli.main`), which is where a traced run's
wrappers sit.  Checks use the names bound below at import, before any
wrapper exists, so they add no spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

import troptoric.cli as cli
import troptoric.curve as curve
import troptoric.divisor as divisor
import troptoric.fan as fan
import troptoric.sections as sections
from troptoric.curve import degree_from_polygon
from troptoric.divisor import ToricDivisor, degree_along_ray, principal_divisor
from troptoric.fan import dual_frame, fan_to_dict
from troptoric.trop import TropPolynomial

BENCH = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 150

DENSE_RANGE = (-3, 3)  # 7^5 = 16,807 divisors, about 2 s per sweep
WIDE_RANGE = (-80, 80)
WIDE_SAMPLES = 10_000  # the CLI's documented sample count for large ranges
SWEEP_ORACLE_SAMPLES = 5

# h0 -> divisors (fan, coefficients) with exactly that many sections
INTERP_FANS = ("p2", "p1xp1", "f1", "f2")
INTERP_DIVISORS = {
    3: (("p2", (0, 0, 1)), ("p1xp1", (0, 0, 0, 2)), ("f1", (0, 0, 0, 1)), ("f2", (0, 0, 2, 0))),
    4: (("p1xp1", (0, 0, 1, 1)), ("f1", (0, 0, 3, 0)), ("f2", (0, 0, 0, 1))),
    5: (("f1", (0, 0, 1, 1)), ("p1xp1", (0, 0, 4, 0))),
    6: (("p2", (0, 0, 2)), ("p1xp1", (0, 0, 1, 2)), ("f1", (0, 0, 0, 2)), ("f2", (0, 0, 1, 1))),
    7: (("f1", (0, 0, 2, 1)), ("p1xp1", (0, 0, 6, 0))),
    8: (("p1xp1", (0, 0, 1, 3)), ("f2", (0, 0, 2, 1))),
}
# One round, in call order: every divisor above once, with a seeded
# principal shift and seeded points.  A round takes about 1.7 s on the
# 2-core reference machine, 90% of it in the two rank-8 calls (eight 7x7
# determinants each), so a run fits a dozen rounds, each with the host's
# speed measured around it.  Rank 9 (nine 8x8 determinants, about 7 s a
# call) is left out: one call would be a quarter of a run.
INTERP_ROUND = tuple((rank, key, coeffs) for rank, divs in INTERP_DIVISORS.items() for key, coeffs in divs)
INTERP_ROUNDS = 1  # distinct rounds built at set-up (two files per call); later rounds reuse them
INTERP_LAPLACE_MAX_K = 7  # cofactors checked by Laplace expansion up to 7x7
INTERP_LAPLACE_CHECKS = 8

CURVE_DEGREES = (3, 4, 5, 6, 7)  # sections of O(dH) on P^2: 10 to 36 terms
CURVE_ROUNDS = 64
CURVE_HULL_MAX_TERMS = 21  # the upper-hull oracle is O(n^4)


@dataclass
class Op:
    """One timed operation and what it produced."""

    latency_s: float
    items: int  # RR reports, sections calls or corner loci completed
    error: str | None = None
    first_line_s: float | None = None
    maxrss_mb: float | None = None
    bytes_out: int = 0
    digest: str | None = None


def _rational_json(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _ineqs(rays, coeffs):
    return [(e[0], e[1], a) for e, a in zip(rays, coeffs)]


def child_env(src: str, workdir: str) -> dict:
    """Environment for a child interpreter: the checkout's sources, no
    seed override (the seed goes on the command line), and a bytecode cache
    of the run's own in `workdir`, so that imports cost the same whether or
    not the checkout holds bytecode from an earlier import."""
    env = dict(os.environ)
    env.pop("TROPTORIC_SEED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = src
    env["PYTHONPYCACHEPREFIX"] = os.path.join(workdir, "pycache")
    return env


def run_child(cmd, env, cwd, err_path, keep_output):
    """Run one process to its exit, timed from launch.

    Returns (Op, stdout bytes or None).  stdout is read as it arrives, so
    the time of the first complete line is seen; peak RSS comes from the
    child's own rusage.
    """
    digest = hashlib.sha256()
    chunks = []
    first = None
    nbytes = 0
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        fd = proc.stdout.fileno()
        while True:
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                break
            if first is None and b"\n" in chunk:
                first = time.perf_counter() - t0
            digest.update(chunk)
            nbytes += len(chunk)
            if keep_output:
                chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    error = None
    if proc.returncode != 0:
        with open(err_path, "rb") as fh:
            tail = fh.read()[-300:].decode("utf-8", "replace")
        error = f"exit {proc.returncode}: {tail.strip()}"
    op = Op(
        latency_s=wall,
        items=0,
        error=error,
        first_line_s=first,
        maxrss_mb=usage.ru_maxrss / 1024,
        bytes_out=nbytes,
        digest=digest.hexdigest(),
    )
    return op, (b"".join(chunks) if keep_output else None)


def class_repeat_frac(divisors) -> float:
    """Share of (fan, coefficients) pairs whose Picard class was already seen.

    D is normalised by subtracting div(x^m), with m read off the dual frame
    of the fan's first cone, so both rays of that cone get coefficient 0;
    two divisors are linearly equivalent exactly when the results agree.
    """
    keys = set()
    n = 0
    for f, c in divisors:
        cone = f.max_cones[0]
        m1, m2 = dual_frame(cone)
        i1, i2 = f.ray_index(cone.rays[0]), f.ray_index(cone.rays[1])
        m = (c[i1] * m1[0] + c[i2] * m2[0], c[i1] * m1[1] + c[i2] * m2[1])
        shift = principal_divisor(m, f).coeffs
        keys.add((f.rays, tuple(a - b for a, b in zip(c, shift))))
        n += 1
    return 1 - len(keys) / n if n else 0.0


# --------------------------------------------------------------- sweeps


def dense_fan(rng) -> fan.Fan:
    """P^2 blown up at two distinct torus-fixed points; the seed picks them.

    All choices give the same surface, so the per-divisor cost does not
    depend on the seed; blowing up a point on the first exceptional curve
    instead gives another surface with about a quarter more work.
    """
    f = fan.projective_plane()
    f = fan.blow_up(f, f.max_cones[rng.randrange(3)])
    exceptional = f.rays[-1]
    free = [c for c in f.max_cones if exceptional not in c.rays]
    return fan.blow_up(f, rng.choice(free))


def wide_fan() -> fan.Fan:
    """The Hirzebruch surface F2 blown up twice: 6 rays, P(D) of about
    750 lattice points on average at coefficient scale 80."""
    f = fan.hirzebruch(2)
    f = fan.blow_up(f, f.max_cones[0])
    return fan.blow_up(f, f.max_cones[1])


class SweepWorkload:
    """`troptoric sweep` as a CLI user runs it: one fresh process per sweep."""

    in_process = False

    def __init__(self, name, seed, workdir, src):
        rng = random.Random(seed)
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.src = src
        if name == "sweep_dense":
            self.fan = dense_fan(rng)
            lo, hi = DENSE_RANGE
            self.expected = (hi - lo + 1) ** len(self.fan.rays)
        else:
            self.fan = wide_fan()
            lo, hi = WIDE_RANGE
            self.expected = WIDE_SAMPLES
        self.sweep_seed = rng.randrange(1, 2**31)
        self.oracle_rng = random.Random(rng.random())
        self.fan_path = os.path.join(workdir, "fan.json")
        _write_json(self.fan_path, fan_to_dict(self.fan))
        self.argv = ["sweep", self.fan_path, f"--range={lo}..{hi}", "--seed", str(self.sweep_seed)]
        self.params = {
            "rays": [list(r) for r in self.fan.rays],
            "range": [lo, hi],
            "sweep_seed": self.sweep_seed,
            "divisors_per_sweep": self.expected,
        }
        self.env = child_env(src, workdir)
        self.reference = None  # (digest, parsed reports) of the first sweep
        self.digests = []

    def run_unit(self, index, trace_path=None):
        if trace_path is None:
            cmd = [sys.executable, "-m", "troptoric.cli"] + self.argv
        else:
            cmd = [sys.executable, os.path.join(BENCH, "traced_cli.py"), trace_path] + self.argv
        err_path = os.path.join(self.workdir, "stderr.txt")
        keep = self.reference is None
        op, data = run_child(cmd, self.env, os.path.dirname(self.src), err_path, keep)
        self.digests.append(op.digest)
        if op.error is None:
            if keep:
                try:
                    self.reference = (op.digest, self._parse(data))
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    op.error = f"bad sweep output: {exc!r}"
            elif op.digest != self.reference[0]:
                op.error = "sweep output differs from the first sweep of this run"
        if op.error is None:
            op.items = self.expected
        return [op]

    def _parse(self, data):
        lines = data.decode("utf-8").split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        reports = []
        min_defect = None
        for i, line in enumerate(lines[:-1]):
            rec = json.loads(line)
            if rec["index"] != i:
                raise ValueError(f"line {i} has index {rec['index']}")
            rep = rec["report"]
            defect = Fraction(str(rep["defect"]))
            if min_defect is None or defect < min_defect:
                min_defect = defect
            reports.append((tuple(rec["coeffs"]), rep["h0_D"], rep["h0_K_minus_D"]))
        summary = json.loads(lines[-1])["summary"]
        if summary["count"] != self.expected or len(reports) != self.expected:
            raise ValueError(f"count {summary['count']} with {len(reports)} lines, expected {self.expected}")
        if summary["violations"] != 0:
            raise ValueError(f"{summary['violations']} violations")
        if Fraction(str(summary["min_defect"])) != min_defect or min_defect < 0:
            raise ValueError(f"min_defect {summary['min_defect']} (lines give {min_defect})")
        return reports

    def verify(self, oracles):
        """(checks made, mismatches): h0 of D and K-D for a seeded sample
        of reports, by box enumeration."""
        if self.reference is None:
            return 0, []
        reports = self.reference[1]
        errors = []
        for coeffs, h_d, h_kd in self.oracle_rng.sample(reports, SWEEP_ORACLE_SAMPLES):
            k_minus_d = tuple(-1 - a for a in coeffs)
            got = (len(oracles.fm_lattice_points(_ineqs(self.fan.rays, coeffs))),
                   len(oracles.fm_lattice_points(_ineqs(self.fan.rays, k_minus_d))))
            if got != (h_d, h_kd):
                errors.append(f"h0 of {coeffs}: sweep says {(h_d, h_kd)}, oracle {got}")
        return SWEEP_ORACLE_SAMPLES, errors

    def input_properties(self):
        if self.reference is None:
            return {}
        divisors = [(self.fan, r[0]) for r in self.reference[1]]
        return {"divisor.class_repeat_frac": class_repeat_frac(divisors)}


# ----------------------------------------------------------- interpolate


@dataclass
class InterpItem:
    rank: int
    fan_key: str
    coeffs: tuple
    points: list
    argv: list


def _interp_fan(key) -> fan.Fan:
    if key == "p2":
        return fan.projective_plane()
    if key == "p1xp1":
        return fan.product_p1_p1()
    return fan.hirzebruch(int(key[1]))


class InterpolateWorkload:
    """`troptoric sections FAN DIV --vandermonde PTS` through `cli.main`."""

    in_process = True

    def __init__(self, name, seed, workdir, src):
        rng = random.Random(seed)
        self.name = name
        self.seed = seed
        self.fans = {k: _interp_fan(k) for k in INTERP_FANS}
        fan_paths = {}
        for k, f in self.fans.items():
            fan_paths[k] = os.path.join(workdir, f"fan-{k}.json")
            _write_json(fan_paths[k], fan_to_dict(f))
        self.rounds = []
        for r in range(INTERP_ROUNDS):
            items = []
            for j, (rank, key, base) in enumerate(INTERP_ROUND):
                f = self.fans[key]
                m = (rng.randint(-3, 3), rng.randint(-3, 3))
                coeffs = tuple(a + b for a, b in zip(base, principal_divisor(m, f).coeffs))
                points = [
                    (Fraction(rng.randint(-40, 40), rng.randint(1, 4)),
                     Fraction(rng.randint(-40, 40), rng.randint(1, 4)))
                    for _ in range(rank - 1)
                ]
                div_path = os.path.join(workdir, f"div-{r}-{j}.json")
                pts_path = os.path.join(workdir, f"pts-{r}-{j}.json")
                _write_json(div_path, ToricDivisor(f, coeffs).to_dict())
                _write_json(pts_path, [[_rational_json(x), _rational_json(y)] for x, y in points])
                argv = ["sections", fan_paths[key], div_path, "--vandermonde", pts_path]
                items.append(InterpItem(rank, key, coeffs, points, argv))
            self.rounds.append(items)
        self.oracle_rng = random.Random(rng.random())
        self.params = {"round_ranks": [item[0] for item in INTERP_ROUND], "distinct_rounds": INTERP_ROUNDS}
        self.outputs = {}  # id(item) -> (generators, coefficients), for the oracle

    def run_unit(self, index):
        ops = []
        for item in self.rounds[index % INTERP_ROUNDS]:
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(item.argv))
            except (Exception, SystemExit) as exc:
                ops.append(Op(time.perf_counter() - t0, 0, f"{item.argv}: {exc!r}"))
                continue
            op = Op(time.perf_counter() - t0, 1)
            text = buf.getvalue()
            op.bytes_out = len(text.encode("utf-8"))
            op.error = self._check(item, code, text)
            if op.error is not None:
                op.items = 0
            ops.append(op)
        return ops

    def _check(self, item, code, text):
        if code != 0:
            return f"{item.argv}: exit {code}"
        try:
            payload = json.loads(text)
            gens = [tuple(g) for g in payload["generators"]]
            n = len(gens)
            if not payload["h0_a"] == payload["h0_b"] == n == item.rank:
                return f"{item.argv}: h0_a {payload['h0_a']}, h0_b {payload['h0_b']}, {n} generators, want {item.rank}"
            passes = payload["pass_through"]
            if len(passes) != item.rank - 1 or not all(p is True for p in passes):
                return f"{item.argv}: pass_through {passes}"
            coeffs = [Fraction(str(c)) for c in payload["coefficients"]]
            if len(coeffs) != n:
                return f"{item.argv}: {len(coeffs)} coefficients for {n} generators"
        except (ValueError, KeyError, TypeError) as exc:
            return f"{item.argv}: bad output {exc!r}"
        self.outputs.setdefault(id(item), (gens, coeffs))
        return None

    def verify(self, oracles):
        """(checks made, mismatches): generators of every first-round item
        against box enumeration; one seeded cofactor of each of a seeded
        sample of items (up to 7x7) against Laplace expansion."""
        errors = []
        checked = [item for item in self.rounds[0] if id(item) in self.outputs]
        for item in checked:
            gens = self.outputs[id(item)][0]
            want = oracles.fm_lattice_points(_ineqs(self.fans[item.fan_key].rays, item.coeffs))
            if set(gens) != want or len(gens) != len(want):
                errors.append(f"{item.argv}: generators differ from the lattice-point oracle")
        eligible = [item for item in checked if item.rank - 1 <= INTERP_LAPLACE_MAX_K]
        sample = self.oracle_rng.sample(eligible, min(INTERP_LAPLACE_CHECKS, len(eligible)))
        for item in sample:
            gens, coeffs = self.outputs[id(item)]
            i = self.oracle_rng.randrange(item.rank)
            rows = [
                [m[0] * p[0] + m[1] * p[1] for j, m in enumerate(gens) if j != i]
                for p in item.points
            ]
            value, _ = oracles.laplace_det(rows)
            if value != coeffs[i]:
                errors.append(f"{item.argv}: cofactor {i} is {coeffs[i]}, Laplace gives {value}")
        return len(checked) + len(sample), errors

    def input_properties(self):
        items = self.rounds[0]
        hist = {}
        for item in items:
            k = item.rank - 1
            hist[k] = hist.get(k, 0) + item.rank  # one k x k cofactor per generator
        divisors = [(self.fans[item.fan_key], item.coeffs) for item in items]
        return {
            "divisor.class_repeat_frac": class_repeat_frac(divisors),
            "trop_det_sizes_per_round": {f"k{k}": n for k, n in sorted(hist.items())},
        }


# ---------------------------------------------------------------- curves


class CurvesWorkload:
    """Corner loci of general sections of O(dH) on P^2."""

    in_process = True

    def __init__(self, name, seed, workdir, src):
        rng = random.Random(seed)
        self.name = name
        self.seed = seed
        self.fan = fan.projective_plane()
        self.modules = {
            d: sections.global_sections(self.fan, ToricDivisor(self.fan, (0, 0, d)))
            for d in CURVE_DEGREES
        }
        # A strictly concave lift puts every lattice point on the upper
        # hull; the small perturbation makes the subdivision a triangulation.
        self.rounds = []
        for _ in range(CURVE_ROUNDS):
            polys = []
            for d in CURVE_DEGREES:
                a, b, c = rng.randint(2, 6), rng.randint(2, 6), rng.randint(-1, 1)
                terms = [
                    (m, -(a * m[0] ** 2 + b * m[1] ** 2 + c * m[0] * m[1])
                     + Fraction(rng.randint(-100, 100), 1000))
                    for m in self.modules[d].generators
                ]
                polys.append(TropPolynomial(2, terms))
            self.rounds.append(polys)
        self.oracle_rng = random.Random(rng.random())
        self.params = {"degrees": list(CURVE_DEGREES), "terms": [len(p) for p in self.rounds[0]],
                       "distinct_rounds": CURVE_ROUNDS}
        self.subdivisions = {}  # id(poly) -> cells2, for the oracle

    def run_unit(self, index):
        ops = []
        for g in self.rounds[index % CURVE_ROUNDS]:
            t0 = time.perf_counter()
            try:
                locus, ray_part = divisor.divisor_of_section(self.fan, g)
                sub = curve.newton_subdivision(g)
                balanced = curve.is_balanced(locus)
            except Exception as exc:
                ops.append(Op(time.perf_counter() - t0, 0, f"{len(g)} terms: {exc!r}"))
                continue
            op = Op(time.perf_counter() - t0, 1)
            op.error = self._check(g, locus, ray_part, balanced)
            if op.error is None:
                self.subdivisions.setdefault(id(g), sub.cells2)
            else:
                op.items = 0
            ops.append(op)
        return ops

    def _check(self, g, locus, ray_part, balanced):
        if not balanced:
            return f"{len(g)} terms: locus is not balanced"
        if not locus.vertices:
            return f"{len(g)} terms: empty locus"
        for i, ray in enumerate(self.fan.rays):
            along = degree_along_ray(g, ray)
            if degree_from_polygon(g, ray) != along or ray_part.coeffs[i] != along:
                return f"{len(g)} terms: ray {ray} degrees disagree"
        return None

    def verify(self, oracles):
        """(checks made, mismatches): sections against box enumeration; one seeded small subdivision
        against the lifted upper hull."""
        errors = []
        for d, module in self.modules.items():
            want = oracles.fm_lattice_points(_ineqs(self.fan.rays, (0, 0, d)))
            if set(module.generators) != want:
                errors.append(f"O({d}H): generators differ from the lattice-point oracle")
        small = [g for g in self.rounds[0] if len(g) <= CURVE_HULL_MAX_TERMS and id(g) in self.subdivisions]
        if small:
            g = self.oracle_rng.choice(small)
            if set(self.subdivisions[id(g)]) != oracles.upper_hull_cells2(g):
                errors.append(f"{len(g)} terms: subdivision differs from the upper-hull oracle")
        return len(self.modules) + len(small[:1]), errors

    def input_properties(self):
        divisors = [(self.fan, (0, 0, d)) for d in CURVE_DEGREES]
        return {
            "divisor.class_repeat_frac": class_repeat_frac(divisors),
            "corner_locus_terms_per_round": [len(g) for g in self.rounds[0]],
        }


WORKLOADS = {
    "sweep_dense": SweepWorkload,
    "sweep_wide": SweepWorkload,
    "interpolate": InterpolateWorkload,
    "curves": CurvesWorkload,
}


def make(name, seed, workdir, src):
    return WORKLOADS[name](name, seed, workdir, src)
