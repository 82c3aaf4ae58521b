"""troptoric benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep_dense --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` and the oracles from `tests/oracles.py`, nothing is installed.
`--trace 0` measures the end-to-end metrics of BENCHMARK.json with no
tracing, in time rescaled to a reference speed that a fixed loop measures
around each unit of work.  `--trace 1` runs one unit of work untraced and
the same unit traced, and reports the per-layer metrics, the tracing
overhead and the time no span covers.  Every run checks the program's
outputs and spot-checks them against the independent oracles.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is a report with the metrics under the names the
workloads document (sweep_divisors_per_s, interp_p50_ms, ...), the input
properties, sweep digests and provenance.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = BENCH / "out"
SETUP_PROBES = 9
# The reference loop: REF_ITERATIONS steps take REF_S seconds on the 2-core
# reference machine at its fast speed.
REF_ITERATIONS = 20_000
REF_S = 0.1

# names the report uses for items_per_s, op_p50_ms and op_tail_ms
WORKLOAD_NAMES = {
    "sweep_dense": ("sweep_divisors_per_s", None, None),
    "sweep_wide": ("sweep_divisors_per_s", None, None),
    "interpolate": ("interp_per_s", "interp_p50_ms", "interp_tail_ms"),
    "curves": ("locus_per_s", "locus_p50_ms", "locus_tail_ms"),
}

# per-layer span names whose self time is reported, and those whose calls are
SELF_TIMED = (
    "cli.main", "cli.cmd_sweep", "cli.cmd_sections",
    "intersect.rr_check", "intersect.pairing",
    "divisor.h0", "divisor.polytope", "divisor.lattice_points",
    "sections.global_sections", "sections.passes_through", "sections.vandermonde_section",
    "trop.trop_det", "trop.supporting_monomials",
    "curve.corner_locus", "curve.newton_subdivision", "curve.is_balanced",
)
COUNTED = (
    "intersect.rr_check", "intersect.pairing", "intersect.intersection_matrix",
    "fan.Fan.eq", "fan.Fan.is_smooth", "fan.is_complete",
    "divisor.h0", "divisor.polytope",
    "trop.supporting_monomials", "curve.corner_locus", "jsonutil.format_rational",
)
DET_SIZES = range(2, 8)


def tail(values):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n


def reference_s():
    """Seconds a fixed piece of plain Python work takes now: exact rational
    arithmetic, tuple keys and dict stores, the mix the package runs on,
    but none of its code, so no change to the package moves it."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, REF_ITERATIONS):
        q = Fraction(i % 97 - 48, i % 13 + 1)
        acc += q * q
        seen[(i % 50, i % 7)] = acc
    return time.perf_counter() - t0


def slowed(f):
    """(f(), host slowdown around it): the reference loop's time just
    before and just after the call, averaged, over REF_S."""
    before = reference_s()
    value = f()
    return value, (before + reference_s()) / 2 / REF_S


def setup_probe(workload, seed, env):
    """Seconds one fresh interpreter takes to import troptoric and build
    the workload's inputs, as measured inside it."""
    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(workdir), str(SRC)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def load_oracles():
    spec = importlib.util.spec_from_file_location("troptoric_bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def provenance(args, params, cpus):
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "troptoric").glob("*.py")):
        src_hash.update(path.name.encode())
        src_hash.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            git_sha = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
    }


def measure(wl, seconds, probe):
    """Closed loop: whole units until the next one would end past `seconds`.

    Returns the operations of each unit, each unit's host slowdown and the
    set-up samples with theirs.  The set-up probes run between units,
    spread over the run, so that they meet the same machine conditions as
    the operations.
    """
    units, slowdown, unit_s, setup = [], [], [], []
    start = time.perf_counter()
    while True:
        due = min(SETUP_PROBES, 1 + int(SETUP_PROBES * (time.perf_counter() - start) / seconds))
        while len(setup) < due:
            setup.append(slowed(probe))
        t0 = time.perf_counter()
        unit, f = slowed(lambda: wl.run_unit(len(units)))
        unit_s.append(time.perf_counter() - t0)
        units.append(unit)
        slowdown.append(f)
        if time.perf_counter() - start + statistics.median(unit_s) > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(slowed(probe))
    return units, slowdown, setup


def end_to_end(wl, units, slowdown, setup_samples):
    ops = [op for unit in units for op in unit]
    done = [op for op in ops if op.error is None]
    lat_ms = [op.latency_s * 1000 for op in done] or [0.0]
    tail_ms, tail_pct = tail(lat_ms)
    if wl.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        rss = statistics.median(op.maxrss_mb for op in ops)
    # Work done per second of operation time at the reference speed, pooled
    # over the run's units.  A shared host's speed flips between a fast and
    # a slow mode every few seconds; each unit's time is divided by the
    # slowdown the reference loop saw around it, on the same pinned CPU.
    good = [(unit, f) for unit, f in zip(units, slowdown) if all(op.error is None for op in unit)]
    items = sum(op.items for unit, _ in good for op in unit)
    busy_s = sum(op.latency_s for unit, _ in good for op in unit)
    ref_busy_s = sum(op.latency_s / f for unit, f in good for op in unit)
    items_per_s = items / ref_busy_s if ref_busy_s else 0.0
    rates = [sum(op.items for op in unit) / sum(op.latency_s for op in unit) for unit, _ in good]
    n = len(done)
    metrics = {
        "setup_s": (statistics.median(t / f for t, f in setup_samples), "s", len(setup_samples)),
        "setup_s_raw": (statistics.median(t for t, _ in setup_samples), "s", len(setup_samples)),
        "items_per_s": (items_per_s, "1/s", len(rates)),
        "items_per_s_raw": (items / busy_s if busy_s else 0.0, "1/s", len(rates)),
        "op_p50_ms": (statistics.median(lat_ms), "ms", n),
        "op_tail_ms": (tail_ms, "ms", n),
        "peak_rss_mb": (rss, "MB", len(ops) if not wl.in_process else 1),
    }
    named = dict(metrics)
    rate, p50, tl = WORKLOAD_NAMES[wl.name]
    named[rate] = metrics["items_per_s"]
    if p50:
        named[p50] = metrics["op_p50_ms"]
        named[tl] = metrics["op_tail_ms"]
    else:
        firsts = [op.first_line_s for op in done if op.first_line_s is not None] or [0.0]
        named["sweep_first_line_s"] = (statistics.median(firsts), "s", len(firsts))
    extra = {"tail_percentile": tail_pct, "unit_items_per_s_raw": rates, "unit_host_slowdown": slowdown}
    return metrics, named, extra


def traced(wl):
    """The same unit untraced, traced and untraced again; per-layer metrics.

    The overhead compares the traced unit with the mean of the untraced
    ones around it, each at the reference speed.
    """
    from tracing import Tracer, install

    def busy_s(ops):
        return sum(op.latency_s for op in ops)

    before, f_before = slowed(lambda: wl.run_unit(0))
    if wl.in_process:
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            trace_ops, f_trace = slowed(lambda: wl.run_unit(0))
        finally:
            uninstall()
    else:
        path = OUT / f"spans-child-{os.getpid()}.json"
        try:
            trace_ops, f_trace = slowed(lambda: wl.run_unit(0, trace_path=str(path)))
            tracer = Tracer.read(path) if path.exists() else Tracer()
        finally:
            path.unlink(missing_ok=True)
    after, f_after = slowed(lambda: wl.run_unit(0))
    base_ops = before + after
    base_s = (busy_s(before) / f_before + busy_s(after) / f_after) / 2
    traced_s = busy_s(trace_ops)
    m = {}
    for mod in ("cli", "intersect", "divisor", "fan", "sections", "trop", "curve", "jsonutil"):
        m[f"{mod}.self_s"] = (tracer.module_self_s(mod), "s")
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (tracer.self_s(name), "s")
    for name in COUNTED:
        m[f"{name}.calls"] = (tracer.calls(name), "count")
    m["sections.h0_ab.self_s"] = (tracer.self_s("sections.h0_a") + tracer.self_s("sections.h0_b"), "s")
    drawn = tracer.counts["sections.sample_drawn"]
    m["sections.sample_drawn"] = (drawn, "count")
    m["sections.sample_accept_frac"] = (tracer.counts["sections.sample_accepted"] / drawn if drawn else 0.0, "ratio")
    for k in DET_SIZES:
        m[f"trop.trop_det.calls.k{k}"] = (tracer.counts[f"trop.trop_det.calls.k{k}"], "count")
    m["trop.trop_det.perms"] = (tracer.counts["trop.trop_det.perms"], "count")
    m["divisor.lattice_points.points"] = (tracer.counts["divisor.lattice_points.points"], "count")
    m["curve.corner_locus.terms"] = (tracer.counts["curve.corner_locus.terms"], "count")
    m["cli.bytes_out"] = (sum(op.bytes_out for op in trace_ops), "bytes")
    m["trace.overhead_frac"] = (traced_s / f_trace / base_s - 1 if base_s else 0.0, "ratio")
    m["trace.uncovered_s"] = (traced_s - tracer.top_s, "s")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.spans"] = (tracer.n_spans, "count")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{wl.seed}.json")
    return base_ops + trace_ops, m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the benchmark, its children and the reference loop, so
    # that the loop sees the speed the work sees.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})

    if not (SRC / "troptoric" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"bench: no troptoric sources at {SRC} or no oracles at {ORACLES}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.environ.pop("TROPTORIC_SEED", None)  # in-process CLI calls must not see it
    sys.path.insert(0, str(SRC))
    import workloads  # imports troptoric from SRC

    pkg = sys.modules["troptoric"]
    if Path(pkg.__file__).resolve().parent != (SRC / "troptoric").resolve():
        print(f"bench: troptoric was imported from {pkg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    env = workloads.child_env(str(SRC), str(workdir))
    try:
        oracles = load_oracles()
        wl = workloads.make(args.workload, args.seed, str(workdir), str(SRC))
        if args.trace:
            ops, metrics = traced(wl)
            named, extra, setup_samples = {}, {}, []
        else:
            units, slowdown, setup_samples = measure(
                wl, args.seconds, lambda: setup_probe(args.workload, args.seed, env)
            )
            ops = [op for unit in units for op in unit]
            metrics, named, extra = end_to_end(wl, units, slowdown, setup_samples)
        errors = [op.error for op in ops if op.error is not None]
        checks, oracle_errors = wl.verify(oracles)
        properties = wl.input_properties()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        # absent only when no sweep produced output; the run is then failed
        metrics["divisor.class_repeat_frac"] = (properties.get("divisor.class_repeat_frac", 0.0), "ratio")
    # each timed operation and each oracle check is one attempted operation
    attempted = len(ops) + checks
    failed = len(errors) + len(oracle_errors)
    named["ops_failed_frac"] = (failed / attempted, "ratio", attempted)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [w["name"] for w in wanted if w["name"] not in metrics]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 3

    report = {
        "report": {
            "provenance": provenance(args, wl.params, cpus),
            "metrics": {k: {"value": v[0], "unit": v[1], "samples": v[2]} for k, v in named.items()},
            "per_layer": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()} if args.trace else None,
            "input_properties": properties,
            "digests": getattr(wl, "digests", None),
            "setup_samples_s_and_slowdown": setup_samples,
            "errors": (errors + oracle_errors)[:10],
            **extra,
        }
    }
    print(json.dumps(report))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]][0], "unit": w["unit"]} for w in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
