"""Span tracing of the troptoric package, installed from outside it.

`install` replaces each traced function at every name a caller looks it
up by (module globals, the package namespace, the CLI's handler table and
the `Fan` class), so nothing under `src/` changes.  Each wrapper records a
span (name, start, end, parent) and folds it into per-name aggregates:
calls, total time and self time, where self time is the span's duration
minus the time its child spans cover.  A few hooks add counts measured at
the same boundary: determinant sizes, lattice points, locus terms and the
slope-count sampler's draws.

Spans are kept in memory; only the first `raw_cap` are kept raw, because
a traced dense sweep makes more than a million of them.  The aggregates
cover every span.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import math
import time

# (span name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("cli.main", "troptoric.cli", "main"),
    ("cli.cmd_sweep", "troptoric.cli", "cmd_sweep"),
    ("cli.cmd_sections", "troptoric.cli", "cmd_sections"),
    ("intersect.rr_check", "troptoric.intersect", "rr_check"),
    ("intersect.pairing", "troptoric.intersect", "pairing"),
    ("intersect.intersection_matrix", "troptoric.intersect", "intersection_matrix"),
    ("divisor.h0", "troptoric.divisor", "h0"),
    ("divisor.polytope", "troptoric.divisor", "polytope"),
    ("divisor.lattice_points", "troptoric.divisor", "lattice_points"),
    ("divisor.canonical_divisor", "troptoric.divisor", "canonical_divisor"),
    ("divisor.divisor_from_dict", "troptoric.divisor", "divisor_from_dict"),
    ("divisor.divisor_of_section", "troptoric.divisor", "divisor_of_section"),
    ("divisor.degree_along_ray", "troptoric.divisor", "degree_along_ray"),
    ("fan.Fan.eq", "troptoric.fan", "Fan.__eq__"),
    ("fan.Fan.is_smooth", "troptoric.fan", "Fan.is_smooth"),
    ("fan.is_complete", "troptoric.fan", "is_complete"),
    ("fan.fan_from_dict", "troptoric.fan", "fan_from_dict"),
    ("sections.global_sections", "troptoric.sections", "global_sections"),
    ("sections.h0_a", "troptoric.sections", "h0_a"),
    ("sections.h0_b", "troptoric.sections", "h0_b"),
    ("sections.local_slope_count", "troptoric.sections", "local_slope_count"),
    ("sections.generator_value", "troptoric.sections", "generator_value"),
    ("sections.vandermonde_section", "troptoric.sections", "vandermonde_section"),
    ("sections.passes_through", "troptoric.sections", "passes_through"),
    ("trop.trop_det", "troptoric.trop", "trop_det"),
    ("trop.supporting_monomials", "troptoric.trop", "supporting_monomials"),
    ("curve.corner_locus", "troptoric.curve", "corner_locus"),
    ("curve.newton_subdivision", "troptoric.curve", "newton_subdivision"),
    ("curve.is_balanced", "troptoric.curve", "is_balanced"),
    ("jsonutil.format_rational", "troptoric.jsonutil", "format_rational"),
    ("jsonutil.parse_rational", "troptoric.jsonutil", "parse_rational"),
)

MODULES = ("cli", "curve", "divisor", "fan", "intersect", "jsonutil", "sections", "trop")

_SAMPLER = ("sections.h0_a", "sections.h0_b")


def _count_det(tracer, args, result):
    m = args[0]
    k = m.size if hasattr(m, "size") else len(m)
    tracer.counts[f"trop.trop_det.calls.k{k}"] += 1
    tracer.counts["trop.trop_det.perms"] += math.factorial(k)


def _count_points(tracer, args, result):
    tracer.counts["divisor.lattice_points.points"] += len(result)


def _count_terms(tracer, args, result):
    tracer.counts["curve.corner_locus.terms"] += len(args[0])


def _count_sample_value(tracer, args, result):
    if tracer.stack and tracer.stack[-1][0] in _SAMPLER:
        tracer.counts["_sampled_values"] += 1


def _count_accepted(tracer, args, result):
    if tracer.stack and tracer.stack[-1][0] in _SAMPLER:
        tracer.counts["sections.sample_accepted"] += 1


def _count_drawn(tracer, args, result):
    # every drawn point is evaluated at each generator exactly once
    rank = args[0].rank
    values = tracer.counts.pop("_sampled_values", 0)
    if rank:
        tracer.counts["sections.sample_drawn"] += values // rank


HOOKS = {
    "trop.trop_det": _count_det,
    "divisor.lattice_points": _count_points,
    "curve.corner_locus": _count_terms,
    "sections.generator_value": _count_sample_value,
    "sections.local_slope_count": _count_accepted,
    "sections.h0_a": _count_drawn,
    "sections.h0_b": _count_drawn,
}


class Tracer:
    """In-memory span recorder with exact per-name self-time aggregation."""

    def __init__(self, raw_cap: int = 20_000):
        self.raw_cap = raw_cap
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: collections.Counter = collections.Counter()
        self.stack: list[list] = []  # open spans: [name, child_s, span_id]
        self.spans: list[tuple] = []  # (id, name, parent_id, start, end)
        self.n_spans = 0
        self.top_s = 0.0  # time covered by spans that have no parent

    def wrap(self, name, fn, hook=None):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.n_spans
            self.n_spans = span_id + 1
            frame = [name, 0.0, span_id]
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                agg[0] += 1
                agg[1] += d
                agg[2] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                else:
                    self.top_s += d
                if span_id < self.raw_cap:
                    self.spans.append((span_id, name, parent, t0, t1))
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def calls(self, name) -> int:
        return self.agg.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def module_self_s(self, module) -> float:
        return sum(a[2] for n, a in self.agg.items() if n.split(".", 1)[0] == module)

    def to_dict(self) -> dict:
        return {
            "agg": {n: list(a) for n, a in self.agg.items()},
            "counts": dict(self.counts),
            "n_spans": self.n_spans,
            "top_s": self.top_s,
            "spans": self.spans,
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def read(cls, path) -> "Tracer":
        """A tracer holding what another process wrote with `write`."""
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        t = cls()
        t.agg = d["agg"]
        t.counts.update(d["counts"])
        t.n_spans = d["n_spans"]
        t.top_s = d["top_s"]
        t.spans = d["spans"]
        return t


def install(tracer: Tracer):
    """Wrap every target at each name its callers look it up by.

    Returns a function that puts the original functions back.
    """
    pkg = importlib.import_module("troptoric")
    modules = [pkg] + [importlib.import_module(f"troptoric.{m}") for m in MODULES]
    cli = importlib.import_module("troptoric.cli")
    undo = []
    for name, modname, attr in TARGETS:
        owner = importlib.import_module(modname)
        hook = HOOKS.get(name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, orig, hook))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))
        for key, value in cli._HANDLERS.items():
            if value is orig:
                cli._HANDLERS[key] = wrapped
                undo.append((cli._HANDLERS, key, orig))

    def uninstall():
        for target, key, orig in reversed(undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)

    return uninstall
