"""The benchmark's tracer still finds every function it traces.

`bench/tracing.py` wraps each traced function at every name its callers
look it up by, from outside `src/`, so a change that moves or renames one
of them makes every traced benchmark run abort.  These tests load the
benchmark's own files by path, read only, and install the tracer on the
package for the length of one test.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

from troptoric import cli
from troptoric.fan import Fan

ROOT = Path(__file__).resolve().parents[1]


def load(name):
    """bench/<name>.py as a module of its own, under a private name."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks up the module of its class while it is made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def traced(owner, attr):
    # the object a target's name resolves to: a function, or a method in
    # the class's own __dict__
    if "." in attr:
        cls, method = attr.split(".")
        return vars(getattr(owner, cls))[method]
    return getattr(owner, attr)


def test_tracer_resolves_every_target_and_puts_back_the_originals(capsys):
    tracing, workloads = load("tracing"), load("workloads")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert set(workloads.WORKLOADS) == {w["name"] for w in json.load(fh)["workloads"]}
    # the workloads time the package through its module attributes, where
    # the tracer's wrappers sit
    assert workloads.cli is cli
    modules = [importlib.import_module("troptoric")]
    modules += [importlib.import_module(f"troptoric.{m}") for m in tracing.MODULES]
    saved = [dict(vars(m)) for m in modules]
    handlers = dict(cli._HANDLERS)
    methods = dict(vars(Fan))
    originals = {name: traced(importlib.import_module(mod), attr) for name, mod, attr in tracing.TARGETS}
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for name, mod, attr in tracing.TARGETS:
            wrapper = traced(importlib.import_module(mod), attr)
            assert wrapper is not originals[name] and wrapper.__wrapped__ is originals[name], name
        assert cli._HANDLERS["sweep"].__wrapped__ is handlers["sweep"]
        assert cli.main(["fan", "builtin", "p2"]) == cli.EXIT_OK
        assert tracer.calls("cli.main") == 1
    finally:
        uninstall()
    capsys.readouterr()
    for module, before in zip(modules, saved):
        for key, value in before.items():
            assert vars(module)[key] is value, (module.__name__, key)
    assert cli._HANDLERS.keys() == handlers.keys()
    assert all(cli._HANDLERS[key] is value for key, value in handlers.items())
    assert all(vars(Fan)[key] is value for key, value in methods.items())
