"""Every call the wall-clock benchmark traces still exists.

``wallbench/tracer.py`` wraps one public call per layer boundary, found by
name.  A refactor that renames or moves one of them would otherwise only
show up as a broken traced benchmark run; here it fails the test suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "wallbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("wallbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    targets = [target for _layer, _call, group in tracer.CALLS for target in group]
    assert targets
    missing = []
    for target in targets:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attribute = path.rpartition(".")
        if owner_name:
            # The tracer patches the class's own attribute, so an
            # inherited one would not do.
            owner = getattr(module, owner_name, None)
            found = isinstance(owner, type) and attribute in vars(owner)
        else:
            found = callable(getattr(module, attribute, None))
        if not found:
            missing.append(target)
    assert missing == []
