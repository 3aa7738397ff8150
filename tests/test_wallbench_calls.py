"""What the wall-clock benchmark uses of the simulator still works.

``wallbench/tracer.py`` wraps one public call per layer boundary, found by
name, and ``wallbench/workloads.py`` reads its virtual fingerprint off
the metrics recorder's ``begin``/``end`` bracket.  A refactor that renames
or moves one of them would otherwise only show up as a broken benchmark
run; here it fails the test suite.  The benchmark's modules are loaded by
path with bytecode writing off, so the test leaves ``wallbench/`` as it
found it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

WALLBENCH = Path(__file__).resolve().parent.parent / "wallbench"

#: The virtual fingerprint keys ``workloads._close_brackets`` reports.
FINGERPRINT_KEYS = {
    "virtual_ms_per_op", "messages", "bytes", "signatures", "verifications", "db_ops",
}


def load_wallbench(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"wallbench_{name}", WALLBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered while the test runs: dataclasses resolve their module.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_resolves(monkeypatch):
    tracer = load_wallbench(monkeypatch, "tracer")
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


def test_brackets_report_the_virtual_fingerprint(monkeypatch):
    # workloads.py imports its sibling module by its bare name.
    monkeypatch.setitem(sys.modules, "hostspeed", load_wallbench(monkeypatch, "hostspeed"))
    workloads = load_wallbench(monkeypatch, "workloads")
    rigs = workloads._x509_distributed_rigs()
    counters = [rig.client.create(7) for rig in rigs]
    networks = [rig.deployment.network for rig in rigs]
    workloads._open_brackets(networks)
    for rig, counter in zip(rigs, counters):
        assert rig.client.get(counter) == 7
    virtual = workloads._close_brackets(networks, len(rigs))
    assert set(virtual) == FINGERPRINT_KEYS
    for key, value in virtual.items():
        assert type(value) in (int, float), key
    # One signed round trip per stack: request and response each signed
    # by one side and verified by the other.
    assert virtual["virtual_ms_per_op"] > 0
    assert (virtual["messages"], virtual["signatures"], virtual["verifications"]) == (4, 4, 4)
