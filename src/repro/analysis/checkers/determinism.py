"""RPO10 — determinism: no ambient entropy on cost-ledger/comparator paths.

The dual-stack comparison only works because both stacks run on the same
virtual timeline with the same seeded RNG: a run is a pure function of
(program, mode, seed).  Reading the wall clock, pulling unseeded
randomness, hashing object identities, or iterating a set where order
leaks into output all smuggle host entropy into results — and once the
concurrent kernel interleaves requests, that entropy becomes schedule
nondeterminism the conformance harness cannot distinguish from a real
stack divergence.

Sources detected:

* ``time.time``/``time.time_ns``/``time.monotonic``/``time.perf_counter``
* ``datetime.now``/``datetime.utcnow``/``datetime.today``
* module-level ``random.*`` (unseeded process RNG; a seeded
  ``random.Random(seed)`` instance is fine and is what ``Clock.rng`` is)
* ``os.urandom`` and ``uuid.uuid4``
* ``id(x)`` used as a dict/set key or sort key
* iterating a set literal / ``set(...)`` directly (iteration order is
  hash-seed dependent; sort first)

Every finding is an *error*: no code under ``src/`` has a reason to
read host entropy (the analyzer itself and the clock's seeded RNG are
exempt), and wall-clock measurement lives outside it, in ``wallbench/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import register
from repro.analysis.project import ProjectContext

_TIME_ATTRS = frozenset({"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"})
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

def _exempt(path: str) -> bool:
    # The analyzer runs offline; the clock module owns the seeded RNG.
    return "repro/analysis/" in path or path.endswith("sim/clock.py")


@register
class DeterminismChecker:
    rule_id = "RPO10"
    description = (
        "no wall-clock reads, unseeded randomness, id()-keyed or "
        "set-iteration-ordered data on paths feeding the cost ledger or "
        "comparators"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if _exempt(module.path):
            return
        project = module.project
        if not isinstance(project, ProjectContext):
            project = ProjectContext.single(module)
        for node, reason in _entropy_sites(module):
            yield Finding(
                rule=self.rule_id,
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                symbol=_symbol(project, module, node),
                message=f"{reason}; runs must be a pure function of (program, mode, seed)",
                severity="error",
            )


def _symbol(project: ProjectContext, module: ModuleContext, node: ast.AST) -> str:
    """The enclosing function's symbol for an entropy site."""
    info = _enclosing(project, module, node)
    return "<module>" if info is None else info.symbol


def _entropy_sites(module: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    _ID_KEY_MSG = "id()-keyed data varies per process (addresses are not stable)"
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            reason = _call_entropy(node, module)
            if reason is not None:
                yield node, reason
        elif isinstance(node, (ast.For, ast.comprehension)):
            iterable = node.iter
            if _is_bare_set(iterable):
                yield iterable, (
                    "iteration order of a set is hash-seed dependent and "
                    "leaks into output; sort it first"
                )
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None and _is_id_call(key):
                    yield key, _ID_KEY_MSG
        elif isinstance(node, ast.Subscript) and _is_id_call(node.slice):
            yield node.slice, _ID_KEY_MSG


def _call_entropy(call: ast.Call, module: ModuleContext) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        base, attr = func.value.id, func.attr
        if base == "time" and attr in _TIME_ATTRS:
            return f"wall-clock read time.{attr}() is host entropy; use the virtual Clock"
        if base == "datetime" and attr in _DATETIME_ATTRS:
            return f"datetime.{attr}() reads the host clock; use the virtual Clock"
        if base == "random":
            if attr == "Random" and (call.args or call.keywords):
                return None  # random.Random(seed) — explicitly seeded, fine
            if attr == "Random":
                return (
                    "random.Random() with no seed draws from process entropy; "
                    "seed it from the run's (program, mode, seed) tuple"
                )
            if attr == "SystemRandom":
                return "random.SystemRandom() is OS entropy and never reproducible"
            return (
                f"module-level random.{attr}() uses the unseeded process RNG; "
                "use the run's seeded Clock.rng"
            )
        if base == "os" and attr == "urandom":
            return "os.urandom() is irreproducible entropy; derive bytes from the seeded RNG"
        if base == "uuid" and attr == "uuid4":
            return "uuid.uuid4() is random per process; derive ids from the seeded RNG"
    if isinstance(func, ast.Name):
        bound = module.imports.get(func.id)
        if bound is not None:
            source, original = bound
            if source == "os" and original == "urandom":
                return "os.urandom() is irreproducible entropy; derive bytes from the seeded RNG"
            if source == "uuid" and original == "uuid4":
                return "uuid.uuid4() is random per process; derive ids from the seeded RNG"
    # sorted(xs, key=id) — ordering by object address.
    for keyword in call.keywords:
        if (
            keyword.arg == "key"
            and isinstance(keyword.value, ast.Name)
            and keyword.value.id == "id"
        ):
            return "sorting by id() orders objects by memory address"
    return None


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


def _is_bare_set(node: ast.expr) -> bool:
    if isinstance(node, ast.Set):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "set"
    )


def _enclosing(project: ProjectContext, module: ModuleContext, target: ast.AST):
    def find(node: ast.AST, current):
        if node is target:
            return current
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = project.function_at(module, node)
            current = info if info is not None else current
        for child in ast.iter_child_nodes(node):
            found = find(child, current)
            if found is not _MISS:
                return found
        return _MISS

    result = find(module.tree, None)
    return None if result is _MISS else result


_MISS = object()
