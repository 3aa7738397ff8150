"""Host-speed calibration: fixed pure-Python kernels timed beside the work.

The benchmark shares its host with other tenants, and their load changes
how fast the same Python runs by a third or more within seconds.  Every
timed op is therefore preceded by a short calibration: a fixed kernel whose
wall time measures the host's current speed.  Dividing the op's wall time
by the host-speed index rescales it to a quiet reference host, which
cancels most of that drift while leaving any change in the program's own
cost in place (the kernels import nothing from the program).

Two kernels cover the simulator's two kinds of work: ``tree`` builds and
serializes a small object tree (allocation, dicts, string joins — the XML
message path) and ``bigint`` runs one modular exponentiation (RSA).  Each
workload uses the kernel whose times tracked its op times best when op and
kernel times were recorded side by side for 100 s per workload: ``tree``
for the cached signed soak, ``bigint`` for the three workloads where RSA
dominates, and for set-up, which is mostly keygen.
"""

from __future__ import annotations

import gc
import time

#: Kernel wall ms on a quiet 2-core x86-64 host running CPython 3.11; the
#: index is 1.0 on that host and 1.5 where the kernel runs 1.5x slower.
TREE_REF_MS = 0.24
BIGINT_REF_MS = 0.60

_MODULUS = (1 << 1023) + 0x1D7E3A4B5C6D7E8F
_EXPONENT = (1 << 190) + 0x2B


class _Node:
    __slots__ = ("tag", "attrs", "kids")

    def __init__(self, tag: str, attrs: dict) -> None:
        self.tag = tag
        self.attrs = attrs
        self.kids = []


def _tree() -> int:
    out = 0
    for rep in range(2):
        root = _Node("root", {"id": str(rep)})
        nodes = [root]
        for i in range(60):
            node = _Node(f"n{i % 7}", {"k": str(i), "v": "x" * (i % 5)})
            nodes[i % len(nodes)].kids.append(node)
            nodes.append(node)
        parts = []
        todo = [root]
        while todo:
            node = todo.pop()
            attrs = " ".join(f'{k}="{v}"' for k, v in sorted(node.attrs.items()))
            parts.append(f"<{node.tag} {attrs}>")
            todo.extend(reversed(node.kids))
        out += hash((len("".join(parts)), tuple(parts[:5])))
    return out


def _bigint() -> int:
    return pow(5, _EXPONENT, _MODULUS)


def _time_ms(kernel) -> float:
    start = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - start) / 1e6


KERNELS = {"tree": (_tree, TREE_REF_MS), "bigint": (_bigint, BIGINT_REF_MS)}
#: Set-up is mostly RSA keygen.
SETUP_KERNEL = "bigint"


def index(kernel: str) -> float:
    """The host's current slowness relative to the reference host.

    Collection is paused while the kernel runs, so the program's heap
    cannot make it slower.
    """
    run, reference_ms = KERNELS[kernel]
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _time_ms(run) / reference_ms
    finally:
        if collecting:
            gc.enable()


def burst(kernel: str) -> float:
    """The median index over a short burst of 15 calibrations."""
    values = sorted(index(kernel) for _ in range(15))
    return values[7]
