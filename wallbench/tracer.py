"""Per-layer wall-clock tracing from outside the program.

The traced run wraps one public call per layer boundary: at its class
attribute for methods, and at every module binding for functions, because
``from module import name`` copies the binding at import time.  Each call
becomes a span that records its op index, its parent span and its start
and end.  A span's self time is its duration minus the durations of its
child spans.  Spans are kept in flat arrays in memory and reduced to
per-call totals when the run ends.

Nothing here changes what the program computes: a wrapper only calls the
original and notes the time.  The benchmark checks that the traced run's
virtual fingerprints equal the untraced run's.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

#: ``(layer, call, targets)``: every target is ``module:attribute`` or
#: ``module:Class.attribute``; several targets share one call name.
CALLS = (
    ("crypto", "rsa_sign", ("repro.crypto.rsa:RsaKeyPair.sign",)),
    ("crypto", "rsa_verify", ("repro.crypto.rsa:RsaPublicKey.verify",)),
    ("crypto", "keygen", ("repro.crypto.rsa:RsaKeyPair.generate",)),
    ("crypto", "ca_issue", ("repro.crypto.x509:CertificateAuthority.issue",)),
    ("crypto", "cert_check", ("repro.crypto.x509:Certificate.check",)),
    ("crypto", "dsig_sign", ("repro.crypto.xmldsig:sign_element",)),
    ("crypto", "dsig_verify", ("repro.crypto.xmldsig:verify_element",)),
    ("xmllib", "c14n", ("repro.xmllib.c14n:canonicalize",)),
    ("xmllib", "serialize", ("repro.xmllib.serialize:serialize",)),
    ("xmllib", "parse", ("repro.xmllib.parse:parse_xml",)),
    ("xmllib", "copy", ("repro.xmllib.element:XmlElement.copy",)),
    ("xmllib", "content_key", ("repro.xmllib.element:content_key",)),
    ("soap", "wire_out", ("repro.soap.message:WireMessage.from_envelope",)),
    ("soap", "receipt", ("repro.soap.message:WireMessage.parse",)),
    ("container", "invoke", ("repro.container.client:SoapClient.invoke",)),
    ("container", "secure_outgoing",
     ("repro.container.security:SecurityHandler.secure_outgoing",)),
    ("container", "verify_incoming",
     ("repro.container.security:SecurityHandler.verify_incoming",)),
    ("container", "issue_credentials",
     ("repro.container.deployment:Deployment.issue_credentials",)),
    ("container", "deliver_notification",
     ("repro.container.deployment:Deployment.deliver_notification",)),
    ("pipeline", "outbound", ("repro.pipeline.chain:FilterChain.run_outbound",)),
    ("pipeline", "inbound", ("repro.pipeline.chain:FilterChain.run_inbound",)),
    ("sim", "run_sync", ("repro.sim.kernel:Kernel.run_sync",)),
    ("sim", "run", ("repro.sim.kernel:Kernel.run",)),
    ("sim", "transmit",
     ("repro.sim.network:Network.transmit", "repro.sim.network:Network.transmit_response")),
    ("xmldb", "insert", ("repro.xmldb.collection:Collection.insert",)),
    ("xmldb", "read", ("repro.xmldb.collection:Collection.read",)),
    ("xmldb", "update", ("repro.xmldb.collection:Collection.update",)),
    ("xmldb", "query", ("repro.xmldb.collection:Collection.query",)),
    ("testkit", "build_world", ("repro.testkit.worlds:build_world",)),
    ("testkit", "run_differential", ("repro.testkit.harness:run_differential",)),
    ("apps", "build_rig",
     ("repro.apps.counter.deploy:build_wsrf_rig",
      "repro.apps.counter.deploy:build_transfer_rig")),
)

NAMES = tuple(f"{layer}.{call}" for layer, call, _ in CALLS)

#: Op index of spans recorded before the timed phase and between its ops.
SETUP = -1
BETWEEN_OPS = -2


class Tracer:
    """Span recorder for the wrapped calls of :data:`CALLS`."""

    def __init__(self) -> None:
        self.op = SETUP
        self._next_op = 0
        self.ops = array("q")
        self.parents = array("q")
        self.calls = array("b")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: list[int] = []

    def mark_op(self, inside: bool) -> None:
        """Open or close the next timed op (spans between ops are tagged
        :data:`BETWEEN_OPS`)."""
        if inside:
            self.op = self._next_op
            self._next_op += 1
        else:
            self.op = BETWEEN_OPS

    def install(self) -> None:
        """Import every target and replace it with a span-recording wrapper."""
        for call_id, (_layer, _call, targets) in enumerate(CALLS):
            for target in targets:
                module_name, _, path = target.partition(":")
                module = importlib.import_module(module_name)
                owner_name, _, attribute = path.rpartition(".")
                if owner_name:
                    self._wrap_method(getattr(module, owner_name), attribute, call_id)
                else:
                    self._wrap_function(module, attribute, call_id)

    def _wrap_method(self, owner: type, attribute: str, call_id: int) -> None:
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(self._wrapper(raw.__func__, call_id)))
        else:
            setattr(owner, attribute, self._wrapper(raw, call_id))

    def _wrap_function(self, module, attribute: str, call_id: int) -> None:
        original = getattr(module, attribute)
        wrapped = self._wrapper(original, call_id)
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    setattr(other, name, wrapped)

    def _wrapper(self, fn, call_id: int):
        ops_append = self.ops.append
        parents_append = self.parents.append
        calls_append = self.calls.append
        starts_append = self.starts.append
        ends = self.ends
        ends_append = ends.append
        clock = time.perf_counter_ns
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ends)
            ops_append(tracer.op)
            parents_append(stack[-1] if stack else -1)
            calls_append(call_id)
            ends_append(0)
            stack.append(index)
            starts_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per-call totals: timed-op calls and self ns, setup self ns, and
        how many receipts re-parsed their message instead of copying it."""
        n = len(self.ends)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        children = [0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += durations[i]
        totals = {name: {"calls": 0, "self_ns": 0, "setup_ns": 0} for name in NAMES}
        parse_id = NAMES.index("xmllib.parse")
        receipt_id = NAMES.index("soap.receipt")
        reparsed = set()
        for i in range(n):
            entry = totals[NAMES[self.calls[i]]]
            own = durations[i] - children[i]
            op = self.ops[i]
            if op >= 0:
                entry["calls"] += 1
                entry["self_ns"] += own
                parent = self.parents[i]
                if self.calls[i] == parse_id and parent >= 0 and self.calls[parent] == receipt_id:
                    reparsed.add(parent)
            elif op == SETUP:
                entry["setup_ns"] += own
        return {"calls": totals, "receipts_reparsed": len(reparsed)}
