"""Trace spans: the Figure-1 processing order, recorded as data.

The golden-structure tests pin the span tree for one signed, distributed
counter GetValue round-trip to the paper's processing order — on *both*
stacks, which is the point of the shared pipeline: WSRF and
WS-Transfer provably run the same middleware sequence.
"""

import gc
from collections import Counter

import pytest

from repro.apps.counter.deploy import (
    CounterScenario,
    build_transfer_rig,
    build_wsrf_rig,
)
from repro.bench.runner import measure_virtual
from repro.container.security import SecurityMode
from repro.sim import Clock
from repro.sim.costs import CostModel
from repro.sim.metrics import MetricsRecorder, Span, WireLogEntry

#: Figure 1 as a span-tree fingerprint: marshal+sign, wire, receive+verify,
#: dispatch, sign+send, wire, receive+verify.
SIGNED_ROUND_TRIP = (
    "client.invoke",
    (
        ("client.send", (("security.sign", ()),)),
        ("wire.request", ()),
        ("server.receive", (("security.verify", ()),)),
        ("dispatch", ()),
        ("server.send", (("security.sign", ()),)),
        ("wire.response", ()),
        ("client.receive", (("security.verify", ()),)),
    ),
)

UNSIGNED_ROUND_TRIP = (
    "client.invoke",
    (
        ("client.send", ()),
        ("wire.request", ()),
        ("server.receive", ()),
        ("dispatch", ()),
        ("server.send", ()),
        ("wire.response", ()),
        ("client.receive", ()),
    ),
)


def _rig(stack: str, mode: SecurityMode):
    scenario = CounterScenario(mode, False, CostModel())
    return build_wsrf_rig(scenario) if stack == "wsrf" else build_transfer_rig(scenario)


def _bracketed(deployment, operation):
    """The span trees completed while ``operation`` ran in one bracket."""
    return measure_virtual(deployment, "op", operation).spans


def _recorder_and_trace():
    recorder = MetricsRecorder()
    return recorder, recorder.begin("op", 0.0)


class TestGoldenStructure:
    @pytest.mark.parametrize("stack", ("wsrf", "transfer"))
    def test_signed_get_round_trip_matches_figure_1(self, stack):
        rig = _rig(stack, SecurityMode.X509)
        counter = rig.client.create(0)
        spans = _bracketed(rig.deployment, lambda: rig.client.get(counter))
        assert rig.deployment.network.metrics.open_depth == 0
        assert [root.shape() for root in spans] == [SIGNED_ROUND_TRIP]

    @pytest.mark.parametrize("stack", ("wsrf", "transfer"))
    def test_unsigned_get_has_no_security_spans(self, stack):
        rig = _rig(stack, SecurityMode.NONE)
        counter = rig.client.create(0)
        spans = _bracketed(rig.deployment, lambda: rig.client.get(counter))
        assert spans[-1].shape() == UNSIGNED_ROUND_TRIP

    @pytest.mark.parametrize("stack", ("wsrf", "transfer"))
    def test_both_stacks_share_one_processing_model(self, stack):
        """Span *names* are stack-independent — the tentpole's guarantee."""
        rig = _rig(stack, SecurityMode.X509)
        counter = rig.client.create(0)
        spans = _bracketed(rig.deployment, lambda: rig.client.set(counter, 3))
        names = [span.name for _, span in spans[-1].walk()]
        assert names[0] == "client.invoke"
        assert "stack" not in " ".join(names)  # no stack-specific stages


class TestSpanTimings:
    def test_spans_cover_the_whole_operation(self):
        rig = _rig("wsrf", SecurityMode.X509)
        counter = rig.client.create(0)
        network = rig.deployment.network
        t0 = network.clock.now
        [root] = _bracketed(rig.deployment, lambda: rig.client.get(counter))
        assert root.started_at == t0
        assert root.ended_at == network.clock.now
        assert root.elapsed_ms > 0
        # Children partition the parent: each child inside the root window.
        for _, span in root.walk():
            assert root.started_at <= span.started_at <= span.ended_at <= root.ended_at

    def test_dispatch_nests_nested_outcalls(self):
        """A server out-call's client.invoke appears under dispatch."""
        from tests.helpers import fresh_vo

        vo = fresh_vo("wsrf", mode=SecurityMode.X509)
        spans = _bracketed(
            vo.deployment, lambda: vo.client.get_available_resources("sort")
        )
        dispatch = spans[-1].find("dispatch")
        assert dispatch is not None
        assert dispatch.find("client.invoke") is not None  # broker → site outcall


class TestSpanStack:
    def test_nesting_and_roots(self):
        clock = Clock()
        rec, trace = _recorder_and_trace()
        with rec.span("outer", clock):
            clock.charge(5.0)
            with rec.span("inner", clock):
                clock.charge(2.0)
        assert [s.name for s in trace.spans] == ["outer"]
        assert trace.spans[0].shape() == ("outer", (("inner", ()),))
        assert trace.spans[0].elapsed_ms == 7.0
        assert trace.spans[0].children[0].elapsed_ms == 2.0

    def test_exception_closes_abandoned_spans(self):
        clock = Clock()
        rec, trace = _recorder_and_trace()
        with pytest.raises(RuntimeError):
            with rec.span("outer", clock):
                rec.push("abandoned", clock.now)
                raise RuntimeError("boom")
        assert rec.open_depth == 0
        assert trace.spans[-1].shape() == ("outer", (("abandoned", ()),))

    def test_close_by_identity(self):
        clock = Clock()
        rec, trace = _recorder_and_trace()
        outer = rec.push("outer", clock.now)
        rec.push("left-open", clock.now)
        clock.charge(3.0)
        rec.close(outer, clock.now)
        assert rec.open_depth == 0
        assert trace.spans[-1] is outer
        rec.close(outer, clock.now)  # idempotent once closed
        assert len(trace.spans) == 1

    def test_closing_a_closed_span_leaves_an_equal_open_span_alone(self):
        # Two spans with equal fields are still different spans: closing
        # the finished one must not pop its open look-alike.
        rec, trace = _recorder_and_trace()
        first = rec.push("x", 0.0)
        rec.close(first, 0.0)
        second = rec.push("x", 0.0)
        assert first.shape() == second.shape() and first is not second
        rec.close(first, 0.0)
        assert rec.open_spans == [second]
        assert trace.spans == [first]
        rec.close(second, 0.0)
        assert rec.open_depth == 0
        assert trace.spans == [first, second]

    def test_to_dict_round_trips_structure(self):
        clock = Clock()
        rec, trace = _recorder_and_trace()
        with rec.span("op", clock, detail="urn:test/Get"):
            clock.charge(1.0)
        data = trace.spans[-1].to_dict()
        assert data["name"] == "op"
        assert data["detail"] == "urn:test/Get"
        assert data["elapsed_ms"] == 1.0
        assert data["children"] == []


def _live(kinds):
    gc.collect()
    return Counter(type(obj) for obj in gc.get_objects() if isinstance(obj, kinds))


class TestNothingRetainedOutsideABracket:
    def test_serial_gets_without_a_bracket_keep_no_spans_or_wire_log(self):
        rig = _rig("wsrf", SecurityMode.NONE)
        counter = rig.client.create(0)
        rig.client.get(counter)
        before = _live((Span, WireLogEntry))
        for _ in range(1000):
            rig.client.get(counter)
        assert _live((Span, WireLogEntry)) == before
        assert rig.deployment.network.metrics.open_depth == 0
        # The same Get inside a bracket keeps its tree and its two messages.
        trace = measure_virtual(rig.deployment, "Get", lambda: rig.client.get(counter))
        assert [root.shape() for root in trace.spans] == [UNSIGNED_ROUND_TRIP]
        assert [entry.kind for entry in trace.wire_log] == ["request", "response"]
