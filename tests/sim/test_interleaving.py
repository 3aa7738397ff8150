"""Acceptance: overlapping requests share one virtual timeline.

The ISSUE-7 criterion: a seeded two-client run must show the second
request queueing behind the first (queueing delay > 0) while the *total*
service cost matches the serial ledger — concurrency changes the shape
of time, never the amount of work — and the same seed must reproduce
the schedule exactly.
"""

import pytest

from repro.apps.counter.deploy import (
    SERVER_HOST,
    CounterScenario,
    build_wsrf_rig,
)
from repro.apps.giab.vo import CENTRAL_HOST, build_wsrf_vo
from repro.container.security import SecurityMode
from repro.sim.loadgen import run_open_loop
from repro.wsrf.properties import actions as rp_actions
from repro.xmllib import element, ns, text_of
from tests.pipeline.test_trace_spans import SIGNED_ROUND_TRIP


def build_rig():
    return build_wsrf_rig(CounterScenario(SecurityMode.X509, colocated=False))


def get_request():
    return element(f"{{{ns.WSRF_RP}}}GetResourceProperty", "Value")


def parse_value(response):
    return int(text_of(response.find(f"{{{ns.COUNTER}}}Value")))


def serial_costs():
    """Per-category cost of two serial Gets (the pre-kernel regime)."""
    rig = build_rig()
    counter = rig.client.create(3)
    metrics = rig.deployment.network.metrics
    before = dict(metrics.time_by_category)
    start = rig.deployment.network.clock.now
    assert rig.client.get(counter) == 3
    assert rig.client.get(counter) == 3
    elapsed = rig.deployment.network.clock.now - start
    delta = {
        category: metrics.time_by_category[category] - before.get(category, 0.0)
        for category in metrics.time_by_category
    }
    return {k: v for k, v in delta.items() if v}, elapsed


def concurrent_run(gap_ms=1.0):
    """Two overlapping Gets spawned ``gap_ms`` apart on the kernel."""
    rig = build_rig()
    counter = rig.client.create(3)
    network = rig.deployment.network
    kernel = network.kernel
    soap = rig.client.soap
    metrics = network.metrics
    before = dict(metrics.time_by_category)
    start = network.clock.now
    first = kernel.spawn(
        soap.invoke_task(counter, rp_actions.GET, get_request()), "first",
        at=start,
    )
    second = kernel.spawn(
        soap.invoke_task(counter, rp_actions.GET, get_request()), "second",
        at=start + gap_ms,
    )
    kernel.run()
    elapsed = network.clock.now - start
    delta = {
        category: metrics.time_by_category[category] - before.get(category, 0.0)
        for category in metrics.time_by_category
    }
    return {
        "first": first,
        "second": second,
        "costs": {k: v for k, v in delta.items() if v},
        "elapsed": elapsed,
        "pool": kernel.pool(SERVER_HOST),
    }


class TestTwoClientInterleaving:
    def test_second_request_queues_behind_the_first(self):
        run = concurrent_run()
        assert run["first"].queueing_delay_ms == 0.0
        assert run["second"].queueing_delay_ms > 0.0
        assert run["pool"].max_depth == 1

    def test_both_requests_complete_correctly(self):
        run = concurrent_run()
        for task in (run["first"], run["second"]):
            assert task.ok, task.error
            assert parse_value(task.result) == 3

    def test_total_service_cost_matches_serial_ledger(self):
        # Interleaving reorders work on the timeline; it must not create
        # or destroy any: every per-category total matches two serial Gets
        # exactly (connection setup included — exactly one request pays
        # the cold handshake in either regime).
        serial, serial_elapsed = serial_costs()
        run = concurrent_run()
        assert set(run["costs"]) == set(serial)
        for category, total in serial.items():
            assert run["costs"][category] == pytest.approx(total, abs=1e-9), category
        # The same work, overlapped: the makespan shrinks.
        assert run["elapsed"] < serial_elapsed

    def test_same_seed_reproduces_identical_schedule(self):
        def fingerprint():
            run = concurrent_run()
            return (
                run["first"].latency_ms,
                run["second"].latency_ms,
                run["second"].queueing_delay_ms,
                run["elapsed"],
                sorted(run["costs"].items()),
            )

        assert fingerprint() == fingerprint()

    def test_span_trees_stay_well_formed_per_task(self):
        # Each task opens its spans on its own stack; interleaving must not
        # corrupt any tree.  With a bracket open over an open-loop run the
        # trace holds one Figure-1 tree per request.
        rig = build_rig()
        counter = rig.client.create(3)
        network = rig.deployment.network
        soap = rig.client.soap
        arrivals = [network.clock.now + gap for gap in (0.0, 1.0, 2.0, 3.0)]
        trace = network.metrics.begin("load", network.clock.now)
        result = run_open_loop(
            network.kernel, arrivals,
            lambda i: soap.invoke_task(counter, rp_actions.GET, get_request()),
        )
        network.metrics.end(network.clock.now)
        assert result.completed == 4
        assert result.queueing.max > 0.0  # the requests really overlapped
        assert network.metrics.open_depth == 0
        assert [root.shape() for root in trace.spans] == [SIGNED_ROUND_TRIP] * 4
        for root in trace.spans:
            for _, span in root.walk():
                assert root.started_at <= span.started_at <= span.ended_at <= root.ended_at


class TestSerialPathThroughKernel:
    def test_plain_invoke_routes_via_run_sync(self):
        rig = build_rig()
        pool = rig.deployment.network.kernel.pool(SERVER_HOST)
        granted = pool.granted
        counter = rig.client.create(1)
        assert rig.client.get(counter) == 1
        # create + get each took the server's worker slot in run_sync.
        assert pool.granted == granted + 2

    def test_nested_out_call_takes_no_worker_slot(self):
        # getAvailableResources makes one server out-call to the
        # reservation service from inside container.handle: two round
        # trips on the wire, but only the top-level request takes a slot.
        vo = build_wsrf_vo()
        network = vo.deployment.network
        pool = network.kernel.pool(CENTRAL_HOST)
        granted = pool.granted
        messages = network.metrics.total_messages
        assert vo.client.get_available_resources("sort")
        assert network.metrics.total_messages - messages == 4
        assert pool.granted == granted + 1
        assert pool.busy == 0

    def test_no_pool_state_leaks_after_serial_requests(self):
        rig = build_rig()
        counter = rig.client.create(1)
        rig.client.set(counter, 9)
        assert rig.client.get(counter) == 9
        pool = rig.deployment.network.kernel.pool(SERVER_HOST)
        assert pool.busy == 0
        assert pool.depth == 0
        assert pool.max_depth == 0  # serial requests never queue
