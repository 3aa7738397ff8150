"""Unit tests for the simulated network, transports and caches."""

import pytest

from repro.sim import (
    ConnectionReset,
    CostModel,
    FaultSpec,
    Host,
    Network,
    TransportKind,
)


@pytest.fixture()
def net():
    return Network(CostModel())


A = Host("alpha")
B = Host("beta")


class TestTransmitCosts:
    def test_colocated_cheaper_than_distributed(self, net):
        net.transmit(A, A, 2048, TransportKind.HTTP)
        local = net.clock.now
        net2 = Network(CostModel())
        net2.transmit(A, B, 2048, TransportKind.HTTP)
        assert net2.clock.now > local

    def test_http_keepalive_cache(self, net):
        net.transmit(A, B, 1024, TransportKind.HTTP)
        cold = net.clock.now
        net.transmit(A, B, 1024, TransportKind.HTTP)
        warm = net.clock.now - cold
        assert warm < cold
        expected_delta = net.costs.http_connect - net.costs.http_connect_cached
        assert cold - warm == pytest.approx(expected_delta)

    def test_https_session_resumption(self, net):
        net.transmit(A, B, 1024, TransportKind.HTTPS)
        cold = net.clock.now
        net.transmit(A, B, 1024, TransportKind.HTTPS)
        warm = net.clock.now - cold
        assert cold - warm >= net.costs.tls_handshake - net.costs.tls_resume - 1e-9

    def test_https_adds_symmetric_crypto_per_kb(self):
        plain = Network(CostModel())
        tls = Network(CostModel())
        plain.transmit(A, B, 10240, TransportKind.HTTP)
        tls.transmit(A, B, 10240, TransportKind.HTTPS)
        # Strip connection setup differences: compare second (warm) sends.
        plain_start, tls_start = plain.clock.now, tls.clock.now
        plain.transmit(A, B, 10240, TransportKind.HTTP)
        tls.transmit(A, B, 10240, TransportKind.HTTPS)
        plain_warm = plain.clock.now - plain_start
        tls_warm = tls.clock.now - tls_start
        assert tls_warm > plain_warm

    def test_tcp_connect_once(self, net):
        net.transmit(A, B, 100, TransportKind.TCP)
        first = net.clock.now
        net.transmit(A, B, 100, TransportKind.TCP)
        assert net.clock.now - first < first

    def test_connection_cache_is_per_pair_and_kind(self, net):
        net.transmit(A, B, 0, TransportKind.HTTP)
        base = net.clock.now
        # Different destination: cold again.
        net.transmit(A, Host("gamma"), 0, TransportKind.HTTP)
        assert net.clock.now - base == pytest.approx(base)

    def test_drop_connections_restores_cold_cost(self, net):
        net.transmit(A, B, 0, TransportKind.HTTPS)
        cold = net.clock.now
        net.drop_connections()
        net.transmit(A, B, 0, TransportKind.HTTPS)
        assert net.clock.now - cold == pytest.approx(cold)

    def test_drop_connections_forgets_tcp_sockets(self, net):
        net.transmit(A, B, 100, TransportKind.TCP)
        cold = net.clock.now
        net.transmit(A, B, 100, TransportKind.TCP)
        warm = net.clock.now - cold
        net.drop_connections()
        before = net.clock.now
        net.transmit(A, B, 100, TransportKind.TCP)
        recold = net.clock.now - before
        assert recold == pytest.approx(cold)
        assert recold - warm == pytest.approx(net.costs.tcp_connect)

    def test_negative_bytes_rejected(self, net):
        with pytest.raises(ValueError):
            net.transmit(A, B, -1, TransportKind.HTTP)

    def test_bytes_scale_wire_time(self, net):
        net.transmit(A, B, 0, TransportKind.HTTP)
        t0 = net.clock.now
        net.transmit(A, B, 10 * 1024, TransportKind.HTTP)
        small = net.clock.now - t0
        t1 = net.clock.now
        net.transmit(A, B, 100 * 1024, TransportKind.HTTP)
        large = net.clock.now - t1
        assert large > small


class TestTlsSessionCache:
    """The paper's socket-caching observation: resumed TLS sessions skip
    the full handshake, and losing the connection loses the session."""

    def test_resumed_session_charges_tls_resume_exactly(self, net):
        net.transmit(A, B, 0, TransportKind.HTTPS)
        cold = net.clock.now
        net.transmit(A, B, 0, TransportKind.HTTPS)
        warm = net.clock.now - cold
        saved = (net.costs.http_connect - net.costs.http_connect_cached) + (
            net.costs.tls_handshake - net.costs.tls_resume
        )
        assert cold - warm == pytest.approx(saved)

    def test_session_cache_is_per_pair(self, net):
        net.transmit(A, B, 0, TransportKind.HTTPS)
        base = net.clock.now
        # A different server pays the full handshake again.
        net.transmit(A, Host("gamma"), 0, TransportKind.HTTPS)
        assert net.clock.now - base == pytest.approx(base)

    def test_drop_connections_forgets_tls_sessions(self, net):
        net.transmit(A, B, 0, TransportKind.HTTPS)
        cold = net.clock.now
        net.drop_connections()
        net.transmit(A, B, 0, TransportKind.HTTPS)
        assert net.clock.now - cold == pytest.approx(cold)

    def test_injected_reset_clears_session_both_ways(self, net):
        # Warm both orientations of the A<->B link first.
        net.transmit(A, B, 0, TransportKind.HTTPS)
        net.transmit(B, A, 0, TransportKind.HTTPS)
        net.faults.set_link("alpha", "beta", FaultSpec(reset_rate=1.0))
        with pytest.raises(ConnectionReset):
            net.transmit(A, B, 0, TransportKind.HTTPS)
        net.faults.clear()
        # Both directions are cold again: full handshake, not a resume.
        for src, dst in ((A, B), (B, A)):
            before = net.clock.now
            net.transmit(src, dst, 0, TransportKind.HTTPS)
            elapsed = net.clock.now - before
            assert elapsed == pytest.approx(
                net.costs.http_connect + net.costs.tls_handshake + net.costs.lan_latency
            )

    def test_reset_counter_increments(self, net):
        net.faults.set_default(FaultSpec(reset_rate=1.0))
        with pytest.raises(ConnectionReset):
            net.transmit(A, B, 0, TransportKind.HTTPS)
        assert net.faults.connections_reset == 1


class TestMetrics:
    def test_messages_and_bytes_counted(self, net):
        net.transmit(A, B, 500, TransportKind.HTTP)
        net.transmit(B, A, 700, TransportKind.HTTP)
        assert net.metrics.total_messages == 2
        assert net.metrics.total_bytes == 1200

    def test_operation_trace_attribution(self, net):
        net.transmit(A, B, 100, TransportKind.HTTP)  # outside any trace
        net.metrics.begin("op", net.clock.now)
        net.transmit(A, B, 200, TransportKind.HTTP, service="svc1")
        net.transmit(A, B, 300, TransportKind.HTTP, service="svc2")
        trace = net.metrics.end(net.clock.now)
        assert trace.messages == 2
        assert trace.bytes_on_wire == 500
        assert trace.services_touched == {"svc1", "svc2"}
        assert trace.elapsed_ms > 0

    def test_nested_traces_rejected(self, net):
        net.metrics.begin("outer", 0)
        with pytest.raises(RuntimeError):
            net.metrics.begin("inner", 0)

    def test_end_without_begin_rejected(self, net):
        with pytest.raises(RuntimeError):
            net.metrics.end(0)

    def test_time_categories_recorded(self, net):
        net.transmit(A, B, 1024, TransportKind.HTTP)
        categories = set(net.metrics.time_by_category)
        assert "transport.setup" in categories
        assert "transport.wire" in categories

    def test_last_trace(self, net):
        net.metrics.begin("x", 0)
        trace = net.metrics.end(1)
        assert (trace.name, trace.elapsed_ms) == ("x", 1)
        with pytest.raises(RuntimeError):
            net.metrics.end(2)


class TestCostModel:
    def test_replace_overrides(self):
        model = CostModel().replace(db_insert=99.0)
        assert model.db_insert == 99.0
        assert model.db_read == CostModel().db_read

    def test_free_model_charges_nothing(self):
        net = Network(CostModel.free())
        net.transmit(A, B, 10_000, TransportKind.HTTPS)
        assert net.clock.now == 0.0

    def test_create_slower_than_read_in_default_model(self):
        model = CostModel()
        assert model.db_insert > model.db_read
        assert model.db_insert > model.db_update
