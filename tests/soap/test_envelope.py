"""Unit tests for SOAP envelopes, faults and wire messages."""

import pytest

from repro.container.security import SecurityMode
from repro.soap import SoapFault, WireMessage, build_envelope, parse_envelope
from repro.soap.envelope import Envelope, build_fault_envelope
from repro.xmllib import element, ns, serialize
from repro.xmllib.memo import caching_disabled

from tests.container.test_container import make_deployment


class TestEnvelope:
    def test_build_and_access(self):
        envelope = build_envelope(
            [element("{urn:h}H1", "x")], [element("{urn:b}Op", "y")]
        )
        assert envelope.header_element("{urn:h}H1").text() == "x"
        assert envelope.body_child().tag.local == "Op"

    def test_parse_roundtrip(self):
        envelope = build_envelope([], [element("{urn:b}Op")])
        again = parse_envelope(serialize(envelope.root))
        assert again.body_child().tag.local == "Op"

    def test_non_envelope_rejected(self):
        with pytest.raises(SoapFault):
            parse_envelope("<notsoap/>")

    def test_empty_body_child_faults(self):
        envelope = build_envelope([], [])
        with pytest.raises(SoapFault, match="empty"):
            envelope.body_child()

    def test_header_created_on_demand(self):
        envelope = parse_envelope(
            f'<e:Envelope xmlns:e="{ns.SOAP}"><e:Body><x/></e:Body></e:Envelope>'
        )
        header = envelope.header
        assert header.tag.local == "Header"
        assert list(header.children) == []
        # Detached: reading the header leaves the envelope as it was.
        assert [c.tag.local for c in envelope.root.element_children()] == ["Body"]
        with pytest.raises(TypeError):
            header.append(element("{urn:h}H"))


class TestHeaderlessInbound:
    @pytest.mark.parametrize("mode", [SecurityMode.NONE, SecurityMode.X509])
    def test_processed_alike_shared_and_reparsed(self, mode):
        def exchange() -> str:
            deployment, service, _ = make_deployment(mode)
            _, container = deployment.resolve(service.address)
            body = element(f"{{{ns.SOAP}}}Body", element("{urn:test}Echo", "x"))
            request = Envelope(element(f"{{{ns.SOAP}}}Envelope", body))
            try:
                outcome = container.handle(WireMessage.from_envelope(request)).text
            except ValueError as exc:  # no wsa:To/Action to route by
                outcome = repr(exc)
            assert [c.tag.local for c in request.root.element_children()] == ["Body"]
            return outcome

        shared = exchange()
        with caching_disabled():
            reparsed = exchange()
        assert shared == reparsed
        assert "wsa:To" in shared or WireMessage(shared).parse().is_fault()


class TestFaults:
    def test_fault_roundtrip(self):
        fault = SoapFault("Client", "you messed up", element("{urn:d}Why", "badly"))
        envelope = build_fault_envelope([], fault)
        wire = WireMessage.from_envelope(envelope)
        parsed = wire.parse()
        assert parsed.is_fault()
        again = parsed.fault()
        assert again.code == "Client"
        assert again.reason == "you messed up"
        assert again.detail is not None and again.detail.text() == "badly"

    def test_fault_without_detail(self):
        fault = SoapFault("Server", "boom")
        parsed = WireMessage.from_envelope(build_fault_envelope([], fault)).parse()
        again = parsed.fault()
        assert again.code == "Server" and again.detail is None

    def test_is_fault_false_for_normal(self):
        envelope = build_envelope([], [element("ok")])
        assert not envelope.is_fault()
        with pytest.raises(ValueError):
            envelope.fault()

    def test_fault_str(self):
        assert "Client: nope" in str(SoapFault("Client", "nope"))


class TestWireMessage:
    def test_sizes(self):
        wire = WireMessage.from_envelope(build_envelope([], [element("a", "é")]))
        assert wire.n_bytes == len(wire.text.encode("utf-8"))
        assert wire.n_kb == pytest.approx(wire.n_bytes / 1024)

    def test_receipt_shares_the_frozen_sent_tree(self):
        envelope = build_envelope([element("{urn:h}H", "h")], [element("{urn:b}Op", "y")])
        received = WireMessage.from_envelope(envelope).parse()
        assert received.root is envelope.root
        assert received.root.frozen and envelope.body_child().frozen

    def test_reparsed_receipt_is_frozen_and_equal(self):
        envelope = build_envelope([element("{urn:h}H", "h")], [element("{urn:b}Op", "y")])
        with caching_disabled():
            received = WireMessage.from_envelope(envelope).parse()
        assert received.root is not envelope.root
        assert received.root.frozen and received.body_child().frozen
        assert received.root.structurally_equal(envelope.root)

    def test_xml_declaration_stripped_on_parse(self):
        wire = WireMessage.from_envelope(build_envelope([], [element("a")]))
        assert wire.text.startswith("<?xml")
        assert wire.parse().body_child().tag.local == "a"
