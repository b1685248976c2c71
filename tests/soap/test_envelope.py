"""Unit tests for SOAP envelopes, faults and wire messages."""

import pytest

from repro.soap import SoapFault, WireMessage, build_envelope, parse_envelope
from repro.soap.envelope import build_fault_envelope
from repro.xmllib import element, ns, serialize


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

    def test_missing_header_read_leaves_tree_unchanged(self):
        envelope = parse_envelope(
            f'<e:Envelope xmlns:e="{ns.SOAP}"><e:Body><x/></e:Body></e:Envelope>'
        )
        before = serialize(envelope.root)
        header = envelope.header
        assert header.tag.local == "Header"
        assert list(header.element_children()) == []
        assert envelope.header_element("{urn:x}Anything") is None
        assert serialize(envelope.root) == before
        assert [child.tag.local for child in envelope.root.element_children()] == ["Body"]


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

    def test_xml_declaration_stripped_on_parse(self):
        wire = WireMessage.from_envelope(build_envelope([], [element("a")]))
        assert wire.text.startswith("<?xml")
        assert wire.parse().body_child().tag.local == "a"
