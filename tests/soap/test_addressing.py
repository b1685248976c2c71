"""Unit + property tests for WS-Addressing EPRs and headers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import EndpointReference, MessageHeaders
from repro.addressing.headers import next_message_id
from repro.sim import Network
from repro.xmllib import QName, element, ns, parse_xml, serialize


class TestEndpointReference:
    def test_create_and_lookup(self):
        epr = EndpointReference.create("soap://h/S", {"{urn:x}ResourceID": "r1"})
        assert epr.address == "soap://h/S"
        assert epr.property("{urn:x}ResourceID") == "r1"
        assert epr.property("{urn:x}Missing") is None
        assert epr.property("{urn:x}Missing", "d") == "d"

    def test_with_property_returns_new(self):
        epr = EndpointReference.create("soap://h/S")
        epr2 = epr.with_property("{urn:x}k", "v")
        assert epr.property("{urn:x}k") is None
        assert epr2.property("{urn:x}k") == "v"

    def test_xml_roundtrip(self):
        epr = EndpointReference.create(
            "soap://h/S", {"{urn:x}ResourceID": "r1", "{urn:y}Other": "2"}
        )
        again = EndpointReference.from_xml(parse_xml(serialize(epr.to_xml())))
        assert again == epr

    def test_xml_without_properties(self):
        epr = EndpointReference.create("soap://h/S")
        node = epr.to_xml()
        assert node.find(QName(ns.WSA, "ReferenceProperties")) is None
        assert EndpointReference.from_xml(node) == epr

    def test_missing_address_rejected(self):
        with pytest.raises(ValueError, match="no wsa:Address"):
            EndpointReference.from_xml(element(f"{{{ns.WSA}}}EndpointReference"))

    def test_properties_sorted_for_equality(self):
        a = EndpointReference.create("u", {"{n}b": "2", "{n}a": "1"})
        b = EndpointReference.create("u", {"{n}a": "1", "{n}b": "2"})
        assert a == b

    @given(
        st.dictionaries(
            st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,6}", fullmatch=True),
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
                max_size=12,
            ).map(str.strip),
            max_size=4,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, props):
        epr = EndpointReference.create("soap://host/Svc", {f"{{urn:p}}{k}": v for k, v in props.items()})
        again = EndpointReference.from_xml(parse_xml(serialize(epr.to_xml())))
        assert again == epr


class TestMessageHeaders:
    def test_roundtrip_through_header_element(self):
        headers = MessageHeaders(
            to="soap://h/S",
            action="urn:op",
            message_id="urn:uuid:repro-00000007",
            reply_to=EndpointReference.create("soap://c/sink"),
            relates_to="urn:uuid:1",
            reference_properties=((QName("urn:x", "ResourceID"), "r9"),),
        )
        header_el = element(f"{{{ns.SOAP}}}Header", *headers.to_elements())
        again = MessageHeaders.from_header_element(parse_xml(serialize(header_el)))
        assert again.to == headers.to
        assert again.action == headers.action
        assert again.message_id == headers.message_id
        assert again.reply_to == headers.reply_to
        assert again.relates_to == headers.relates_to
        assert again.reference_properties == headers.reference_properties

    def test_reference_properties_become_headers(self):
        headers = MessageHeaders(
            to="a", action="b", message_id="urn:uuid:m",
            reference_properties=((QName("urn:x", "K"), "v"),),
        )
        tags = [e.tag for e in headers.to_elements()]
        assert QName("urn:x", "K") in tags

    def test_target_epr_reconstruction(self):
        headers = MessageHeaders(
            to="soap://h/S", action="x", message_id="urn:uuid:m",
            reference_properties=((QName("urn:x", "ResourceID"), "42"),),
        )
        epr = headers.target_epr()
        assert epr.address == "soap://h/S"
        assert epr.property("{urn:x}ResourceID") == "42"

    def test_missing_to_or_action_rejected(self):
        header_el = element(f"{{{ns.SOAP}}}Header", element(f"{{{ns.WSA}}}To", "x"))
        with pytest.raises(ValueError, match="required"):
            MessageHeaders.from_header_element(header_el)

    def test_security_headers_skipped(self):
        header_el = element(
            f"{{{ns.SOAP}}}Header",
            element(f"{{{ns.WSA}}}To", "a"),
            element(f"{{{ns.WSA}}}Action", "b"),
            element(f"{{{ns.WSSE}}}Security", element(f"{{{ns.DS}}}Signature")),
        )
        headers = MessageHeaders.from_header_element(header_el)
        assert headers.reference_properties == ()

    def test_message_ids_unique(self):
        # Ids are unique per network, and every network starts at the same
        # id: what ran earlier in the process cannot change a run's bytes.
        network = Network()
        a, b = next_message_id(network), next_message_id(network)
        assert a != b and len(a) == len(b)
        assert next_message_id(Network()) == a

    def test_parsing_draws_no_id(self):
        header_el = element(
            f"{{{ns.SOAP}}}Header",
            element(f"{{{ns.WSA}}}To", "a"),
            element(f"{{{ns.WSA}}}Action", "b"),
        )
        assert MessageHeaders.from_header_element(header_el).message_id == ""
