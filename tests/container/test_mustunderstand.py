"""SOAP mustUnderstand processing."""

import pytest

from repro.addressing.headers import MessageHeaders, next_message_id
from repro.soap import WireMessage
from repro.soap.envelope import build_envelope
from repro.xmllib import element, ns

from tests.container.test_container import ECHO_ACTION, make_deployment


def send_with_header(deployment, service, extra_header):
    headers = MessageHeaders(
        to=service.address, action=ECHO_ACTION,
        message_id=next_message_id(deployment.network),
    )
    envelope = build_envelope(
        headers.to_elements() + [extra_header], [element("{urn:test}Echo", "x")]
    )
    _, container = deployment.resolve(service.address)
    return container.handle(WireMessage.from_envelope(envelope)).parse()


class TestMustUnderstand:
    def test_unknown_mandatory_header_faults(self):
        deployment, service, _ = make_deployment()
        header = element(
            "{urn:exotic}Transaction",
            "tx-1",
            attrs={f"{{{ns.SOAP}}}mustUnderstand": "1"},
        )
        reply = send_with_header(deployment, service, header)
        assert reply.is_fault()
        fault = reply.fault()
        assert fault.code == "MustUnderstand"
        assert "Transaction" in fault.reason

    def test_unknown_optional_header_ignored(self):
        deployment, service, _ = make_deployment()
        header = element("{urn:exotic}Hint", "whatever")
        reply = send_with_header(deployment, service, header)
        assert not reply.is_fault()

    def test_understood_namespaces_may_be_mandatory(self):
        deployment, service, _ = make_deployment()
        header = element(
            f"{{{ns.WSA}}}FaultTo",
            element(f"{{{ns.WSA}}}Address", "soap://client/sink"),
            attrs={f"{{{ns.SOAP}}}mustUnderstand": "1"},
        )
        reply = send_with_header(deployment, service, header)
        assert not reply.is_fault()

    def test_mustunderstand_zero_ignored(self):
        deployment, service, _ = make_deployment()
        header = element(
            "{urn:exotic}Transaction", "tx", attrs={f"{{{ns.SOAP}}}mustUnderstand": "0"}
        )
        reply = send_with_header(deployment, service, header)
        assert not reply.is_fault()
