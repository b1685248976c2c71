"""Golden wire-format checks: messages look like period WS-* traffic.

These tests pin the structural vocabulary of each specification — element
names, namespaces, header layout — so refactors cannot silently drift away
from the on-the-wire shapes the paper's implementations exchanged.
"""

import pytest

from repro.apps.counter import CounterScenario, build_transfer_rig, build_wsrf_rig
from repro.container import SecurityMode
from repro.xmllib import ns, parse_xml


@pytest.fixture(scope="module")
def captured():
    """Capture wire text of representative requests via a recording hook."""
    captures = {}

    def capture(rig, label_prefix):
        original_handle = None
        # Wrap every container's handle to record request text.
        deployment = rig.deployment
        for (key, (host, container)) in list(deployment._endpoints.items()):
            if not hasattr(container, "_wire_tap"):
                container._wire_tap = True
                inner = container.handle

                def tapped(message, _inner=inner):
                    captures.setdefault("messages", []).append(message.text)
                    return _inner(message)

                container.handle = tapped
        return captures

    wsrf = build_wsrf_rig(CounterScenario(mode=SecurityMode.X509))
    capture(wsrf, "wsrf")
    counter = wsrf.client.create(3)
    wsrf.client.subscribe(counter, wsrf.consumer)
    wsrf.client.get(counter)
    wsrf.client.set(counter, 4)
    wsrf.client.destroy(counter)

    transfer = build_transfer_rig(CounterScenario())
    capture(transfer, "wxf")
    tcounter = transfer.client.create(1)
    transfer.client.subscribe(tcounter, transfer.consumer)
    transfer.client.set(tcounter, 2)
    return captures["messages"]


def _bodies(captured):
    envelopes = [parse_xml(t[t.find("?>") + 2 :] if t.startswith("<?xml") else t) for t in captured]
    out = []
    for envelope in envelopes:
        body = envelope.find(f"{{{ns.SOAP}}}Body")
        child = next(body.element_children(), None)
        if child is not None:
            out.append((envelope, child))
    return out


class TestEnvelopeShape:
    def test_every_message_is_soap_11(self, captured):
        for text in captured:
            root = parse_xml(text[text.find("?>") + 2 :] if text.startswith("<?xml") else text)
            assert root.tag.namespace == ns.SOAP
            assert root.tag.local == "Envelope"
            locals_ = [c.tag.local for c in root.element_children()]
            assert locals_ == ["Header", "Body"]

    def test_addressing_headers_present(self, captured):
        for text in captured:
            root = parse_xml(text[text.find("?>") + 2 :] if text.startswith("<?xml") else text)
            header = root.find(f"{{{ns.SOAP}}}Header")
            header_tags = {c.tag for c in header.element_children()}
            from repro.xmllib import QName

            assert QName(ns.WSA, "To") in header_tags
            assert QName(ns.WSA, "Action") in header_tags
            assert QName(ns.WSA, "MessageID") in header_tags

    def test_signed_messages_carry_wsse_security_with_dsig(self, captured):
        from repro.xmllib import QName

        signed = 0
        for text in captured:
            root = parse_xml(text[text.find("?>") + 2 :] if text.startswith("<?xml") else text)
            header = root.find(f"{{{ns.SOAP}}}Header")
            security = header.find(QName(ns.WSSE, "Security"))
            if security is None:
                continue
            signed += 1
            signature = security.find(QName(ns.DS, "Signature"))
            assert signature is not None
            assert signature.find(QName(ns.DS, "SignedInfo")) is not None
            assert signature.find(QName(ns.DS, "SignatureValue")) is not None
            assert signature.find(QName(ns.DS, "KeyInfo")) is not None
        assert signed > 0


class TestSpecVocabulary:
    def test_wsrf_rp_message_shapes(self, captured):
        bodies = [child for _, child in _bodies(captured)]
        locals_seen = {b.tag.clark() for b in bodies}
        assert f"{{{ns.WSRF_RP}}}GetResourceProperty" in locals_seen
        assert f"{{{ns.WSRF_RP}}}SetResourceProperties" in locals_seen
        assert f"{{{ns.WSRF_RL}}}Destroy" in locals_seen

    def test_wsnt_subscribe_shape(self, captured):
        for _, body in _bodies(captured):
            if body.tag.clark() == f"{{{ns.WSNT}}}Subscribe":
                assert body.find(f"{{{ns.WSNT}}}ConsumerReference") is not None
                topic = body.find(f"{{{ns.WSNT}}}TopicExpression")
                assert topic is not None and topic.get("Dialect")
                return
        pytest.fail("no wsnt:Subscribe captured")

    def test_wxf_message_shapes(self, captured):
        locals_seen = {b.tag.clark() for _, b in _bodies(captured)}
        assert f"{{{ns.WXF}}}Create" in locals_seen
        assert f"{{{ns.WXF}}}Put" in locals_seen

    def test_wse_subscribe_shape(self, captured):
        for _, body in _bodies(captured):
            if body.tag.clark() == f"{{{ns.WSE}}}Subscribe":
                delivery = body.find(f"{{{ns.WSE}}}Delivery")
                assert delivery is not None
                assert delivery.find(f"{{{ns.WSE}}}NotifyTo") is not None
                return
        pytest.fail("no wse:Subscribe captured")

    def test_reference_properties_ride_as_headers(self, captured):
        """WS-Addressing: the counter's ResourceID appears as a SOAP header
        on every message addressed to the resource."""
        found = False
        for text in captured:
            root = parse_xml(text[text.find("?>") + 2 :] if text.startswith("<?xml") else text)
            header = root.find(f"{{{ns.SOAP}}}Header")
            for child in header.element_children():
                if child.tag.local == "ResourceID":
                    found = True
        assert found


class TestSameSeedSameBytes:
    def test_rig_built_twice_sends_identical_text(self, monkeypatch):
        # Message and sequence ids come from the rig's own network, so a
        # second rig in the same process sends the very same wire text.
        from repro.soap.message import WireMessage

        sent = []
        original = WireMessage.from_envelope.__func__

        def recording(cls, envelope):
            message = original(cls, envelope)
            sent.append(message.text)
            return message

        monkeypatch.setattr(WireMessage, "from_envelope", classmethod(recording))

        def run():
            start = len(sent)
            client = build_wsrf_rig(CounterScenario(SecurityMode.X509, colocated=False)).client
            counter = client.create(3)
            client.set(counter, 5)
            assert client.get(counter) == 5
            return sent[start:]

        first, second = run(), run()
        assert len(first) == 6
        assert first == second
