"""Sealed message trees are shared, not copied (DESIGN.md §16).

Sending seals an envelope, and a sealed tree cannot change, so the
receiver gets the sender's tree itself and the signature cache hands out
its ``ds:Signature`` itself.  Sealing is not a cache: it happens at the
same points under :func:`caching_disabled`, so both modes refuse the same
edits.  The only copies left on a counter round trip are the services'
storage copies.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import nullcontext

import pytest

from repro.apps.counter.deploy import CounterScenario, build_transfer_rig, build_wsrf_rig
from repro.container.security import SecurityMode
from repro.crypto import CertificateAuthority, sign_element
from repro.sim.costs import CostModel
from repro.soap import WireMessage
from repro.soap.envelope import build_envelope
from repro.xmllib import element, ns
from repro.xmllib.element import XmlElement
from repro.xmllib.memo import caching_disabled

RIGS = pytest.mark.parametrize(
    "build", [build_wsrf_rig, build_transfer_rig], ids=["wsrf", "transfer"]
)

#: Packages on the message path: none of them copies a tree any more.
MESSAGE_PATH = (
    "repro.soap",
    "repro.crypto",
    "repro.pipeline",
    "repro.eventing",
    "repro.wsn",
    "repro.reliable",
)


def x509_rig(build):
    return build(CounterScenario(mode=SecurityMode.X509, colocated=False, costs=CostModel()))


@pytest.fixture(params=["cached", "uncached"])
def caching_mode(request):
    with caching_disabled() if request.param == "uncached" else nullcontext():
        yield request.param


@pytest.fixture(scope="module")
def identity():
    ca = CertificateAuthority.create(seed=7)
    return ca.issue_identity("alice", seed=11)


class TestSharing:
    def test_receipt_shares_the_senders_sealed_root(self, caching_mode):
        envelope = build_envelope([], [element("{urn:t}Op", "x")])
        received = WireMessage.from_envelope(envelope).parse()
        # Uncached, the receiver re-parses the bytes into a tree of its own.
        assert (received.root is envelope.root) == (caching_mode == "cached")
        assert received.root.structurally_equal(envelope.root)
        for tree in (envelope, received):
            with pytest.raises(TypeError, match="sealed"):
                tree.body.append(element("{urn:t}Extra"))
            with pytest.raises(TypeError, match="sealed"):
                tree.body_child().set("id", "1")

    def test_signing_seals_body_and_signature_in_both_modes(self, caching_mode, identity):
        cert, keypair = identity
        body = element("{urn:t}Body", element("{urn:t}Value", "7"))
        signature = sign_element(body, keypair, cert)
        for node in (body, body.children[0], signature):
            with pytest.raises(TypeError, match="sealed"):
                node.append("tampered")
        again = sign_element(body, keypair, cert)
        assert (again is signature) == (caching_mode == "cached")

    @RIGS
    def test_get_and_set_make_no_message_path_copies(self, build, monkeypatch):
        rig = x509_rig(build)
        counter = rig.client.create()
        rig.client.subscribe(counter, rig.consumer)  # so the Set notifies
        callers: Counter = Counter()
        original = XmlElement.copy

        def counting_copy(self):
            callers[sys._getframe(1).f_globals["__name__"]] += 1
            return original(self)

        monkeypatch.setattr(XmlElement, "copy", counting_copy)
        element("probe").copy()  # the count is live
        rig.client.set(counter, 5)
        assert rig.client.get(counter) == 5
        assert rig.consumer.received
        assert callers[__name__] == 1
        assert [caller for caller in callers if caller.startswith(MESSAGE_PATH)] == []


class TestHeaderlessRequest:
    @RIGS
    def test_x509_container_faults_instead_of_raising(self, build):
        rig = x509_rig(build)
        _, container = rig.deployment.resolve(rig.service.address)
        request = WireMessage(
            f'<soap:Envelope xmlns:soap="{ns.SOAP}"><soap:Body><x/></soap:Body></soap:Envelope>'
        )
        reply = container.handle(request).parse()
        assert reply.is_fault()
        fault = reply.fault()
        assert fault.code == "Client"
        assert fault.reason == "security failure: policy requires a signed message; none present"
