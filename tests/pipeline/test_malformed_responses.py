"""Malformed responses become SOAP faults at the client's ingress.

A reply that does not parse is the server's failure: the caller gets a
``soap:Server`` fault, never a Python exception escaping
``SoapClient.invoke``.  Empty text, text that is not XML and a truncated
envelope each get one on both stacks, with and without X.509 signing,
after the client has paid for receiving the reply.
"""

import pytest

from repro.apps.counter.deploy import CounterScenario, build_transfer_rig, build_wsrf_rig
from repro.container.security import SecurityMode
from repro.soap.envelope import SoapFault
from repro.soap.message import WireMessage
from repro.testkit.comparators import fault_family
from repro.xmllib import ns

RIGS = {
    f"{stack}-{mode.value}": (build, mode)
    for stack, build in (("wsrf", build_wsrf_rig), ("transfer", build_transfer_rig))
    for mode in (SecurityMode.NONE, SecurityMode.X509)
}

MALFORMED = {
    "empty": "",
    "not-xml": "hello",
    "truncated": f'<soap:Envelope xmlns:soap="{ns.SOAP}"><soap:Body><x',
}


@pytest.fixture(scope="module", params=sorted(RIGS))
def rig(request):
    build, mode = RIGS[request.param]
    return build(CounterScenario(mode, colocated=False))


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_response_gets_a_server_fault(rig, kind, monkeypatch):
    counter = rig.client.create()
    monkeypatch.setattr(
        rig.service.container, "handle", lambda request: WireMessage(MALFORMED[kind])
    )
    tracer = rig.deployment.network.metrics.tracer
    tracer.clear()
    with pytest.raises(SoapFault, match="malformed response") as caught:
        rig.client.get(counter)
    assert fault_family(caught.value) == "soap:Server"
    spans = {span.name for root in tracer.roots for _, span in root.walk()}
    assert "client.receive" in spans
