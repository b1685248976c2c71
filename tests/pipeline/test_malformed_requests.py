"""Malformed requests become SOAP faults at the container's ingress.

Bad input gets a fault from the normalized taxonomy, never a Python
exception escaping ``Container.handle``: empty text, text that is not
XML, a truncated envelope and a header without ``wsa:Action`` each get a
``soap:Client`` fault on both stacks, with and without X.509 signing, and
none of them reaches dispatch.
"""

import pytest

from repro.apps.counter.deploy import CounterScenario, build_transfer_rig, build_wsrf_rig
from repro.container.security import SecurityMode
from repro.soap.message import WireMessage
from repro.testkit.comparators import fault_family
from repro.xmllib import ns

RIGS = {
    f"{stack}-{mode.value}": (build, mode)
    for stack, build in (("wsrf", build_wsrf_rig), ("transfer", build_transfer_rig))
    for mode in (SecurityMode.NONE, SecurityMode.X509)
}


def malformed(kind: str, to: str) -> str:
    if kind == "empty":
        return ""
    if kind == "not-xml":
        return "hello"
    if kind == "truncated":
        return f'<soap:Envelope xmlns:soap="{ns.SOAP}"><soap:Body><x'
    assert kind == "no-action"
    return (
        f'<soap:Envelope xmlns:soap="{ns.SOAP}" xmlns:wsa="{ns.WSA}">'
        f"<soap:Header><wsa:To>{to}</wsa:To></soap:Header>"
        "<soap:Body/></soap:Envelope>"
    )


@pytest.fixture(scope="module", params=sorted(RIGS))
def rig(request):
    build, mode = RIGS[request.param]
    return build(CounterScenario(mode, colocated=False))


@pytest.mark.parametrize("kind", ["empty", "not-xml", "truncated", "no-action"])
def test_malformed_request_gets_a_client_fault(rig, kind):
    tracer = rig.deployment.network.metrics.tracer
    tracer.clear()
    text = malformed(kind, rig.service.address)
    reply = rig.service.container.handle(WireMessage(text)).parse()
    assert reply.is_fault()
    assert fault_family(reply.fault()) == "soap:Client"
    spans = {span.name for root in tracer.roots for _, span in root.walk()}
    assert "server.receive" in spans
    assert "dispatch" not in spans
