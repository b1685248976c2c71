"""Unit tests for the filter chain: ordering, deferral, filter behavior."""

import pytest

from repro.addressing.headers import MessageHeaders, next_message_id
from repro.container import (
    Deployment,
    SecurityMode,
    SecurityPolicy,
    SoapClient,
)
from repro.crypto import CertificateAuthority
from repro.pipeline import (
    AddressingFilter,
    BaseFilter,
    CostAccountingFilter,
    FilterChain,
    MessageFilter,
    MustUnderstandFilter,
    PipelineContext,
    ReliableMessagingFilter,
    SecurityFilter,
    TracingFilter,
)
from repro.reliable.sequence import MESSAGE_NUMBER_HEADER, SEQUENCE_ID_HEADER
from repro.sim import CostModel
from repro.soap import SoapFault, WireMessage
from repro.soap.envelope import build_envelope
from repro.xmllib import element, ns

from tests.container.test_container import ECHO_ACTION, make_deployment


def filter_names(filters):
    return [type(f).__name__ for f in filters]


class TestChainAssembly:
    def test_standard_outbound_order(self):
        deployment, _, _ = make_deployment()
        chain = deployment.pipeline()
        assert filter_names(chain.outbound_filters) == [
            "TracingFilter",
            "ReliableMessagingFilter",
            "AddressingFilter",
            "SecurityFilter",
            "MustUnderstandFilter",
            "CostAccountingFilter",
        ]

    def test_standard_inbound_order_is_not_a_strict_reversal(self):
        # Like WSE's separately-ordered input/output filter collections:
        # inbound needs mustUnderstand *before* security (fault precedence)
        # and WS-RM *after* addressing (replay needs parsed headers).
        deployment, _, _ = make_deployment()
        chain = deployment.pipeline()
        assert filter_names(chain.inbound_filters) == [
            "TracingFilter",
            "CostAccountingFilter",
            "MustUnderstandFilter",
            "SecurityFilter",
            "AddressingFilter",
            "ReliableMessagingFilter",
        ]

    def test_security_filter_is_shared_across_chains(self):
        deployment, service, client = make_deployment()
        container = service.container
        assert client.chain is not container.chain
        assert client.chain.find(SecurityFilter) is deployment.security_filter
        assert container.chain.find(SecurityFilter) is deployment.security_filter

    def test_reply_cache_is_per_container(self):
        deployment, service, _ = make_deployment()
        other = deployment.add_container("serverhost", "Other")
        assert service.container.request_log is not other.request_log

    def test_find_unknown_filter_raises(self):
        chain = FilterChain(outbound=(), inbound=())
        with pytest.raises(LookupError, match="TracingFilter"):
            chain.find(TracingFilter)

    def test_base_filter_satisfies_protocol(self):
        assert isinstance(BaseFilter(), MessageFilter)


class TestDeferredActions:
    def test_deferred_work_runs_lifo_after_the_pass(self):
        deployment, _, _ = make_deployment()
        order = []

        class First(BaseFilter):
            def outbound(self, ctx):
                order.append("first.pass")
                ctx.defer(lambda: order.append("first.deferred"))

        class Second(BaseFilter):
            def outbound(self, ctx):
                order.append("second.pass")
                ctx.defer(lambda: order.append("second.deferred"))

        chain = FilterChain(outbound=(First(), Second()), inbound=())
        ctx = PipelineContext(deployment=deployment, role="client")
        chain.run_outbound(ctx)
        assert order == ["first.pass", "second.pass", "second.deferred", "first.deferred"]

    def test_deferred_work_runs_even_when_a_filter_raises(self):
        deployment, _, _ = make_deployment()
        ran = []

        class Defers(BaseFilter):
            def outbound(self, ctx):
                ctx.defer(lambda: ran.append("deferred"))

        class Explodes(BaseFilter):
            def outbound(self, ctx):
                raise SoapFault("Server", "boom")

        chain = FilterChain(outbound=(Defers(), Explodes()), inbound=())
        ctx = PipelineContext(deployment=deployment, role="client")
        with pytest.raises(SoapFault):
            chain.run_outbound(ctx)
        assert ran == ["deferred"]


class TestReliableMessagingFilter:
    def test_client_outbound_stamps_the_epr(self):
        deployment, service, client = make_deployment()
        ctx = PipelineContext.client_request(
            deployment, None, service.epr(), ECHO_ACTION,
            element("{urn:test}Echo", "x"), rm_stamp=("urn:repro:seq-test", 4),
        )
        client.chain.run_outbound(ctx)
        props = dict(ctx.epr.reference_properties)
        assert props[SEQUENCE_ID_HEADER] == "urn:repro:seq-test"
        assert props[MESSAGE_NUMBER_HEADER] == "4"
        # ...and the stamp made it onto the wire headers.
        parsed = MessageHeaders.from_header_element(ctx.request_envelope.header)
        assert (SEQUENCE_ID_HEADER, "urn:repro:seq-test") in parsed.reference_properties

    def test_retransmission_is_answered_from_the_reply_cache(self):
        deployment, service, client = make_deployment()
        container = service.container
        stamp = ("urn:repro:seq-replay", 1)
        first = client.invoke(
            service.epr(), ECHO_ACTION, element("{urn:test}Echo", "one"), rm_stamp=stamp
        )
        assert container.request_log.duplicates == 0
        again = client.invoke(
            service.epr(), ECHO_ACTION, element("{urn:test}Echo", "IGNORED"), rm_stamp=stamp
        )
        assert container.request_log.duplicates == 1
        # The cached reply is returned verbatim: the second body is ignored.
        assert again.text() == first.text() == "one"

    def test_unstamped_requests_bypass_the_cache(self):
        deployment, service, client = make_deployment()
        client.invoke(service.epr(), ECHO_ACTION, element("{urn:test}Echo", "a"))
        client.invoke(service.epr(), ECHO_ACTION, element("{urn:test}Echo", "b"))
        assert len(service.container.request_log) == 0


class TestMustUnderstandFilter:
    def _server_ctx(self, deployment, container, extra_headers):
        headers = MessageHeaders(
            to="soap://x/y", action=ECHO_ACTION,
            message_id=next_message_id(deployment.network),
        )
        envelope = build_envelope(
            headers.to_elements() + extra_headers, [element("{urn:test}Echo")]
        )
        ctx = PipelineContext.server_request(container, WireMessage.from_envelope(envelope))
        ctx.request_envelope = envelope
        return ctx

    def test_unknown_mandatory_header_faults_directly(self):
        deployment, service, _ = make_deployment()
        mandatory = element(
            "{urn:exotic}Transaction", "tx",
            attrs={f"{{{ns.SOAP}}}mustUnderstand": "1"},
        )
        ctx = self._server_ctx(deployment, service.container, [mandatory])
        with pytest.raises(SoapFault) as excinfo:
            MustUnderstandFilter().inbound(ctx)
        assert excinfo.value.code == "MustUnderstand"
        assert "Transaction" in excinfo.value.reason

    def test_understood_and_optional_headers_pass(self):
        deployment, service, _ = make_deployment()
        understood = element(
            f"{{{ns.WSA}}}FaultTo", "soap://sink",
            attrs={f"{{{ns.SOAP}}}mustUnderstand": "true"},
        )
        optional = element("{urn:exotic}Hint", "h")
        ctx = self._server_ctx(deployment, service.container, [understood, optional])
        MustUnderstandFilter().inbound(ctx)  # no fault

    def test_mustunderstand_fault_precedes_security_verification(self):
        # An unsigned message with an exotic mandatory header, sent into an
        # X.509 deployment: the MustUnderstand fault must win (SOAP 1.1
        # processing order), not the missing-signature fault.
        deployment, service, _ = make_deployment(SecurityMode.X509)
        headers = MessageHeaders(
            to=service.address, action=ECHO_ACTION,
            message_id=next_message_id(deployment.network),
        )
        mandatory = element(
            "{urn:exotic}Tx", "t", attrs={f"{{{ns.SOAP}}}mustUnderstand": "1"}
        )
        envelope = build_envelope(
            headers.to_elements() + [mandatory], [element("{urn:test}Echo")]
        )
        _, container = deployment.resolve(service.address)
        reply = container.handle(WireMessage.from_envelope(envelope)).parse()
        assert reply.is_fault()
        assert reply.fault().code == "MustUnderstand"


class TestUnsignableContainerFaults:
    """Satellite: a credential-less container under X.509 must fault,
    not silently reply unsigned."""

    def _deployment_with_unsignable_container(self):
        ca = CertificateAuthority.create(seed=7)
        deployment = Deployment(SecurityPolicy(SecurityMode.X509), CostModel(), ca)
        container = deployment.add_container("serverhost", "App", credentials=None)
        from tests.container.test_container import EchoService

        service = EchoService()
        container.add_service(service)
        client = SoapClient(
            deployment, "clienthost", deployment.issue_credentials("alice", seed=21)
        )
        return deployment, service, client

    def test_server_emits_fault_instead_of_unsigned_reply(self):
        deployment, service, client = self._deployment_with_unsignable_container()
        headers = MessageHeaders(
            to=service.address, action=ECHO_ACTION,
            message_id=next_message_id(deployment.network),
        )
        envelope = build_envelope(headers.to_elements(), [element("{urn:test}Echo", "x")])
        deployment.security_filter.secure_outgoing(envelope, client.credentials)
        _, container = deployment.resolve(service.address)
        reply = container.handle(WireMessage.from_envelope(envelope)).parse()
        assert reply.is_fault()
        fault = reply.fault()
        assert fault.code == "Server"
        assert "cannot sign response" in fault.reason

    def test_client_surfaces_the_server_side_fault(self):
        _, service, client = self._deployment_with_unsignable_container()
        with pytest.raises(SoapFault, match="cannot sign response") as excinfo:
            client.invoke(service.epr(), ECHO_ACTION, element("{urn:test}Echo", "x"))
        assert excinfo.value.code == "Server"

    def test_tampered_response_still_rejected_client_side(self):
        # The unsigned-fault passthrough must not weaken tamper rejection:
        # a *non-fault* response failing verification still raises the
        # client-side security fault.
        deployment, service, client = make_deployment(SecurityMode.X509)
        original = service.container.handle

        def tamper(message):
            reply = original(message)
            assert ">x<" in reply.text
            return WireMessage(reply.text.replace(">x<", ">tampered<"))

        service.container.handle = tamper
        with pytest.raises(SoapFault, match="response security failure"):
            client.invoke(service.epr(), ECHO_ACTION, element("{urn:test}Echo", "x"))


class TestCostAccountingFilter:
    def test_outbound_serializes_and_charges(self):
        deployment, service, client = make_deployment()
        clock = deployment.network.clock
        ctx = PipelineContext.client_request(
            deployment, None, service.epr(), ECHO_ACTION, element("{urn:test}Echo", "x")
        )
        AddressingFilter().outbound(ctx)
        t0 = clock.now
        CostAccountingFilter().outbound(ctx)
        assert ctx.request_message is not None
        costs = deployment.network.costs
        expected = costs.soap_per_message + costs.xml_serialize_per_kb * ctx.request_message.n_kb
        assert clock.now - t0 == expected

    def test_charges_attribute_to_ledger_categories(self):
        deployment, service, client = make_deployment(SecurityMode.X509)
        metrics = deployment.network.metrics
        metrics.begin("op", deployment.network.clock.now)
        client.invoke(service.epr(), ECHO_ACTION, element("{urn:test}Echo", "x"))
        trace = metrics.end(deployment.network.clock.now)
        for category in (
            "client.send", "server.receive", "security.sign",
            "security.verify", "server.send", "client.receive",
        ):
            assert trace.time_by_category[category] > 0, category
