"""The concrete filters: Figure 1's processing steps as pipeline stages.

Each filter owns exactly one cross-cutting concern and acts only on the
legs where that concern applies (a WSE filter that doesn't care about a
message passes it through untouched).  The cost formulas and exception
semantics are carried over verbatim from the pre-pipeline monolithic
code in ``SoapClient.invoke`` / ``Container.handle`` /
``Deployment.deliver_notification`` — the refactor is guarded by
cost-ledger equivalence tests (tests/pipeline/test_cost_equivalence.py),
so any change here that alters a charge or its order is a regression,
not a cleanup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.addressing.headers import MessageHeaders, next_message_id
from repro.crypto.x509 import Certificate, CertificateAuthority, CertificateError, DistinguishedName
from repro.crypto.xmldsig import DsigError, sign_element, signer_subject, verify_element
from repro.pipeline.chain import BaseFilter
from repro.pipeline.context import CLIENT, NOTIFY, SERVER
from repro.reliable.sequence import MESSAGE_NUMBER_HEADER, SEQUENCE_ID_HEADER
from repro.soap.envelope import Envelope, SoapFault, build_envelope, build_fault_envelope
from repro.soap.message import WireMessage
from repro.xmllib import QName, XmlParseError, element, ns
from repro.xmllib.element import XmlElement

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.security import Credentials, SecurityPolicy
    from repro.pipeline.context import PipelineContext
    from repro.sim.network import Network

_SECURITY_HEADER = QName(ns.WSSE, "Security")
_SIGNATURE = QName(ns.DS, "Signature")


class TracingFilter(BaseFilter):
    """Opens one trace span per pipeline pass, closed after the pass.

    First in both directions, so every other filter's work — and any
    deferred work except the close itself — lands inside the pass span.
    The span names reproduce Figure 1's stage vocabulary and double as
    the cost categories used by the ledger.
    """

    _OUTBOUND = {CLIENT: "client.send", SERVER: "server.send", NOTIFY: "notify.send"}
    _INBOUND = {CLIENT: "client.receive", SERVER: "server.receive", NOTIFY: "notify.receive"}

    def outbound(self, ctx: "PipelineContext") -> None:
        self._open(ctx, self._OUTBOUND[ctx.role])

    def inbound(self, ctx: "PipelineContext") -> None:
        self._open(ctx, self._INBOUND[ctx.role])

    @staticmethod
    def _open(ctx: "PipelineContext", name: str) -> None:
        tracer = ctx.metrics.tracer
        span = tracer.push(name, ctx.clock.now)
        ctx.defer(lambda: tracer.close(span, ctx.clock.now))


class InboundRequestLog:
    """Server-side exactly-once cache for the invocation path.

    Keyed by ``(sequence identifier, message number)``; stores the signed
    reply bytes so a retransmitted request is answered from cache without
    re-executing the service (WS-RM's destination-side contract).
    """

    def __init__(self) -> None:
        self._replies: dict[tuple[str, int], object] = {}
        #: Retransmissions answered from cache.
        self.duplicates = 0

    def replay(self, key: tuple[str, int]):
        """The cached reply for ``key``, or ``None`` on first sight."""
        reply = self._replies.get(key)
        if reply is not None:
            self.duplicates += 1
        return reply

    def store(self, key: tuple[str, int], reply) -> None:
        self._replies[key] = reply

    def __len__(self) -> int:
        return len(self._replies)


class ReliableMessagingFilter(BaseFilter):
    """WS-RM on both ends: EPR stamping out, replay/reply-cache in.

    Absorbs what used to live in two places: the
    :class:`~repro.reliable.channel.ReliableChannel`'s header stamping
    (the channel now only assigns sequence numbers and retries) and the
    container's reply cache (an :class:`InboundRequestLog` owned here,
    one log per chain — i.e. per container).
    """

    def __init__(self) -> None:
        #: Destination-side exactly-once reply cache.
        self.log = InboundRequestLog()

    def outbound(self, ctx: "PipelineContext") -> None:
        if ctx.role == CLIENT and ctx.rm_stamp is not None:
            identifier, number = ctx.rm_stamp
            ctx.epr = ctx.epr.with_property(
                SEQUENCE_ID_HEADER, identifier
            ).with_property(MESSAGE_NUMBER_HEADER, str(number))
        elif ctx.role == SERVER and ctx.rm_key is not None:
            # The reply cache must hold the *serialized* reply, which the
            # cost filter produces later in this pass — defer the store.
            key = ctx.rm_key
            ctx.defer(lambda: self.log.store(key, ctx.response_message))

    def inbound(self, ctx: "PipelineContext") -> None:
        if ctx.role != SERVER:
            return
        ctx.rm_key = self._sequence_key(ctx.headers)
        if ctx.rm_key is None:
            return
        cached = self.log.replay(ctx.rm_key)
        if cached is not None:
            # Retransmission: the first execution's reply went missing on
            # the wire.  Answer from the cache; the driver skips dispatch
            # and the outbound pass entirely.
            ctx.network.charge(ctx.costs.soap_per_message, "server.send")
            ctx.response_message = cached
            ctx.replayed = True

    @staticmethod
    def _sequence_key(headers: MessageHeaders) -> tuple[str, int] | None:
        """The (sequence id, message number) stamp, if the request has one."""
        identifier = number = None
        for key, value in headers.reference_properties:
            if key == SEQUENCE_ID_HEADER:
                identifier = value
            elif key == MESSAGE_NUMBER_HEADER:
                number = value
        if identifier and number and number.isdigit():
            return identifier, int(number)
        return None


class AddressingFilter(BaseFilter):
    """WS-Addressing marshalling: headers out, headers/body extraction in."""

    def outbound(self, ctx: "PipelineContext") -> None:
        if ctx.role == CLIENT:
            ctx.headers = MessageHeaders(
                to=ctx.epr.address,
                action=ctx.action,
                message_id=next_message_id(ctx.network),
                reply_to=ctx.reply_to,
                reference_properties=ctx.epr.reference_properties,
            )
            ctx.request_envelope = build_envelope(ctx.headers.to_elements(), [ctx.body])
        elif ctx.role == SERVER:
            ctx.reply_headers = self._reply_headers(ctx.headers, ctx.network)
            if ctx.fault is not None:
                ctx.response_envelope = build_fault_envelope(ctx.reply_headers, ctx.fault)
            else:
                body = [ctx.result] if ctx.result is not None else []
                ctx.response_envelope = build_envelope(ctx.reply_headers, body)

    def inbound(self, ctx: "PipelineContext") -> None:
        if ctx.role == SERVER:
            try:
                ctx.headers = MessageHeaders.from_header_element(ctx.request_envelope.header)
            except ValueError as exc:
                raise SoapFault("Client", f"malformed request: {exc}") from exc
        elif ctx.role == CLIENT:
            response = ctx.response_envelope
            if response.is_fault():
                raise response.fault()
            children = list(response.body.element_children())
            ctx.response_body = children[0] if children else None

    @staticmethod
    def _reply_headers(request_headers: MessageHeaders | None, network) -> list[XmlElement]:
        if request_headers is None:
            return []
        reply = MessageHeaders(
            to="soap://anonymous",
            action=request_headers.action + "Response",
            message_id=next_message_id(network),
            relates_to=request_headers.message_id,
        )
        return reply.to_elements()


class SecurityFilter(BaseFilter):
    """Figure 1's Security/Policy handler as a filter: sign out, verify in.

    One instance per deployment (built in ``Deployment.__init__``,
    injected into every chain), so client, container and notification
    paths sign and verify with the same policy, CA and trust directory.
    ``trust`` maps DN strings to certificates (the VO's certificate
    directory); the CA root key validates each certificate before its
    public key is trusted.
    """

    def __init__(
        self,
        policy: "SecurityPolicy",
        network: "Network",
        ca: CertificateAuthority | None = None,
        trust: dict[str, Certificate] | None = None,
    ) -> None:
        self.policy = policy
        self.network = network
        self.ca = ca
        self.trust = trust if trust is not None else {}

    def outbound(self, ctx: "PipelineContext") -> None:
        if ctx.role == CLIENT:
            # Client-side signing failures (e.g. no credentials under an
            # X.509 policy) propagate raw: the caller misconfigured itself.
            self._sign(ctx, ctx.request_envelope)
        elif ctx.role == SERVER:
            self._sign_response(ctx)
        elif ctx.role == NOTIFY:
            # Notification producers sign only when they can; an unsigned
            # notify under a signing policy is the *consumer's* problem
            # (its verification rejects), matching the legacy behavior.
            if ctx.policy.signing and ctx.credentials is not None:
                self._sign(ctx, ctx.request_envelope)

    def inbound(self, ctx: "PipelineContext") -> None:
        from repro.container.security import SecurityError

        if ctx.role == SERVER:
            if ctx.policy.signing:
                with ctx.span("security.verify"):
                    ctx.sender = self.verify_incoming(ctx.request_envelope)
        elif ctx.role == CLIENT:
            if not ctx.policy.signing:
                return
            try:
                with ctx.span("security.verify"):
                    self.verify_incoming(ctx.response_envelope)
            except SecurityError as exc:
                if ctx.response_envelope.is_fault():
                    # An unsigned fault means the *server* already failed
                    # (a credential-less container cannot sign anything,
                    # faults included) — surface its fault, which explains
                    # the failure, instead of masking it.
                    raise ctx.response_envelope.fault() from exc
                raise SoapFault(
                    "Client", f"response security failure: {exc}"
                ) from exc
        elif ctx.role == NOTIFY:
            if ctx.policy.signing:
                with ctx.span("security.verify"):
                    self._verify_notification(ctx)

    # -- signing legs ---------------------------------------------------------

    def _sign(self, ctx: "PipelineContext", envelope) -> None:
        if not ctx.policy.signing:
            return
        with ctx.span("security.sign"):
            self.secure_outgoing(envelope, ctx.credentials)

    def _sign_response(self, ctx: "PipelineContext") -> None:
        from repro.container.security import SecurityError

        if not ctx.policy.signing:
            return
        try:
            with ctx.span("security.sign"):
                self.secure_outgoing(ctx.response_envelope, ctx.credentials)
        except SecurityError as exc:
            # A misconfigured (credential-less) container cannot sign.  It
            # used to reply unsigned and let the client's policy reject
            # that; now it owns the failure with a server-side fault.
            ctx.fault = SoapFault("Server", f"container cannot sign response: {exc}")
            ctx.result = None
            ctx.response_envelope = build_fault_envelope(
                ctx.reply_headers if ctx.reply_headers is not None else [], ctx.fault
            )

    # -- signing and verification ------------------------------------------------

    def secure_outgoing(self, envelope: Envelope, credentials: "Credentials | None") -> None:
        """Attach a wsse:Security/ds:Signature header over the Body."""
        from repro.container.security import SecurityError

        if not self.policy.signing:
            return
        if credentials is None:
            raise SecurityError("X.509 policy requires credentials to sign")
        body = envelope.body
        costs = self.network.costs
        kb = self._approx_kb(body)
        self.network.charge(costs.c14n_digest_per_kb * kb + costs.rsa_sign, "security.sign")
        signature = sign_element(body, credentials.keypair, credentials.certificate)
        envelope.header.append(element(_SECURITY_HEADER, signature))
        self.network.metrics.signed()

    def verify_incoming(self, envelope: Envelope) -> DistinguishedName | None:
        """Verify the signature (if policy requires) and return the sender DN."""
        from repro.container.security import SecurityError

        if not self.policy.signing:
            return None
        security = envelope.header_element(_SECURITY_HEADER)
        signature = security.find(_SIGNATURE) if security is not None else None
        if signature is None:
            raise SecurityError("policy requires a signed message; none present")
        subject = signer_subject(signature)
        certificate = self.trust.get(subject)
        if certificate is None:
            raise SecurityError(f"unknown signer: {subject}")
        if self.ca is not None:
            try:
                certificate.check(self.ca.keypair.public, at_time=self.network.clock.now)
            except CertificateError as exc:
                raise SecurityError(str(exc)) from exc
        costs = self.network.costs
        kb = self._approx_kb(envelope.body)
        self.network.charge(
            costs.c14n_digest_per_kb * kb + costs.rsa_verify + costs.security_policy_check,
            "security.verify",
        )
        try:
            verify_element(envelope.body, signature, certificate.public_key)
        except DsigError as exc:
            raise SecurityError(f"signature invalid: {exc}") from exc
        self.network.metrics.verified()
        return certificate.subject

    @staticmethod
    def _approx_kb(node: XmlElement) -> float:
        # Cheap size proxy for cost scaling: count of text + tags. The exact
        # wire size is charged by the transport; this only scales crypto cost.
        total = 0
        stack = [node]
        while stack:
            current = stack.pop()
            total += 16 + len(current.tag.local)
            for child in current.children:
                if isinstance(child, str):
                    total += len(child)
                else:
                    stack.append(child)
        return total / 1024.0

    # -- notification verification ---------------------------------------------

    def _verify_notification(self, ctx: "PipelineContext") -> None:
        """The consumer-side check: signature present, signer trusted.

        Cheaper than the request path's full :meth:`verify_incoming` (no
        policy check, no canonicalization charge) and it raises
        :class:`DsigError` rather than ``SecurityError`` — notification
        delivery has no fault channel to map errors onto.
        """
        envelope = ctx.request_envelope
        security = envelope.header_element(_SECURITY_HEADER)
        signature = security.find(_SIGNATURE) if security is not None else None
        if signature is None:
            raise DsigError("signed deployment received unsigned notification")
        subject = signer_subject(signature)
        certificate = self.trust.get(subject)
        if certificate is None:
            raise DsigError(f"notification signed by unknown party {subject}")
        ctx.network.charge(ctx.costs.rsa_verify, "security.verify")
        verify_element(envelope.body, signature, certificate.public_key)
        ctx.metrics.verified()


class MustUnderstandFilter(BaseFilter):
    """SOAP 1.1 §4.2.3: fault on mandatory headers this node can't process.

    Server-inbound only, and ordered *before* signature verification: a
    message demanding an unsupported mandatory extension must earn a
    MustUnderstand fault even when its signature would also fail.
    """

    #: Header namespaces this node processes (WS-I processing model).
    _UNDERSTOOD_NAMESPACES = (ns.WSA, ns.WSSE, ns.DS)

    def inbound(self, ctx: "PipelineContext") -> None:
        if ctx.role != SERVER:
            return
        understood = set(self._UNDERSTOOD_NAMESPACES)
        flag = QName(ns.SOAP, "mustUnderstand")
        for header in ctx.request_envelope.header.element_children():
            if (
                header.attributes.get(flag) in ("1", "true")
                and header.tag.namespace not in understood
            ):
                raise SoapFault(
                    "MustUnderstand",
                    f"mandatory header {header.tag.clark()} not understood",
                )


class CostAccountingFilter(BaseFilter):
    """Serialization/parsing plus their virtual-time charges.

    Last outbound and first inbound (after tracing), i.e. closest to the
    wire: by the time a message is charged it is in its final byte form,
    and inbound messages are paid for before anything inspects them.  The
    formulas are the legacy ones, verbatim — see the module docstring.
    """

    def outbound(self, ctx: "PipelineContext") -> None:
        costs = ctx.costs
        if ctx.role == CLIENT:
            ctx.request_message = WireMessage.from_envelope(ctx.request_envelope)
            ctx.network.charge(
                costs.soap_per_message
                + costs.xml_serialize_per_kb * ctx.request_message.n_kb,
                "client.send",
            )
        elif ctx.role == SERVER:
            ctx.response_message = WireMessage.from_envelope(ctx.response_envelope)
            ctx.network.charge(
                costs.soap_per_message
                + costs.xml_serialize_per_kb * ctx.response_message.n_kb,
                "server.send",
            )
        elif ctx.role == NOTIFY:
            ctx.request_message = WireMessage.from_envelope(ctx.request_envelope)
            ctx.network.charge(
                costs.soap_per_message
                + costs.xml_serialize_per_kb * ctx.request_message.n_kb,
                "notify.send",
            )

    def inbound(self, ctx: "PipelineContext") -> None:
        costs = ctx.costs
        if ctx.role == SERVER:
            ctx.network.charge(
                costs.soap_dispatch
                + costs.soap_per_message
                + costs.xml_parse_per_kb * ctx.request_message.n_kb,
                "server.receive",
            )
            # Text that is not XML was still received and paid for; the
            # sender gets a Client fault, never a raw parser exception.
            try:
                ctx.request_envelope = ctx.request_message.parse()
            except XmlParseError as exc:
                raise SoapFault("Client", f"malformed request: {exc}") from exc
        elif ctx.role == CLIENT:
            ctx.network.charge(
                costs.soap_per_message
                + costs.xml_parse_per_kb * ctx.response_message.n_kb,
                "client.receive",
            )
            # A reply that is not XML is the server's failure: the caller
            # gets a Server fault, never a raw parser exception.
            try:
                ctx.response_envelope = ctx.response_message.parse()
            except XmlParseError as exc:
                raise SoapFault("Server", f"malformed response: {exc}") from exc
        elif ctx.role == NOTIFY:
            ctx.network.charge(
                ctx.sink.delivery_overhead(costs)
                + costs.xml_parse_per_kb * ctx.request_message.n_kb,
                "notify.receive",
            )
            ctx.request_envelope = ctx.request_message.parse()
