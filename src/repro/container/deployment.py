"""Deployment: the wiring of hosts, containers, endpoints and trust.

One :class:`Deployment` is one measurement scenario: it fixes the security
policy, owns the simulated network, and resolves addresses — both container
endpoints and client-side notification sinks (the "custom HTTP server" a
WSRF.NET client embeds, or the persistent-TCP ``SoapReceiver`` a Plumbwork
Orange client uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.container.container import Container
from repro.container.security import Credentials, SecurityPolicy
from repro.crypto.x509 import Certificate, CertificateAuthority
from repro.pipeline import FilterChain, PipelineContext, SecurityFilter
from repro.reliable.deadletter import DeadLetterLog
from repro.reliable.policy import RetryPolicy
from repro.sim.costs import CostModel
from repro.sim.network import Host, Network, TransportKind
from repro.soap.envelope import Envelope


@dataclass
class NotificationSink:
    """A client-side endpoint that receives asynchronous notifications.

    ``kind`` selects the delivery path and its cost: ``"http-server"``
    models WSRF.NET's embedded per-delivery HTTP server; ``"tcp-receiver"``
    models WS-Eventing's persistent-TCP SoapReceiver.  This asymmetry is the
    paper's explanation for WS-Eventing's "considerably better" Notify.
    """

    address: str
    host: Host
    handler: Callable[[Envelope], None]
    kind: str = "http-server"

    @property
    def transport(self) -> TransportKind:
        return TransportKind.TCP if self.kind == "tcp-receiver" else TransportKind.HTTP

    def delivery_overhead(self, costs: CostModel) -> float:
        if self.kind == "tcp-receiver":
            return costs.notify_tcp_overhead
        return costs.notify_http_overhead


class Deployment:
    """A virtual organisation deployment under one security scenario."""

    def __init__(
        self,
        policy: SecurityPolicy | None = None,
        cost_model: CostModel | None = None,
        ca: CertificateAuthority | None = None,
    ) -> None:
        self.policy = policy or SecurityPolicy()
        self.network = Network(cost_model)
        self.ca = ca
        self.trust: dict[str, Certificate] = {}
        #: The one security filter every chain shares (clients, containers
        #: and notification delivery sign/verify with the same filter).
        self.security_filter = SecurityFilter(self.policy, self.network, ca, self.trust)
        #: Chain driving producer→consumer notification delivery.
        self.notification_chain = self.pipeline()
        self._hosts: dict[str, Host] = {}
        self._containers: dict[str, Container] = {}
        self._endpoints: dict[str, tuple[Host, Container]] = {}
        self._sinks: dict[str, NotificationSink] = {}
        self._sink_counter = 0
        #: When set, container out-calls are wrapped in a
        #: :class:`~repro.reliable.channel.ReliableChannel` with this policy.
        self.reliability: RetryPolicy | None = None
        #: Shared terminal record for undeliverable messages.
        self.dead_letters = DeadLetterLog()

    def pipeline(self) -> FilterChain:
        """A fresh filter chain for this deployment's policy.

        Apps, containers and benchmarks construct chains here instead of
        wiring filters by hand; the security filter is shared so the
        whole deployment signs and verifies with one policy, CA and
        trust directory.
        """
        return FilterChain.standard(self.security_filter)

    # -- topology -----------------------------------------------------------

    def host(self, name: str) -> Host:
        existing = self._hosts.get(name)
        if existing is None:
            existing = Host(name)
            self._hosts[name] = existing
        return existing

    def add_container(
        self, host_name: str, container_name: str, credentials: Credentials | None = None
    ) -> Container:
        key = f"{host_name}/{container_name}"
        if key in self._containers:
            raise ValueError(f"duplicate container: {key}")
        container = Container(self, self.host(host_name), container_name, credentials)
        self._containers[key] = container
        if credentials is not None:
            self.add_trust(credentials.certificate)
        return container

    def add_trust(self, certificate: Certificate) -> None:
        self.trust[str(certificate.subject)] = certificate

    def register_endpoint(self, address: str, host: Host, container: Container) -> None:
        if address in self._endpoints:
            raise ValueError(f"duplicate endpoint: {address}")
        self._endpoints[address] = (host, container)

    def resolve(self, address: str) -> tuple[Host, Container]:
        entry = self._endpoints.get(address)
        if entry is None:
            raise LookupError(f"no endpoint registered at {address}")
        return entry

    # -- notification sinks ---------------------------------------------------

    def add_sink(
        self,
        host_name: str,
        handler: Callable[[Envelope], None],
        kind: str = "http-server",
    ) -> NotificationSink:
        self._sink_counter += 1
        address = f"soap://{host_name}/_sink/{self._sink_counter}"
        sink = NotificationSink(address, self.host(host_name), handler, kind)
        self._sinks[address] = sink
        return sink

    def deliver_notification(
        self,
        from_host: Host,
        sink_address: str,
        envelope: Envelope,
        credentials: Credentials | None = None,
    ) -> bool:
        """Producer-side delivery of one notification message.

        Returns False when the sink is unknown (consumer gone) — producers
        treat that as a dropped delivery, not an error.  Injected transport
        faults (:class:`~repro.sim.faults.DeliveryFault`) propagate to the
        caller; a fault-injected *duplicate* hands the sink two copies, so
        unguarded consumers see the raw at-least-once stream (the reliable
        layer's :class:`~repro.reliable.sequence.InboundDeduper` collapses
        it back to exactly-once).
        """
        sink = self._sinks.get(sink_address)
        if sink is None:
            return False
        chain = self.notification_chain
        out_ctx = PipelineContext.notify_outbound(self, envelope, credentials, sink)
        with out_ctx.span("notify.deliver", detail=sink_address):
            chain.run_outbound(out_ctx)
            message = out_ctx.request_message
            with out_ctx.span("wire.notify"):
                copies = self.network.transmit(
                    from_host, sink.host, message.n_bytes, sink.transport,
                    service=sink_address,
                )
                self.network.metrics.log_message(
                    self.network.clock.now, from_host.name, sink_address,
                    "Notify", message.n_bytes, kind="notify",
                )
            for _ in range(copies):
                in_ctx = PipelineContext.notify_inbound(self, message, sink)
                chain.run_inbound(in_ctx)
                sink.handler(in_ctx.request_envelope)
        return True

    # -- identity helpers --------------------------------------------------------

    def issue_credentials(self, common_name: str, *, seed: int) -> Credentials:
        """Issue signed credentials from this deployment's CA and trust them."""
        if self.ca is None:
            raise RuntimeError("deployment has no certificate authority")
        certificate, keypair = self.ca.issue_identity(common_name, seed=seed)
        credentials = Credentials(certificate, keypair)
        self.add_trust(certificate)
        return credentials
