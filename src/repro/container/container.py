"""The container: Figure 1's outer box.

Processing order for each request, as in the paper: the inbound filter
pass pays receive costs, enforces mustUnderstand, authenticates and
reads the addressing headers (with WS-RM replay detection last); the
container dispatches to the service; the outbound pass builds, signs,
serializes and charges the reply.  All of that order lives in the
deployment's :class:`~repro.pipeline.FilterChain` — this class only
drives it and hosts the services.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.container.security import Credentials, SecurityError
from repro.container.service import MessageContext, ServiceSkeleton
from repro.pipeline import PipelineContext, ReliableMessagingFilter
from repro.sim.network import Host, Network
from repro.soap.envelope import SoapFault
from repro.soap.message import WireMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.client import SoapClient
    from repro.container.deployment import Deployment


class Container:
    """Hosts services on one machine and processes their requests."""

    def __init__(
        self,
        deployment: "Deployment",
        host: Host,
        name: str,
        credentials: Credentials | None = None,
    ) -> None:
        self.deployment = deployment
        self.host = host
        self.name = name
        self.credentials = credentials
        self.network: Network = deployment.network
        #: This container's filter chain; its reliability filter owns the
        #: WS-RM reply cache, so the cache is per-container as before.
        self.chain = deployment.pipeline()
        self.services: dict[str, ServiceSkeleton] = {}

    @property
    def request_log(self):
        """WS-RM destination-side reply cache (lives in the chain)."""
        return self.chain.find(ReliableMessagingFilter).log

    # -- deployment -------------------------------------------------------------

    def add_service(self, service: ServiceSkeleton) -> str:
        """Register a service; returns its address."""
        address = f"soap://{self.host.name}/{self.name}/{service.service_name}"
        if address in self.services:
            raise ValueError(f"duplicate service address: {address}")
        self.services[address] = service
        service.attached(self, address)
        self.deployment.register_endpoint(address, self.host, self)
        return address

    def outcall_client(self) -> "SoapClient":
        from repro.container.client import SoapClient

        client = SoapClient(self.deployment, self.host, self.credentials)
        if self.deployment.reliability is not None:
            from repro.reliable.channel import ReliableChannel

            return ReliableChannel(
                client, self.deployment.reliability, self.deployment.dead_letters
            )
        return client

    # -- request processing -------------------------------------------------------

    def handle(self, message: WireMessage) -> WireMessage:
        """Process one request message and produce the response message.

        Transport costs are charged by the caller (the client proxy); the
        filter passes charge server-side processing.
        """
        ctx = PipelineContext.server_request(self, message)
        # Sanitizer execution context: every store mutation below is
        # attributed to this host and this request (no-op when detached).
        with self.network.sanitizer_scope(self.host.name):
            try:
                self.chain.run_inbound(ctx)
                if ctx.replayed:
                    return ctx.response_message
                service = self.services.get(ctx.headers.to)
                if service is None:
                    raise SoapFault("Client", f"no service at {ctx.headers.to}")
                with ctx.span("dispatch", detail=ctx.headers.action):
                    context = MessageContext(
                        headers=ctx.headers,
                        body=ctx.request_envelope.body_child(),
                        sender=ctx.sender,
                        container=self,
                    )
                    ctx.result = service.dispatch(context)
            except SoapFault as fault:
                ctx.fault = fault
            except SecurityError as exc:
                ctx.fault = SoapFault("Client", f"security failure: {exc}")
            self.chain.run_outbound(ctx)
            return ctx.response_message
