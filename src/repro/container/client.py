"""The client proxy: invoking services over the simulated wire.

Mirrors a .NET Web-service proxy built on WSE: marshalling, security,
addressing and cost accounting all live in the deployment's filter
pipeline (:mod:`repro.pipeline`); this class only drives the chain and
moves bytes through the transport.  The same class serves end-user
clients and server out-calls.
"""

from __future__ import annotations

from repro.addressing.epr import EndpointReference
from repro.container.security import Credentials
from repro.pipeline import PipelineContext
from repro.sim.kernel import Acquire, Release, Work
from repro.sim.network import Host
from repro.xmllib.element import XmlElement


class SoapClient:
    """A client bound to one host and one identity."""

    def __init__(
        self,
        deployment,
        host: Host | str,
        credentials: Credentials | None = None,
    ) -> None:
        self.deployment = deployment
        self.host = deployment.host(host) if isinstance(host, str) else host
        self.credentials = credentials
        self.chain = deployment.pipeline()

    @property
    def network(self):
        return self.deployment.network

    def invoke(
        self,
        epr: EndpointReference,
        action: str,
        body: XmlElement,
        *,
        reply_to: EndpointReference | None = None,
        rm_stamp: tuple[str, int] | None = None,
    ) -> XmlElement | None:
        """Round-trip one request; returns the response body child (if any).

        ``rm_stamp`` is the WS-RM ``(sequence id, message number)`` a
        :class:`~repro.reliable.channel.ReliableChannel` assigns; the
        pipeline's reliability filter stamps it onto the wire headers.
        The kernel's eager driver runs the request; a server out-call
        nested in a stage skips the worker pools, since its cost is part
        of the enclosing request's service stage.
        """
        return self.network.kernel.run_sync(
            self.invoke_task(epr, action, body, reply_to=reply_to, rm_stamp=rm_stamp)
        )

    def invoke_task(
        self,
        epr: EndpointReference,
        action: str,
        body: XmlElement,
        *,
        reply_to: EndpointReference | None = None,
        rm_stamp: tuple[str, int] | None = None,
    ):
        """The request as a staged kernel task (generator of effects).

        One stage per Figure-1 seam — client outbound pipeline, request
        wire leg, server handling (bracketed by the server host's worker
        pool), response wire leg + client inbound pipeline.  Under the
        kernel's concurrent regime each stage's cost elapses as one
        schedulable delay, so overlapping requests interleave between
        stages; under the eager driver the stages run back-to-back and
        the charge order is exactly the legacy serial order.
        """
        ctx = PipelineContext.client_request(
            self.deployment, self.credentials, epr, action, body,
            reply_to=reply_to, rm_stamp=rm_stamp,
        )
        network = self.network
        with ctx.span("client.invoke", detail=action):

            def outbound():
                self.chain.run_outbound(ctx)
                return self.deployment.resolve(epr.address)

            server_host, container = yield Work(outbound, "client.outbound")
            request = ctx.request_message
            transport = self.deployment.policy.transport

            def send_request():
                with ctx.span("wire.request"):
                    network.transmit(
                        self.host, server_host, request.n_bytes, transport,
                        service=epr.address,
                    )
                    network.metrics.log_message(
                        network.clock.now, self.host.name, epr.address,
                        action, request.n_bytes,
                    )

            yield Work(send_request, "wire.request")

            # A worker slot on the serving host: granted immediately when
            # idle (zero wait — the serial ledgers never see a queue),
            # otherwise the request waits in the host's bounded FIFO.
            yield Acquire(server_host.name)
            try:
                ctx.response_message = yield Work(
                    lambda: container.handle(request), "server.handle"
                )
            finally:
                yield Release(server_host.name)

            def receive_response():
                # The response flows back on the same connection: wire time
                # only (and the same injected faults — a lossy link can eat
                # replies).
                with ctx.span("wire.response"):
                    network.transmit_response(
                        server_host, self.host, ctx.response_message.n_bytes,
                        transport, service=epr.address,
                    )
                    network.metrics.log_message(
                        network.clock.now, epr.address, self.host.name,
                        action + "Response", ctx.response_message.n_bytes,
                        kind="response",
                    )
                self.chain.run_inbound(ctx)

            yield Work(receive_response, "client.inbound")
        return ctx.response_body
