"""The filter chain: WSE's pipeline shape, with explicit dual ordering.

WSE 2.0 processes every message through an ordered collection of SOAP
filters — one collection for output, one for input — and the paper's
.NET stack owes its addressing/security/policy layering to exactly that
machinery.  :class:`FilterChain` reproduces the shape: an ``outbound``
tuple applied to messages being produced (request on the client,
response on the server, notification on the producer) and an ``inbound``
tuple applied to messages being consumed.

The two orders are *not* forced to be reversals of each other, for the
same reason WSE keeps two separately-ordered collections: the required
orders differ per direction.  Inbound, the mustUnderstand check must
fault before signature verification (SOAP 1.1 processing-model
precedence), and WS-RM replay detection needs the parsed addressing
headers; outbound, the WS-RM reply cache must observe the *serialized*
reply, which is why filters can defer work past the end of the pass via
:meth:`~repro.pipeline.context.PipelineContext.defer`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.context import PipelineContext


@runtime_checkable
class MessageFilter(Protocol):
    """One composable message-processing stage (WSE ``SoapFilter``)."""

    def outbound(self, ctx: "PipelineContext") -> None:
        """Process a message being produced (before it hits the wire)."""

    def inbound(self, ctx: "PipelineContext") -> None:
        """Process a message being consumed (after it left the wire)."""


class BaseFilter:
    """No-op filter; concrete filters override the legs they act on."""

    def outbound(self, ctx: "PipelineContext") -> None:  # pragma: no cover
        return

    def inbound(self, ctx: "PipelineContext") -> None:  # pragma: no cover
        return


class FilterChain:
    """Two ordered filter tuples plus the pass/deferred-action mechanics."""

    def __init__(
        self,
        outbound: Iterable[MessageFilter],
        inbound: Iterable[MessageFilter],
    ) -> None:
        self.outbound_filters: tuple[MessageFilter, ...] = tuple(outbound)
        self.inbound_filters: tuple[MessageFilter, ...] = tuple(inbound)

    @classmethod
    def standard(cls, security: MessageFilter) -> "FilterChain":
        """The canonical deployment chain (Figure 1's processing order).

        The security filter is injected — one per deployment, shared by
        every chain — so client, container and notification paths sign and
        verify with the same policy, CA and trust directory.
        """
        from repro.pipeline.filters import (
            AddressingFilter,
            CostAccountingFilter,
            MustUnderstandFilter,
            ReliableMessagingFilter,
            TracingFilter,
        )

        tracing = TracingFilter()
        reliability = ReliableMessagingFilter()
        addressing = AddressingFilter()
        must_understand = MustUnderstandFilter()
        cost = CostAccountingFilter()
        return cls(
            outbound=(tracing, reliability, addressing, security, must_understand, cost),
            inbound=(tracing, cost, must_understand, security, addressing, reliability),
        )

    def run_outbound(self, ctx: "PipelineContext") -> None:
        """Apply the outbound filters in order, then drain deferred work."""
        try:
            for f in self.outbound_filters:
                f.outbound(ctx)
        finally:
            ctx.run_deferred()

    def run_inbound(self, ctx: "PipelineContext") -> None:
        """Apply the inbound filters in order, then drain deferred work."""
        try:
            for f in self.inbound_filters:
                f.inbound(ctx)
        finally:
            ctx.run_deferred()

    def find(self, kind: type) -> MessageFilter:
        """The first filter of ``kind`` in either direction's order."""
        for f in self.outbound_filters + self.inbound_filters:
            if isinstance(f, kind):
                return f
        raise LookupError(f"chain has no {kind.__name__}")
