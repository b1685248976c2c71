"""WSE-style SOAP filter pipeline (DESIGN.md §10).

The paper's .NET stack runs every message through WSE's ordered chain of
SOAP filters — addressing, security, policy — and this package restores
that architecture to the reproduction: client invocation, container
request handling and notification delivery are thin drivers over one
:class:`FilterChain` whose filters each own a single cross-cutting
concern.  Chains are built per deployment via ``Deployment.pipeline()``.

The filters own their machinery outright: :class:`SecurityFilter` signs
and verifies itself, and the WS-RM reply cache
(:class:`~repro.pipeline.filters.InboundRequestLog`) exists only inside
:class:`ReliableMessagingFilter`, so code outside this package has no
handler to reach for and composes filters instead.
"""

from repro.pipeline.chain import BaseFilter, FilterChain, MessageFilter
from repro.pipeline.context import CLIENT, NOTIFY, SERVER, PipelineContext
from repro.pipeline.filters import (
    AddressingFilter,
    CostAccountingFilter,
    MustUnderstandFilter,
    ReliableMessagingFilter,
    SecurityFilter,
    TracingFilter,
)

__all__ = [
    "BaseFilter",
    "FilterChain",
    "MessageFilter",
    "PipelineContext",
    "CLIENT",
    "SERVER",
    "NOTIFY",
    "AddressingFilter",
    "CostAccountingFilter",
    "MustUnderstandFilter",
    "ReliableMessagingFilter",
    "SecurityFilter",
    "TracingFilter",
]
