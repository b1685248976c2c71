"""Stack-switching facades (extension beyond the paper's implementation).

§5 asks: "Suppose that I have built a system based on stack A ... and then
B becomes the clear favorite of the community ... an existing WSRF-speaking
client cannot simply be aimed at the 'corresponding' WS-Transfer-based
services."  These gateways make exactly that aiming possible: a facade
service speaks one stack's protocol to clients and drives a backing service
on the other stack, translating EPRs and operations per a declarative
property mapping.  The cost of switching becomes measurable: every bridged
call pays one extra signed hop (the ``stack_switching`` experiment spec).
"""

from repro.bridge.mapping import BridgeMapping, COUNTER_MAPPING
from repro.bridge.wsrf_facade import WsrfFacadeService
from repro.bridge.transfer_facade import TransferFacadeService

__all__ = [
    "BridgeMapping",
    "COUNTER_MAPPING",
    "WsrfFacadeService",
    "TransferFacadeService",
]
