"""WS-ReliableMessaging-style reliability layer (DESIGN.md §reliable).

The paper's stacks assume a friendly LAN; this package supplies the
piece both stacks would need on a real grid: sequences with message
numbers, retransmission with exponential backoff and a retry budget,
receiver-side duplicate suppression, optional in-order delivery, and a
dead-letter record for messages that exhaust their retries.  Modelled
on the 2005-02 WS-ReliableMessaging submission — contemporary with the
paper's WS-Transfer/WS-Eventing stack — and usable by both the WSRF and
WS-Transfer paths:

* :class:`ReliableChannel` wraps any SOAP client proxy (request path);
* :class:`ReliableNotifier` wraps notification delivery (event path).

All retransmission time is *virtual* (charged to ``reliable.backoff``),
and all randomness (jitter, injected faults) comes from the sim clock's
seeded RNG, so lossy-network runs are deterministic and replayable.
"""

from repro.reliable.channel import ReliableChannel, RetryExhausted
from repro.reliable.deadletter import DeadLetterLog, DeadLetterRecord
from repro.reliable.notify import ReliableNotifier
from repro.reliable.policy import NO_RETRY, RetryPolicy
from repro.reliable.sequence import (
    MESSAGE_NUMBER_HEADER,
    SEQUENCE_ID_HEADER,
    InboundDeduper,
    InboundSequence,
    OutboundSequence,
    read_sequence_header,
    sequence_header,
)

__all__ = [
    "ReliableChannel",
    "RetryExhausted",
    "ReliableNotifier",
    "RetryPolicy",
    "NO_RETRY",
    "DeadLetterLog",
    "DeadLetterRecord",
    "OutboundSequence",
    "InboundSequence",
    "InboundDeduper",
    "SEQUENCE_ID_HEADER",
    "MESSAGE_NUMBER_HEADER",
    "sequence_header",
    "read_sequence_header",
]
