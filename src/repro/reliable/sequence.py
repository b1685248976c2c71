"""WS-ReliableMessaging sequences: message numbers, dedup, ordering.

Follows the 2005-02 WS-RM submission's model: the sender opens a
*Sequence* (identified by a ``wsrm:Identifier`` URI) and stamps every
message with a 1-based ``wsrm:MessageNumber``.  At-least-once
retransmission plus receiver-side duplicate suppression yields
exactly-once delivery; an optional in-order mode buffers gaps.

Two wire shapes are supported, matching the two paths that need them:

* **Notifications** carry a composite ``wsrm:Sequence`` SOAP header
  (:func:`sequence_header` / :func:`read_sequence_header`) — the shape
  the WS-RM spec defines.
* **Request/response invocations** carry the identifier and number as
  flat headers smuggled through WS-Addressing reference properties
  (see :mod:`repro.reliable.channel`), because the proxy layer already
  round-trips unknown headers that way.

Identifiers are fixed-width (like WS-Addressing message ids) so message
byte sizes — and therefore all charged wire costs — are identical across
reruns.
"""

from __future__ import annotations

from repro.soap.envelope import Envelope
from repro.xmllib import QName, element, ns, text_of
from repro.xmllib.element import XmlElement

#: Flat-header names used on the request/response (channel) path.
SEQUENCE_ID_HEADER = QName(ns.WSRM, "Identifier")
MESSAGE_NUMBER_HEADER = QName(ns.WSRM, "MessageNumber")

_SEQUENCE = QName(ns.WSRM, "Sequence")


def next_sequence_id(network) -> str:
    """The next deterministic, fixed-width sequence identifier on ``network``."""
    return f"urn:repro:seq-{next(network.sequence_ids):08d}"


def sequence_header(identifier: str, number: int) -> XmlElement:
    """Build the composite ``wsrm:Sequence`` header element."""
    return element(
        _SEQUENCE,
        element(SEQUENCE_ID_HEADER, identifier),
        element(MESSAGE_NUMBER_HEADER, str(number)),
    )


def read_sequence_header(envelope: Envelope) -> tuple[str, int] | None:
    """Extract ``(identifier, message_number)`` from an envelope, if any.

    Understands both the composite ``wsrm:Sequence`` header and the flat
    pair used on the invocation path.
    """
    composite = envelope.header_element(_SEQUENCE)
    if composite is not None:
        identifier = text_of(composite.find(SEQUENCE_ID_HEADER)).strip()
        number = text_of(composite.find(MESSAGE_NUMBER_HEADER)).strip()
        if identifier and number:
            return identifier, int(number)
        return None
    flat_id = envelope.header_element(SEQUENCE_ID_HEADER)
    flat_num = envelope.header_element(MESSAGE_NUMBER_HEADER)
    if flat_id is not None and flat_num is not None:
        identifier = flat_id.text().strip()
        number = flat_num.text().strip()
        if identifier and number:
            return identifier, int(number)
    return None


class OutboundSequence:
    """Sender-side state: hands out message numbers, tracks outcomes."""

    def __init__(self, destination: str, identifier: str) -> None:
        self.destination = destination
        self.identifier = identifier
        self._next = 1
        #: Message numbers acknowledged as delivered.
        self.acked: set[int] = set()
        #: Message numbers that ended in the dead-letter log.
        self.dead: set[int] = set()

    def next_number(self) -> int:
        number = self._next
        self._next += 1
        return number

    @property
    def assigned(self) -> int:
        """How many message numbers have been handed out."""
        return self._next - 1

    def ack(self, number: int) -> None:
        self.acked.add(number)

    def mark_dead(self, number: int) -> None:
        self.dead.add(number)

    @property
    def outstanding(self) -> set[int]:
        """Numbers neither acked nor dead — must be empty when a run
        settles, or messages were lost *and unreported*."""
        return set(range(1, self._next)) - self.acked - self.dead


class InboundSequence:
    """Receiver-side state for one sequence: dedup and optional ordering."""

    def __init__(self, identifier: str, *, ordered: bool = False) -> None:
        self.identifier = identifier
        self.ordered = ordered
        self._seen: set[int] = set()
        self._buffer: dict[int, object] = {}
        self._next_expected = 1
        #: Duplicate deliveries suppressed.
        self.duplicates = 0

    def receive(self, number: int, payload) -> list:
        """Admit one transmission; return payloads now deliverable.

        Unordered mode: first copy of each number passes, repeats are
        suppressed.  Ordered mode: additionally buffers out-of-order
        arrivals until the gap fills, then releases the contiguous run.
        """
        if number in self._seen:
            self.duplicates += 1
            return []
        self._seen.add(number)
        if not self.ordered:
            return [payload]
        self._buffer[number] = payload
        released = []
        while self._next_expected in self._buffer:
            released.append(self._buffer.pop(self._next_expected))
            self._next_expected += 1
        return released

    @property
    def buffered(self) -> int:
        """Out-of-order payloads awaiting a gap fill (ordered mode)."""
        return len(self._buffer)


class InboundDeduper:
    """Per-source dedup front door for a notification consumer.

    Wraps :class:`InboundSequence` instances keyed by sequence
    identifier.  Envelopes without a sequence header pass straight
    through (unreliable senders keep working).
    """

    def __init__(self, *, ordered: bool = False) -> None:
        self.ordered = ordered
        self._sequences: dict[str, InboundSequence] = {}

    def admit(self, envelope: Envelope) -> list[Envelope]:
        """Return the envelopes to actually deliver (0, 1, or several)."""
        stamp = read_sequence_header(envelope)
        if stamp is None:
            return [envelope]
        identifier, number = stamp
        seq = self._sequences.get(identifier)
        if seq is None:
            seq = InboundSequence(identifier, ordered=self.ordered)
            self._sequences[identifier] = seq
        return seq.receive(number, envelope)

    @property
    def duplicates(self) -> int:
        return sum(seq.duplicates for seq in self._sequences.values())

    @property
    def buffered(self) -> int:
        return sum(seq.buffered for seq in self._sequences.values())
