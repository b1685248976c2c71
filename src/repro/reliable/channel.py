"""ReliableChannel: retransmitting wrapper around a SOAP client proxy.

Duck-types :class:`~repro.container.client.SoapClient` (``invoke`` plus
the attributes out-call sites touch), so any code holding a client can
hold a reliable one instead — WSRF proxies, WS-Transfer proxies, and
container out-calls alike.

Wire shape: each invocation is stamped with the WS-RM sequence
identifier and message number as *flat* headers carried through the
EPR's reference properties.  That is a documented adaptation of the
spec's composite ``wsrm:Sequence`` header: the proxy layer already
echoes reference properties as SOAP headers, which gives us the stamp
on the wire — and back out of ``MessageHeaders`` server-side — without
a parallel marshalling path.  This class assigns the sequence numbers
and drives the retry loop; the stamping itself is done by the
pipeline's :class:`~repro.pipeline.filters.ReliableMessagingFilter`,
which receives the stamp via ``invoke(..., rm_stamp=...)``.  The
synchronous request/response exchange
doubles as the acknowledgement (a reply *is* the ack); lost replies
cause a retransmission that the server answers from its
:class:`~repro.pipeline.filters.InboundRequestLog` without
re-executing the service, preserving exactly-once semantics.
"""

from __future__ import annotations

from repro.addressing.epr import EndpointReference
from repro.reliable.deadletter import DeadLetterLog
from repro.reliable.policy import RetryPolicy
from repro.reliable.sequence import OutboundSequence, next_sequence_id
from repro.sim.faults import DeliveryFault
from repro.xmllib.element import XmlElement


class RetryExhausted(DeliveryFault):
    """All transmission attempts failed; the message is dead-lettered.

    Subclasses :class:`DeliveryFault` so an *outer* reliability layer
    (e.g. a reliable notifier whose out-call rides a reliable channel)
    treats exhaustion below it as just another delivery failure.
    """

    def __init__(self, message: str, record) -> None:
        super().__init__(message)
        #: The :class:`~repro.reliable.deadletter.DeadLetterRecord`.
        self.record = record


class ReliableChannel:
    """At-least-once retransmission over an unreliable simulated wire."""

    def __init__(
        self,
        client,
        policy: RetryPolicy | None = None,
        dead_letters: DeadLetterLog | None = None,
    ) -> None:
        self.client = client
        self.policy = policy if policy is not None else RetryPolicy()
        self.dead_letters = dead_letters if dead_letters is not None else DeadLetterLog()
        self._sequences: dict[str, OutboundSequence] = {}
        #: Invocations that ultimately succeeded.
        self.delivered = 0
        #: Extra transmission attempts beyond the first, across all messages.
        self.retransmissions = 0

    # -- SoapClient duck-type surface --------------------------------------

    @property
    def network(self):
        return self.client.network

    @property
    def deployment(self):
        return self.client.deployment

    @property
    def host(self):
        return self.client.host

    @property
    def credentials(self):
        return self.client.credentials

    # -- sequences ---------------------------------------------------------

    def sequence_for(self, destination: str) -> OutboundSequence:
        seq = self._sequences.get(destination)
        if seq is None:
            seq = OutboundSequence(destination, next_sequence_id(self.network))
            self._sequences[destination] = seq
        return seq

    @property
    def sequences(self) -> list[OutboundSequence]:
        return list(self._sequences.values())

    @property
    def assigned(self) -> int:
        return sum(seq.assigned for seq in self._sequences.values())

    # -- the reliable invoke ------------------------------------------------

    def invoke(
        self,
        epr: EndpointReference,
        action: str,
        body: XmlElement,
        **kwargs,
    ) -> XmlElement | None:
        """Invoke with retransmission; raise :class:`RetryExhausted` on
        failure after dead-lettering.  Non-transport errors (SOAP faults,
        security failures) pass through untouched — retrying those would
        not help."""
        sequence = self.sequence_for(epr.address)
        number = sequence.next_number()
        clock = self.network.clock
        spent_backoff = 0.0
        attempts = 0
        last: DeliveryFault | None = None
        for attempt in range(1, self.policy.max_attempts + 1):
            attempts = attempt
            try:
                result = self.client.invoke(
                    epr, action, body,
                    rm_stamp=(sequence.identifier, number), **kwargs,
                )
            except DeliveryFault as exc:
                last = exc
                if attempt >= self.policy.max_attempts:
                    reason = f"retries exhausted after {attempt} attempts: {exc}"
                    break
                if not self.policy.within_budget(spent_backoff):
                    reason = (
                        f"retry budget ({self.policy.retry_budget_ms}ms) "
                        f"exhausted after {attempt} attempts"
                    )
                    break
                backoff = self.policy.backoff_ms(attempt, clock.rng)
                spent_backoff += backoff
                self.network.charge(backoff, "reliable.backoff")
                self.retransmissions += 1
            else:
                sequence.ack(number)
                self.delivered += 1
                return result

        sequence.mark_dead(number)
        record = self.dead_letters.record(
            at=clock.now,
            destination=epr.address,
            action=action,
            sequence=sequence.identifier,
            message_number=number,
            attempts=attempts,
            reason=reason,
        )
        raise RetryExhausted(
            f"{action} to {epr.address} dead-lettered: {reason}", record
        ) from last
