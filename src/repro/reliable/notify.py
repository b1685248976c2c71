"""ReliableNotifier: at-least-once notification delivery with dead-lettering.

One-way notification pushes have no reply to double as an
acknowledgement, so the notifier treats a delivery that raises no
:class:`~repro.sim.faults.DeliveryFault` as acknowledged (the simulated
sink handler runs synchronously inside ``deliver_notification``).  Each
payload is stamped with a composite ``wsrm:Sequence`` header so the
consumer's :class:`~repro.reliable.sequence.InboundDeduper` can collapse
retransmissions and fault-injected duplicates back to exactly-once.

A fresh envelope is built per attempt — ``deliver_notification`` signs
in place, so reusing one would stack security headers on retry.
"""

from __future__ import annotations

from repro.reliable.deadletter import DeadLetterLog
from repro.reliable.policy import RetryPolicy
from repro.reliable.sequence import OutboundSequence, next_sequence_id, sequence_header
from repro.sim.faults import DeliveryFault
from repro.soap.envelope import build_envelope
from repro.xmllib.element import XmlElement, seal


class ReliableNotifier:
    """Retransmitting front end for ``Deployment.deliver_notification``."""

    def __init__(
        self,
        deployment,
        policy: RetryPolicy | None = None,
        dead_letters: DeadLetterLog | None = None,
    ) -> None:
        self.deployment = deployment
        if policy is None:
            policy = deployment.reliability or RetryPolicy()
        self.policy = policy
        self.dead_letters = (
            dead_letters if dead_letters is not None else deployment.dead_letters
        )
        self._sequences: dict[str, OutboundSequence] = {}
        #: Notifications that reached the sink handler.
        self.delivered = 0
        #: Extra transmission attempts beyond the first.
        self.retransmissions = 0
        #: Notifications that ended in the dead-letter log.
        self.dead_lettered = 0

    def sequence_for(self, destination: str) -> OutboundSequence:
        seq = self._sequences.get(destination)
        if seq is None:
            seq = OutboundSequence(destination, next_sequence_id(self.deployment.network))
            self._sequences[destination] = seq
        return seq

    @property
    def assigned(self) -> int:
        return sum(seq.assigned for seq in self._sequences.values())

    def deliver(
        self,
        from_host,
        sink_address: str,
        payload: XmlElement,
        credentials=None,
        *,
        action: str = "Notify",
    ) -> bool:
        """Deliver ``payload`` with retransmission.

        Returns True once a copy reaches the sink handler; returns False
        after dead-lettering (sink gone, or retries exhausted) — the
        caller decides whether that ends the subscription.
        """
        network = self.deployment.network
        sequence = self.sequence_for(sink_address)
        number = sequence.next_number()
        spent_backoff = 0.0
        attempts = 0
        for attempt in range(1, self.policy.max_attempts + 1):
            attempts = attempt
            envelope = build_envelope(
                [sequence_header(sequence.identifier, number)], [seal(payload)]
            )
            try:
                accepted = self.deployment.deliver_notification(
                    from_host, sink_address, envelope, credentials
                )
            except DeliveryFault as exc:
                if attempt >= self.policy.max_attempts:
                    reason = f"retries exhausted after {attempt} attempts: {exc}"
                    break
                if not self.policy.within_budget(spent_backoff):
                    reason = (
                        f"retry budget ({self.policy.retry_budget_ms}ms) "
                        f"exhausted after {attempt} attempts"
                    )
                    break
                backoff = self.policy.backoff_ms(attempt, network.clock.rng)
                spent_backoff += backoff
                network.charge(backoff, "reliable.backoff")
                self.retransmissions += 1
            else:
                if not accepted:
                    reason = "consumer endpoint gone"
                    break
                sequence.ack(number)
                self.delivered += 1
                return True

        sequence.mark_dead(number)
        self.dead_lettered += 1
        self.dead_letters.record(
            at=network.clock.now,
            destination=sink_address,
            action=action,
            sequence=sequence.identifier,
            message_number=number,
            attempts=attempts,
            reason=reason,
        )
        return False
