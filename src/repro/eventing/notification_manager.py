"""The NotificationManager: the trigger-side convenience tool.

"The Notification Manager, which is not defined in the spec, is a
convenient tool for an event source to trigger notifications by using
operations implemented in it."  Delivery uses the push mode over the
consumer's persistent-TCP SoapReceiver (the reason WS-Eventing Notify
out-performs WSRF.NET's per-delivery HTTP server in Figures 2-4).

Delivery failures are never silent: a consumer that is gone or
unreachable (after the reliable deliverer's retries, when one is
attached) is recorded in :attr:`NotificationManager.delivery_failures`,
surfaced through :attr:`NotificationManager.on_delivery_failure`, and
its subscription is terminated the way WS-Eventing prescribes — the
record is removed and a ``wse:SubscriptionEnd`` with DeliveryFailure
status goes to the subscription's EndTo endpoint.
"""

from __future__ import annotations

from typing import Callable

from repro.eventing.filters import EventFilter
from repro.eventing.source import actions
from repro.eventing.store import FlatFileSubscriptionStore, SubscriptionRecord
from repro.sim.faults import DeliveryFault
from repro.soap.envelope import build_envelope
from repro.xmllib import element, ns
from repro.xmllib.element import XmlElement, seal


class NotificationManager:
    """Fires events from a source service to its matching subscribers."""

    def __init__(self, store: FlatFileSubscriptionStore, deliverer=None):
        self.store = store
        #: Optional :class:`~repro.reliable.notify.ReliableNotifier`; when
        #: set, every push gets sequence numbering plus retransmission.
        self.deliverer = deliverer
        #: ``(notify_to, reason)`` per failed delivery, in firing order.
        self.delivery_failures: list[tuple[str, str]] = []
        #: Observer called with ``(record, reason)`` on each failure.
        self.on_delivery_failure: Callable[[SubscriptionRecord, str], None] | None = None

    def fire(self, source_service, message: XmlElement, topic: str = "") -> int:
        """Deliver ``message`` to every live, matching subscriber of the
        source.  Expired subscriptions are pruned (and their EndTo endpoints
        told).  Failed deliveries end the subscription per the spec.
        Returns the delivery count."""
        now = source_service.network.clock.now
        for dead in self.store.prune_expired(now):
            self._send_subscription_end(source_service, dead, "expired")
        delivered = 0
        for record in self.store.for_source(source_service.address):
            if not EventFilter(record.filter_expression).matches(message, topic):
                continue
            payload = self._payload(record, message, topic, now)
            ok, reason = self._push(source_service, record.notify_to, payload)
            if ok:
                delivered += 1
            else:
                self._delivery_failed(source_service, record, reason)
        return delivered

    def _push(
        self, source_service, destination: str, payload: XmlElement, *, action: str = "Notify"
    ) -> tuple[bool, str]:
        """One push; returns ``(ok, failure reason)``."""
        container = source_service.container
        if self.deliverer is not None:
            ok = self.deliverer.deliver(
                container.host, destination, payload, container.credentials, action=action
            )
            if ok:
                return True, ""
            dead = self.deliverer.dead_letters.for_destination(destination)
            return False, dead[-1].reason if dead else "delivery failed"
        try:
            ok = container.deployment.deliver_notification(
                container.host, destination, build_envelope([], [payload]),
                container.credentials,
            )
        except DeliveryFault as exc:
            return False, str(exc)
        if not ok:
            return False, "consumer endpoint gone"
        return True, ""

    def _delivery_failed(
        self, source_service, record: SubscriptionRecord, reason: str
    ) -> None:
        """Record the failure and end the subscription (WS-Eventing §3.5).

        The subscription is removed *before* the observer runs: a
        re-entrant observer (one that triggers another delivery) must see
        the subscription already gone, not half-dead.
        """
        self.delivery_failures.append((record.notify_to, reason))
        self.store.remove(record.identifier)
        if self.on_delivery_failure is not None:
            self.on_delivery_failure(record, reason)
        self._send_subscription_end(source_service, record, "DeliveryFailure")

    def _payload(self, record: SubscriptionRecord, message, topic: str, now: float):
        """Shape the delivered body per the subscription's delivery mode."""
        from repro.eventing.source import WRAP_MODE

        if record.delivery_mode == WRAP_MODE:
            wrapper = element(
                f"{{{ns.WSE}}}Wrapper",
                attrs={"Subscription": record.identifier, "At": repr(now)},
            )
            if topic:
                wrapper.set("Topic", topic)
            wrapper.append(seal(message))
            return wrapper
        return seal(message)

    def _send_subscription_end(self, source_service, record: SubscriptionRecord, reason: str) -> None:
        if not record.end_to:
            return
        end_message = element(
            f"{{{ns.WSE}}}SubscriptionEnd",
            element(f"{{{ns.WSE}}}Status", actions.SUBSCRIPTION_END + "/" + reason),
            element(f"{{{ns.WSE}}}Reason", reason),
        )
        # Best effort: the EndTo endpoint may share the fate of the sink
        # that just failed; its loss is recorded, not raised.
        self._push(
            source_service, record.end_to, end_message,
            action=actions.SUBSCRIPTION_END,
        )
