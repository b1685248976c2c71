"""WS-Eventing end-to-end: subscribe, fire, renew, expire, unsubscribe."""

import pytest

from repro.container import ServiceSkeleton, web_method
from repro.eventing import (
    EventFilter,
    EventingConsumer,
    EventSourceMixin,
    EventSubscriptionManagerService,
    FlatFileSubscriptionStore,
    NotificationManager,
    actions,
)
from repro.soap import SoapFault
from repro.xmllib import element, ns, text_of

from tests.helpers import make_client, make_deployment, server_container

NS = "urn:test:esensor"
EMIT = f"{NS}/Emit"


class EventfulService(EventSourceMixin, ServiceSkeleton):
    service_name = "Eventful"

    def __init__(self, manager: EventSubscriptionManagerService):
        super().__init__()
        self.event_subscription_manager = manager
        self.notifications = NotificationManager(manager.store)

    @web_method(EMIT)
    def emit(self, context):
        topic = text_of(context.body.find_local("Topic"), "")
        value = text_of(context.body.find_local("Value"), "0")
        delivered = self.notifications.fire(self, element(f"{{{NS}}}Reading", value), topic)
        return element(f"{{{NS}}}EmitResponse", str(delivered))


@pytest.fixture()
def rig():
    deployment = make_deployment()
    container = server_container(deployment)
    store = FlatFileSubscriptionStore(deployment.network)
    manager = EventSubscriptionManagerService(store)
    container.add_service(manager)
    source = EventfulService(manager)
    container.add_service(source)
    client = make_client(deployment)
    consumer = EventingConsumer(deployment, "client")
    return deployment, source, manager, client, consumer


def subscribe(client, source, consumer, *, expires="", filter_expression="", end_to=""):
    from repro.addressing import EndpointReference

    body = element(
        f"{{{ns.WSE}}}Subscribe",
        element(
            f"{{{ns.WSE}}}Delivery",
            consumer.epr.to_xml(f"{{{ns.WSE}}}NotifyTo"),
        ),
    )
    if end_to:
        body.append(EndpointReference.create(end_to).to_xml(f"{{{ns.WSE}}}EndTo"))
    if expires:
        body.append(element(f"{{{ns.WSE}}}Expires", expires))
    if filter_expression:
        body.append(element(f"{{{ns.WSE}}}Filter", filter_expression))
    response = client.invoke(source.epr(), actions.SUBSCRIBE, body)
    manager_el = response.find(f"{{{ns.WSE}}}SubscriptionManager")
    return EndpointReference.from_xml(manager_el)


def emit(client, source, topic="", value="1"):
    response = client.invoke(
        source.epr(),
        EMIT,
        element(f"{{{NS}}}Emit", element(f"{{{NS}}}Topic", topic), element(f"{{{NS}}}Value", value)),
    )
    return int(response.text())


class TestSubscribeAndPush:
    def test_event_reaches_consumer(self, rig):
        _, source, _, client, consumer = rig
        subscribe(client, source, consumer)
        assert emit(client, source, value="9") == 1
        assert len(consumer.received) == 1
        assert consumer.received[0].text() == "9"

    def test_no_subscription_no_delivery(self, rig):
        _, source, _, client, consumer = rig
        assert emit(client, source) == 0

    def test_topic_filter(self, rig):
        _, source, _, client, consumer = rig
        subscribe(client, source, consumer, filter_expression=EventFilter.topic_filter("alerts"))
        assert emit(client, source, topic="readings") == 0
        assert emit(client, source, topic="alerts") == 1

    def test_content_filter(self, rig):
        _, source, _, client, consumer = rig
        subscribe(client, source, consumer, filter_expression="Reading[. > 10]")
        assert emit(client, source, value="5") == 0
        assert emit(client, source, value="20") == 1

    def test_per_resource_subscription_via_filter(self, rig):
        """§3.2: "a filter can be used for registering a subscription per
        resource" — match an id carried inside the event payload."""
        _, source, manager, client, consumer = rig
        subscribe(client, source, consumer, filter_expression="Reading[@rid='r1']")
        evt = element(f"{{{NS}}}Reading", "1", attrs={"rid": "r2"})
        assert source.notifications.fire(source, evt) == 0
        evt = element(f"{{{NS}}}Reading", "1", attrs={"rid": "r1"})
        assert source.notifications.fire(source, evt) == 1

    def test_missing_delivery_faults(self, rig):
        _, source, _, client, _ = rig
        with pytest.raises(SoapFault, match="no Delivery"):
            client.invoke(source.epr(), actions.SUBSCRIBE, element(f"{{{ns.WSE}}}Subscribe"))

    def test_non_push_mode_rejected(self, rig):
        _, source, _, client, consumer = rig
        body = element(
            f"{{{ns.WSE}}}Subscribe",
            element(
                f"{{{ns.WSE}}}Delivery",
                consumer.epr.to_xml(f"{{{ns.WSE}}}NotifyTo"),
                attrs={"Mode": "urn:custom-batching"},
            ),
        )
        with pytest.raises(SoapFault, match="unsupported delivery mode"):
            client.invoke(source.epr(), actions.SUBSCRIBE, body)

    def test_missing_notify_to_faults(self, rig):
        _, source, _, client, _ = rig
        body = element(f"{{{ns.WSE}}}Subscribe", element(f"{{{ns.WSE}}}Delivery"))
        with pytest.raises(SoapFault, match="requires NotifyTo"):
            client.invoke(source.epr(), actions.SUBSCRIBE, body)

    def test_bad_filter_dialect_rejected(self, rig):
        _, source, _, client, consumer = rig
        body = element(
            f"{{{ns.WSE}}}Subscribe",
            element(f"{{{ns.WSE}}}Delivery", consumer.epr.to_xml(f"{{{ns.WSE}}}NotifyTo")),
            element(f"{{{ns.WSE}}}Filter", "x", attrs={"Dialect": "urn:other"}),
        )
        with pytest.raises(SoapFault, match="unsupported filter dialect"):
            client.invoke(source.epr(), actions.SUBSCRIBE, body)


class TestSubscriptionManager:
    def test_get_status_reports_expiry(self, rig):
        deployment, source, _, client, consumer = rig
        deadline = deployment.network.clock.now + 60_000
        sub = subscribe(client, source, consumer, expires=repr(deadline))
        response = client.invoke(sub, actions.GET_STATUS, element(f"{{{ns.WSE}}}GetStatus"))
        assert response.find(f"{{{ns.WSE}}}Expires").text() == repr(deadline)

    def test_get_status_infinite(self, rig):
        _, source, _, client, consumer = rig
        sub = subscribe(client, source, consumer)
        response = client.invoke(sub, actions.GET_STATUS, element(f"{{{ns.WSE}}}GetStatus"))
        assert response.find(f"{{{ns.WSE}}}Expires").text() == "infinity"

    def test_renew_extends_lifetime(self, rig):
        deployment, source, _, client, consumer = rig
        deadline = deployment.network.clock.now + 1000
        sub = subscribe(client, source, consumer, expires=repr(deadline))
        later = deadline + 1_000_000
        client.invoke(
            sub, actions.RENEW,
            element(f"{{{ns.WSE}}}Renew", element(f"{{{ns.WSE}}}Expires", repr(later))),
        )
        deployment.network.kernel.run(until=deadline + 10)
        assert emit(client, source) == 1

    def test_expired_subscription_dropped(self, rig):
        deployment, source, _, client, consumer = rig
        deadline = deployment.network.clock.now + 1000
        subscribe(client, source, consumer, expires=repr(deadline))
        deployment.network.kernel.run(until=deadline + 1)
        assert emit(client, source) == 0

    def test_expired_get_status_faults(self, rig):
        deployment, source, _, client, consumer = rig
        deadline = deployment.network.clock.now + 1000
        sub = subscribe(client, source, consumer, expires=repr(deadline))
        deployment.network.kernel.run(until=deadline + 1)
        with pytest.raises(SoapFault, match="expired"):
            client.invoke(sub, actions.GET_STATUS, element(f"{{{ns.WSE}}}GetStatus"))

    def test_unsubscribe_stops_delivery(self, rig):
        _, source, _, client, consumer = rig
        sub = subscribe(client, source, consumer)
        client.invoke(sub, actions.UNSUBSCRIBE, element(f"{{{ns.WSE}}}Unsubscribe"))
        assert emit(client, source) == 0

    def test_unsubscribe_unknown_faults(self, rig):
        _, source, manager, client, _ = rig
        bogus = manager.epr({f"{{{ns.WSE}}}Identifier": "uuid:sub-none"})
        with pytest.raises(SoapFault, match="unknown subscription"):
            client.invoke(bogus, actions.UNSUBSCRIBE, element(f"{{{ns.WSE}}}Unsubscribe"))

    def test_subscription_end_sent_to_end_to(self, rig):
        deployment, source, _, client, consumer = rig
        end_consumer = EventingConsumer(deployment, "client")
        deadline = deployment.network.clock.now + 500
        subscribe(client, source, consumer, expires=repr(deadline), end_to=end_consumer.epr.address)
        deployment.network.kernel.run(until=deadline + 1)
        emit(client, source)  # triggers prune + SubscriptionEnd
        assert len(end_consumer.ended) == 1

    def test_expires_in_past_rejected(self, rig):
        _, source, _, client, consumer = rig
        with pytest.raises(SoapFault, match="not in the future"):
            subscribe(client, source, consumer, expires="0.0")


class TestFlatFileStore:
    def test_persists_to_real_file(self, rig, tmp_path):
        deployment, _, _, _, _ = rig
        path = str(tmp_path / "subs.xml")
        store = FlatFileSubscriptionStore(deployment.network, path)
        from repro.eventing import SubscriptionRecord

        store.add(SubscriptionRecord("id1", "soap://s/A", "soap://c/sink"))
        again = FlatFileSubscriptionStore.__new__(FlatFileSubscriptionStore)
        again.network = deployment.network
        again.path = path
        assert again.get("id1").notify_to == "soap://c/sink"

    def test_duplicate_id_rejected(self, rig):
        deployment, _, manager, _, _ = rig
        from repro.eventing import SubscriptionRecord

        manager.store.add(SubscriptionRecord("dup", "s", "n"))
        with pytest.raises(ValueError, match="duplicate"):
            manager.store.add(SubscriptionRecord("dup", "s", "n"))

    def test_store_io_charges_time(self, rig):
        deployment, _, manager, _, _ = rig
        from repro.eventing import SubscriptionRecord

        t0 = deployment.network.clock.now
        manager.store.add(SubscriptionRecord("x", "s", "n"))
        assert deployment.network.clock.now > t0


class TestWrapDeliveryMode:
    """The spec's delivery-mode extension point, exercised — and the
    §2.3 interop warning about custom extensions."""

    def _subscribe_with_mode(self, client, source, consumer, mode):
        body = element(
            f"{{{ns.WSE}}}Subscribe",
            element(
                f"{{{ns.WSE}}}Delivery",
                consumer.epr.to_xml(f"{{{ns.WSE}}}NotifyTo"),
                attrs={"Mode": mode},
            ),
        )
        return client.invoke(source.epr(), actions.SUBSCRIBE, body)

    def test_wrap_mode_wraps_events(self, rig):
        from repro.eventing.source import WRAP_MODE

        _, source, _, client, consumer = rig
        self._subscribe_with_mode(client, source, consumer, WRAP_MODE)
        assert emit(client, source, topic="readings", value="5") == 1
        body = consumer.received[0]
        assert body.tag.local == "Wrapper"
        assert body.get("Topic") == "readings"
        assert body.get("Subscription", "").startswith("uuid:sub-")
        inner = next(body.element_children())
        assert inner.text() == "5"

    def test_push_mode_unaffected(self, rig):
        _, source, _, client, consumer = rig
        subscribe(client, source, consumer)
        emit(client, source, value="9")
        assert consumer.received[0].tag.local == "Reading"

    def test_custom_mode_is_an_interop_hazard(self, rig):
        """A subscriber asking a *different* implementation for our Wrap
        mode gets refused — custom extensions don't travel."""
        from repro.eventing.source import WRAP_MODE

        class StrictSource(EventfulService):
            service_name = "StrictSource"

            def wse_subscribe(self, context):
                delivery = context.body.find(f"{{{ns.WSE}}}Delivery")
                if delivery is not None and delivery.get("Mode") not in (
                    None,
                    "http://schemas.xmlsoap.org/ws/2004/08/eventing/DeliveryModes/Push",
                ):
                    raise SoapFault("Client", "unsupported delivery mode")
                return super().wse_subscribe(context)

        deployment, _, manager, client, consumer = rig
        from tests.helpers import server_container

        container = server_container(deployment, host="other-impl")
        strict = StrictSource(manager)
        # Re-register the overridden subscribe (subclass method shadows).
        strict._operations[actions.SUBSCRIBE] = strict.wse_subscribe
        container.add_service(strict)
        with pytest.raises(SoapFault, match="unsupported delivery mode"):
            self._subscribe_with_mode(client, strict, consumer, WRAP_MODE)
