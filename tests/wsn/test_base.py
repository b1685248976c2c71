"""WS-BaseNotification end-to-end: subscribe, notify, pause, unsubscribe."""

import pytest

from repro.soap import SoapFault
from repro.wsn.base import actions
from repro.wsn.topics import TopicDialect
from repro.wsrf.lifetime import actions as rl_actions
from repro.xmllib import element, ns

from tests.wsn.conftest import NS, emit, subscribe


class TestSubscribeNotify:
    def test_notification_reaches_consumer(self, rig):
        _, sensor, _, client, consumer = rig
        subscribe(client, sensor, consumer)
        delivered = emit(client, sensor, value="42")
        assert delivered == 1
        assert len(consumer.received) == 1
        topic, payload = consumer.received[0]
        assert topic == "readings"
        assert payload.tag.local == "Reading"
        assert payload.text() == "42"

    def test_no_subscription_no_delivery(self, rig):
        _, sensor, _, client, consumer = rig
        assert emit(client, sensor) == 0
        assert consumer.received == []

    def test_topic_mismatch_filtered(self, rig):
        _, sensor, _, client, consumer = rig
        subscribe(client, sensor, consumer, topic="alerts")
        assert emit(client, sensor, topic="readings") == 0

    def test_wildcard_topic_subscription(self, rig):
        _, sensor, _, client, consumer = rig
        subscribe(client, sensor, consumer, topic="sensor//overheat", dialect=TopicDialect.FULL)
        assert emit(client, sensor, topic="sensor/rack4/overheat") == 1

    def test_content_selector(self, rig):
        _, sensor, _, client, consumer = rig
        subscribe(client, sensor, consumer, selector="//Reading[. > 10]")
        assert emit(client, sensor, value="5") == 0
        assert emit(client, sensor, value="15") == 1

    def test_multiple_consumers(self, rig):
        from repro.wsn import NotificationConsumer

        deployment, sensor, _, client, consumer = rig
        other = NotificationConsumer(deployment, "client", kind="tcp-receiver")
        subscribe(client, sensor, consumer)
        subscribe(client, sensor, other)
        assert emit(client, sensor) == 2
        assert len(consumer.received) == 1 and len(other.received) == 1

    def test_wrapped_message_structure(self, rig):
        """Messages travel inside <Notify>/<NotificationMessage> by default."""
        deployment, sensor, _, client, consumer = rig
        captured = []
        sink = deployment.add_sink("client", lambda env: captured.append(env))
        from repro.addressing import EndpointReference
        from repro.wsn.base import SubscriptionView  # noqa: F401 (doc import)

        body = element(
            f"{{{ns.WSNT}}}Subscribe",
            EndpointReference.create(sink.address).to_xml(f"{{{ns.WSNT}}}ConsumerReference"),
            element(f"{{{ns.WSNT}}}TopicExpression", "readings",
                    attrs={"Dialect": TopicDialect.CONCRETE.value}),
        )
        client.invoke(sensor.epr(), actions.SUBSCRIBE, body)
        emit(client, sensor)
        envelope = captured[0]
        notify = envelope.body_child()
        assert notify.tag.local == "Notify"
        message = notify.find(f"{{{ns.WSNT}}}NotificationMessage")
        assert message.find(f"{{{ns.WSNT}}}Topic") is not None
        assert message.find(f"{{{ns.WSNT}}}ProducerReference") is not None

    def test_raw_delivery(self, rig):
        _, sensor, _, client, consumer = rig
        subscribe(client, sensor, consumer, use_raw=True)
        emit(client, sensor, value="7")
        topic, payload = consumer.received[0]
        assert topic == ""  # raw messages carry no topic wrapper
        assert payload.text() == "7"

    def test_subscribe_requires_consumer_reference(self, rig):
        _, sensor, _, client, _ = rig
        with pytest.raises(SoapFault, match="no ConsumerReference"):
            client.invoke(sensor.epr(), actions.SUBSCRIBE, element(f"{{{ns.WSNT}}}Subscribe"))

    def test_bad_dialect_faults(self, rig):
        from repro.addressing import EndpointReference

        _, sensor, _, client, consumer = rig
        body = element(
            f"{{{ns.WSNT}}}Subscribe",
            consumer.epr.to_xml(f"{{{ns.WSNT}}}ConsumerReference"),
            element(f"{{{ns.WSNT}}}TopicExpression", "x", attrs={"Dialect": "urn:bogus"}),
        )
        with pytest.raises(SoapFault, match="unknown topic dialect"):
            client.invoke(sensor.epr(), actions.SUBSCRIBE, body)


class TestSubscriptionManagement:
    def test_pause_and_resume(self, rig):
        _, sensor, _, client, consumer = rig
        subscription = subscribe(client, sensor, consumer)
        client.invoke(subscription, actions.PAUSE, element(f"{{{ns.WSNT}}}PauseSubscription"))
        assert emit(client, sensor) == 0
        client.invoke(subscription, actions.RESUME, element(f"{{{ns.WSNT}}}ResumeSubscription"))
        assert emit(client, sensor) == 1

    def test_unsubscribe_via_destroy(self, rig):
        _, sensor, _, client, consumer = rig
        subscription = subscribe(client, sensor, consumer)
        client.invoke(subscription, rl_actions.DESTROY, element(f"{{{ns.WSRF_RL}}}Destroy"))
        assert emit(client, sensor) == 0

    def test_initial_termination_time_expires_subscription(self, rig):
        deployment, sensor, _, client, consumer = rig
        deadline = deployment.network.clock.now + 5000
        subscribe(client, sensor, consumer, termination=repr(deadline))
        assert emit(client, sensor) == 1
        deployment.network.kernel.run(until=deadline + 1)
        assert emit(client, sensor) == 0

    def test_renew_via_set_termination_time(self, rig):
        deployment, sensor, _, client, consumer = rig
        deadline = deployment.network.clock.now + 5000
        subscription = subscribe(client, sensor, consumer, termination=repr(deadline))
        client.invoke(
            subscription,
            rl_actions.SET_TERMINATION_TIME,
            element(
                f"{{{ns.WSRF_RL}}}SetTerminationTime",
                element(f"{{{ns.WSRF_RL}}}RequestedTerminationTime", repr(deadline + 50_000)),
            ),
        )
        deployment.network.kernel.run(until=deadline + 100)
        assert emit(client, sensor) == 1

    def test_subscription_rps(self, rig):
        from repro.wsrf.properties import actions as rp_actions

        _, sensor, _, client, consumer = rig
        subscription = subscribe(client, sensor, consumer)
        response = client.invoke(
            subscription,
            rp_actions.GET,
            element(f"{{{ns.WSRF_RP}}}GetResourceProperty", "ConsumerReference"),
        )
        assert consumer.epr.address in response.text()

    def test_dropped_consumer_does_not_break_producer(self, rig):
        """Failure injection: the consumer sink disappears."""
        deployment, sensor, _, client, consumer = rig
        subscribe(client, sensor, consumer)
        deployment._sinks.clear()  # consumer process dies
        assert emit(client, sensor) == 0  # dropped, not raised


class TestPerResourceSubscriptions:
    def test_subscription_bound_to_resource(self, rig):
        """WSN subscriptions attach to a WS-Resource, not just the service."""
        _, sensor, manager, client, consumer = rig
        epr_a = sensor.create_resource()
        from repro.wsrf import RESOURCE_ID

        key_a = epr_a.property(RESOURCE_ID)
        from repro.addressing import EndpointReference

        body = element(
            f"{{{ns.WSNT}}}Subscribe",
            consumer.epr.to_xml(f"{{{ns.WSNT}}}ConsumerReference"),
            element(f"{{{ns.WSNT}}}TopicExpression", "readings",
                    attrs={"Dialect": TopicDialect.CONCRETE.value}),
        )
        client.invoke(epr_a, actions.SUBSCRIBE, body)
        # Notification for a different resource is filtered out:
        assert sensor.notify("readings", element(f"{{{NS}}}Reading", "1"), resource_key="other") == 0
        assert sensor.notify("readings", element(f"{{{NS}}}Reading", "1"), resource_key=key_a) == 1
