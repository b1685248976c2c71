"""MSG-BROKER substrate — §3.1's demand-based publishing scenario.

Builds the six-service brokered-notification rig (publisher + its
subscription manager, broker + its manager + registration manager, and a
consumer sink) and drives the two measured interactions: a plain
point-to-point Subscribe and the full demand-based publisher scenario
(register → subscribe → emit → destroy).  The MSG-BROKER bench and the
``brokered_messages`` experiment spec both measure through here.
"""

from __future__ import annotations

import zlib

from repro.addressing import EndpointReference
from repro.container import (
    Deployment,
    MessageContext,
    SecurityMode,
    SecurityPolicy,
    SoapClient,
    web_method,
)
from repro.crypto import CertificateAuthority
from repro.sim import CostModel
from repro.wsn import (
    NotificationBrokerService,
    NotificationConsumer,
    SubscriptionManagerService,
)
from repro.wsn.base import NotificationProducerMixin, actions as wsnt_actions
from repro.wsn.broker import PublisherRegistrationManagerService, actions as wsbr_actions
from repro.wsn.topics import TopicDialect
from repro.wsrf import ResourceHome, WsResourceService
from repro.wsrf.lifetime import actions as rl_actions
from repro.xmllib import element, ns, text_of

SENSOR_NS = "urn:test:sensor"
EMIT = f"{SENSOR_NS}/Emit"


class SensorService(NotificationProducerMixin, WsResourceService):
    """Emits a reading on a topic when poked (service-level producer)."""

    service_name = "Sensor"
    resource_ns = SENSOR_NS

    @web_method(EMIT)
    def emit(self, context: MessageContext):
        topic = text_of(context.body.find_local("Topic"), "readings")
        value = text_of(context.body.find_local("Value"), "0")
        delivered = self.notify(topic, element(f"{{{SENSOR_NS}}}Reading", value))
        return element(f"{{{SENSOR_NS}}}EmitResponse", str(delivered))


def _container(deployment: Deployment, host: str, name: str):
    # crc32, not hash(): string hashes change with PYTHONHASHSEED.
    common_name = f"container-{host}-{name}"
    creds = deployment.issue_credentials(
        common_name, seed=zlib.crc32(common_name.encode()) % 10_000 + 100
    )
    return deployment.add_container(host, name, creds)


def build_brokered_rig():
    """The §3.1 deployment: publisher host, broker host, one client."""
    ca = CertificateAuthority.create(seed=7)
    deployment = Deployment(SecurityPolicy(SecurityMode.NONE), CostModel(), ca)
    pub_container = _container(deployment, "pubhost", "Pub")
    pub_manager = SubscriptionManagerService(ResourceHome("pub-subs", deployment.network))
    pub_container.add_service(pub_manager)
    publisher = SensorService(ResourceHome("pub-sensor", deployment.network))
    publisher.subscription_manager = pub_manager
    pub_container.add_service(publisher)

    broker_container = _container(deployment, "brokerhost", "Broker")
    broker_manager = SubscriptionManagerService(ResourceHome("broker-subs", deployment.network))
    broker_container.add_service(broker_manager)
    registrations = PublisherRegistrationManagerService(
        ResourceHome("registrations", deployment.network)
    )
    broker_container.add_service(registrations)
    broker = NotificationBrokerService(
        ResourceHome("broker", deployment.network), broker_manager, registrations
    )
    broker_container.add_service(broker)

    client = SoapClient(deployment, "client", deployment.issue_credentials("alice", seed=77))
    consumer = NotificationConsumer(deployment, "client")
    return deployment, publisher, broker, client, consumer


def run_demand_scenario(deployment, publisher, broker, client, consumer):
    """Register a demand-based publisher, subscribe, publish, unsubscribe."""
    register = element(
        f"{{{ns.WSBR}}}RegisterPublisher",
        EndpointReference.create(publisher.address).to_xml(f"{{{ns.WSBR}}}PublisherReference"),
        element(f"{{{ns.WSBR}}}Topic", "readings"),
        element(f"{{{ns.WSBR}}}Demand", "true"),
    )
    client.invoke(broker.epr(), wsbr_actions.REGISTER_PUBLISHER, register)
    subscribe = element(
        f"{{{ns.WSNT}}}Subscribe",
        consumer.epr.to_xml(f"{{{ns.WSNT}}}ConsumerReference"),
        element(f"{{{ns.WSNT}}}TopicExpression", "readings",
                attrs={"Dialect": TopicDialect.CONCRETE.value}),
    )
    response = client.invoke(broker.epr(), wsnt_actions.SUBSCRIBE, subscribe)
    subscription = EndpointReference.from_xml(next(response.element_children()))
    client.invoke(
        publisher.epr(), EMIT,
        element(f"{{{SENSOR_NS}}}Emit",
                element(f"{{{SENSOR_NS}}}Topic", "readings"),
                element(f"{{{SENSOR_NS}}}Value", "1")),
    )
    client.invoke(subscription, rl_actions.DESTROY, element(f"{{{ns.WSRF_RL}}}Destroy"))


def run_plain_subscribe(deployment, publisher, client, consumer):
    body = element(
        f"{{{ns.WSNT}}}Subscribe",
        consumer.epr.to_xml(f"{{{ns.WSNT}}}ConsumerReference"),
        element(f"{{{ns.WSNT}}}TopicExpression", "readings",
                attrs={"Dialect": TopicDialect.CONCRETE.value}),
    )
    client.invoke(publisher.epr(), wsnt_actions.SUBSCRIBE, body)


def measure_brokered() -> dict[str, dict[str, float]]:
    """Both measured interactions on one shared deployment.

    The plain Subscribe runs first and the demand scenario second on the
    *same* rig — the demand numbers reflect warm connection caches, the
    regime every other bench measures in.
    """
    from repro.bench.runner import measure_virtual

    deployment, publisher, broker, client, consumer = build_brokered_rig()
    plain = measure_virtual(
        deployment, "plain subscribe",
        lambda: run_plain_subscribe(deployment, publisher, client, consumer),
    )
    demand = measure_virtual(
        deployment, "demand scenario",
        lambda: run_demand_scenario(deployment, publisher, broker, client, consumer),
    )
    return {
        "plain": {
            "messages": float(plain.messages),
            "services": float(len(plain.services_touched)),
            "virtual_ms": plain.elapsed_ms,
        },
        "demand": {
            "messages": float(demand.messages),
            "services": float(len(demand.services_touched)),
            "virtual_ms": demand.elapsed_ms,
        },
    }
