"""WS-BaseNotification: producers, consumers, subscriptions.

Subscriptions are WS-Resources held by a :class:`SubscriptionManagerService`
("Each subscription is managed by a Subscription Manager Service (which may
be the same as the Notification Producer)").  Clients unsubscribe by
destroying the subscription through the manager (WS-ResourceLifetime
Destroy), pause and resume it via the WSN operations, and bound its life
via SetTerminationTime — all spec behaviours the paper's counter service
exercises.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.addressing.epr import EndpointReference
from repro.container.service import MessageContext, web_method
from repro.reliable.sequence import InboundDeduper
from repro.sim.faults import DeliveryFault
from repro.soap.envelope import build_envelope
from repro.wsn.topics import TopicDialect, topic_matches
from repro.wsrf.basefaults import base_fault
from repro.wsrf.lifetime import ResourceLifetimeMixin, parse_termination_time
from repro.wsrf.programming import (
    ResourceField,
    WsResourceService,
    resource_property,
)
from repro.wsrf.properties import ResourcePropertiesMixin
from repro.wsrf.resource import RESOURCE_ID, ResourceUnknownError
from repro.xmllib import element, ns, text_of
from repro.xmllib.element import XmlElement, seal
from repro.xmllib.xpath import XPathError, compile_xpath


class actions:
    """Action URIs for WS-BaseNotification."""

    SUBSCRIBE = ns.WSNT + "/Subscribe"
    NOTIFY = ns.WSNT + "/Notify"
    PAUSE = ns.WSNT + "/PauseSubscription"
    RESUME = ns.WSNT + "/ResumeSubscription"


@dataclass(frozen=True)
class SubscriptionView:
    """A read-only snapshot of one subscription resource."""

    key: str
    consumer_address: str
    producer_address: str
    producer_resource: str
    topic_expression: str
    dialect: TopicDialect
    selector: str
    use_raw: bool
    paused: bool
    precondition: str = ""

    def selects(
        self,
        topic: str,
        message: XmlElement,
        resource_key: str | None,
        producer_properties: XmlElement | None = None,
    ) -> bool:
        if self.paused:
            return False
        if self.producer_resource and resource_key and self.producer_resource != resource_key:
            return False
        if self.topic_expression and not topic_matches(self.topic_expression, self.dialect, topic):
            return False
        if self.selector:
            try:
                if not compile_xpath(self.selector).matches(message):
                    return False
            except XPathError:
                return False
        if self.precondition:
            # §2.1: "Additional filters can be used to examine ... the
            # contents of the Notification Producer's current Resource
            # Properties."  No RP document → the precondition cannot hold.
            if producer_properties is None:
                return False
            try:
                if not compile_xpath(self.precondition).matches(producer_properties):
                    return False
            except XPathError:
                return False
        return True


class SubscriptionManagerService(
    ResourcePropertiesMixin, ResourceLifetimeMixin, WsResourceService
):
    """Holds subscription WS-Resources and the WSN pause/resume operations.

    Creation is *not* standard ("the lack of a standardized create method
    will result in idiosyncratic interfaces" — §3.1): producers call
    :meth:`add_subscription` directly, their own idiosyncratic way in.
    """

    service_name = "SubscriptionManager"
    resource_ns = ns.WSNT

    consumer_address = ResourceField(str, "")
    producer_address = ResourceField(str, "")
    producer_resource = ResourceField(str, "")
    topic_expression = ResourceField(str, "")
    dialect_uri = ResourceField(str, TopicDialect.CONCRETE.value)
    selector = ResourceField(str, "")
    precondition = ResourceField(str, "")
    use_raw = ResourceField(bool, False)
    paused = ResourceField(bool, False)

    def __init__(self, home):
        super().__init__(home)
        #: Hook fired after any subscription change (brokered demand logic).
        self.on_subscriptions_changed = None

    # -- idiosyncratic creation ------------------------------------------------

    def add_subscription(
        self,
        consumer: EndpointReference,
        producer_address: str,
        *,
        producer_resource: str = "",
        topic_expression: str = "",
        dialect: TopicDialect = TopicDialect.CONCRETE,
        selector: str = "",
        precondition: str = "",
        use_raw: bool = False,
        termination_time: float | None = None,
    ) -> EndpointReference:
        epr = self.create_resource(
            consumer_address=consumer.address,
            producer_address=producer_address,
            producer_resource=producer_resource,
            topic_expression=topic_expression,
            dialect_uri=dialect.value,
            selector=selector,
            precondition=precondition,
            use_raw=use_raw,
            paused=False,
        )
        key = epr.property(RESOURCE_ID)
        if termination_time is not None:
            self.home.set_termination_time(key, termination_time)
        self._changed()
        return epr

    # -- WSN operations -----------------------------------------------------------

    @web_method(actions.PAUSE)
    def wsnt_pause(self, context: MessageContext) -> XmlElement:
        self.current_resource
        self.paused = True
        # Persist before firing the change hook: the broker's demand logic
        # reads subscription state back from the home.
        self.save_current()
        self._changed()
        return element(f"{{{ns.WSNT}}}PauseSubscriptionResponse")

    @web_method(actions.RESUME)
    def wsnt_resume(self, context: MessageContext) -> XmlElement:
        self.current_resource
        self.paused = False
        self.save_current()
        self._changed()
        return element(f"{{{ns.WSNT}}}ResumeSubscriptionResponse")

    # -- resource properties ----------------------------------------------------

    @resource_property(f"{{{ns.WSNT}}}ConsumerReference")
    def rp_consumer(self):
        return self.consumer_address

    @resource_property(f"{{{ns.WSNT}}}TopicExpression")
    def rp_topic(self):
        return self.topic_expression

    @resource_property(f"{{{ns.WSNT}}}Paused")
    def rp_paused(self):
        return self.paused

    # -- producer-side queries ---------------------------------------------------

    def active_subscriptions(self, producer_address: str) -> list[SubscriptionView]:
        views = []
        for key in self.home.keys():
            view = self._view(key)
            if view.producer_address == producer_address:
                views.append(view)
        return views

    def _view(self, key: str) -> SubscriptionView:
        doc = self.home.load(key)

        def field(name: str) -> str:
            return text_of(doc.find(f"{{{ns.WSRF_FIELDS}}}{name}"))

        return SubscriptionView(
            key=key,
            consumer_address=field("consumer_address"),
            producer_address=field("producer_address"),
            producer_resource=field("producer_resource"),
            topic_expression=field("topic_expression"),
            dialect=TopicDialect.from_uri(field("dialect_uri")),
            selector=field("selector"),
            precondition=field("precondition"),
            use_raw=field("use_raw") == "true",
            paused=field("paused") == "true",
        )

    def after_resource_destroyed(self, key: str) -> None:
        self._changed()

    def _changed(self) -> None:
        if self.on_subscriptions_changed is not None:
            self.on_subscriptions_changed()


class NotificationProducerMixin:
    """Port type: makes a service a Notification Producer.

    The hosting service must set ``self.subscription_manager`` to its
    :class:`SubscriptionManagerService` (same container or remote).  A
    producer may declare its topic tree in ``supported_topics``; when it
    does, the tree is advertised as the WS-Topics ``TopicSet`` resource
    property and subscriptions whose expressions cannot select any declared
    topic are refused.
    """

    subscription_manager: SubscriptionManagerService
    #: Concrete topic paths this producer emits on ("" = undeclared/open).
    supported_topics: tuple[str, ...] = ()
    #: Optional :class:`~repro.reliable.notify.ReliableNotifier` for sink
    #: deliveries; out-call deliveries pick up reliability from
    #: ``deployment.reliability`` via :meth:`Container.outcall_client`.
    reliable_deliverer = None
    #: Observer called with ``(view, reason)`` when a subscriber is dropped.
    on_delivery_failure = None

    @property
    def delivery_failures(self) -> list[tuple[str, str]]:
        """``(consumer_address, reason)`` per terminated subscription."""
        return self.__dict__.setdefault("_delivery_failures", [])

    @resource_property(f"{{{ns.WSTOP}}}TopicSet")
    def rp_topic_set(self):
        if not self.supported_topics:
            return None
        node = element(f"{{{ns.WSTOP}}}TopicSet")
        for topic in self.supported_topics:
            node.append(element(f"{{{ns.WSTOP}}}Topic", topic))
        return node

    def _validate_topic_expression(
        self, expression: str, dialect: TopicDialect
    ) -> None:
        if not self.supported_topics or not expression:
            return
        if not any(
            topic_matches(expression, dialect, topic) for topic in self.supported_topics
        ):
            raise base_fault(
                f"topic expression {expression!r} selects none of this "
                f"producer's topics",
                error_code="InvalidTopicExpressionFault",
            )

    @web_method(actions.SUBSCRIBE)
    def wsnt_subscribe(self, context: MessageContext) -> XmlElement:
        body = context.body
        consumer_el = body.find_local("ConsumerReference")
        if consumer_el is None:
            raise base_fault("Subscribe has no ConsumerReference")
        consumer = EndpointReference.from_xml(consumer_el)
        topic_el = body.find_local("TopicExpression")
        topic_expression = text_of(topic_el)
        dialect = TopicDialect.CONCRETE
        if topic_el is not None and topic_el.get("Dialect"):
            try:
                dialect = TopicDialect.from_uri(topic_el.get("Dialect"))
            except ValueError as exc:
                raise base_fault(str(exc), error_code="InvalidTopicExpressionFault")
        self._validate_topic_expression(topic_expression, dialect)
        selector = text_of(body.find_local("Selector"))
        precondition = text_of(body.find_local("Precondition"))
        use_raw = text_of(body.find_local("UseRaw")) == "true"
        termination = parse_termination_time(
            text_of(body.find_local("InitialTerminationTime"))
        )
        target = context.headers.target_epr()
        subscription_epr = self.subscription_manager.add_subscription(
            consumer,
            producer_address=self.address,
            producer_resource=target.property(RESOURCE_ID) or "",
            topic_expression=topic_expression,
            dialect=dialect,
            selector=selector,
            precondition=precondition,
            use_raw=use_raw,
            termination_time=termination,
        )
        return element(
            f"{{{ns.WSNT}}}SubscribeResponse",
            subscription_epr.to_xml(f"{{{ns.WSNT}}}SubscriptionReference"),
        )

    # -- producing ---------------------------------------------------------------

    def notify(
        self, topic: str, message: XmlElement, *, resource_key: str | None = None
    ) -> int:
        """Send ``message`` on ``topic`` to every matching subscriber.

        Returns the number of deliveries made.  Consumers may be client-side
        sinks or other services (the broker subscribes as a service).
        """
        delivered = 0
        views = self.subscription_manager.active_subscriptions(self.address)
        producer_properties = None
        if any(view.precondition for view in views):
            try:
                producer_properties = self.rp_document()
            except Exception:
                producer_properties = None  # producer has no usable RP view
        for view in views:
            if not view.selects(topic, message, resource_key, producer_properties):
                continue
            if self._deliver(view, topic, message):
                delivered += 1
        return delivered

    def _deliver(self, view: SubscriptionView, topic: str, message: XmlElement) -> bool:
        if view.use_raw:
            payload = seal(message)
        else:
            payload = element(
                f"{{{ns.WSNT}}}Notify",
                element(
                    f"{{{ns.WSNT}}}NotificationMessage",
                    element(
                        f"{{{ns.WSNT}}}Topic",
                        topic,
                        attrs={"Dialect": TopicDialect.CONCRETE.value},
                    ),
                    self.epr().to_xml(f"{{{ns.WSNT}}}ProducerReference"),
                    element(f"{{{ns.WSNT}}}Message", seal(message)),
                ),
            )
        deployment = self.container.deployment
        try:
            deployment.resolve(view.consumer_address)
        except LookupError:
            return self._deliver_to_sink(view, payload)
        client = self.container.outcall_client()
        try:
            client.invoke(
                EndpointReference.create(view.consumer_address), actions.NOTIFY, payload
            )
        except DeliveryFault as exc:
            self._delivery_failed(view, str(exc))
            return False
        return True

    def _deliver_to_sink(self, view: SubscriptionView, payload: XmlElement) -> bool:
        # Thin driver: the wire leg (signing, per-kb charging, tracing
        # spans) is the deployment's notification filter chain —
        # DESIGN.md §10 — reached via deliver_notification below.
        deployment = self.container.deployment
        if self.reliable_deliverer is not None:
            ok = self.reliable_deliverer.deliver(
                self.container.host,
                view.consumer_address,
                payload,
                self.container.credentials,
                action=actions.NOTIFY,
            )
            if not ok:
                dead = self.reliable_deliverer.dead_letters.for_destination(
                    view.consumer_address
                )
                self._delivery_failed(
                    view, dead[-1].reason if dead else "delivery failed"
                )
            return ok
        envelope = build_envelope([], [payload])
        try:
            ok = deployment.deliver_notification(
                self.container.host,
                view.consumer_address,
                envelope,
                self.container.credentials,
            )
        except DeliveryFault as exc:
            self._delivery_failed(view, str(exc))
            return False
        if not ok:
            self._delivery_failed(view, "consumer endpoint gone")
        return ok

    def _delivery_failed(self, view: SubscriptionView, reason: str) -> None:
        """Terminate the subscription the WS-N way: destroy its resource.

        The failure stays observable — recorded in
        :attr:`delivery_failures` and surfaced via
        :attr:`on_delivery_failure` — rather than silently dropped.
        """
        self.delivery_failures.append((view.consumer_address, reason))
        if self.on_delivery_failure is not None:
            self.on_delivery_failure(view, reason)
        try:
            self.subscription_manager.home.destroy(view.key)
        except ResourceUnknownError:
            pass
        else:
            self.subscription_manager.after_resource_destroyed(view.key)


class NotificationConsumer:
    """Client-side notification endpoint (WSRF.NET's embedded HTTP server).

    Fronted by a WS-RM deduper: sequence-stamped deliveries from a
    reliable producer are collapsed to exactly-once; unstamped ones pass
    straight through.
    """

    def __init__(
        self, deployment, host_name: str, kind: str = "http-server",
        *, ordered: bool = False,
    ):
        self.received: list[tuple[str, XmlElement]] = []
        self._callbacks = []
        self.deduper = InboundDeduper(ordered=ordered)
        self.sink = deployment.add_sink(host_name, self._on_envelope, kind)

    @property
    def epr(self) -> EndpointReference:
        return EndpointReference.create(self.sink.address)

    @property
    def duplicates(self) -> int:
        """Redundant deliveries suppressed by the WS-RM deduper."""
        return self.deduper.duplicates

    def on_notification(self, callback) -> None:
        self._callbacks.append(callback)

    def _on_envelope(self, envelope) -> None:
        for admitted in self.deduper.admit(envelope):
            self._handle(admitted)

    def _handle(self, envelope) -> None:
        body = envelope.body_child()
        if body.tag.local == "Notify":
            for msg in body.find_all(f"{{{ns.WSNT}}}NotificationMessage"):
                topic = text_of(msg.find(f"{{{ns.WSNT}}}Topic"))
                wrapper = msg.find(f"{{{ns.WSNT}}}Message")
                payload = next(wrapper.element_children(), None) if wrapper else None
                self._record(topic, payload)
        else:  # raw delivery
            self._record("", body)

    def _record(self, topic: str, payload: XmlElement | None) -> None:
        if payload is None:
            return
        self.received.append((topic, payload))
        for callback in self._callbacks:
            callback(topic, payload)
