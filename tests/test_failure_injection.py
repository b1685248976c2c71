"""Failure injection across the stack: storage faults, tampering, expiry."""

import pytest

from repro.container import SecurityMode
from repro.soap import SoapFault, WireMessage
from repro.xmldb.backends import MemoryBackend
from repro.xmllib import element

from tests.container.test_container import ECHO_ACTION, make_deployment as make_echo
from tests.helpers import make_deployment


class FlakyBackend(MemoryBackend):
    """A backend that fails on demand."""

    def __init__(self):
        super().__init__()
        self.fail_next = 0

    def _maybe_fail(self):
        if self.fail_next > 0:
            self.fail_next -= 1
            raise IOError("simulated disk failure")

    def load(self, key):
        self._maybe_fail()
        return super().load(key)

    def store(self, key, text):
        self._maybe_fail()
        super().store(key, text)


class TestStorageFailures:
    def build_counter_rig(self):
        from repro.wsrf import ResourceHome
        from tests.helpers import make_client, server_container
        from tests.wsrf.conftest import CounterService

        deployment = make_deployment()
        container = server_container(deployment)
        backend = FlakyBackend()
        home = ResourceHome("counters", deployment.network, backend=backend)
        service = CounterService(home)
        container.add_service(service)
        client = make_client(deployment)
        return deployment, service, client, backend

    def test_disk_failure_surfaces_and_service_recovers(self):
        from tests.wsrf.conftest import BUMP, NS, create_counter

        deployment, service, client, backend = self.build_counter_rig()
        epr = create_counter(service, client, initial=1)
        backend.fail_next = 1
        with pytest.raises((SoapFault, IOError)):
            client.invoke(epr, BUMP, element(f"{{{NS}}}Bump"))
        # After the glitch the service keeps working.
        response = client.invoke(epr, BUMP, element(f"{{{NS}}}Bump"))
        assert response.text() in ("2", "3")  # depends where the failure hit


class TestWireTampering:
    def test_tampered_signed_request_rejected(self):
        """Bit-flip a signed request on the wire: the container must refuse
        it and answer with a security fault, not process it."""
        deployment, service, client = make_echo(SecurityMode.X509)
        from repro.addressing.headers import MessageHeaders, next_message_id
        from repro.soap.envelope import build_envelope

        headers = MessageHeaders(
            to=service.address, action=ECHO_ACTION,
            message_id=next_message_id(deployment.network),
        )
        envelope = build_envelope(headers.to_elements(), [element("{urn:test}Echo", "legit")])
        deployment.security_filter.secure_outgoing(envelope, client.credentials)
        wire = WireMessage.from_envelope(envelope)
        tampered = WireMessage(wire.text.replace("legit", "evil!"))
        _, container = deployment.resolve(service.address)
        reply = container.handle(tampered).parse()
        assert reply.is_fault()
        assert "security failure" in reply.fault().reason

    def test_stripped_signature_rejected(self):
        deployment, service, client = make_echo(SecurityMode.X509)
        from repro.addressing.headers import MessageHeaders, next_message_id
        from repro.soap.envelope import build_envelope

        headers = MessageHeaders(
            to=service.address, action=ECHO_ACTION,
            message_id=next_message_id(deployment.network),
        )
        envelope = build_envelope(headers.to_elements(), [element("{urn:test}Echo", "x")])
        # never signed at all
        wire = WireMessage.from_envelope(envelope)
        _, container = deployment.resolve(service.address)
        reply = container.handle(wire).parse()
        assert reply.is_fault()
        assert "signed" in reply.fault().reason


class TestCredentialExpiry:
    def test_expired_certificate_rejected_mid_session(self):
        from repro.container import Credentials, SoapClient
        from tests.container.test_container import EchoService
        from tests.helpers import server_container

        deployment = make_deployment(SecurityMode.X509)
        container = server_container(deployment)
        service = EchoService()
        container.add_service(service)

        # A client certificate that expires at t=5000 virtual ms.
        cert, keypair = None, None
        from repro.crypto import DistinguishedName, RsaKeyPair

        keypair = RsaKeyPair.generate(seed=871)
        cert = deployment.ca.issue(
            DistinguishedName("shortlived"), keypair.public, not_before=0, not_after=5000
        )
        deployment.add_trust(cert)
        client = SoapClient(deployment, "clienthost", Credentials(cert, keypair))

        client.invoke(service.epr(), ECHO_ACTION, element("{urn:test}Echo", "ok"))
        deployment.network.clock.charge(10_000)
        with pytest.raises(SoapFault, match="security failure"):
            client.invoke(service.epr(), ECHO_ACTION, element("{urn:test}Echo", "late"))


class TestGridRaces:
    def test_reservation_expires_before_job_start(self):
        """The unclaimed-reservation race: the client dawdles past the
        administrator delta, then tries to start the job."""
        from tests.helpers import fresh_vo
        from repro.apps.giab.jobs import JobSpec

        vo = fresh_vo("wsrf")
        reservation = vo.client.make_reservation("node1")
        directory = vo.client.create_data_directory(vo.nodes["node1"].data_service.address)
        vo.deployment.network.clock.charge(4 * 3600 * 1000.0 + 1)  # past the delta
        with pytest.raises(SoapFault, match="unknown"):
            vo.client.start_job(
                vo.nodes["node1"].exec_service.address, reservation, directory, JobSpec("sort")
            )

    def test_consumer_death_does_not_break_job_completion(self):
        from tests.helpers import fresh_vo
        from repro.apps.giab.jobs import JobSpec

        vo = fresh_vo("wsrf")
        exec_service = vo.nodes["node1"].exec_service
        observed = []
        exec_service.on_delivery_failure = lambda view, reason: observed.append(
            (view.consumer_address, reason)
        )
        reservation = vo.client.make_reservation("node1")
        directory = vo.client.create_data_directory(vo.nodes["node1"].data_service.address)
        vo.client.upload_file(directory, "in", "x")
        # Long enough that the job outlives the subscribe exchange (whose
        # signing charges take several hundred virtual ms).
        job = vo.client.start_job(
            exec_service.address, reservation, directory,
            JobSpec("sort", (), 5000.0),
        )
        vo.client.subscribe_job_exit(job, vo.consumer)
        assert vo.consumer.received == []  # job still running
        vo.deployment._sinks.clear()  # the client process dies
        vo.deployment.network.clock.charge(6000)  # job finishes anyway
        assert vo.client.job_status(job) == "Exited"
        # ... and the reservation was still auto-released:
        assert "node1" in {s["host"] for s in vo.client.get_available_resources("sort")}
        # The dropped notification was NOT silent: the producer recorded the
        # failure, told the observer, and terminated the dead subscription.
        assert exec_service.delivery_failures == [
            (vo.consumer.sink.address, "consumer endpoint gone")
        ]
        assert observed == exec_service.delivery_failures
        assert exec_service.subscription_manager.active_subscriptions(
            exec_service.address
        ) == []

    def test_transfer_consumer_death_is_observed_and_subscription_ended(self):
        from tests.helpers import fresh_vo
        from repro.apps.giab.jobs import JobSpec

        vo = fresh_vo("transfer")
        exec_service = vo.nodes["node1"].exec_service
        observed = []
        exec_service.notifications.on_delivery_failure = (
            lambda record, reason: observed.append((record.notify_to, reason))
        )
        vo.client.make_reservation("node1")
        vo.client.upload_file(vo.nodes["node1"].data_service.address, "in", "x")
        job = vo.client.start_job(
            exec_service.address, JobSpec("sort", (), 5000.0)
        )
        vo.client.subscribe_job_exit(exec_service.address, job, vo.consumer)
        assert vo.consumer.received == []  # job still running
        vo.deployment._sinks.clear()  # the client process dies
        vo.deployment.network.clock.charge(6000)  # job finishes anyway
        assert vo.client.job_status(job) == "Exited"
        # The eventing stack surfaces the failure and drops the subscription.
        assert exec_service.notifications.delivery_failures == [
            (vo.consumer.sink.address, "consumer endpoint gone")
        ]
        assert observed == exec_service.notifications.delivery_failures
        assert exec_service.notifications.store.for_source(exec_service.address) == []

    def test_stale_transfer_reservation_blocks_until_admin_intervenes(self):
        """WS-Transfer's manual-lifetime failure mode, resolved the hard way:
        the admin deletes and re-registers the site."""
        from tests.helpers import fresh_vo

        vo = fresh_vo("transfer")
        vo.client.make_reservation("node1")
        # client vanishes; a week passes; node1 still blocked
        vo.deployment.network.clock.charge(7 * 24 * 3600 * 1000.0)
        assert "node1" not in {s["host"] for s in vo.client.get_available_resources("sort")}
        pair = vo.nodes["node1"]
        vo.admin.remove_site("node1")
        vo.admin.register_site(
            "node1", pair.exec_service.address, pair.data_service.address, ["blast", "sort"]
        )
        assert "node1" in {s["host"] for s in vo.client.get_available_resources("sort")}


class TestSubscriptionEdgeCases:
    def test_wsn_subscription_expiring_exactly_at_deadline(self):
        from repro.wsn import NotificationConsumer
        from tests.wsn.conftest import SensorService, subscribe, emit
        from repro.wsn.base import SubscriptionManagerService
        from repro.wsrf import ResourceHome
        from tests.helpers import make_client, server_container

        deployment = make_deployment()
        container = server_container(deployment)
        manager = SubscriptionManagerService(ResourceHome("subs", deployment.network))
        container.add_service(manager)
        sensor = SensorService(ResourceHome("sensor", deployment.network))
        sensor.subscription_manager = manager
        container.add_service(sensor)
        client = make_client(deployment)
        consumer = NotificationConsumer(deployment, "client")

        deadline = deployment.network.clock.now + 1000
        subscribe(client, sensor, consumer, termination=repr(deadline))
        deployment.network.kernel.run(until=deadline)  # exactly at the deadline
        assert emit(client, sensor) == 0  # termination fires at <= deadline


class TestAsymmetricTrust:
    def test_unsigned_response_rejected_by_signing_client(self):
        """A container with no credentials cannot sign its responses; in an
        X.509 deployment the *client* must refuse them."""
        from repro.container import SoapClient
        from tests.container.test_container import ECHO_ACTION, EchoService
        from tests.helpers import make_client

        deployment = make_deployment(SecurityMode.X509)
        # Deliberately credential-less container:
        container = deployment.add_container("serverhost", "App", credentials=None)
        service = EchoService()
        container.add_service(service)
        client = make_client(deployment)
        with pytest.raises(SoapFault, match="requires credentials|security failure"):
            client.invoke(service.epr(), ECHO_ACTION, element("{urn:test}Echo", "x"))

    def test_signed_fault_responses_verify(self):
        """Even fault responses are signed and verified end-to-end."""
        from tests.container.test_container import BOOM_ACTION, make_deployment as make_echo

        deployment, service, client = make_echo(SecurityMode.X509)
        with pytest.raises(SoapFault, match="exploded"):
            client.invoke(service.epr(), BOOM_ACTION, element("{urn:test}Boom"))
