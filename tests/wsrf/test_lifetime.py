"""WS-ResourceLifetime: Destroy and scheduled termination over the wire."""

import pytest

from repro.soap import SoapFault
from repro.wsrf import RESOURCE_ID
from repro.wsrf.lifetime import actions, parse_termination_time
from repro.wsrf.properties import actions as rp_actions
from repro.xmllib import element

from tests.wsrf.conftest import BUMP, NS, create_counter

RL = "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ResourceLifetime-1.2-draft-01.xsd"
RP = "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ResourceProperties-1.2-draft-01.xsd"


class TestDestroy:
    def test_destroy_removes_resource(self, rig):
        _, service, client = rig
        epr = create_counter(service, client)
        client.invoke(epr, actions.DESTROY, element(f"{{{RL}}}Destroy"))
        with pytest.raises(SoapFault, match="unknown"):
            client.invoke(epr, BUMP, element(f"{{{NS}}}Bump"))

    def test_destroy_fires_service_hook(self, rig):
        _, service, client = rig
        epr = create_counter(service, client)
        key = epr.property(RESOURCE_ID)
        client.invoke(epr, actions.DESTROY, element(f"{{{RL}}}Destroy"))
        assert service.destroyed == [key]

    def test_destroy_twice_faults(self, rig):
        _, service, client = rig
        epr = create_counter(service, client)
        client.invoke(epr, actions.DESTROY, element(f"{{{RL}}}Destroy"))
        with pytest.raises(SoapFault):
            client.invoke(epr, actions.DESTROY, element(f"{{{RL}}}Destroy"))

    def test_destroy_requires_resource(self, rig):
        _, service, client = rig
        with pytest.raises(SoapFault, match="requires a WS-Resource"):
            client.invoke(service.epr(), actions.DESTROY, element(f"{{{RL}}}Destroy"))


class TestSetTerminationTime:
    def set_tt(self, client, epr, when):
        return client.invoke(
            epr,
            actions.SET_TERMINATION_TIME,
            element(
                f"{{{RL}}}SetTerminationTime",
                element(f"{{{RL}}}RequestedTerminationTime", when),
            ),
        )

    def test_scheduled_termination_destroys_resource(self, rig):
        deployment, service, client = rig
        epr = create_counter(service, client)
        deadline = deployment.network.clock.now + 1000
        self.set_tt(client, epr, repr(deadline))
        deployment.network.kernel.run(until=deadline + 1)
        assert not service.home.contains(epr.property(RESOURCE_ID))

    def test_scheduled_termination_fires_hook(self, rig):
        deployment, service, client = rig
        epr = create_counter(service, client)
        deadline = deployment.network.clock.now + 500
        self.set_tt(client, epr, repr(deadline))
        deployment.network.kernel.run(until=deadline + 1)
        assert epr.property(RESOURCE_ID) in service.destroyed

    def test_lengthening_supersedes_schedule(self, rig):
        """The Grid-in-a-Box "claim" pattern: push the deadline out."""
        deployment, service, client = rig
        epr = create_counter(service, client)
        first = deployment.network.clock.now + 500
        self.set_tt(client, epr, repr(first))
        self.set_tt(client, epr, repr(first + 10_000))
        deployment.network.kernel.run(until=first + 100)
        assert service.home.contains(epr.property(RESOURCE_ID))

    def test_infinity_cancels_schedule(self, rig):
        deployment, service, client = rig
        epr = create_counter(service, client)
        deadline = deployment.network.clock.now + 500
        self.set_tt(client, epr, repr(deadline))
        self.set_tt(client, epr, "infinity")
        deployment.network.kernel.run(until=deadline + 100)
        assert service.home.contains(epr.property(RESOURCE_ID))

    def test_past_time_faults(self, rig):
        deployment, service, client = rig
        epr = create_counter(service, client)
        with pytest.raises(SoapFault, match="in the past"):
            self.set_tt(client, epr, "0.0")

    def test_garbage_time_faults(self, rig):
        _, service, client = rig
        epr = create_counter(service, client)
        with pytest.raises(SoapFault, match="unintelligible"):
            self.set_tt(client, epr, "mañana")

    def test_response_reports_new_time_and_current_time(self, rig):
        deployment, service, client = rig
        epr = create_counter(service, client)
        deadline = deployment.network.clock.now + 777
        response = self.set_tt(client, epr, repr(deadline))
        assert repr(deadline) in response.text()


class TestLifetimeResourceProperties:
    def test_current_time_rp(self, rig):
        deployment, service, client = rig
        epr = create_counter(service, client)
        response = client.invoke(
            epr, rp_actions.GET, element(f"{{{RP}}}GetResourceProperty", "CurrentTime")
        )
        reported = float(response.text())
        assert 0 < reported <= deployment.network.clock.now

    def test_termination_time_rp_infinity_by_default(self, rig):
        _, service, client = rig
        epr = create_counter(service, client)
        response = client.invoke(
            epr, rp_actions.GET, element(f"{{{RP}}}GetResourceProperty", "TerminationTime")
        )
        assert response.text() == "infinity"

    def test_termination_time_rp_after_set(self, rig):
        deployment, service, client = rig
        epr = create_counter(service, client)
        deadline = deployment.network.clock.now + 5000
        TestSetTerminationTime().set_tt(self_client := client, epr, repr(deadline))
        response = client.invoke(
            epr, rp_actions.GET, element(f"{{{RP}}}GetResourceProperty", "TerminationTime")
        )
        assert response.text() == repr(deadline)


class TestParseTerminationTime:
    def test_variants(self):
        assert parse_termination_time("") is None
        assert parse_termination_time("infinity") is None
        assert parse_termination_time("Never") is None
        assert parse_termination_time(" 12.5 ") == 12.5

    def test_invalid_raises_fault(self):
        with pytest.raises(SoapFault):
            parse_termination_time("later")
