"""The ServiceGroup-backed ResourceAllocation variant."""

import pytest

from repro.addressing import EndpointReference
from repro.apps.giab.common import host_info, wsrf_actions
from repro.apps.giab.wsrf.allocation import ServiceGroupAllocationService
from repro.apps.giab.wsrf.reservation import WsrfReservationService
from repro.wsrf import ResourceHome, ServiceGroupService
from repro.wsrf.lifetime import actions as rl_actions
from repro.wsrf.servicegroup import actions as sg_actions
from repro.xmllib import QName, element, ns

from tests.helpers import make_client, make_deployment, server_container


@pytest.fixture()
def rig():
    deployment = make_deployment()
    container = server_container(deployment)
    group = ServiceGroupService(
        ResourceHome("host-group", deployment.network),
        content_rules=(QName(ns.GIAB, "HostInfo"),),
    )
    container.add_service(group)
    reservation = WsrfReservationService(ResourceHome("reservations", deployment.network))
    container.add_service(reservation)
    allocation = ServiceGroupAllocationService(group, reservation.address)
    container.add_service(allocation)
    client = make_client(deployment)
    return deployment, group, reservation, allocation, client


def register_via_group(client, group, host, apps):
    body = element(
        f"{{{ns.WSRF_SG}}}Add",
        EndpointReference.create(f"soap://{host}/Node/Exec").to_xml(f"{{{ns.WSRF_SG}}}MemberEPR"),
        element(
            f"{{{ns.WSRF_SG}}}Content",
            host_info(host, f"soap://{host}/Node/Exec", f"soap://{host}/Node/Data", apps),
        ),
    )
    response = client.invoke(group.epr(), sg_actions.ADD, body)
    return EndpointReference.from_xml(next(response.element_children()))


def available(client, allocation, app):
    response = client.invoke(
        allocation.epr(),
        wsrf_actions.GET_AVAILABLE_RESOURCES,
        element(f"{{{ns.GIAB}}}getAvailableResources", element(f"{{{ns.GIAB}}}Application", app)),
    )
    return [h.find_local("Host").text().strip() for h in response.element_children()]


class TestServiceGroupAllocation:
    def test_members_appear_in_availability(self, rig):
        _, group, _, allocation, client = rig
        register_via_group(client, group, "node1", ["sort"])
        register_via_group(client, group, "node2", ["sort", "blast"])
        assert available(client, allocation, "sort") == ["node1", "node2"]
        assert available(client, allocation, "blast") == ["node2"]

    def test_destroying_entry_removes_host(self, rig):
        _, group, _, allocation, client = rig
        entry = register_via_group(client, group, "node1", ["sort"])
        client.invoke(entry, rl_actions.DESTROY, element(f"{{{ns.WSRF_RL}}}Destroy"))
        assert available(client, allocation, "sort") == []

    def test_reserved_member_filtered(self, rig):
        _, group, reservation, allocation, client = rig
        register_via_group(client, group, "node1", ["sort"])
        client.invoke(
            reservation.epr(),
            wsrf_actions.CREATE_RESERVATION,
            element(f"{{{ns.GIAB}}}createReservation", element(f"{{{ns.GIAB}}}Host", "node1")),
        )
        assert available(client, allocation, "sort") == []

    def test_entry_scheduled_termination_expires_membership(self, rig):
        """Lease-style registration: a host entry with a termination time
        disappears from availability when it expires."""
        deployment, group, _, allocation, client = rig
        entry = register_via_group(client, group, "node1", ["sort"])
        deadline = deployment.network.clock.now + 1000
        client.invoke(
            entry,
            rl_actions.SET_TERMINATION_TIME,
            element(
                f"{{{ns.WSRF_RL}}}SetTerminationTime",
                element(f"{{{ns.WSRF_RL}}}RequestedTerminationTime", repr(deadline)),
            ),
        )
        assert available(client, allocation, "sort") == ["node1"]
        deployment.network.kernel.run(until=deadline + 1)
        assert available(client, allocation, "sort") == []
