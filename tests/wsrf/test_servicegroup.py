"""WS-ServiceGroup: Add, membership rules, entry lifetime."""

import pytest

from repro.addressing import EndpointReference
from repro.soap import SoapFault
from repro.wsrf import RESOURCE_ID, ResourceHome, ServiceGroupService
from repro.wsrf.lifetime import actions as rl_actions
from repro.wsrf.servicegroup import actions
from repro.xmllib import QName, element, ns

from tests.helpers import make_client, make_deployment, server_container

SG = ns.WSRF_SG
RL = ns.WSRF_RL


@pytest.fixture()
def rig():
    deployment = make_deployment()
    container = server_container(deployment)
    group = ServiceGroupService(
        ResourceHome("group", deployment.network),
        content_rules=(QName("urn:giab", "HostInfo"),),
    )
    container.add_service(group)
    client = make_client(deployment)
    return deployment, group, client


def add_member(client, group, address="soap://node1/App/Exec", content=None):
    body = element(
        f"{{{SG}}}Add",
        EndpointReference.create(address).to_xml(f"{{{SG}}}MemberEPR"),
    )
    if content is not None:
        body.append(element(f"{{{SG}}}Content", content))
    response = client.invoke(group.epr(), actions.ADD, body)
    return EndpointReference.from_xml(next(response.element_children()))


class TestAdd:
    def test_add_returns_entry_epr(self, rig):
        _, group, client = rig
        entry = add_member(client, group, content=element("{urn:giab}HostInfo", "node1"))
        assert entry.property(RESOURCE_ID) is not None

    def test_members_listing(self, rig):
        _, group, client = rig
        add_member(client, group, "soap://n1/App/Exec", element("{urn:giab}HostInfo", "n1"))
        add_member(client, group, "soap://n2/App/Exec", element("{urn:giab}HostInfo", "n2"))
        members = group.members()
        assert len(members) == 2
        addresses = {epr.address for _, epr, _ in members}
        assert addresses == {"soap://n1/App/Exec", "soap://n2/App/Exec"}

    def test_content_preserved(self, rig):
        _, group, client = rig
        add_member(client, group, content=element("{urn:giab}HostInfo", "node1"))
        _, _, content = group.members()[0]
        assert content.text() == "node1"

    def test_content_rule_violation_faults(self, rig):
        _, group, client = rig
        with pytest.raises(SoapFault, match="membership rules"):
            add_member(client, group, content=element("{urn:evil}Wrong"))

    def test_missing_content_with_rules_faults(self, rig):
        _, group, client = rig
        with pytest.raises(SoapFault, match="membership rules"):
            add_member(client, group, content=None)

    def test_missing_member_epr_faults(self, rig):
        _, group, client = rig
        with pytest.raises(SoapFault, match="no MemberEPR"):
            client.invoke(group.epr(), actions.ADD, element(f"{{{SG}}}Add"))

    def test_no_rules_admit_anything(self, rig):
        deployment, _, client = rig
        container = server_container(deployment, host="other")
        open_group = ServiceGroupService(ResourceHome("open", deployment.network))
        container.add_service(open_group)
        add_member(client, open_group, content=element("{urn:any}Thing"))
        add_member(client, open_group, content=None)
        assert len(open_group.members()) == 2


class TestEntryLifetime:
    def test_destroy_entry_removes_member(self, rig):
        _, group, client = rig
        entry = add_member(client, group, content=element("{urn:giab}HostInfo", "n"))
        client.invoke(entry, rl_actions.DESTROY, element(f"{{{RL}}}Destroy"))
        assert group.members() == []

    def test_entry_scheduled_termination(self, rig):
        deployment, group, client = rig
        entry = add_member(client, group, content=element("{urn:giab}HostInfo", "n"))
        deadline = deployment.network.clock.now + 100
        client.invoke(
            entry,
            rl_actions.SET_TERMINATION_TIME,
            element(
                f"{{{RL}}}SetTerminationTime",
                element(f"{{{RL}}}RequestedTerminationTime", repr(deadline)),
            ),
        )
        deployment.network.kernel.run(until=deadline + 1)
        assert group.members() == []

    def test_remove_entry_helper(self, rig):
        _, group, client = rig
        entry = add_member(client, group, content=element("{urn:giab}HostInfo", "n"))
        group.remove_entry(entry.property(RESOURCE_ID))
        assert group.members() == []

class TestMemberLookup:
    def test_entries_for_member_scan(self, rig):
        _, group, client = rig
        add_member(client, group, "soap://n1/App/Exec", element("{urn:giab}HostInfo", "n1"))
        entry = add_member(client, group, "soap://n2/App/Exec", element("{urn:giab}HostInfo", "n2"))
        keys = group.entries_for_member("soap://n2/App/Exec")
        assert keys == [entry.property(RESOURCE_ID)]
        assert group.entries_for_member("soap://nowhere/X") == []

    def test_remove_member(self, rig):
        _, group, client = rig
        add_member(client, group, "soap://n1/App/Exec", element("{urn:giab}HostInfo", "n1"))
        add_member(client, group, "soap://n2/App/Exec", element("{urn:giab}HostInfo", "n2"))
        assert group.remove_member("soap://n1/App/Exec") == 1
        assert group.remove_member("soap://n1/App/Exec") == 0
        addresses = {epr.address for _, epr, _ in group.members()}
        assert addresses == {"soap://n2/App/Exec"}

    def test_entry_rps_expose_member(self, rig):
        from repro.wsrf.properties import actions as rp_actions

        _, group, client = rig
        entry = add_member(client, group, content=element("{urn:giab}HostInfo", "n"))
        response = client.invoke(
            entry,
            rp_actions.GET,
            element(f"{{{ns.WSRF_RP}}}GetResourceProperty", "MemberServiceEPR"),
        )
        assert "soap://node1/App/Exec" in response.text()
