"""The datagrid scenario: link fabric, replica table, logic rules, and the
declared services end-to-end on both stacks."""

import pytest

from repro.apps.datagrid import (
    DatagridScenario,
    LinkFabric,
    ReplicaCatalogLogic,
    ReplicaTable,
    build_datagrid,
    nearest_replica,
    site_of,
)
from repro.apps.datagrid.links import LAN_TRANSFER_MS, WAN_TRANSFER_MS
from repro.apps.layers.logic import LogicError, UnknownEntity
from repro.bench.datagrid import run_staging
from repro.sim.network import Network
from repro.soap.envelope import SoapFault
from repro.xmldb.collection import Collection


def _network():
    return Network()


class TestLinkFabric:
    def test_site_of(self):
        assert site_of("se1.cern") == "cern"
        assert site_of("se2.gridlab.utech.edu") == "gridlab.utech.edu"
        assert site_of("opteron1") == "opteron1"

    def test_cost_classes(self):
        links = LinkFabric(_network())
        assert links.cost("se1.cern", "se1.cern") == 0.0
        assert links.cost("se1.cern", "se2.cern") == LAN_TRANSFER_MS
        assert links.cost("se1.cern", "se1.fnal") == WAN_TRANSFER_MS

    def test_transfer_charges_the_link_category(self):
        network = _network()
        links = LinkFabric(network)
        links.transfer("se1.cern", "se1.fnal")
        assert network.metrics.time_by_category["link"] == WAN_TRANSFER_MS

    def test_same_host_transfer_is_free(self):
        network = _network()
        LinkFabric(network).transfer("se1.cern", "se1.cern")
        assert network.metrics.time_by_category["link"] == 0.0


class TestReplicaTable:
    def _table(self, indexed=True):
        table = ReplicaTable(Collection("replicas", _network()))
        if indexed:
            table.declare_indexes()
        return table

    def test_add_and_remove_round_trip(self):
        table = self._table()
        table.add("lfn:f0", "se1.cern")
        table.add("lfn:f0", "se1.fnal")
        assert table.replicas("lfn:f0") == ["se1.cern", "se1.fnal"]
        table.remove("lfn:f0", "se1.cern")
        assert table.replicas("lfn:f0") == ["se1.fnal"]

    def test_last_replica_removes_the_document(self):
        table = self._table()
        table.add("lfn:f0", "se1.cern")
        table.remove("lfn:f0", "se1.cern")
        assert table.replicas("lfn:f0") == []
        assert table.logical_files() == []

    def test_files_on_agrees_with_and_without_index(self):
        for indexed in (True, False):
            table = self._table(indexed)
            table.add("lfn:a", "se1.cern")
            table.add("lfn:b", "se1.cern")
            table.add("lfn:b", "se2.cern")
            assert table.files_on("se1.cern") == ["lfn:a", "lfn:b"], indexed
            assert table.files_on("se2.cern") == ["lfn:b"], indexed
            assert table.files_on("se9.nowhere") == [], indexed


class TestCatalogLogic:
    def _catalog(self):
        table = ReplicaTable(Collection("replicas", _network()))
        table.declare_indexes()
        return ReplicaCatalogLogic(table)

    def test_duplicate_registration_rejected(self):
        catalog = self._catalog()
        catalog.register_replica("lfn:f0", "se1.cern")
        with pytest.raises(LogicError, match="already holds"):
            catalog.register_replica("lfn:f0", "se1.cern")

    def test_unknown_lookups_are_unknown_entity(self):
        catalog = self._catalog()
        with pytest.raises(UnknownEntity):
            catalog.locate_replicas("lfn:nope")
        with pytest.raises(UnknownEntity):
            catalog.unregister_replica("lfn:nope", "se1.cern")


class TestNearestReplica:
    def test_cheapest_link_wins(self):
        links = LinkFabric(_network())
        assert nearest_replica(
            ["se1.fnal", "se1.cern"], "se2.cern", links
        ) == "se1.cern"

    def test_host_name_breaks_ties(self):
        links = LinkFabric(_network())
        assert nearest_replica(
            ["se2.cern", "se1.cern"], "se3.cern", links
        ) == "se1.cern"


@pytest.mark.parametrize("stack", ["wsrf", "transfer"])
class TestDeclaredServicesEndToEnd:
    def test_full_replica_flow(self, stack):
        rig = build_datagrid(stack)
        assert rig.catalog.register_replica("lfn:f0", "se1.cern") is None
        rig.catalog.register_replica("lfn:f0", "se1.fnal")
        assert rig.catalog.locate_replicas("lfn:f0") == ["se1.cern", "se1.fnal"]
        assert rig.catalog.list_files() == ["lfn:f0"]
        assert rig.catalog.files_on("se1.cern") == ["lfn:f0"]
        # Replication picks the LAN source and registers the new copy.
        assert rig.transfer.replicate("lfn:f0", "se2.cern") == "se1.cern"
        assert rig.catalog.locate_replicas("lfn:f0") == [
            "se1.cern", "se1.fnal", "se2.cern",
        ]
        # Stage-in from the same site, without touching the catalog.
        assert rig.transfer.stage_in("lfn:f0", "se2.fnal") == "se1.fnal"
        assert rig.catalog.files_on("se2.fnal") == []
        rig.catalog.unregister_replica("lfn:f0", "se1.cern")
        assert rig.catalog.locate_replicas("lfn:f0") == ["se1.fnal", "se2.cern"]

    def test_faults_cross_the_wire(self, stack):
        rig = build_datagrid(stack)
        with pytest.raises(SoapFault) as caught:
            rig.catalog.locate_replicas("lfn:nope")
        assert "no replicas of lfn:nope" in caught.value.reason
        rig.catalog.register_replica("lfn:f0", "se1.cern")
        with pytest.raises(SoapFault) as caught:
            rig.catalog.register_replica("lfn:f0", "se1.cern")
        assert caught.value.code == "Client"

    def test_staging_run_is_deterministic(self, stack):
        assert run_staging(stack, DatagridScenario()) == run_staging(
            stack, DatagridScenario()
        )

    def test_replication_charges_link_time(self, stack):
        rig = build_datagrid(stack)
        rig.catalog.register_replica("lfn:f0", "se1.cern")
        rig.transfer.replicate("lfn:f0", "se1.fnal")
        charged = rig.deployment.network.metrics.time_by_category["link"]
        assert charged == WAN_TRANSFER_MS
