"""Deployment builders for the datagrid scenario, both stacks, six modes.

The matrix is the paper's: {none, X.509, HTTPS} × {co-located,
distributed}, reusing :class:`~repro.apps.counter.deploy.CounterScenario`
as the scenario cell.  One container on ``opteron1`` hosts both declared
services; the storage elements (``se1.cern`` etc.) are catalog entries
with simulated links, not containers — the EU DataGrid catalog models
them, it does not run on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.counter.deploy import SERVER_HOST, CounterScenario
from repro.apps.datagrid.db import ReplicaTable
from repro.apps.datagrid.links import LinkFabric
from repro.apps.datagrid.logic import DataTransferLogic, ReplicaCatalogLogic
from repro.apps.datagrid.services import (
    TransferDataTransferClient,
    TransferDataTransferService,
    TransferReplicaCatalogClient,
    TransferReplicaCatalogService,
    WsrfDataTransferClient,
    WsrfDataTransferService,
    WsrfReplicaCatalogClient,
    WsrfReplicaCatalogService,
)
from repro.container.deployment import Deployment
from repro.container.security import SecurityPolicy
from repro.crypto.x509 import CertificateAuthority
from repro.xmldb.collection import Collection

#: The scenario matrix is the counter one verbatim.
DatagridScenario = CounterScenario

#: Default storage elements: two sharing the CERN LAN, one across the WAN.
STORAGE_HOSTS = ("se1.cern", "se2.cern", "se1.fnal")


class CatalogPort:
    """The transfer logic's catalog port, bound to one stack's out-call.

    Built at wiring time around the owning *service* (the out-call channel
    itself is per-container and needs no per-request state); every
    attribute access hands back the generated catalog client's method.
    """

    def __init__(self, client_type):
        self._client_type = client_type
        self._service = None
        self._address = ""

    def bind(self, service, address: str) -> None:
        self._service = service
        self._address = address

    def __getattr__(self, name: str):
        client = self._client_type(
            self._service.container.outcall_client(), self._address
        )
        return getattr(client, name)


@dataclass
class DatagridRig:
    deployment: Deployment
    catalog_service: object
    transfer_service: object
    catalog: object
    transfer: object
    links: LinkFabric


def _base_deployment(scenario: CounterScenario) -> Deployment:
    ca = CertificateAuthority.create(seed=7)
    return Deployment(SecurityPolicy(scenario.mode), scenario.costs, ca)


def build_wsrf_datagrid(scenario: CounterScenario) -> DatagridRig:
    deployment = _base_deployment(scenario)
    creds = deployment.issue_credentials("datagrid-container", seed=141)
    container = deployment.add_container(SERVER_HOST, "WSRF", creds)

    catalog_table = ReplicaTable(Collection("replicas", deployment.network))
    catalog_table.declare_indexes()
    catalog_service = WsrfReplicaCatalogService(ReplicaCatalogLogic(catalog_table))
    container.add_service(catalog_service)

    links = LinkFabric(deployment.network)
    port = CatalogPort(WsrfReplicaCatalogClient)
    transfer_service = WsrfDataTransferService(DataTransferLogic(port, links))
    container.add_service(transfer_service)
    port.bind(transfer_service, catalog_service.address)

    client_creds = deployment.issue_credentials("datagrid-client", seed=142)
    soap = deployment.soap_client(scenario.client_host, client_creds)
    return DatagridRig(
        deployment,
        catalog_service,
        transfer_service,
        WsrfReplicaCatalogClient(soap, catalog_service.address),
        WsrfDataTransferClient(soap, transfer_service.address),
        links,
    )


def build_transfer_datagrid(scenario: CounterScenario) -> DatagridRig:
    deployment = _base_deployment(scenario)
    creds = deployment.issue_credentials("datagrid-container", seed=143)
    container = deployment.add_container(SERVER_HOST, "WXF", creds)

    catalog_collection = Collection("replicas", deployment.network)
    catalog_table = ReplicaTable(catalog_collection)
    catalog_table.declare_indexes()
    catalog_service = TransferReplicaCatalogService(
        catalog_collection, ReplicaCatalogLogic(catalog_table)
    )
    container.add_service(catalog_service)

    links = LinkFabric(deployment.network)
    port = CatalogPort(TransferReplicaCatalogClient)
    transfer_service = TransferDataTransferService(
        Collection("transfers", deployment.network), DataTransferLogic(port, links)
    )
    container.add_service(transfer_service)
    port.bind(transfer_service, catalog_service.address)

    client_creds = deployment.issue_credentials("datagrid-client", seed=144)
    soap = deployment.soap_client(scenario.client_host, client_creds)
    return DatagridRig(
        deployment,
        catalog_service,
        transfer_service,
        TransferReplicaCatalogClient(soap, catalog_service.address),
        TransferDataTransferClient(soap, transfer_service.address),
        links,
    )


BUILDERS = {"wsrf": build_wsrf_datagrid, "transfer": build_transfer_datagrid}


def build_datagrid(stack: str, scenario: CounterScenario | None = None) -> DatagridRig:
    return BUILDERS[stack](scenario or DatagridScenario())
