"""Virtual-organisation deployment builders for Grid-in-a-Box.

"Typically, there will be one AccountService, ResourceAllocationService and
ReservationService for the entire VO and one ExecService and DataService for
each machine in the VO."  The builders stand up that topology on either
stack — X.509-signed by default, since the paper's Figure 6 numbers are
dominated by "web service outcalls (and message signings)".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.giab.jobs import ProcessSpawner
from repro.apps.giab.storage import SimulatedFileSystem
from repro.apps.giab.transfer import (
    TransferAccountService,
    TransferDataService,
    TransferExecService,
    TransferGridAdmin,
    TransferGridClient,
    TransferResourceAllocationService,
)
from repro.apps.giab.wsrf import (
    WsrfAccountService,
    WsrfDataService,
    WsrfExecService,
    WsrfGridAdmin,
    WsrfGridClient,
    WsrfReservationService,
    WsrfResourceAllocationService,
)
from repro.container.client import SoapClient
from repro.container.deployment import Deployment
from repro.container.security import SecurityMode, SecurityPolicy
from repro.crypto.x509 import CertificateAuthority
from repro.eventing.delivery import EventingConsumer
from repro.eventing.manager import EventSubscriptionManagerService
from repro.eventing.store import FlatFileSubscriptionStore
from repro.reliable import ReliableChannel, ReliableNotifier, RetryPolicy
from repro.sim.costs import CostModel
from repro.wsn.base import NotificationConsumer, SubscriptionManagerService
from repro.wsrf.resource import ResourceHome
from repro.xmldb.collection import Collection

#: Default VO topology: node name → installed applications.
GIAB_HOSTS: dict[str, list[str]] = {
    "node1": ["blast", "sort"],
    "node2": ["sort", "render"],
}

CENTRAL_HOST = "vo-central"
CLIENT_HOST = "workstation"
ADMIN_HOST = "admin-console"
USER_CN = "alice"
ADMIN_CN = "vo-admin"


@dataclass
class NodePair:
    """One machine's ExecService/DataService pair."""

    exec_service: object
    data_service: object


@dataclass
class WsrfVo:
    deployment: Deployment
    account: WsrfAccountService
    allocation: WsrfResourceAllocationService
    reservation: WsrfReservationService
    nodes: dict[str, NodePair]
    admin: WsrfGridAdmin
    client: WsrfGridClient
    consumer: NotificationConsumer
    user_dn: str = ""


@dataclass
class TransferVo:
    deployment: Deployment
    account: TransferAccountService
    allocation: TransferResourceAllocationService
    nodes: dict[str, NodePair]
    admin: TransferGridAdmin
    client: TransferGridClient
    consumer: EventingConsumer
    user_dn: str = ""


def _deployment(
    mode: SecurityMode, costs: CostModel | None, reliability: RetryPolicy | None
) -> Deployment:
    ca = CertificateAuthority.create(seed=7)
    deployment = Deployment(SecurityPolicy(mode), costs or CostModel(), ca)
    deployment.reliability = reliability
    return deployment


def _client_soap(
    deployment: Deployment, host: str, credentials
) -> SoapClient | ReliableChannel:
    """A user-facing proxy, reliable when the deployment says so."""
    soap = SoapClient(deployment, host, credentials)
    if deployment.reliability is not None:
        return ReliableChannel(soap, deployment.reliability, deployment.dead_letters)
    return soap


def build_wsrf_vo(
    mode: SecurityMode = SecurityMode.X509,
    costs: CostModel | None = None,
    hosts: dict[str, list[str]] | None = None,
    registered: bool = True,
    reliability: RetryPolicy | None = None,
) -> WsrfVo:
    """Stand up the five-service WSRF VO; ``registered`` pre-runs the admin
    workflow (accounts + host registry) so the client flow can start.
    ``reliability`` arms WS-RM retransmission on every client proxy,
    container out-call and notification path."""
    hosts = hosts if hosts is not None else GIAB_HOSTS
    deployment = _deployment(mode, costs, reliability)
    network = deployment.network

    central_creds = deployment.issue_credentials("vo-central-container", seed=201)
    central = deployment.add_container(CENTRAL_HOST, "VO", central_creds)

    admin_creds = deployment.issue_credentials(ADMIN_CN, seed=202)
    admins = {str(admin_creds.subject)}

    account = WsrfAccountService(Collection("accounts", network), admins)
    central.add_service(account)
    reservation = WsrfReservationService(
        ResourceHome("reservations", network), account_address=""
    )
    central.add_service(reservation)
    reservation.account_address = account.address
    allocation = WsrfResourceAllocationService(
        Collection("hosts", network), reservation.address, admins
    )
    central.add_service(allocation)

    nodes: dict[str, NodePair] = {}
    for index, (node_name, applications) in enumerate(sorted(hosts.items())):
        node_creds = deployment.issue_credentials(f"{node_name}-container", seed=210 + index)
        container = deployment.add_container(node_name, "Node", node_creds)
        filesystem = SimulatedFileSystem(network)
        spawner = ProcessSpawner(network)
        manager = SubscriptionManagerService(ResourceHome(f"{node_name}-subs", network))
        container.add_service(manager)
        data = WsrfDataService(
            ResourceHome(f"{node_name}-dirs", network),
            filesystem,
            node_name,
            reservation.address,
        )
        container.add_service(data)
        exec_service = WsrfExecService(
            ResourceHome(f"{node_name}-jobs", network), spawner, node_name, filesystem
        )
        exec_service.subscription_manager = manager
        if reliability is not None:
            exec_service.reliable_deliverer = ReliableNotifier(deployment, reliability)
        container.add_service(exec_service)
        nodes[node_name] = NodePair(exec_service, data)

    admin_soap = _client_soap(deployment, ADMIN_HOST, admin_creds)
    admin = WsrfGridAdmin(admin_soap, account.address, allocation.address)

    user_creds = deployment.issue_credentials(USER_CN, seed=203)
    user_soap = _client_soap(deployment, CLIENT_HOST, user_creds)
    client = WsrfGridClient(user_soap, allocation.address, reservation.address)
    consumer = NotificationConsumer(deployment, CLIENT_HOST, kind="http-server")

    vo = WsrfVo(
        deployment, account, allocation, reservation, nodes, admin, client, consumer,
        user_dn=str(user_creds.subject),
    )
    if registered:
        admin.add_account(vo.user_dn, privileges=["run-jobs"])
        for node_name, applications in sorted(hosts.items()):
            pair = nodes[node_name]
            admin.register_host(
                node_name, pair.exec_service.address, pair.data_service.address, applications
            )
    return vo


def build_transfer_vo(
    mode: SecurityMode = SecurityMode.X509,
    costs: CostModel | None = None,
    hosts: dict[str, list[str]] | None = None,
    registered: bool = True,
    reliability: RetryPolicy | None = None,
) -> TransferVo:
    """Stand up the four-service WS-Transfer VO."""
    hosts = hosts if hosts is not None else GIAB_HOSTS
    deployment = _deployment(mode, costs, reliability)
    network = deployment.network

    central_creds = deployment.issue_credentials("vo-central-container", seed=301)
    central = deployment.add_container(CENTRAL_HOST, "VO", central_creds)

    admin_creds = deployment.issue_credentials(ADMIN_CN, seed=302)
    admins = {str(admin_creds.subject)}

    account = TransferAccountService(Collection("accounts", network), admins)
    central.add_service(account)
    allocation = TransferResourceAllocationService(
        Collection("sites", network), account.address, admins
    )
    central.add_service(allocation)

    nodes: dict[str, NodePair] = {}
    for index, (node_name, applications) in enumerate(sorted(hosts.items())):
        node_creds = deployment.issue_credentials(f"{node_name}-container", seed=310 + index)
        container = deployment.add_container(node_name, "Node", node_creds)
        filesystem = SimulatedFileSystem(network)
        spawner = ProcessSpawner(network)
        manager = EventSubscriptionManagerService(FlatFileSubscriptionStore(network))
        container.add_service(manager)
        data = TransferDataService(filesystem, node_name, allocation.address)
        container.add_service(data)
        exec_service = TransferExecService(
            Collection(f"{node_name}-jobs", network),
            spawner,
            node_name,
            manager,
            allocation.address,
            filesystem,
        )
        if reliability is not None:
            exec_service.notifications.deliverer = ReliableNotifier(
                deployment, reliability
            )
        container.add_service(exec_service)
        nodes[node_name] = NodePair(exec_service, data)

    admin_soap = _client_soap(deployment, ADMIN_HOST, admin_creds)
    admin = TransferGridAdmin(admin_soap, account.address, allocation.address)

    user_creds = deployment.issue_credentials(USER_CN, seed=303)
    user_soap = _client_soap(deployment, CLIENT_HOST, user_creds)
    user_dn = str(user_creds.subject)
    client = TransferGridClient(user_soap, allocation.address, user_dn)
    consumer = EventingConsumer(deployment, CLIENT_HOST)

    vo = TransferVo(
        deployment, account, allocation, nodes, admin, client, consumer, user_dn=user_dn
    )
    if registered:
        admin.add_account(user_dn, privileges=["run-jobs"])
        for node_name, applications in sorted(hosts.items()):
            pair = nodes[node_name]
            admin.register_site(
                node_name, pair.exec_service.address, pair.data_service.address, applications
            )
    return vo
