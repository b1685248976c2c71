"""Deployment builders for the six counter measurement scenarios (§4.1.3).

A scenario fixes the security policy ({none, X.509 signing, HTTPS}) and the
placement ({co-located, distributed}); the builders stand up the chosen
stack on "two identically-configured machines" named after the paper's
Opterons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.counter.clients import TransferCounterClient, WsrfCounterClient
from repro.apps.counter.transfer_service import TransferCounterService
from repro.apps.counter.wsrf_service import WsrfCounterService
from repro.container.deployment import Deployment
from repro.container.security import SecurityMode, SecurityPolicy
from repro.crypto.x509 import CertificateAuthority
from repro.eventing.delivery import EventingConsumer
from repro.eventing.manager import EventSubscriptionManagerService
from repro.eventing.store import FlatFileSubscriptionStore
from repro.reliable import ReliableNotifier, RetryPolicy
from repro.sim.costs import CostModel
from repro.wsn.base import NotificationConsumer, SubscriptionManagerService
from repro.wsrf.resource import ResourceHome
from repro.xmldb.collection import Collection

SERVER_HOST = "opteron1"
CLIENT_HOST_COLOCATED = "opteron1"
CLIENT_HOST_DISTRIBUTED = "opteron2"


@dataclass(frozen=True)
class CounterScenario:
    """One cell of the 6-scenario matrix."""

    mode: SecurityMode = SecurityMode.NONE
    colocated: bool = True
    costs: CostModel = field(default_factory=CostModel)
    #: When set, client proxies and notification delivery get WS-RM
    #: sequencing + retransmission (used by the lossy-network benchmark).
    reliability: RetryPolicy | None = None

    @property
    def label(self) -> str:
        placement = "co-located" if self.colocated else "distributed"
        return f"{placement}/{self.mode.value}"

    @property
    def client_host(self) -> str:
        return CLIENT_HOST_COLOCATED if self.colocated else CLIENT_HOST_DISTRIBUTED

    @classmethod
    def all_six(cls, costs: CostModel | None = None) -> list["CounterScenario"]:
        costs = costs or CostModel()
        return [
            cls(mode, colocated, costs)
            for mode in (SecurityMode.NONE, SecurityMode.X509, SecurityMode.HTTPS)
            for colocated in (True, False)
        ]


@dataclass
class WsrfCounterRig:
    deployment: Deployment
    service: WsrfCounterService
    subscription_manager: SubscriptionManagerService
    client: WsrfCounterClient
    consumer: NotificationConsumer


@dataclass
class TransferCounterRig:
    deployment: Deployment
    service: TransferCounterService
    subscription_manager: EventSubscriptionManagerService
    client: TransferCounterClient
    consumer: EventingConsumer


def _base_deployment(scenario: CounterScenario) -> Deployment:
    ca = CertificateAuthority.create(seed=7)
    deployment = Deployment(SecurityPolicy(scenario.mode), scenario.costs, ca)
    deployment.reliability = scenario.reliability
    return deployment


def build_wsrf_rig(scenario: CounterScenario) -> WsrfCounterRig:
    deployment = _base_deployment(scenario)
    creds = deployment.issue_credentials("wsrf-container", seed=101)
    container = deployment.add_container(SERVER_HOST, "WSRF", creds)
    manager = SubscriptionManagerService(ResourceHome("counter-subs", deployment.network))
    container.add_service(manager)
    service = WsrfCounterService(ResourceHome("counters", deployment.network))
    service.subscription_manager = manager
    if scenario.reliability is not None:
        service.reliable_deliverer = ReliableNotifier(deployment, scenario.reliability)
    container.add_service(service)
    client_creds = deployment.issue_credentials("counter-client", seed=102)
    soap = deployment.soap_client(scenario.client_host, client_creds)
    # "WSRF.NET uses a custom HTTP server that clients include."
    consumer = NotificationConsumer(deployment, scenario.client_host, kind="http-server")
    return WsrfCounterRig(
        deployment, service, manager, WsrfCounterClient(soap, service.address), consumer
    )


def build_transfer_rig(scenario: CounterScenario) -> TransferCounterRig:
    deployment = _base_deployment(scenario)
    creds = deployment.issue_credentials("wxf-container", seed=103)
    container = deployment.add_container(SERVER_HOST, "WXF", creds)
    manager = EventSubscriptionManagerService(FlatFileSubscriptionStore(deployment.network))
    container.add_service(manager)
    service = TransferCounterService(Collection("counters", deployment.network), manager)
    if scenario.reliability is not None:
        service.notifications.deliverer = ReliableNotifier(
            deployment, scenario.reliability
        )
    container.add_service(service)
    client_creds = deployment.issue_credentials("counter-client", seed=104)
    soap = deployment.soap_client(scenario.client_host, client_creds)
    # "Plumbwork Orange uses a WSE SoapReceiver to handle notifications via TCP."
    consumer = EventingConsumer(deployment, scenario.client_host)
    return TransferCounterRig(
        deployment, service, manager, TransferCounterClient(soap, service.address), consumer
    )
