"""SWITCH substrate — §5's stack-switching cost, per route.

One facade gateway per direction (``repro.bridge``): an unmodified WSRF
client drives a WS-Transfer service and vice versa.  Each route measures
Get/Set/Create/Destroy on its own independent deployment, so routes can
be built (and cells re-run) in isolation without changing the numbers.
"""

from __future__ import annotations

from repro.apps.counter import (
    CounterScenario,
    TransferCounterClient,
    WsrfCounterClient,
    build_transfer_rig,
    build_wsrf_rig,
)
from repro.bench.runner import measure_virtual
from repro.bridge import COUNTER_MAPPING, TransferFacadeService, WsrfFacadeService

#: Route key → figure series label, in the figure's row order.
ROUTES = (
    ("native_wsrf", "native WSRF client → WSRF service"),
    ("bridged_wsrf", "WSRF client → facade → WS-Transfer service"),
    ("native_transfer", "native WS-Transfer client → WS-Transfer service"),
    ("bridged_transfer", "WS-Transfer client → facade → WSRF service"),
)


def measure_ops(deployment, client, destroy_name: str) -> dict[str, float]:
    """The four CRUD operations on one (deployment, client) pair."""
    results = {}
    counter = client.create(0)
    results["Get"] = measure_virtual(deployment, "Get", lambda: client.get(counter)).elapsed_ms
    results["Set"] = measure_virtual(deployment, "Set", lambda: client.set(counter, 7)).elapsed_ms
    created = {}
    results["Create"] = measure_virtual(
        deployment, "Create", lambda: created.update(epr=client.create(0))
    ).elapsed_ms
    destroy = getattr(client, destroy_name)
    results["Destroy"] = measure_virtual(
        deployment, "Destroy", lambda: destroy(created["epr"])
    ).elapsed_ms
    return results


def measure_route(route: str) -> dict[str, float]:
    """Build the rig for one route and measure its operation costs."""
    if route == "native_wsrf":
        rig = build_wsrf_rig(CounterScenario())
        return measure_ops(rig.deployment, rig.client, "destroy")
    if route == "native_transfer":
        rig = build_transfer_rig(CounterScenario())
        return measure_ops(rig.deployment, rig.client, "delete")
    if route == "bridged_wsrf":
        wxf_rig = build_transfer_rig(CounterScenario())
        gateway = wxf_rig.deployment.add_container(
            "gateway-host", "Gateway", wxf_rig.deployment.issue_credentials("gw", seed=601)
        )
        facade = WsrfFacadeService(wxf_rig.service.address, COUNTER_MAPPING)
        gateway.add_service(facade)
        client = WsrfCounterClient(wxf_rig.client.soap, facade.address)
        return measure_ops(wxf_rig.deployment, client, "destroy")
    if route == "bridged_transfer":
        wsrf_rig = build_wsrf_rig(CounterScenario())
        gateway = wsrf_rig.deployment.add_container(
            "gateway-host", "Gateway", wsrf_rig.deployment.issue_credentials("gw", seed=602)
        )
        facade = TransferFacadeService(wsrf_rig.service.address, COUNTER_MAPPING)
        gateway.add_service(facade)
        client = TransferCounterClient(wsrf_rig.client.soap, facade.address)
        return measure_ops(wsrf_rig.deployment, client, "delete")
    raise ValueError(f"unknown route {route!r}")
