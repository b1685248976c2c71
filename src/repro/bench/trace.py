"""Trace-span collection for the ``trace_spans`` experiment.

Every message already produces a span tree (the pipeline's
``TracingFilter`` runs in all chains); this module records the trees of
one signed round trip and one notification, and flattens a tree into
the per-stage elapsed times the spec's figure shows.
"""

from __future__ import annotations

from repro.apps.counter.deploy import (
    CounterScenario,
    build_transfer_rig,
    build_wsrf_rig,
)
from repro.container.security import SecurityMode
from repro.sim.costs import CostModel
from repro.sim.metrics import Span


def trace_round_trip(
    stack: str, mode: SecurityMode = SecurityMode.X509, *, colocated: bool = False
) -> dict[str, Span]:
    """Span trees for one Get round-trip and one Notify delivery.

    Returns ``{"Get": <client.invoke tree>, "Notify": <notify.deliver tree>}``
    recorded on a fresh rig (warm caches, like the hello figures).
    """
    scenario = CounterScenario(mode, colocated, CostModel())
    rig = build_wsrf_rig(scenario) if stack == "wsrf" else build_transfer_rig(scenario)
    tracer = rig.deployment.network.metrics.tracer
    counter = rig.client.create(0)
    rig.client.get(counter)  # warm-up (connection caches), not recorded
    trees: dict[str, Span] = {}

    tracer.clear()
    rig.client.get(counter)
    trees["Get"] = tracer.last_root()

    rig.client.subscribe(counter, rig.consumer)
    tracer.clear()
    rig.client.set(counter, 5)
    # Delivery happens server-side, inside the Set's dispatch span — the
    # span tree records the nesting the paper's Figure 1 can only imply.
    for root in tracer.roots:
        notify = root.find("notify.deliver")
        if notify is not None:
            trees["Notify"] = notify
    if "Notify" not in trees:  # pragma: no cover - rig wiring regression
        raise RuntimeError("Set did not produce a notification delivery")
    return trees


def stage_breakdown(root: Span) -> dict[str, float]:
    """Elapsed virtual ms per top-level stage of one round-trip tree."""
    return {child.name: child.elapsed_ms for child in root.children}
