"""The datagrid replica-staging sweep (extension; no figure in the paper).

Runs a fixed replica-management workload — seed registrations, two
replications, two stage-ins, then the catalog queries — through the
*declared* ReplicaCatalog/DataTransfer services on both stacks across the
paper's six security×placement cells.  Three invariants make this the
layered framework's benchmark-shaped proof:

* the chosen source hosts (the nearest-replica decision) are identical in
  every cell on both stacks — the logic layer is shared, so they must be;
* the charged ``link`` time is identical everywhere — link costs are a
  pure function of host names, untouched by security or placement;
* only the *wire* cost differs per stack/cell, exactly like the paper's
  counter and GiaB measurements.

Everything derives from the virtual clock, so
``results/BENCH_datagrid.json`` is byte-reproducible; the ``datagrid``
experiment spec records it and ``python -m repro experiments --check
datagrid`` gates a fresh run against it.
"""

from __future__ import annotations

from repro.apps.datagrid import DatagridScenario, build_datagrid

#: The staging workload's expected source decisions, shared by every cell
#: (documented here because they *are* the benchmark's correctness claim).
EXPECTED_SOURCES = {
    "replicate lfn:events to se2.cern": "se1.cern",   # LAN beats WAN
    "replicate lfn:calib to se1.fnal": "se1.cern",    # only source
    "stage-in lfn:events to se2.fnal": "se1.fnal",    # same-site replica
    "stage-in lfn:calib to se1.cern": "se1.cern",     # already local: free
}


def run_staging(stack: str, scenario: DatagridScenario) -> dict:
    """One cell: the fixed workload on a fresh rig; returns the row dict."""
    rig = build_datagrid(stack, scenario)
    clock = rig.deployment.network.clock
    metrics = rig.deployment.network.metrics
    started = clock.now

    rig.catalog.register_replica("lfn:calib", "se1.cern")
    rig.catalog.register_replica("lfn:events", "se1.cern")
    rig.catalog.register_replica("lfn:events", "se1.fnal")

    sources = {
        "replicate lfn:events to se2.cern":
            rig.transfer.replicate("lfn:events", "se2.cern"),
        "replicate lfn:calib to se1.fnal":
            rig.transfer.replicate("lfn:calib", "se1.fnal"),
        "stage-in lfn:events to se2.fnal":
            rig.transfer.stage_in("lfn:events", "se2.fnal"),
        "stage-in lfn:calib to se1.cern":
            rig.transfer.stage_in("lfn:calib", "se1.cern"),
    }

    events_at = rig.catalog.locate_replicas("lfn:events")
    cern_files = rig.catalog.files_on("se1.cern")

    return {
        "virtual_ms": round(clock.now - started, 6),
        "link_ms": metrics.time_by_category["link"],
        "messages": metrics.total_messages,
        "sources": sources,
        "events_replicas": events_at,
        "se1.cern_files": cern_files,
    }
