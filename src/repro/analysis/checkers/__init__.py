"""Built-in checkers.  Importing this package registers every rule:

======  ==========================================================
RPO01   WS-Transfer services implement the full CRUD quartet and
        build action URIs from ``repro.xmllib.ns``
RPO02   WS-Eventing sources/managers expose the full
        Subscribe/Renew/GetStatus/Unsubscribe quartet
RPO03   WSRF-stack operations fault via WS-BaseFaults
RPO04   no hard-coded namespace URIs outside ``xmllib/ns.py``
RPO05   serialized+sent messages charge through the sim cost model
RPO06   ``@web_method`` handlers do not mutate module-level state
RPO07   no wall-clock ``time.sleep`` — waits are charged virtually
RPO08   ``SecurityHandler`` / ``InboundRequestLog`` stay inside
        ``repro.pipeline`` — everything else drives a ``FilterChain``
RPO09   no module-level mutables / class-level mutable defaults
        shared across simulated hosts outside Network/Clock/
        ResourceHome mediation
RPO10   no wall-clock reads, unseeded randomness, id()-keyed or
        set-ordered data on cost-ledger/comparator paths
RPO11   ``clock.charge`` laundered through wrappers still bypasses
        Network.charge attribution (interprocedural)
RPO12   filter/handler code settles state before notification
        fan-out or yield, never after
RPO13   WriteThroughCache/index internals are written only through
        the owning Collection API
RPO15   logic-/db-layer modules stay stack-blind: no ``repro.soap``/
        ``repro.container``/``repro.pipeline`` imports below the
        router seam
======  ==========================================================

RPO09–RPO13 are the concurrency-readiness rules: they consult the
project-wide call graph (``ModuleContext.project``) when the engine
provides one and degrade to module-local scope otherwise.
"""

from repro.analysis.checkers import (  # noqa: F401  (import registers)
    cost_escape,
    determinism,
    eventing_quartet,
    fault_discipline,
    handler_state,
    host_isolation,
    layer_discipline,
    namespace_hygiene,
    pipeline_boundary,
    reentrancy,
    sim_cost,
    store_discipline,
    transfer_quartet,
    wallclock,
)
