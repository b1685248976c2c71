"""Built-in checkers.  Importing this package registers every rule:

======  ==========================================================
RPO01   WS-Transfer services implement the full CRUD quartet and
        build action URIs from ``repro.xmllib.ns``
RPO02   WS-Eventing sources/managers expose the full
        Subscribe/Renew/GetStatus/Unsubscribe quartet
RPO03   WSRF-stack operations fault via WS-BaseFaults
RPO04   no hard-coded namespace URIs outside ``xmllib/ns.py``
RPO05   serialized+sent messages charge through the sim cost model;
        no ``clock.charge`` directly or laundered through wrappers
        (interprocedural)
RPO09   no module-level mutables, iterators, ``global`` rebinding or
        class-level mutable defaults shared across simulated hosts
        outside Network/Clock/ResourceHome mediation
RPO10   no wall-clock reads or sleeps, unseeded randomness,
        id()-keyed or set-ordered data on cost-ledger/comparator paths
RPO12   filter/handler code settles state before notification
        fan-out or yield, never after
RPO13   WriteThroughCache/index internals are written only through
        the owning Collection API
RPO15   logic-/db-layer modules stay stack-blind: no ``repro.soap``/
        ``repro.container``/``repro.pipeline`` imports below the
        router seam
======  ==========================================================

Retired ids are never reused: RPO06 folded into RPO09, RPO07 into
RPO10 and RPO11 into RPO05; RPO08 guarded a wrapper that no longer
exists, and RPO14's invariant became structural (the clock has no timer
API left to misuse).

RPO05, RPO09 and RPO10 consult the project-wide call graph
(``ModuleContext.project``); a single-file analysis gets a project of
one module.
"""

from repro.analysis.checkers import (  # noqa: F401  (import registers)
    determinism,
    eventing_quartet,
    fault_discipline,
    host_isolation,
    layer_discipline,
    namespace_hygiene,
    reentrancy,
    sim_cost,
    store_discipline,
    transfer_quartet,
)
