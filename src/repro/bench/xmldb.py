"""XML database scaling: indexed queries vs full-collection scans.

The paper observes that "both counter implementations' performance is
dominated by Xindice"; the scan path of :meth:`Collection.query` makes that
concrete — its cost is ``db_query_base + db_query_per_doc × N``.  This
bench sweeps the registry size and contrasts three query shapes:

* a host lookup against the scan path (linear in N);
* the same lookup through a declared secondary index (O(hits));
* an expression no index can cover (``contains``), run against the indexed
  collection — it must reproduce the scan curve bit-identically, because
  the planner falls back to the scan path.
"""

from __future__ import annotations

from repro.apps.giab.common import host_info
from repro.sim import CostModel, Network
from repro.xmldb.collection import Collection
from repro.xmllib import ns

#: Registry sizes swept (registered hosts / documents in the collection).
SIZES = (10, 100, 1000, 5000)

PREFIXES = {"g": ns.GIAB}
HOST_INDEX_PATH = "//g:Host"
APPLICATION_INDEX_PATH = "//g:Application"

#: The applications round-robined over the corpus; queries for one of them
#: match 1/len(APPLICATIONS) of the documents.
APPLICATIONS = ("blast", "sort", "render", "align")


def build_corpus(n: int, *, indexed: bool) -> Collection:
    """A registry of ``n`` HostInfo documents on a fresh Network.

    ``indexed`` declares the host and application indexes *before* the
    inserts, so the build cost is pure incremental maintenance.
    """
    network = Network(CostModel())
    collection = Collection("hosts", network)
    if indexed:
        collection.declare_index(HOST_INDEX_PATH, PREFIXES)
        collection.declare_index(APPLICATION_INDEX_PATH, PREFIXES)
    for i in range(n):
        name = f"node{i:05d}"
        collection.insert(
            host_info(
                name,
                f"soap://{name}/Node/Exec",
                f"soap://{name}/Node/Data",
                [APPLICATIONS[i % len(APPLICATIONS)]],
            ),
            key=name,
        )
    return collection


def query_cost(collection: Collection, expression: str) -> tuple[float, int]:
    """(virtual ms, matching keys) for one ``query_keys`` call."""
    network = collection.network
    start = network.clock.now
    keys = collection.query_keys(expression, PREFIXES)
    return network.clock.now - start, len(keys)


def host_lookup(n: int) -> str:
    """A selectivity-one equality lookup present in every corpus size."""
    return f"{HOST_INDEX_PATH}[. = 'node{n // 2:05d}']"


UNINDEXABLE = "//g:Host[contains(., 'node00001')]"


def scan_cost_model(n: int, costs: CostModel | None = None) -> float:
    """What the scan path must charge for a query over ``n`` documents."""
    costs = costs if costs is not None else CostModel()
    return costs.db_query_base + costs.db_query_per_doc * n
