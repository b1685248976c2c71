"""Wall-clock message-path throughput: memoized vs uncached (ROADMAP item 2).

Every figure in this repo reports *virtual* milliseconds; this bench is the
one place in ``src/`` that measures the harness's own wall-clock speed.  It
soaks the paper's hardest counter configuration — X.509 signing,
distributed placement, WSRF stack — through full signed round trips and
contrasts the memoized message path (content-keyed c14n/DSig caches,
interned QNames, fragment reuse; DESIGN.md §16) against the uncached
baseline obtained by running the identical pipeline under
:func:`repro.xmllib.memo.caching_disabled`.  A second scenario measures
docs/sec over the 5k-document xmldb registry build plus a host-lookup scan.

The hard invariant — caching changes wall-clock time only — is asserted on
every run: the virtual ms per operation must be *identical* in the cached
and uncached soaks.  The ``msgperf`` experiment spec records the report as
``results/BENCH_msgperf.json``; wall-clock numbers are machine-dependent,
so its gate (``gate="shape"``) re-checks the invariants and the record's
structure, never the absolute throughput.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.xmllib.memo import cache_stats, caching_disabled, clear_caches, reset_cache_stats

TITLE = "Message-path wall-clock throughput: memoized vs uncached"

#: Messages in the full cached soak / the (several times slower) uncached
#: baseline.
SOAK_MESSAGES = 400
SOAK_BASELINE_MESSAGES = 40
#: Documents in the xmldb registry sweep.
XMLDB_DOCS = 5000
#: Acceptance floor for the soak speedup, about a quarter below the lowest
#: measured ratios: each soak is a fraction of a second of wall time, so a
#: host whose CPU speed shifts between the two moves the ratio that much.
#: The uncached soak is bound by RSA signing and the cached soak signs
#: nothing after its warm-up, so the ratio tracks the cost of one
#: signature, not the caches: ``WARMUP_SIGNATURE_MISSES`` pins those.
MIN_SOAK_SPEEDUP = 5.0
#: ``dsig.sign`` and ``dsig.verify`` misses in a cached soak: the create
#: and the first Get each sign and verify one request and one response.
#: Every later message must hit both caches.
WARMUP_SIGNATURE_MISSES = 4


def signature_cache_misses(stats: dict) -> list[str]:
    """Problems if a cached soak's signature caches missed after warm-up."""
    return [
        f"{cache} missed after the warm-up ({stats[cache]['misses']} misses, "
        f"expected {WARMUP_SIGNATURE_MISSES})"
        for cache in ("dsig.sign", "dsig.verify")
        if stats[cache]["misses"] != WARMUP_SIGNATURE_MISSES
    ]


def _wall_clock() -> float:
    """The repo's one deliberate wall-clock read (baselined RPO10).

    Every other number in the repo derives from the virtual clock; this
    bench exists to measure the harness's own speed, so host entropy
    affects only the wall figures it reports.
    """
    return time.perf_counter()


def _build_rig():
    from repro.apps.counter.deploy import CounterScenario, build_wsrf_rig
    from repro.container.security import SecurityMode
    from repro.sim.costs import CostModel

    scenario = CounterScenario(
        mode=SecurityMode.X509, colocated=False, costs=CostModel()
    )
    return build_wsrf_rig(scenario)


def run_soak(messages: int, *, uncached: bool = False) -> dict:
    """Signed distributed Get round trips; wall-clock messages/sec.

    Returns wall numbers plus the virtual cost per operation, which must be
    independent of caching (``run_msgperf`` asserts it).
    """
    guard = caching_disabled() if uncached else nullcontext()
    with guard:
        if not uncached:
            clear_caches()
        rig = _build_rig()
        counter = rig.client.create()
        rig.client.get(counter)
        rig.client.get(counter)
        clock = rig.deployment.network.clock
        virtual_start = clock.now
        wall_start = _wall_clock()
        for _ in range(messages):
            rig.client.get(counter)
        wall_seconds = _wall_clock() - wall_start
        virtual_ms = clock.now - virtual_start
    return {
        "messages": messages,
        "wall_seconds": round(wall_seconds, 4),
        "messages_per_sec": round(messages / wall_seconds, 1),
        "virtual_ms_per_op": round(virtual_ms / messages, 6),
    }


def run_xmldb(docs: int, *, uncached: bool = False) -> dict:
    """Build the n-doc indexed registry and run one host-lookup query."""
    from repro.bench.xmldb import PREFIXES, build_corpus, host_lookup

    guard = caching_disabled() if uncached else nullcontext()
    with guard:
        wall_start = _wall_clock()
        collection = build_corpus(docs, indexed=True)
        matches = collection.query_keys(host_lookup(docs), PREFIXES)
        wall_seconds = _wall_clock() - wall_start
    return {
        "docs": docs,
        "wall_seconds": round(wall_seconds, 4),
        "docs_per_sec": round(docs / wall_seconds, 1),
        "lookup_matches": len(matches),
    }


def run_msgperf() -> dict:
    """The full report: cached and uncached soak + xmldb, cache stats."""
    reset_cache_stats()
    soak_cached = run_soak(SOAK_MESSAGES)
    stats = cache_stats()
    soak_uncached = run_soak(SOAK_BASELINE_MESSAGES, uncached=True)
    if soak_cached["virtual_ms_per_op"] != soak_uncached["virtual_ms_per_op"]:
        raise AssertionError(
            "caching changed virtual costs: "
            f"{soak_cached['virtual_ms_per_op']} (cached) != "
            f"{soak_uncached['virtual_ms_per_op']} (uncached)"
        )
    xmldb_cached = run_xmldb(XMLDB_DOCS)
    xmldb_uncached = run_xmldb(XMLDB_DOCS, uncached=True)
    return {
        "title": TITLE,
        "soak": {
            "scenario": "counter Get round trip: WSRF stack, X.509 signing, distributed",
            "cached": soak_cached,
            "uncached": soak_uncached,
            "speedup": round(
                soak_cached["messages_per_sec"] / soak_uncached["messages_per_sec"], 1
            ),
            "min_speedup": MIN_SOAK_SPEEDUP,
        },
        "xmldb": {
            "scenario": "indexed 5k-doc registry build + host-lookup query",
            "cached": xmldb_cached,
            "uncached": xmldb_uncached,
            "speedup": round(
                xmldb_cached["docs_per_sec"] / xmldb_uncached["docs_per_sec"], 2
            ),
        },
        "cache_stats": stats,
    }
