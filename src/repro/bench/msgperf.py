"""Wall-clock message-path throughput: memoized vs uncached (ROADMAP item 2).

Every figure in this repo reports *virtual* milliseconds; this bench is the
one place that measures the harness's own wall-clock speed.  It soaks the
paper's hardest counter configuration — X.509 signing, distributed
placement, WSRF stack — through full signed round trips and contrasts the
memoized message path (content-keyed c14n/DSig caches, interned QNames,
fragment reuse; DESIGN.md §16) against the uncached baseline obtained by
running the identical pipeline under
:func:`repro.xmllib.memo.caching_disabled`.  A second scenario measures
docs/sec over the 5k-document xmldb registry build plus a host-lookup scan.

The hard invariant — caching changes wall-clock time only — is asserted on
every run: the virtual ms per operation must be *identical* in the cached
and uncached soaks (both numbers are recorded, and ``--check`` re-verifies
them against the committed trajectory bit-for-bit, since they are pure
functions of the seeded program).  Wall-clock numbers are machine-dependent,
so the CI gate is a shape check, not a byte diff: structure must match,
cached must stay faster than uncached (no ordering flip), and throughput may
drift only within tolerance — or improve.
"""

from __future__ import annotations

import argparse
import json
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
#: ``--check`` tolerance: fresh throughput may not fall below this fraction
#: of the committed number (it may always exceed it).
CHECK_THROUGHPUT_RATIO = 0.35
#: ``--check`` floor for the freshly measured soak speedup (half the
#: acceptance floor).
CHECK_MIN_SPEEDUP = 2.5
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
    from repro.bench.xmldb import HOST_INDEX_PATH, PREFIXES, build_corpus, host_lookup

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


def run_msgperf(
    *,
    messages: int = SOAK_MESSAGES,
    baseline_messages: int = SOAK_BASELINE_MESSAGES,
    docs: int = XMLDB_DOCS,
) -> dict:
    """The full report: cached and uncached soak + xmldb, cache stats."""
    reset_cache_stats()
    soak_cached = run_soak(messages)
    stats = cache_stats()
    soak_uncached = run_soak(baseline_messages, uncached=True)
    if soak_cached["virtual_ms_per_op"] != soak_uncached["virtual_ms_per_op"]:
        raise AssertionError(
            "caching changed virtual costs: "
            f"{soak_cached['virtual_ms_per_op']} (cached) != "
            f"{soak_uncached['virtual_ms_per_op']} (uncached)"
        )
    xmldb_cached = run_xmldb(docs)
    xmldb_uncached = run_xmldb(docs, uncached=True)
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


def format_report(report: dict) -> str:
    soak = report["soak"]
    xmldb = report["xmldb"]
    lines = [
        report["title"],
        f"  soak   : {soak['cached']['messages_per_sec']:8.1f} msg/s cached  "
        f"{soak['uncached']['messages_per_sec']:7.1f} msg/s uncached  "
        f"({soak['speedup']:.1f}x, floor {soak['min_speedup']:.0f}x)",
        f"  virtual: {soak['cached']['virtual_ms_per_op']:.3f} ms/op in both modes",
        f"  xmldb  : {xmldb['cached']['docs_per_sec']:8.1f} doc/s cached  "
        f"{xmldb['uncached']['docs_per_sec']:7.1f} doc/s uncached  "
        f"({xmldb['speedup']:.2f}x)",
        "  caches :",
    ]
    for name, stats in report["cache_stats"].items():
        lines.append(f"    {name:22s} hits={stats['hits']:6d} misses={stats['misses']:5d}")
    return "\n".join(lines)


def _same_shape(committed, fresh, path="") -> list[str]:
    problems = []
    if isinstance(committed, dict):
        if not isinstance(fresh, dict) or sorted(committed) != sorted(fresh):
            problems.append(f"{path or '<root>'}: key set changed")
        else:
            for key in committed:
                problems.extend(_same_shape(committed[key], fresh[key], f"{path}.{key}"))
    elif type(committed) is not type(fresh) and not (
        isinstance(committed, (int, float)) and isinstance(fresh, (int, float))
    ):
        problems.append(f"{path}: type changed")
    return problems


def check(path: str) -> int:
    """The CI shape gate for ``results/BENCH_msgperf.json``.

    Re-measures a reduced soak and verifies against the committed file:
    identical structure, identical (deterministic) virtual costs, no
    cached/uncached ordering flip, speedup above floor, and wall-clock
    throughput within tolerance of the committed trajectory (regressions
    beyond tolerance fail; improvements never do).
    """
    with open(path, encoding="utf-8") as fh:
        committed = json.load(fh)
    fresh = run_msgperf(
        messages=SOAK_MESSAGES // 2,
        baseline_messages=SOAK_BASELINE_MESSAGES // 2,
        docs=XMLDB_DOCS // 5,
    )
    failures = _same_shape(committed, fresh)

    def fail(msg):
        failures.append(msg)

    soak_c, fresh_c = committed["soak"], fresh["soak"]
    if soak_c["speedup"] < soak_c["min_speedup"]:
        fail(f"committed soak speedup {soak_c['speedup']} below floor {soak_c['min_speedup']}")
    if fresh_c["cached"]["messages_per_sec"] <= fresh_c["uncached"]["messages_per_sec"]:
        fail("ordering flip: cached soak no faster than uncached")
    if fresh_c["speedup"] < CHECK_MIN_SPEEDUP:
        fail(f"fresh soak speedup {fresh_c['speedup']} below check floor {CHECK_MIN_SPEEDUP}")
    failures.extend(signature_cache_misses(fresh["cache_stats"]))
    floor = CHECK_THROUGHPUT_RATIO * soak_c["cached"]["messages_per_sec"]
    if fresh_c["cached"]["messages_per_sec"] < floor:
        fail(
            f"cached throughput regressed beyond tolerance: "
            f"{fresh_c['cached']['messages_per_sec']} < {floor:.1f} "
            f"({CHECK_THROUGHPUT_RATIO:.0%} of committed)"
        )
    for mode in ("cached", "uncached"):
        if fresh_c[mode]["virtual_ms_per_op"] != soak_c[mode]["virtual_ms_per_op"]:
            fail(
                f"virtual cost drifted ({mode}): committed "
                f"{soak_c[mode]['virtual_ms_per_op']}, fresh {fresh_c[mode]['virtual_ms_per_op']}"
            )
    if fresh["xmldb"]["cached"]["docs_per_sec"] <= 0:
        fail("xmldb cached throughput not positive")
    if failures:
        for problem in failures:
            print(f"msgperf check: {problem}")
        return 1
    print(
        f"msgperf check OK: fresh {fresh_c['speedup']:.1f}x "
        f"(committed {soak_c['speedup']:.1f}x, floor {soak_c['min_speedup']:.0f}x)"
    )
    return 0


def smoke() -> int:
    """Fast CI gate: cache layer delivers a speedup and leaves costs alone."""
    report = run_msgperf(messages=60, baseline_messages=10, docs=300)
    failures = []
    if report["soak"]["speedup"] < 2.0:
        failures.append(f"soak speedup {report['soak']['speedup']} < 2.0")
    if report["soak"]["cached"]["messages_per_sec"] <= report["soak"]["uncached"]["messages_per_sec"]:
        failures.append("ordering flip: cached no faster than uncached")
    hits = sum(stats["hits"] for stats in report["cache_stats"].values())
    if hits <= 0:
        failures.append("no cache hits observed in the cached soak")
    print(format_report(report))
    for problem in failures:
        print(f"msgperf smoke: {problem}")
    return 1 if failures else 0


def msgperf_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro msgperf",
        description="Wall-clock message-path throughput, memoized vs uncached",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="fast cached-vs-uncached sanity gate (CI)")
    parser.add_argument("--check", metavar="PATH",
                        help="shape-check a committed BENCH_msgperf.json (CI)")
    parser.add_argument("--messages", type=int, default=SOAK_MESSAGES)
    parser.add_argument("--baseline-messages", type=int, default=SOAK_BASELINE_MESSAGES)
    parser.add_argument("--docs", type=int, default=XMLDB_DOCS)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the report as JSON")
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke()
    if args.check:
        return check(args.check)

    report = run_msgperf(
        messages=args.messages,
        baseline_messages=args.baseline_messages,
        docs=args.docs,
    )
    print(format_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0
