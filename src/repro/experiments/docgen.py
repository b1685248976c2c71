"""EXPERIMENTS.md generation from the recorded experiment runs.

The document is a pure render of ``results/experiments/*.json`` plus the
static narrative below — no measurement happens here, so regenerating it
on any machine yields identical bytes (wall-clock specs render their
*recorded* numbers).  ``python -m repro experiments --docs`` writes it;
``--check-docs`` fails when the committed file differs from the render.
"""

from __future__ import annotations

import os

from repro.bench.report import figure_to_markdown
from repro.experiments.engine import ExperimentEngine
from repro.experiments.registry import SPECS
from repro.experiments.spec import ExperimentSpec

#: Section tag shown in each heading, per spec name.
SECTION_TAGS = {
    "fig2_hello_nosec": "FIG2",
    "fig3_hello_https": "FIG3",
    "fig4_hello_x509": "FIG4",
    "fig6_giab": "FIG6",
    "scenarios_sweep": "SCEN-6",
    "spec_complexity": "TAB-SPEC",
    "brokered_messages": "MSG-BROKER",
    "scaling": "SCALE",
    "workload": "LOAD",
    "stack_switching": "SWITCH",
    "reliability_counter": "RELIAB-C",
    "reliability_giab": "RELIAB-G",
    "ablation_robustness": "ABLATE",
    "trace_spans": "TRACE",
    "xmldb_scaling": "XMLDB",
    "datagrid": "DATAGRID",
    "loadgen": "LOADGEN",
    "msgperf": "MSGPERF",
}

#: Hand-written prose per section, rendered below the measured table.
NARRATIVES = {
    "fig2_hello_nosec": """\
Paper (approx. from the chart): Get ≈ 8–15, Set ≈ 12–20, Create ≈ 25–35,
Destroy ≈ 8–15, Notify ≈ 20 (WS-Eventing) vs ≈ 35–45 (WSRF.NET); axis max 50.
Create is slowest (DB insert dominates), WSRF.NET reads/writes are faster
(write-through resource caching), WS-Eventing's persistent-TCP Notify beats
WSRF.NET's per-delivery HTTP server, and no CRUD op differs across stacks
by more than ~2.5× ("overwhelmingly equivalent ... implied performance").""",
    "fig3_hello_https": """\
Paper: same axis (max 50) as Figure 2 — "Due to socket caching, HTTPS
performance is much faster".  With TLS session resumption the per-op delta
over Figure 2 is a few ms; the cold-handshake ablation
(`tests/bench/test_paper_claims.py`) shows an uncached handshake would
add ≈ 28 ms to every call.  All Figure 2 orderings are preserved.""",
    "fig4_hello_x509": """\
Paper: 80–160 ms band, axis max 160.  Every op is ≥ 3× its no-security
time ("the overhead of the security processing is so large that the
performance differences ... fade") and the relative cross-stack gaps
shrink under signing — both asserted against the Figure 2 grid by
`tests/bench/test_paper_claims.py`.  Signatures are real RSA/PKCS#1
over exclusive-c14n bytes (2 signatures + 2 verifications per round
trip, trace-verified).

Deviation: our band sits slightly above the paper's (≈ 110–180 vs 80–160)
because we charge the same RSA cost for request and response signing;
shape unaffected.""",
    "fig6_giab": """\
Workload: the six measured client operations on a freshly-deployed,
X.509-signed VO (1 central host + 2 compute nodes), 64 KiB stage-in file.
Paper (≈): Get Available 150/250, Make Reservation 280/300, Upload
420/430, Instantiate 600/1050, Delete 150/150, Unreserve 200/(not
reported) — WS-Transfer/WSRF respectively.  The per-operation message and
signature counts (the analysis table artifact) carry the paper's reading:
"the greatest factor influencing the performance of individual operations
is the number of web service outcalls (and message signings)".

Deviation: absolute values ≈ 0.5× the paper's — their services evidently
performed more signed interactions per operation than the Figure 5 flow
strictly requires; the cross-op and cross-stack orderings all hold.""",
    "scenarios_sweep": """\
One table, 12 rows (3 security modes × 2 placements × 2 stacks) × 5
operations — the complete data behind Figures 2–4 plus §4.1.3's prose
claims: X.509 slowest everywhere, none < HTTPS < X.509 per-op, and
cross-stack gaps shrink as security cost grows.""",
    "spec_complexity": """\
The paper argues this in prose ("WS-Transfer is a less complex
specification than WSRF (in terms of the number and scope of functions
defined)"); we count the spec-defined operations each stack's
implementation carries.  WS-Transfer has exactly 4 verbs.""",
    "brokered_messages": """\
Plain Subscribe = 2 messages, 1 service; the full demand-based scenario
(register + subscribe + publish + unsubscribe) spans 5 wire endpoints
(+ the in-container PublisherRegistrationManager = 6 participating
services) — "can involve as many as six separate Web services" — and
costs "more messages ... by what we estimate to be an order of
magnitude".  Example: `examples/brokered_notification.py`.""",
    "scaling": """\
Asserted shapes: availability-query time grows with registered hosts but
sublinearly (fixed per-call overhead amortizes the per-document query
cost); Set+Notify grows linearly in subscriber count (one delivery each);
Upload grows linearly in file size (per-KB transport + signing +
filesystem costs).""",
    "workload": """\
An identical deterministic 12-job stream (mixed applications, input
sizes, run times) executed end-to-end on both stacks under X.509.  The
per-job ratio sits below Figure 6's Instantiate-Job ratio (1.73×) because
staging, job run time and cleanup are common work — the workload-level
integral of the paper's per-operation analysis, with WS-Transfer's
explicit unreserve call partially offsetting its cheaper instantiation.""",
    "stack_switching": """\
A facade service (`repro.bridge`) lets an unmodified client of one stack
drive a service of the other.  Every bridged operation pays one extra
signed hop; bridged WSRF Set is > 2.5× native (the facade must Get+Put
the backing representation because WS-Transfer has no partial update);
everything stays within an order of magnitude — switching is feasible but
never free, which is the §5 takeaway.""",
    "reliability_counter": """\
Counter notifications on both stacks across {0, 1, 5, 10}% message loss
(plus the duplication/reset/delay mix of `FaultSpec.lossy`), WS-RM armed.
Every cell's accounting ledger closes (delivered + dead-lettered ==
assigned), clean-wire cells pay zero reliability overhead, and lossy
cells pay latency for retransmission + backoff.""",
    "reliability_giab": """\
The same loss sweep over the Grid-in-a-Box job flow (X.509): every job
survives every swept loss rate under the bench retry policy, and the
ledger-closure guarantee holds end-to-end through the signed pipeline.""",
    "ablation_robustness": """\
Each load-bearing cost-model entry perturbed ±50%, headline orderings
re-checked: every cell must read 0 violations.  Create-vs-Set is excluded
by design — WS-Transfer's Set pays read+update, so "Create is slowest"
requires insert ≳ read+update (true for Xindice, flips if insert cost is
halved); that sensitivity is pinned by its own test in
`tests/bench/test_paper_claims.py` instead.""",
    "trace_spans": """\
Per-stage breakdown of one signed distributed Get per stack, from the
pipeline's TracingFilter — the Figure 1 stages made measurable.  The four
security-bearing stages outweigh pure wire time (the paper's signing
observation, visible inside a single message).  The full span trees for
Get and Notify are each cell's `get_tree` and `notify_tree` in
`results/experiments/trace_spans.json`.""",
    "xmldb_scaling": """\
Registry sizes 10/100/1000/5000 HostInfo documents: the scan path charges
the pinned `db_query_base + per_doc × N` formula, the declared secondary
index answers the same lookup O(hits) (flat across sizes, ≥ 10× cheaper
at 1000 docs), and an expression no index covers reproduces the scan
curve bit-identically — the planner's fallback guarantee.""",
    "datagrid": """\
A fixed replica-staging workload (3 registrations, 2 replications, 2
stage-ins, catalog queries) through the ReplicaCatalog/DataTransfer pair
*generated* from single `ServiceDecl`s (DESIGN.md §15), both stacks × all
six security×placement cells.  Pinned invariants: every cell/stack picks
the same replica sources (LAN beats WAN, same-site beats cross-site,
local stage-in is free), charges exactly 480 link ms, exchanges the same
messages, and leaves an identical catalog — the layered framework's
shared logic made benchmark-visible.  The security ordering matches the
hello-world figures (X.509 ≫ HTTPS > none), and the stacks sit within
0.5% of each other because the declared workload is
message-count-symmetric.  Each cell's full payload is committed in
`results/experiments/datagrid.json`; the differential fuzzer also sweeps
seeded `datagrid` programs across all six cells (`python -m repro
conformance`, seeds 200000+).""",
    "loadgen": """\
Open-loop Poisson arrivals against the discrete-event kernel (DESIGN.md
§16), 60 requests per point, X.509 distributed: p95 latency grows
superlinearly with offered load, throughput saturates at the top swept
rate, and queue depth rises — the committed trajectory is
`results/experiments/loadgen.json`.""",
    "msgperf": """\
The one wall-clock experiment (gate: shape): real elapsed time of the
signed message path with the memoization layer on vs off.  The recorded
numbers are machine-specific, so the gate never compares them with the
record; it checks that no numeric leaf appeared or vanished and re-checks
the invariants — the soak speedup floor, bit-identical virtual costs with
caching on/off, and cache hit counters (the signature caches may miss
only during the warm-up).  The committed trajectory is
`results/experiments/msgperf.json`.""",
}

HEADER = """\
# EXPERIMENTS — paper vs. measured

Record of every table/figure in the paper's evaluation and what this
reproduction measures.  Units are milliseconds for a single request; the
paper's values are wall-clock ms on its 2005 dual-Opteron testbed (read off
the bar charts, so ±), ours are **virtual ms** from the calibrated
simulation (DESIGN.md §2, §5).  Per the reproduction contract, the
comparison targets are the *shapes* — orderings, ratios, what dominates —
not absolute values.

This file is **generated** from the recorded experiment runs in
`results/experiments/` (DESIGN.md §17) — edit the specs in
`repro.experiments.registry` or the narratives in
`repro.experiments.docgen`, never this file.  Regenerate with:

```sh
python -m repro experiments --run all   # re-measure, refresh records + figure CSVs
python -m repro experiments --docs      # re-render this file from the records
```

`python -m repro experiments --check` re-runs every grid and gates it
against the records (structure, invariants, bit-identical virtual costs);
`scripts/check.sh` wires the smoke subset into CI.  All virtual-clock
numbers below are deterministic: re-running reproduces them exactly.

---
"""

CALIBRATION_NOTE = """\
---

## Calibration note

The cost model (`repro/sim/costs.py`) was back-fitted once against the
paper's charts: RSA-1024 sign 45 (WSE pipeline included), verify 3.5, TLS
handshake 28 / resume 1.8, Xindice read 5.5 / update 7 / insert 24 /
delete 5, WSRF.NET HTTP notify overhead 16 vs persistent-TCP 1.1, process
spawn 55.  Every figure above is a deterministic function of that table
plus the real serialized message sizes and real message counts; the
ABLATE experiment perturbs individual entries to show which results are
calibration-robust.  All headline orderings survive any single-entry ±50%
perturbation, with one documented exception: WS-Transfer's "Create slower
than Set" requires insert ≳ read+update (true for Xindice, flips if
insert cost is halved) — `tests/bench/test_paper_claims.py` pins that
sensitivity explicitly.
Mechanism ablations further show each paper observation disappears when
its mechanism is disabled (no cache → no Set advantage; same delivery
overhead → no Notify gap; no TLS resumption → HTTPS pays the handshake;
free crypto → the X.509 figure collapses).
"""


def render_section(spec: ExperimentSpec, record) -> str:
    gate_label = (
        "exact (bit-identical virtual ms)" if spec.gate == "exact"
        else "shape (wall-clock; structure and invariants only)"
    )
    lines = [
        f"## {SECTION_TAGS[spec.name]} — {spec.title}",
        "",
        f"Spec: `{spec.name}` ({len(record.cells)} cells; gate: {gate_label}).",
        f"Measurement: `{spec.source}`.",
        "",
    ]
    if spec.to_figure is not None:
        lines.append(figure_to_markdown(spec.figure(record)))
        lines.append("")
    if spec.invariants:
        lines.append("Invariants (re-checked by `--check`):")
        lines.extend(
            f"* `{invariant.name}` — {invariant.claim}" for invariant in spec.invariants
        )
        lines.append("")
    narrative = NARRATIVES.get(spec.name)
    if narrative:
        lines.append(narrative)
        lines.append("")
    return "\n".join(lines)


def generate(results_dir: str) -> str:
    """The full EXPERIMENTS.md text, rendered from the committed records."""
    engine = ExperimentEngine(results_dir)
    sections = [HEADER]
    for spec in SPECS:
        record = engine.load_record(spec.name)
        sections.append(render_section(spec, record))
    sections.append(CALIBRATION_NOTE)
    return "\n".join(sections)


def docs_path(results_dir: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(results_dir)), "EXPERIMENTS.md")


def write_docs(results_dir: str, path: str | None = None) -> str:
    path = path or docs_path(results_dir)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(generate(results_dir))
    return path


def check_docs(results_dir: str, path: str | None = None) -> list[str]:
    """Empty if the committed EXPERIMENTS.md matches the regenerated one."""
    path = path or docs_path(results_dir)
    expected = generate(results_dir)
    if not os.path.exists(path):
        return [f"{path} is missing; write it with `python -m repro experiments --docs`"]
    with open(path, encoding="utf-8") as fh:
        committed = fh.read()
    if committed != expected:
        return [
            f"{path} is stale: it differs from the render of "
            f"results/experiments/ — regenerate with "
            f"`python -m repro experiments --docs`"
        ]
    return []
