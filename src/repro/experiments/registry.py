"""Every experiment in the repo, declared as a spec.

One entry per paper figure or extension sweep: the axes it sweeps, the
measurement behind one cell, the shape invariants the paper claims, and
how the recorded cells render back into the committed ``results/*.csv``
/ ``BENCH_*.json`` artifacts.  ``python -m repro experiments`` runs,
prints and gates them; ``scripts/check.sh`` gates fresh runs against
the records.  Claims that span specs or need a modified cost model live
in ``tests/bench/test_paper_claims.py``.

Figure builders always impose explicit row/column orders — cell payloads
round-trip through sorted-key JSON, so insertion order is *not*
preserved by the record and must be re-imposed here to keep artifact
bytes identical to the legacy ones.
"""

from __future__ import annotations

from repro.bench import loadgen
from repro.bench.datagrid import EXPECTED_SOURCES
from repro.bench.giab import GIAB_OPS, measure_giab
from repro.bench.hello import HELLO_OPS, measure_hello_world
from repro.bench.xmldb import SIZES as XMLDB_SIZES
from repro.container.security import SecurityMode
from repro.experiments.schema import RunRecord
from repro.experiments.spec import (
    Axis,
    ExperimentSpec,
    PairOrdering,
    Predicate,
    SpecError,
)

# -- selectors ---------------------------------------------------------------


def cell_values(record: RunRecord, **selector) -> dict:
    """The values payload of the single cell matching ``selector``."""
    matches = [
        cell.values
        for cell in record.cells
        if all(cell.params.get(k) == v for k, v in selector.items())
    ]
    if len(matches) != 1:
        raise SpecError(
            f"selector {selector!r} matched {len(matches)} cells in {record.spec!r}"
        )
    return matches[0]


def _ordered(values: dict, columns) -> dict[str, float]:
    return {column: values[column] for column in columns if column in values}


# -- hello-world figures (FIG2/3/4) ------------------------------------------

_PLACEMENTS = ("colocated", "distributed")
_HELLO_STACKS = ("transfer", "wsrf")

_PLACEMENT_LABELS = {"colocated": "Co-located", "distributed": "Distributed"}
_STACK_LABELS = {"transfer": "WS-Transfer / WS-Eventing", "wsrf": "WSRF.NET"}


def _hello_label(params: dict) -> str:
    return f"{_PLACEMENT_LABELS[params['placement']]} {_STACK_LABELS[params['stack']]}"


def _measure_hello(mode: SecurityMode):
    def measure(params: dict, seed: int) -> dict:
        return measure_hello_world(
            params["stack"], mode, params["placement"] == "colocated"
        )

    return measure


def _hello_figure(record: RunRecord) -> dict:
    return {
        _hello_label(cell.params): _ordered(cell.values, HELLO_OPS)
        for cell in record.cells
    }


def _create_slowest(record: RunRecord) -> list[str]:
    problems = []
    for cell in record.cells:
        for op in ("Get", "Set", "Destroy"):
            if not cell.values["Create"] > cell.values[op]:
                problems.append(f"{cell.cell_id}: Create is not slower than {op}")
    return problems


def _hello_invariants() -> tuple:
    co = {"placement": "colocated"}
    return (
        Predicate(
            "create_slowest",
            "Create must be the slowest CRUD op in every cell",
            fn=_create_slowest,
        ),
        PairOrdering(
            "wsrf_set_cache_advantage",
            "write-through cache: co-located WSRF Set beats WS-Transfer Set",
            metric="Set",
            greater={"stack": "transfer", **co},
            lesser={"stack": "wsrf", **co},
        ),
        PairOrdering(
            "eventing_notify_cheaper",
            "TCP vs HTTP notify: co-located WS-Eventing beats WSRF",
            metric="Notify",
            greater={"stack": "wsrf", **co},
            lesser={"stack": "transfer", **co},
        ),
        PairOrdering(
            "distributed_adds_overhead",
            "distribution costs wire time on every operation",
            greater={"placement": "distributed"},
            lesser={"placement": "colocated"},
        ),
        PairOrdering(
            "distributed_bounded",
            "distribution stays under 1.5x the co-located cost",
            greater={"placement": "colocated"},
            lesser={"placement": "distributed"},
            factor=2.0 / 3.0,
        ),
    )


def _fig2_comparable(record: RunRecord) -> list[str]:
    problems = []
    wsrf = cell_values(record, stack="wsrf", placement="colocated")
    transfer = cell_values(record, stack="transfer", placement="colocated")
    for op in ("Get", "Set", "Create", "Destroy"):
        ratio = max(wsrf[op], transfer[op]) / min(wsrf[op], transfer[op])
        if not ratio < 2.5:
            problems.append(f"co-located {op} differs {ratio:.2f}x across stacks")
    return problems


def _hello_spec(name: str, title: str, mode: SecurityMode, extra=(), **kwargs):
    return ExperimentSpec(
        name=name,
        title=title,
        axes=(Axis("placement", _PLACEMENTS), Axis("stack", _HELLO_STACKS)),
        measure=_measure_hello(mode),
        invariants=_hello_invariants() + tuple(extra),
        to_figure=_hello_figure,
        config={"mode": mode.value, "ops": list(HELLO_OPS)},
        source="repro.bench.hello.measure_hello_world",
        **kwargs,
    )


FIG2 = _hello_spec(
    "fig2_hello_nosec",
    "Figure 2: Hello World, no security",
    SecurityMode.NONE,
    extra=(
        PairOrdering(
            "notify_considerably_better",
            "co-located eventing Notify under 0.75x of WSRF's",
            metric="Notify",
            greater={"stack": "wsrf", "placement": "colocated"},
            lesser={"stack": "transfer", "placement": "colocated"},
            factor=4.0 / 3.0,
        ),
        Predicate(
            "cross_stack_comparable",
            "no CRUD op differs by more than ~2.5x across stacks",
            fn=_fig2_comparable,
        ),
    ),
    smoke=True,
)

FIG3 = _hello_spec(
    "fig3_hello_https", "Figure 3: Hello World, HTTPS", SecurityMode.HTTPS
)

FIG4 = _hello_spec(
    "fig4_hello_x509", "Figure 4: Hello World, X.509 signing", SecurityMode.X509
)


# -- Figure 6: Grid-in-a-Box -------------------------------------------------

_GIAB_LABELS = {"transfer": "WS-Transfer / WS-Eventing", "wsrf": "WSRF.NET"}


def _measure_fig6(params: dict, seed: int) -> dict:
    results, traces = measure_giab(params["stack"], with_traces=True)
    return {
        "ms": results,
        "messages": {op: float(t.messages) for op, t in traces.items()},
        "signatures": {op: float(t.signatures) for op, t in traces.items()},
    }


def _fig6_figure(record: RunRecord) -> dict:
    return {
        _GIAB_LABELS[cell.params["stack"]]: _ordered(cell.values["ms"], GIAB_OPS)
        for cell in record.cells
    }


def fig6_analysis_figure(record: RunRecord) -> dict:
    figure = {}
    for cell in record.cells:
        prefix = "WS-Transfer" if cell.params["stack"] == "transfer" else "WSRF.NET"
        figure[f"{prefix} messages"] = _ordered(cell.values["messages"], GIAB_OPS)
        figure[f"{prefix} signatures"] = _ordered(cell.values["signatures"], GIAB_OPS)
    return figure


def _fig6_artifacts(record: RunRecord) -> dict[str, str]:
    from repro.bench.report import figure_to_csv, slugify

    title = "Figure 6 analysis: messages (and signatures) per operation"
    return {f"{slugify(title)}.csv": figure_to_csv(fig6_analysis_figure(record))}


def _fig6_claims(record: RunRecord) -> list[str]:
    problems = []
    wsrf = cell_values(record, stack="wsrf")
    wxf = cell_values(record, stack="transfer")
    for series in (wsrf, wxf):
        if set(series["ms"]) != set(GIAB_OPS):
            problems.append("a stack did not measure all six operations")
    for op, expected in (("Delete File", 2.0), ("Upload File", 4.0)):
        for series in (wsrf, wxf):
            if series["messages"][op] != expected:
                problems.append(f"{op} message count is not {expected:g}")
        a, b = wsrf["ms"][op], wxf["ms"][op]
        if not max(a, b) / min(a, b) < 1.3:
            problems.append(f"{op} times are not comparable across stacks")
    if not wsrf["messages"]["Instantiate Job"] > wxf["messages"]["Instantiate Job"] + 2:
        problems.append("WSRF Instantiate Job does not need several more outcalls")
    if not wsrf["ms"]["Instantiate Job"] > 1.4 * wxf["ms"]["Instantiate Job"]:
        problems.append("WSRF Instantiate Job is not >1.4x the WS-Transfer time")
    if wsrf["ms"]["Unreserve Resource"] != 0.0:
        problems.append("WSRF unreserve should be free (automatic)")
    if not wxf["ms"]["Unreserve Resource"] > 0:
        problems.append("WS-Transfer unreserve should cost time")
    ordered = sorted(wsrf["messages"], key=lambda op: wsrf["messages"][op])
    if wsrf["signatures"][ordered[0]] > wsrf["signatures"][ordered[-1]]:
        problems.append("signings do not track outcalls")
    if wsrf["signatures"]["Instantiate Job"] < 8:
        problems.append("WSRF Instantiate Job signs fewer than 8 messages")
    gap = wsrf["ms"]["Instantiate Job"] - wxf["ms"]["Instantiate Job"]
    if not gap > 100:
        problems.append("the cross-stack Instantiate gap is not design-dominated")
    return problems


FIG6 = ExperimentSpec(
    name="fig6_giab",
    title="Figure 6: Grid-in-a-Box comparison (X.509 signing)",
    axes=(Axis("stack", ("transfer", "wsrf")),),
    measure=_measure_fig6,
    invariants=(
        Predicate("giab_claims", "the §4.2.3 outcall/signing analysis", fn=_fig6_claims),
    ),
    to_figure=_fig6_figure,
    extra_artifacts=_fig6_artifacts,
    config={"mode": "x509", "ops": list(GIAB_OPS)},
    source="repro.bench.giab.measure_giab",
)


# -- six-scenario sweep ------------------------------------------------------

_MODES = ("none", "x509", "https")


def _measure_sweep(params: dict, seed: int) -> dict:
    return measure_hello_world(
        params["stack"],
        SecurityMode(params["mode"]),
        params["placement"] == "colocated",
    )


def _sweep_label(params: dict) -> str:
    placement = "co-located" if params["placement"] == "colocated" else "distributed"
    stack_name = "WSRF.NET" if params["stack"] == "wsrf" else "WS-Transfer"
    return f"{params['mode']}/{placement}/{stack_name}"


def _sweep_figure(record: RunRecord) -> dict:
    return {
        _sweep_label(cell.params): _ordered(cell.values, HELLO_OPS)
        for cell in record.cells
    }


def _sweep_security_dominates(record: RunRecord) -> list[str]:
    problems = []
    for op in ("Get", "Set"):
        base = cell_values(record, mode="none", placement="colocated", stack="transfer")
        wsrf0 = cell_values(record, mode="none", placement="colocated", stack="wsrf")
        signed = cell_values(record, mode="x509", placement="colocated", stack="transfer")
        wsrf9 = cell_values(record, mode="x509", placement="colocated", stack="wsrf")
        nosec_gap = abs(wsrf0[op] - base[op]) / base[op]
        signed_gap = abs(wsrf9[op] - signed[op]) / signed[op]
        if not signed_gap < nosec_gap:
            problems.append(f"signing did not shrink the relative {op} gap")
    return problems


SCENARIOS_SWEEP = ExperimentSpec(
    name="scenarios_sweep",
    title="Six-scenario sweep: all counter operations",
    axes=(
        Axis("mode", _MODES),
        Axis("placement", _PLACEMENTS),
        Axis("stack", _HELLO_STACKS),
    ),
    measure=_measure_sweep,
    invariants=(
        PairOrdering(
            "x509_above_none",
            "X.509 signing is the slowest scenario (vs none)",
            greater={"mode": "x509"},
            lesser={"mode": "none"},
        ),
        PairOrdering(
            "x509_above_https",
            "X.509 signing is the slowest scenario (vs https)",
            greater={"mode": "x509"},
            lesser={"mode": "https"},
        ),
        PairOrdering(
            "https_above_none_get",
            "warm HTTPS sits between none and X.509 (Get)",
            metric="Get",
            greater={"mode": "https", "placement": "colocated"},
            lesser={"mode": "none", "placement": "colocated"},
        ),
        PairOrdering(
            "https_above_none_set",
            "warm HTTPS sits between none and X.509 (Set)",
            metric="Set",
            greater={"mode": "https", "placement": "colocated"},
            lesser={"mode": "none", "placement": "colocated"},
        ),
        Predicate(
            "security_dominates",
            "signing shrinks the percentage-wise stack gaps",
            fn=_sweep_security_dominates,
        ),
    ),
    to_figure=_sweep_figure,
    config={"ops": list(HELLO_OPS)},
    source="repro.bench.hello.measure_hello_world",
)


# -- spec complexity ---------------------------------------------------------

_WSRF_SPEC_COLUMNS = (
    "WS-ResourceProperties",
    "WS-ResourceLifetime",
    "WS-ServiceGroup",
    "WS-BaseNotification",
    "WS-BrokeredNotification",
    "total",
)
_TRANSFER_SPEC_COLUMNS = ("WS-Transfer", "WS-Eventing", "total")


def _count_actions(actions_class) -> int:
    return sum(
        1 for name, value in vars(actions_class).items()
        if not name.startswith("_") and isinstance(value, str)
    )


def _measure_spec_complexity(params: dict, seed: int) -> dict:
    from repro.eventing.source import actions as wse_actions
    from repro.transfer.service import actions as wxf_actions
    from repro.wsn.base import actions as wsnt_actions
    from repro.wsn.broker import actions as wsbr_actions
    from repro.wsrf.lifetime import actions as rl_actions
    from repro.wsrf.properties import actions as rp_actions
    from repro.wsrf.servicegroup import actions as sg_actions

    if params["stack"] == "wsrf":
        specs = {
            "WS-ResourceProperties": _count_actions(rp_actions),
            "WS-ResourceLifetime": _count_actions(rl_actions),
            "WS-ServiceGroup": _count_actions(sg_actions),
            "WS-BaseNotification": _count_actions(wsnt_actions),
            "WS-BrokeredNotification": _count_actions(wsbr_actions),
        }
    else:
        specs = {
            "WS-Transfer": _count_actions(wxf_actions),
            # SUBSCRIPTION_END is an event, not an operation clients invoke.
            "WS-Eventing": _count_actions(wse_actions) - 1,
        }
    row = {name: float(count) for name, count in specs.items()}
    row["total"] = float(sum(specs.values()))
    return row


def _spec_complexity_figure(record: RunRecord) -> dict:
    return {
        "WSRF / WS-Notification": _ordered(
            cell_values(record, stack="wsrf"), _WSRF_SPEC_COLUMNS
        ),
        "WS-Transfer / WS-Eventing": _ordered(
            cell_values(record, stack="transfer"), _TRANSFER_SPEC_COLUMNS
        ),
    }


def _spec_complexity_counts(record: RunRecord) -> list[str]:
    problems = []
    transfer = cell_values(record, stack="transfer")
    wsrf = cell_values(record, stack="wsrf")
    for name, expected in (
        ("WS-Transfer", 4.0), ("WS-Eventing", 4.0),
    ):
        if transfer[name] != expected:
            problems.append(f"{name} should define {expected:g} operations")
    for name, expected in (
        ("WS-ResourceProperties", 4.0), ("WS-ResourceLifetime", 2.0),
    ):
        if wsrf[name] != expected:
            problems.append(f"{name} should define {expected:g} operations")
    return problems


def _spec_complexity_totals(record: RunRecord) -> list[str]:
    return [
        f"{cell.cell_id}: total {cell.values['total']:g} is not the sum of its parts"
        for cell in record.cells
        if cell.values["total"]
        != sum(v for name, v in cell.values.items() if name != "total")
    ]


SPEC_COMPLEXITY = ExperimentSpec(
    name="spec_complexity",
    title="Spec complexity: operations defined per stack",
    axes=(Axis("stack", ("wsrf", "transfer")),),
    measure=_measure_spec_complexity,
    invariants=(
        PairOrdering(
            "wsrf_defines_more",
            "the WSRF stack carries the larger specification set",
            metric="total",
            greater={"stack": "wsrf"},
            lesser={"stack": "transfer"},
        ),
        Predicate(
            "per_spec_counts",
            "the per-specification operation counts",
            fn=_spec_complexity_counts,
        ),
        Predicate(
            "totals_sum_parts",
            "each stack's total is the sum of its per-specification counts",
            fn=_spec_complexity_totals,
        ),
    ),
    to_figure=_spec_complexity_figure,
    source="repro.experiments.registry._measure_spec_complexity",
    smoke=True,
)


# -- brokered notification ---------------------------------------------------

_BROKERED_COLUMNS = ("messages", "services", "virtual ms")


def _measure_brokered(params: dict, seed: int) -> dict:
    from repro.bench.brokered import measure_brokered

    return measure_brokered()


def _brokered_row(values: dict) -> dict[str, float]:
    return {
        "messages": values["messages"],
        "services": values["services"],
        "virtual ms": values["virtual_ms"],
    }


def _brokered_figure(record: RunRecord) -> dict:
    values = cell_values(record, workload="brokered")
    return {
        "plain Subscribe": _brokered_row(values["plain"]),
        "demand-based scenario": _brokered_row(values["demand"]),
    }


def _brokered_claims(record: RunRecord) -> list[str]:
    problems = []
    values = cell_values(record, workload="brokered")
    plain, demand = values["plain"], values["demand"]
    if not demand["messages"] >= 5 * plain["messages"]:
        problems.append("demand scenario is not >=5x the plain message count")
    if not demand["services"] >= 4:
        problems.append("demand scenario touched fewer than 4 services")
    if plain["services"] != 1:
        problems.append("plain Subscribe touched more than one service")
    return problems


def _brokered_time(record: RunRecord) -> list[str]:
    values = cell_values(record, workload="brokered")
    if values["demand"]["virtual_ms"] > values["plain"]["virtual_ms"]:
        return []
    return ["the demand scenario is no slower than a plain Subscribe"]


BROKERED = ExperimentSpec(
    name="brokered_messages",
    title="Brokered-notification message counts (per §3.1 scenario)",
    axes=(Axis("workload", ("brokered",)),),
    measure=_measure_brokered,
    invariants=(
        Predicate("brokered_claims", "§3.1's message-explosion claims", fn=_brokered_claims),
        Predicate(
            "demand_costs_more_time",
            "the demand scenario costs more virtual time than a plain Subscribe",
            fn=_brokered_time,
        ),
    ),
    to_figure=_brokered_figure,
    source="repro.bench.brokered.measure_brokered",
    smoke=True,
)


# -- scaling characterization ------------------------------------------------

_SCALING_SIZES = {
    "hosts": (2, 8, 32),
    "subscribers": (1, 4, 16),
    "kib": (16, 64, 256),
}
_SCALING_LABELS = {
    "hosts": "GetAvailableResources vs hosts",
    "subscribers": "Set+Notify vs subscribers",
    "kib": "UploadFile vs KiB",
}


def _availability_time(n_hosts: int) -> float:
    from repro.apps.giab import build_wsrf_vo
    from repro.bench.runner import measure_virtual

    hosts = {f"node{i:03d}": ["sort"] for i in range(n_hosts)}
    vo = build_wsrf_vo(mode=SecurityMode.NONE, hosts=hosts)
    vo.client.get_available_resources("sort")  # warm caches
    return measure_virtual(
        vo.deployment, "avail", lambda: vo.client.get_available_resources("sort")
    ).elapsed_ms


def _fanout_time(n_subscribers: int) -> float:
    from repro.apps.counter.deploy import CounterScenario, build_wsrf_rig
    from repro.bench.runner import measure_virtual
    from repro.wsn import NotificationConsumer

    rig = build_wsrf_rig(CounterScenario())
    counter = rig.client.create(0)
    for _ in range(n_subscribers):
        consumer = NotificationConsumer(rig.deployment, "client")
        rig.client.subscribe(counter, consumer)
    return measure_virtual(
        rig.deployment, "set+notify", lambda: rig.client.set(counter, 1)
    ).elapsed_ms


def _upload_time(n_kb: int) -> float:
    from repro.apps.giab import build_wsrf_vo
    from repro.bench.runner import measure_virtual

    vo = build_wsrf_vo(mode=SecurityMode.NONE)
    vo.client.make_reservation("node1")
    directory = vo.client.create_data_directory(vo.nodes["node1"].data_service.address)
    payload = "x" * (n_kb * 1024)
    return measure_virtual(
        vo.deployment, "upload", lambda: vo.client.upload_file(directory, "f", payload)
    ).elapsed_ms


_SCALING_MEASURES = {
    "hosts": _availability_time,
    "subscribers": _fanout_time,
    "kib": _upload_time,
}


def _measure_scaling(params: dict, seed: int) -> dict:
    series = params["series"]
    measure = _SCALING_MEASURES[series]
    return {str(n): measure(n) for n in _SCALING_SIZES[series]}


def _scaling_figure(record: RunRecord) -> dict:
    return {
        _SCALING_LABELS[cell.params["series"]]: _ordered(
            cell.values, tuple(str(n) for n in _SCALING_SIZES[cell.params["series"]])
        )
        for cell in record.cells
    }


def _scaling_shapes(record: RunRecord) -> list[str]:
    problems = []
    hosts = cell_values(record, series="hosts")
    if not hosts["2"] < hosts["8"] < hosts["32"]:
        problems.append("availability time is not monotone in hosts")
    if not hosts["32"] < 16 * hosts["2"]:
        problems.append("availability grows superlinearly (overheads not amortized)")
    subs = cell_values(record, series="subscribers")
    if not subs["1"] < subs["4"] < subs["16"]:
        problems.append("fan-out time is not monotone in subscribers")
    per_sub_4 = (subs["4"] - subs["1"]) / 3
    per_sub_16 = (subs["16"] - subs["4"]) / 12
    if abs(per_sub_16 - per_sub_4) > 0.5 * abs(per_sub_4):
        problems.append("fan-out is not linear per subscriber")
    kib = cell_values(record, series="kib")
    if not kib["16"] < kib["64"] < kib["256"]:
        problems.append("upload time is not monotone in size")
    slope_low = (kib["64"] - kib["16"]) / (64 - 16)
    slope_high = (kib["256"] - kib["64"]) / (256 - 64)
    if abs(slope_high - slope_low) > 0.3 * abs(slope_low):
        problems.append("upload cost is not linear in size")
    return problems


SCALING = ExperimentSpec(
    name="scaling",
    title="Scaling characterization (virtual ms)",
    axes=(Axis("series", ("hosts", "subscribers", "kib")),),
    measure=_measure_scaling,
    invariants=(
        Predicate("scaling_shapes", "monotone growth with the right slopes", fn=_scaling_shapes),
    ),
    to_figure=_scaling_figure,
    config={"sizes": {k: list(v) for k, v in _SCALING_SIZES.items()}},
    source="repro.experiments.registry._measure_scaling",
)


# -- workload comparison -----------------------------------------------------

_WORKLOAD_COLUMNS = ("jobs", "virtual ms", "ms/job", "messages")


def _measure_workload(params: dict, seed: int) -> dict:
    from repro.bench.workload import (
        GridWorkload,
        run_workload_transfer,
        run_workload_wsrf,
    )

    workload = GridWorkload(seed=7, n_jobs=12)
    runner = run_workload_wsrf if params["stack"] == "wsrf" else run_workload_transfer
    result = runner(workload)
    return {
        "jobs": float(result.completed),
        "virtual ms": result.virtual_ms,
        "ms/job": result.ms_per_job,
        "messages": float(result.messages),
        "skipped": float(result.skipped_no_resource),
    }


def _workload_figure(record: RunRecord) -> dict:
    return {
        _STACK_LABELS[cell.params["stack"]]: _ordered(cell.values, _WORKLOAD_COLUMNS)
        for cell in record.cells
    }


def _workload_claims(record: RunRecord) -> list[str]:
    problems = []
    wsrf = cell_values(record, stack="wsrf")
    transfer = cell_values(record, stack="transfer")
    for label, values in (("wsrf", wsrf), ("transfer", transfer)):
        if values["jobs"] != 12.0:
            problems.append(f"{label} did not complete all 12 jobs")
    if wsrf["skipped"] != 0.0:
        problems.append("wsrf skipped jobs for lack of resources")
    ratio = wsrf["ms/job"] / transfer["ms/job"]
    if not 1.0 < ratio < 1.73:
        problems.append(
            f"per-job ratio {ratio:.3f} outside (1.0, 1.73): the gap should "
            f"narrow below the Figure 6 instantiate ratio but not vanish"
        )
    return problems


WORKLOAD = ExperimentSpec(
    name="workload",
    title="Workload comparison: 12-job synthetic stream (X.509)",
    axes=(Axis("stack", ("transfer", "wsrf")),),
    measure=_measure_workload,
    invariants=(
        PairOrdering(
            "wsrf_costs_more_messages",
            "WSRF's extra out-calls persist at workload level",
            metric="messages",
            greater={"stack": "wsrf"},
            lesser={"stack": "transfer"},
        ),
        Predicate("workload_claims", "completion and the diluted per-job gap", fn=_workload_claims),
    ),
    to_figure=_workload_figure,
    config={"seed": 7, "n_jobs": 12, "mode": "x509"},
    source="repro.bench.workload.run_workload_wsrf",
)


# -- stack switching ---------------------------------------------------------

_SWITCH_OPS = ("Get", "Set", "Create", "Destroy")


def _measure_switching(params: dict, seed: int) -> dict:
    from repro.bench.switching import measure_route

    return measure_route(params["route"])


def _switching_figure(record: RunRecord) -> dict:
    from repro.bench.switching import ROUTES

    labels = dict(ROUTES)
    return {
        labels[cell.params["route"]]: _ordered(cell.values, _SWITCH_OPS)
        for cell in record.cells
    }


def _switch_orderings() -> tuple:
    orderings = []
    for native, bridged in (
        ("native_wsrf", "bridged_wsrf"),
        ("native_transfer", "bridged_transfer"),
    ):
        orderings.append(
            PairOrdering(
                f"{bridged}_costs_more",
                "the facade indirection always costs time",
                greater={"route": bridged},
                lesser={"route": native},
            )
        )
        orderings.append(
            PairOrdering(
                f"{bridged}_within_10x",
                "switching is expensive but feasible (§5)",
                greater={"route": native},
                lesser={"route": bridged},
                factor=0.1,
            )
        )
    orderings.append(
        PairOrdering(
            "bridged_set_worst_case",
            "the WSRF→Transfer Set pays Get+Put on the backing service",
            metric="Set",
            greater={"route": "bridged_wsrf"},
            lesser={"route": "native_wsrf"},
            factor=2.5,
        )
    )
    return tuple(orderings)


STACK_SWITCHING = ExperimentSpec(
    name="stack_switching",
    title="Stack switching: native vs bridged operation cost",
    axes=(
        Axis("route", ("native_wsrf", "bridged_wsrf", "native_transfer", "bridged_transfer")),
    ),
    measure=_measure_switching,
    invariants=_switch_orderings(),
    to_figure=_switching_figure,
    source="repro.bench.switching.measure_route",
)


# -- reliability sweeps ------------------------------------------------------

_RELIABILITY_LABELS = {"wsrf": "WSRF.NET", "transfer": "WS-Transfer"}
_RELIABILITY_COLUMNS = (
    "virtual ms", "overhead x", "delivered", "retransmits",
    "dup suppressed", "dead-lettered",
)


def _reliability_values(result) -> dict:
    return {
        "virtual_ms": result.virtual_ms,
        "operations": result.operations,
        "completed": result.completed,
        "notifications_delivered": result.notifications_delivered,
        "notification_retransmissions": result.notification_retransmissions,
        "notifications_dead_lettered": result.notifications_dead_lettered,
        "notifications_assigned": result.notifications_assigned,
        "duplicates_suppressed": result.duplicates_suppressed,
        "requests_delivered": result.requests_delivered,
        "request_retransmissions": result.request_retransmissions,
        "dead_letters_total": result.dead_letters_total,
        "messages_lost": result.messages_lost,
        "messages_duplicated": result.messages_duplicated,
        "connections_reset": result.connections_reset,
    }


def _measure_reliability(workload: str):
    def measure(params: dict, seed: int) -> dict:
        from repro.bench.reliability import (
            run_counter_reliability,
            run_giab_reliability,
        )

        runner = run_counter_reliability if workload == "counter" else run_giab_reliability
        return _reliability_values(runner(params["stack"], params["loss_rate"]))

    return measure


def _reliability_figure(record: RunRecord) -> dict:
    clean = {
        stack: cell_values(record, stack=stack, loss_rate=0.0)["virtual_ms"]
        for stack in _RELIABILITY_LABELS
    }
    figure = {}
    for cell in record.cells:
        stack, rate = cell.params["stack"], cell.params["loss_rate"]
        values = cell.values
        figure[f"{_RELIABILITY_LABELS[stack]} @ {rate:.0%} loss"] = {
            "virtual ms": values["virtual_ms"],
            "overhead x": values["virtual_ms"] / clean[stack],
            "delivered": float(values["notifications_delivered"]),
            "retransmits": float(
                values["notification_retransmissions"]
                + values["request_retransmissions"]
            ),
            "dup suppressed": float(values["duplicates_suppressed"]),
            "dead-lettered": float(values["dead_letters_total"]),
        }
    return figure


def _reliability_claims(record: RunRecord) -> list[str]:
    problems = []
    for cell in record.cells:
        v = cell.values
        if v["notifications_delivered"] + v["notifications_dead_lettered"] != v["notifications_assigned"]:
            problems.append(f"{cell.cell_id}: the accounting ledger does not close")
        undelivered = v["notifications_assigned"] - v["notifications_delivered"]
        if undelivered > v["dead_letters_total"]:
            problems.append(f"{cell.cell_id}: undelivered messages escaped the dead-letter log")
        if v["completed"] != v["operations"]:
            problems.append(f"{cell.cell_id}: an operation did not survive the loss rate")
    for stack in _RELIABILITY_LABELS:
        clean = cell_values(record, stack=stack, loss_rate=0.0)
        for field in (
            "notification_retransmissions", "request_retransmissions",
            "duplicates_suppressed", "dead_letters_total",
        ):
            if clean[field] != 0:
                problems.append(f"{stack}: clean wire shows reliability overhead ({field})")
        for rate in (0.05, 0.10):
            lossy = cell_values(record, stack=stack, loss_rate=rate)
            total = (
                lossy["notification_retransmissions"]
                + lossy["request_retransmissions"]
            )
            if total <= 0:
                problems.append(f"{stack} @ {rate:.0%}: no retransmissions under heavy loss")
    worst = cell_values(record, stack="wsrf", loss_rate=0.10)
    if worst["messages_lost"] + worst["connections_reset"] <= 0:
        problems.append("the fault injector never actually misbehaved")
    return problems


def _loss_orderings() -> tuple:
    return tuple(
        PairOrdering(
            f"loss_{rate:g}_costs_latency",
            "retransmission + backoff make a lossy wire slower",
            metric="virtual_ms",
            greater={"loss_rate": rate},
            lesser={"loss_rate": 0.0},
        )
        for rate in (0.01, 0.05, 0.10)
    )


def _reliability_spec(name: str, title: str, workload: str) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        title=title,
        axes=(
            Axis("stack", ("wsrf", "transfer")),
            Axis("loss_rate", (0.0, 0.01, 0.05, 0.10)),
        ),
        measure=_measure_reliability(workload),
        invariants=_loss_orderings() + (
            Predicate("reliability_claims", "ledger closure and retry behavior", fn=_reliability_claims),
        ),
        to_figure=_reliability_figure,
        config={"workload": workload, "policy": "RetryPolicy(max_attempts=5, base_backoff_ms=20, jitter_ms=4)"},
        source=f"repro.bench.reliability.run_{workload}_reliability",
    )


RELIABILITY_COUNTER = _reliability_spec(
    "reliability_counter", "Reliability: counter notifications under loss", "counter"
)
RELIABILITY_GIAB = _reliability_spec(
    "reliability_giab", "Reliability: GiaB job flow under loss (X.509)", "giab"
)


# -- calibration robustness --------------------------------------------------


def _measure_ablation(params: dict, seed: int) -> dict:
    from repro.bench.ablation import perturbation_row

    return perturbation_row(params["entry"])


def _ablation_figure(record: RunRecord) -> dict:
    return {
        cell.params["entry"]: _ordered(cell.values, ("x0.5", "x1.5"))
        for cell in record.cells
    }


def _ablation_clean(record: RunRecord) -> list[str]:
    return [
        f"{cell.cell_id}: {column} perturbation broke {cell.values[column]:g} orderings"
        for cell in record.cells
        for column in ("x0.5", "x1.5")
        if cell.values[column] != 0.0
    ]


def _ablation_spec() -> ExperimentSpec:
    from repro.bench.ablation import PERTURBED_ENTRIES

    return ExperimentSpec(
        name="ablation_robustness",
        title="Calibration robustness: ordering violations per perturbation",
        axes=(Axis("entry", PERTURBED_ENTRIES),),
        measure=_measure_ablation,
        invariants=(
            Predicate(
                "orderings_survive",
                "±50% on any one entry breaks no headline ordering",
                fn=_ablation_clean,
            ),
        ),
        to_figure=_ablation_figure,
        config={"factors": [0.5, 1.5]},
        source="repro.bench.ablation.perturbation_row",
    )


ABLATION = _ablation_spec()


# -- trace spans -------------------------------------------------------------

TRACE_STAGES = (
    "client.send", "wire.request", "server.receive", "dispatch",
    "server.send", "wire.response", "client.receive",
)


def _measure_trace(params: dict, seed: int) -> dict:
    from repro.bench.trace import stage_breakdown, trace_round_trip

    trees = trace_round_trip(params["stack"], SecurityMode.X509)
    return {
        "stages": stage_breakdown(trees["Get"]),
        "get_tree": trees["Get"].to_dict(),
        "notify_tree": trees["Notify"].to_dict(),
    }


def _trace_figure(record: RunRecord) -> dict:
    return {
        _STACK_LABELS[cell.params["stack"]]: _ordered(
            cell.values["stages"], TRACE_STAGES
        )
        for cell in record.cells
    }


def _span_dict_rows(label: str, node: dict, depth: int, lines: list[str]) -> None:
    lines.append(
        f"{label},{depth},{node['name']},{node['started_at']:.3f},"
        f"{node['ended_at']:.3f},{node['elapsed_ms']:.3f},{node.get('detail', '')}"
    )
    for child in node["children"]:
        _span_dict_rows(label, child, depth + 1, lines)


def _trace_artifacts(record: RunRecord) -> dict[str, str]:
    import json

    lines = ["series,depth,span,started_at,ended_at,elapsed_ms,detail"]
    trees: dict[str, dict] = {}
    for cell in record.cells:
        label = _STACK_LABELS[cell.params["stack"]]
        trees[label] = {
            "Get": cell.values["get_tree"],
            "Notify": cell.values["notify_tree"],
        }
        for op in ("Get", "Notify"):
            _span_dict_rows(f"{label}/{op}", trees[label][op], 0, lines)
    return {
        "trace_spans_x509.csv": "\n".join(lines) + "\n",
        "trace_spans_x509.json": json.dumps(trees, indent=2, sort_keys=True),
    }


def _span_names(node: dict) -> set[str]:
    names = {node["name"]}
    for child in node["children"]:
        names |= _span_names(child)
    return names


def _trace_claims(record: RunRecord) -> list[str]:
    problems = []
    for cell in record.cells:
        stages = cell.values["stages"]
        if tuple(_ordered(stages, TRACE_STAGES)) != TRACE_STAGES:
            problems.append(f"{cell.cell_id}: a Figure-1 stage is missing")
        root = cell.values["get_tree"]
        total = sum(child["elapsed_ms"] for child in root["children"])
        if abs(total - root["elapsed_ms"]) > 1e-9:
            problems.append(f"{cell.cell_id}: stages do not partition the round trip")
        security = (
            stages["client.send"] + stages["server.receive"]
            + stages["server.send"] + stages["client.receive"]
        )
        wire = stages["wire.request"] + stages["wire.response"]
        if not security > wire:
            problems.append(f"{cell.cell_id}: security stages do not outweigh wire time")
        needed = {"notify.deliver", "notify.send", "wire.notify", "notify.receive"}
        if not needed <= _span_names(cell.values["notify_tree"]):
            problems.append(f"{cell.cell_id}: the Notify tree is missing stages")
    return problems


TRACE_SPANS = ExperimentSpec(
    name="trace_spans",
    title="Trace spans: signed distributed Get per stage",
    axes=(Axis("stack", ("transfer", "wsrf")),),
    measure=_measure_trace,
    invariants=(
        Predicate("trace_claims", "stage coverage, partition and security weight", fn=_trace_claims),
    ),
    to_figure=_trace_figure,
    extra_artifacts=_trace_artifacts,
    config={"mode": "x509", "stages": list(TRACE_STAGES)},
    source="repro.bench.trace.trace_round_trip",
)


# -- XML DB scaling ----------------------------------------------------------

_XMLDB_ROWS = (
    ("scan host lookup", "scan"),
    ("indexed host lookup", "indexed"),
    ("unindexable (falls back to scan)", "fallback"),
    ("scan / indexed speedup ×", "speedup"),
)


def _measure_xmldb(params: dict, seed: int) -> dict:
    from repro.bench.xmldb import (
        UNINDEXABLE,
        build_corpus,
        host_lookup,
        query_cost,
    )

    n = params["size"]
    plain = build_corpus(n, indexed=False)
    fast = build_corpus(n, indexed=True)
    scan, scan_hits = query_cost(plain, host_lookup(n))
    indexed, indexed_hits = query_cost(fast, host_lookup(n))
    fallback, _hits = query_cost(fast, UNINDEXABLE)
    return {
        "scan": scan,
        "indexed": indexed,
        "fallback": fallback,
        "speedup": scan / indexed,
        "scan_hits": scan_hits,
        "indexed_hits": indexed_hits,
    }


def _xmldb_figure(record: RunRecord) -> dict:
    return {
        row_label: {
            str(cell.params["size"]): cell.values[key] for cell in record.cells
        }
        for row_label, key in _XMLDB_ROWS
    }


def _xmldb_artifacts(record: RunRecord) -> dict[str, str]:
    import json

    from repro.bench.report import figure_to_csv

    table = _xmldb_figure(record)
    return {
        "xmldb_scaling.csv": figure_to_csv(table),
        "xmldb_scaling.json": json.dumps(table, indent=2, sort_keys=True) + "\n",
    }


def _xmldb_claims(record: RunRecord) -> list[str]:
    from repro.bench.xmldb import scan_cost_model

    problems = []
    for cell in record.cells:
        n, v = cell.params["size"], cell.values
        if abs(v["scan"] - scan_cost_model(n)) > 1e-6:
            problems.append(f"size={n}: the scan path left the pinned cost formula")
        if abs(v["fallback"] - v["scan"]) > 1e-9:
            problems.append(f"size={n}: the planner fallback does not reproduce the scan curve")
        if v["scan_hits"] != 1 or v["indexed_hits"] != 1:
            problems.append(f"size={n}: the host lookup should match exactly one document")
    indexed = [cell.values["indexed"] for cell in record.cells]
    if max(indexed) - min(indexed) >= 0.5:
        problems.append("indexed lookup cost is not flat across corpus sizes")
    at_1000 = cell_values(record, size=1000)
    if at_1000["scan"] < 10 * at_1000["indexed"]:
        problems.append("the index is not >=10x cheaper at 1000 documents")
    return problems


XMLDB_SCALING = ExperimentSpec(
    name="xmldb_scaling",
    title="XML DB scaling: indexed query vs collection scan",
    axes=(Axis("size", XMLDB_SIZES),),
    measure=_measure_xmldb,
    invariants=(
        Predicate("xmldb_claims", "cost formula, flat index and planner fallback", fn=_xmldb_claims),
    ),
    to_figure=_xmldb_figure,
    extra_artifacts=_xmldb_artifacts,
    source="repro.bench.xmldb.query_cost",
)


# -- datagrid replica staging ------------------------------------------------

_DATAGRID_STACKS = ("wsrf", "transfer")


def _measure_datagrid(params: dict, seed: int) -> dict:
    from repro.apps.datagrid import DatagridScenario
    from repro.bench.datagrid import run_staging

    scenario = DatagridScenario(
        SecurityMode(params["mode"]), params["placement"] == "co-located"
    )
    return run_staging(params["stack"], scenario)


def _datagrid_cells(record: RunRecord) -> dict[str, dict[str, dict]]:
    """Record cells regrouped as the legacy ``cells`` nesting, in the
    ``DatagridScenario.all_six()`` row order."""
    cells: dict[str, dict[str, dict]] = {}
    for mode in _MODES:
        for placement in ("co-located", "distributed"):
            label = f"{placement}/{mode}"
            cells[label] = {
                stack: cell_values(
                    record, mode=mode, placement=placement, stack=stack
                )
                for stack in _DATAGRID_STACKS
            }
    return cells


def _datagrid_figure(record: RunRecord) -> dict:
    return {
        label: {stack: row["virtual_ms"] for stack, row in stacks.items()}
        for label, stacks in _datagrid_cells(record).items()
    }


def _datagrid_artifacts(record: RunRecord) -> dict[str, str]:
    from repro.experiments.schema import dumps_canonical

    report = {"config": dict(record.config), "cells": _datagrid_cells(record)}
    return {"BENCH_datagrid.json": dumps_canonical(report)}


def _datagrid_claims(record: RunRecord) -> list[str]:
    problems = []
    for cell in record.cells:
        row = cell.values
        if row["sources"] != EXPECTED_SOURCES:
            problems.append(f"{cell.cell_id}: the shared logic picked different sources")
        if row["link_ms"] != 480.0:
            problems.append(f"{cell.cell_id}: link charges moved off the topology-only 480ms")
        if row["events_replicas"] != ["se1.cern", "se1.fnal", "se2.cern"]:
            problems.append(f"{cell.cell_id}: catalog replica state diverged")
        if row["se1.cern_files"] != ["lfn:calib", "lfn:events"]:
            problems.append(f"{cell.cell_id}: catalog file state diverged")
    for label, stacks in _datagrid_cells(record).items():
        if len({row["messages"] for row in stacks.values()}) != 1:
            problems.append(f"{label}: message counts differ across stacks")
    return problems


DATAGRID = ExperimentSpec(
    name="datagrid",
    title="Datagrid replica staging (virtual ms per cell)",
    axes=(
        Axis("mode", _MODES),
        Axis("placement", ("co-located", "distributed")),
        Axis("stack", _DATAGRID_STACKS),
    ),
    measure=_measure_datagrid,
    invariants=(
        PairOrdering(
            "x509_above_https",
            "signing costs dominate the staging wire time",
            metric="virtual_ms",
            greater={"mode": "x509", "placement": "co-located"},
            lesser={"mode": "https", "placement": "co-located"},
        ),
        PairOrdering(
            "https_above_none",
            "TLS still costs more than a bare wire",
            metric="virtual_ms",
            greater={"mode": "https", "placement": "co-located"},
            lesser={"mode": "none", "placement": "co-located"},
        ),
        PairOrdering(
            "distributed_adds_wire_time",
            "distribution adds wire time in every mode",
            metric="virtual_ms",
            greater={"placement": "distributed"},
            lesser={"placement": "co-located"},
        ),
        Predicate("shared_logic", "identical decisions and charges everywhere", fn=_datagrid_claims),
    ),
    to_figure=_datagrid_figure,
    extra_artifacts=_datagrid_artifacts,
    config={
        "workload": "replica staging",
        "registrations": 3,
        "replications": 2,
        "stage_ins": 2,
        "expected_sources": EXPECTED_SOURCES,
    },
    source="repro.bench.datagrid.run_staging",
)


# -- open-loop load ----------------------------------------------------------

_LOADGEN_RATES = loadgen.BENCH_RATES


def _measure_loadgen(params: dict, seed: int) -> dict:
    return loadgen.run_load(params["stack"], rate_per_sec=params["rate"]).summary()


def _loadgen_figure(record: RunRecord) -> dict:
    figure: dict[str, dict[str, float]] = {}
    for stack in _DATAGRID_STACKS:
        figure[stack] = {}
        for rate in _LOADGEN_RATES:
            values = cell_values(record, stack=stack, rate=rate)
            figure[stack][f"{values['offered_per_sec']:g}/s"] = values["latency"]["p95_ms"]
    return figure


def _loadgen_artifacts(record: RunRecord) -> dict[str, str]:
    from repro.experiments.schema import dumps_canonical

    report = {
        "title": "Open-loop counter load: offered load vs latency (X.509, distributed)",
        "config": dict(record.config),
        "stacks": {
            stack: [
                cell_values(record, stack=stack, rate=rate)
                for rate in _LOADGEN_RATES
            ]
            for stack in _DATAGRID_STACKS
        },
    }
    return {"BENCH_loadgen.json": dumps_canonical(report)}


def _loadgen_claims(record: RunRecord) -> list[str]:
    problems = []
    n = record.config["requests_per_point"]
    for cell in record.cells:
        v = cell.values
        if v["completed"] + v["rejected"] + v["failed"] != n:
            problems.append(f"{cell.cell_id}: a request went unaccounted for")
        if v["failed"] != 0:
            problems.append(f"{cell.cell_id}: requests failed outright")
    for stack in _DATAGRID_STACKS:
        rows = [cell_values(record, stack=stack, rate=rate) for rate in _LOADGEN_RATES]
        mid, top = rows[-2], rows[-1]
        if top["throughput_per_sec"] >= 1.5 * mid["throughput_per_sec"]:
            problems.append(f"{stack}: throughput did not saturate at the top rate")
        depths = [max(row["max_queue_depth"].values()) for row in rows]
        if depths[-1] <= depths[0]:
            problems.append(f"{stack}: queue depth did not rise with load")
        if rows[-1]["queueing"]["p95_ms"] <= 0:
            problems.append(f"{stack}: no queueing delay under saturation")
    return problems


LOADGEN = ExperimentSpec(
    name="loadgen",
    title="Open-loop load: offered load vs p95 latency (X.509, distributed)",
    axes=(
        Axis("stack", _DATAGRID_STACKS),
        Axis("rate", _LOADGEN_RATES),
    ),
    measure=_measure_loadgen,
    invariants=(
        PairOrdering(
            "p95_grows_20_over_10",
            "open loop: more offered load lengthens the queue",
            metric="latency.p95_ms",
            greater={"rate": 20.0},
            lesser={"rate": 10.0},
        ),
        PairOrdering(
            "p95_grows_40_over_20",
            "open loop: more offered load lengthens the queue",
            metric="latency.p95_ms",
            greater={"rate": 40.0},
            lesser={"rate": 20.0},
        ),
        PairOrdering(
            "p95_doubles_top_to_bottom",
            "saturation at the top swept rate",
            metric="latency.p95_ms",
            greater={"rate": 40.0},
            lesser={"rate": 10.0},
            factor=2.0,
        ),
        Predicate("trajectory_claims", "accounting, saturation and queue growth", fn=_loadgen_claims),
    ),
    to_figure=_loadgen_figure,
    extra_artifacts=_loadgen_artifacts,
    config={
        "requests_per_point": loadgen.BENCH_REQUESTS,
        "process": loadgen.PROCESS,
        "seed": loadgen.BENCH_SEED,
        "workers": loadgen.WORKERS,
        "queue_limit": loadgen.QUEUE_LIMIT,
        "mode": loadgen.MODE.value,
        "placement": "co-located" if loadgen.COLOCATED else "distributed",
        "unit": "virtual ms",
    },
    source="repro.bench.loadgen.run_load",
)


# -- msgperf (wall clock; shape-gated) ---------------------------------------


def _measure_msgperf(params: dict, seed: int) -> dict:
    from repro.bench.msgperf import run_msgperf

    return run_msgperf()


def _msgperf_figure(record: RunRecord) -> dict:
    report = cell_values(record, run="all")
    return {
        "soak (msg/s)": {
            "cached": report["soak"]["cached"]["messages_per_sec"],
            "uncached": report["soak"]["uncached"]["messages_per_sec"],
            "speedup x": report["soak"]["speedup"],
        },
        "xmldb (doc/s)": {
            "cached": report["xmldb"]["cached"]["docs_per_sec"],
            "uncached": report["xmldb"]["uncached"]["docs_per_sec"],
            "speedup x": report["xmldb"]["speedup"],
        },
    }


def _msgperf_artifacts(record: RunRecord) -> dict[str, str]:
    from repro.experiments.schema import dumps_canonical

    return {"BENCH_msgperf.json": dumps_canonical(cell_values(record, run="all"))}


def _msgperf_claims(record: RunRecord) -> list[str]:
    from repro.bench.msgperf import signature_cache_misses

    problems = []
    report = cell_values(record, run="all")
    soak = report["soak"]
    if soak["speedup"] < soak["min_speedup"]:
        problems.append("the soak speedup fell under the floor")
    if not soak["cached"]["virtual_ms_per_op"] == soak["uncached"]["virtual_ms_per_op"] > 0:
        problems.append("caching changed the virtual costs")
    stats = report["cache_stats"]
    problems.extend(signature_cache_misses(stats))
    if stats["dsig.sign"]["hits"] <= stats["dsig.sign"]["misses"]:
        problems.append("the signing cache was not exercised")
    if stats["dsig.verify"]["hits"] <= 0:
        problems.append("the verification cache was not exercised")
    if report["xmldb"]["speedup"] < 0.75:
        problems.append("caching pessimized the one-shot document workload")
    return problems


MSGPERF = ExperimentSpec(
    name="msgperf",
    title="Message-path wall-clock throughput: memoized vs uncached",
    axes=(Axis("run", ("all",)),),
    measure=_measure_msgperf,
    invariants=(
        Predicate(
            "msgperf_claims",
            "speedup floor, no signature-cache misses after warm-up, virtual-cost invariance",
            fn=_msgperf_claims,
        ),
    ),
    gate="shape",
    to_figure=_msgperf_figure,
    extra_artifacts=_msgperf_artifacts,
    source="repro.bench.msgperf.run_msgperf",
)


# -- the registry ------------------------------------------------------------

SPECS: tuple[ExperimentSpec, ...] = (
    FIG2,
    FIG3,
    FIG4,
    FIG6,
    SCENARIOS_SWEEP,
    SPEC_COMPLEXITY,
    BROKERED,
    SCALING,
    WORKLOAD,
    STACK_SWITCHING,
    RELIABILITY_COUNTER,
    RELIABILITY_GIAB,
    ABLATION,
    TRACE_SPANS,
    XMLDB_SCALING,
    DATAGRID,
    LOADGEN,
    MSGPERF,
)


def all_specs() -> tuple[ExperimentSpec, ...]:
    return SPECS


def spec_names() -> list[str]:
    return [spec.name for spec in SPECS]


def get_spec(name: str) -> ExperimentSpec:
    for spec in SPECS:
        if spec.name == name:
            return spec
    raise KeyError(
        f"no experiment spec named {name!r}; known: {', '.join(spec_names())}"
    )


def smoke_specs() -> tuple[ExperimentSpec, ...]:
    return tuple(spec for spec in SPECS if spec.smoke)
