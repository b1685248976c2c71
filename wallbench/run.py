#!/usr/bin/env python3
"""Wall-clock benchmark of the two OGSA stacks, end to end and per layer.

    python3 wallbench/run.py --workload counter-mix --seed 1 --seconds 30 --trace 0

Runs one workload (see WORKLOADS.md) on WSRF, then on WS-Transfer, in this
interpreter and on one thread, and prints every metric by name with its
unit.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` wraps each
layer's public entry points (``spans.py``), runs the workload traced, then
replays the same units untraced to check the wrappers left every virtual
number alone; it prints the per-layer metrics and writes the spans as
Chrome trace-event JSON under ``.wallbench/`` in the checkout.

The run exits non-zero if any reply disagrees with the op model, or if the
virtual-time fingerprint of the default seed differs from the one pinned in
``fingerprints.json``.  It reads and writes nothing outside the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
TRACE_DIR = CHECKOUT / ".wallbench"
PINNED = HERE / "fingerprints.json"
DEFAULT_SEED = 1
WORKLOAD_NAMES = ("counter-mix", "giab-jobs", "counter-load")


def load_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else,
    then the workloads, which import every ``repro`` module a run uses."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"wallbench: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"wallbench: imported repro from {repro.__file__}, not {SRC}")
    import workloads  # noqa: F401


@dataclass
class StackRun:
    """One stack's share of a run."""

    setup_s: float
    wall_s: float
    #: The wall time ``ops_per_s`` divides by: the timed phase, or for an
    #: open loop only the spans from first spawn until the kernel drained.
    window_s: float
    ops: int
    latencies_ms: list
    attempted: int
    failed: int
    failures: list
    units: int
    fingerprint: dict
    prefix: dict
    cache: dict


def run_stacks(workload: str, seed: int, seconds: float, tracer=None, units=None) -> dict:
    """Deploy, warm up and time ``workload`` on each stack in turn.

    Each stack gets half of ``seconds``, and at least its pinned number of
    units; with ``units`` it runs exactly that many units per stack instead.
    """
    from spans import ROOT
    from workloads import STACKS, WORKLOADS

    from repro.xmllib.memo import cache_stats, reset_cache_stats

    workload_class = WORKLOADS[workload]
    runs = {}
    for stack in STACKS:
        if tracer is not None:
            tracer.phase, tracer.op, tracer.track = "setup", "setup", stack
        start = perf_counter()
        bench = workload_class(stack, seed, tracer)
        bench.warm_up()
        bench.drop_telemetry()
        setup_s = perf_counter() - start

        budget = seconds / len(STACKS)
        target = None if units is None else units[stack]
        prefix = {}
        reset_cache_stats()
        since = bench.snapshot()
        bench.timed = True
        if tracer is not None:
            tracer.phase = "timed"
            root = tracer.open(ROOT)
        start = perf_counter()
        while True:
            bench.unit()
            bench.drop_telemetry()
            if bench.units == bench.PIN_UNITS:
                prefix = bench.fingerprint(since)
            if target is not None:
                if bench.units >= target:
                    break
            elif bench.units >= bench.PIN_UNITS and perf_counter() - start >= budget:
                break
        wall_s = perf_counter() - start
        if tracer is not None:
            tracer.close(root)
            tracer.phase, tracer.op = "check", "check"
        bench.timed = False
        cache = cache_stats()
        fingerprint = bench.fingerprint(since)
        bench.finish()
        runs[stack] = StackRun(
            setup_s=setup_s,
            wall_s=wall_s,
            window_s=getattr(bench, "window_s", wall_s),
            ops=bench.ops,
            latencies_ms=bench.latencies_ms,
            attempted=bench.attempted,
            failed=bench.failed,
            failures=bench.failures,
            units=bench.units,
            fingerprint=fingerprint,
            prefix=prefix,
            cache=cache,
        )
        # Free this stack's deployment before the next one is built.
        del bench
    return runs


# -- metrics ----------------------------------------------------------------------


def percentile(samples: list, p: float) -> float:
    from repro.sim.metrics import percentile as exact

    return exact(samples, p) if samples else 0.0


def end_to_end(runs: dict, import_s: float) -> dict:
    setup_s = import_s + sum(run.setup_s for run in runs.values())
    metrics = {"setup_s": (setup_s, "s")}
    for stack, run in runs.items():
        metrics[f"{stack}.ops_per_s"] = (run.ops / run.window_s, "ops/s")
        metrics[f"{stack}.op_p50_ms"] = (percentile(run.latencies_ms, 50), "ms")
        metrics[f"{stack}.op_p99_ms"] = (percentile(run.latencies_ms, 99), "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    attempted = sum(run.attempted for run in runs.values())
    failed = sum(run.failed for run in runs.values())
    metrics["error_rate"] = (failed / attempted if attempted else 1.0, "ratio")
    return metrics


def per_layer(tracer, traced: dict, replay: dict) -> dict:
    metrics = tracer.layer_metrics()
    for name in sorted({name for run in traced.values() for name in run.cache}):
        hits = sum(run.cache[name]["hits"] for run in traced.values())
        lookups = hits + sum(run.cache[name]["misses"] for run in traced.values())
        metrics[f"memo.{name}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    ops = sum(run.ops for run in traced.values())
    for key, name, unit in (("messages", "msgs_per_op", "count"), ("bytes", "bytes_per_op", "B")):
        total = sum(run.fingerprint[key] for run in traced.values())
        metrics[f"sim.wire.{name}"] = (total / ops if ops else 0.0, unit)
    metrics["trace.overhead"] = (throughput(traced) / throughput(replay), "ratio")
    return metrics


def throughput(runs: dict) -> float:
    return sum(run.ops for run in runs.values()) / sum(run.window_s for run in runs.values())


def check_pinned(workload: str, seed: int, runs: dict) -> list[str]:
    """Drift of the default seed's fingerprint from the pinned one."""
    if seed != DEFAULT_SEED:
        return []
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    if pinned.get("seed") != DEFAULT_SEED or workload not in pinned:
        return [f"no fingerprint pinned for {workload} seed {seed}"]
    return [
        f"{stack} fingerprint after {run.prefix.get('units')} units drifted: "
        f"{json.dumps(run.prefix, sort_keys=True)} != pinned "
        f"{json.dumps(pinned[workload].get(stack), sort_keys=True)}"
        for stack, run in runs.items()
        if run.prefix != pinned[workload].get(stack)
    ]


def selected(metrics: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, in the JSON form."""
    config = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {}
    for entry in config[kind]:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(
                f"{entry['name']} is measured in {unit}, BENCHMARK.json says {entry['unit']}"
            )
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def report_runs(runs: dict) -> None:
    for stack, run in runs.items():
        print(
            f"{stack}: {run.units} units, {run.ops} ops in {run.wall_s:.3f} s timed "
            f"(rate window {run.window_s:.3f} s), set-up {run.setup_s:.3f} s, "
            f"{run.failed} failed of {run.attempted} attempted"
        )
        for failure in run.failures:
            print(f"  failure: {failure}")
        print(f"  fingerprint {json.dumps(run.fingerprint, sort_keys=True)}")
        print(f"  pinned-prefix fingerprint {json.dumps(run.prefix, sort_keys=True)}")


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")


# -- entry point ------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed wall seconds, split evenly between the stacks")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # setup_s starts here, before the first repro import.
    start = perf_counter()
    load_repro()
    import_s = perf_counter() - start

    print(f"wallbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    problems: list[str] = []
    if args.trace:
        from spans import SEAM_NAMES, Tracer
        from workloads import WORKLOADS

        # Half the time traced, then the same units untraced: a traced run
        # costs about as much wall time as an untraced one.
        tracer = Tracer()
        tracer.install()
        try:
            runs = run_stacks(args.workload, args.seed, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        replay = run_stacks(
            args.workload, args.seed, args.seconds,
            units={stack: run.units for stack, run in runs.items()},
        )
        report_runs(runs)
        for stack, run in runs.items():
            if replay[stack].failed:
                problems.append(f"{stack}: the untraced replay failed {replay[stack].failures}")
            if run.fingerprint != replay[stack].fingerprint:
                problems.append(
                    f"{stack}: traced fingerprint {json.dumps(run.fingerprint, sort_keys=True)} "
                    f"!= untraced {json.dumps(replay[stack].fingerprint, sort_keys=True)}"
                )
        metrics = per_layer(tracer, runs, replay)
        unused = WORKLOADS[args.workload].UNUSED_SEAMS
        for seam in SEAM_NAMES:
            if seam not in unused and metrics[f"{seam}.calls"][0] == 0:
                problems.append(f"seam {seam} recorded no calls")
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        n_spans = tracer.write_chrome_trace(trace_path)
        print(f"wrote {n_spans} spans to {trace_path.relative_to(CHECKOUT)}")
        print_metrics(metrics)
        print(f"not exercised by {args.workload}: {', '.join(sorted(unused)) or 'none'}")
        setup_ms = (import_s + sum(run.setup_s for run in runs.values())) * 1e3
        timed_ms = sum(run.wall_s for run in runs.values()) * 1e3
        print(f"crypto.keygen.self_ms is {metrics['crypto.keygen.self_ms'][0] / setup_ms:.1%} "
              f"of the traced set-up ({setup_ms:.0f} ms); sim.kernel_run.self_ms is "
              f"{metrics['sim.kernel_run.self_ms'][0] / timed_ms:.1%} of the traced timed phase "
              f"({timed_ms:.0f} ms)")
        kind = "per_layer"
    else:
        runs = run_stacks(args.workload, args.seed, args.seconds)
        report_runs(runs)
        metrics = end_to_end(runs, import_s)
        print(f"import of repro and the workloads: {import_s:.3f} s")
        print_metrics(metrics)
        for stack, run in runs.items():
            print(f"{stack}: latency percentiles over n={len(run.latencies_ms)} ops")
        kind = "end_to_end"

    problems += check_pinned(args.workload, args.seed, runs)
    for problem in problems:
        print(f"FAILED: {problem}")
    attempted = sum(run.attempted for run in runs.values())
    failed = sum(run.failed for run in runs.values())
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": selected(metrics, kind),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
