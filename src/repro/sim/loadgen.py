"""Open-loop load generation over the discrete-event kernel.

The paper reports single-request latency; the question it leaves open —
can a lightweight OGSA stack serve a grid's job volume? — needs *load*.
This module provides the generic half of the answer: seeded arrival
processes and an open-loop driver that spawns one kernel task per
arrival at its pre-scheduled virtual instant, regardless of whether
earlier requests have completed (the defining property of an open-loop
generator: offered load does not throttle when the server saturates, so
queueing delay becomes visible instead of being absorbed into the
arrival process).

The counter-rig adapter lives in :mod:`repro.bench.loadgen`; this
module knows nothing about SOAP stacks — only arrivals, tasks and the
statistics of their completions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.sim.errors import QueueFull, SimError
from repro.sim.kernel import Kernel, Task
from repro.sim.metrics import SampleSet

__all__ = ["ARRIVAL_PROCESSES", "LoadResult", "arrival_times", "run_open_loop"]

ARRIVAL_PROCESSES = ("poisson", "uniform")


def arrival_times(
    n: int,
    rate_per_sec: float,
    process: str = "poisson",
    seed: int = 0,
    start: float = 0.0,
) -> list[float]:
    """``n`` absolute arrival instants (virtual ms) from a seeded process.

    ``poisson`` draws exponential inter-arrival gaps (a memoryless stream,
    the standard open-system model); ``uniform`` draws gaps uniformly from
    ``[0.5, 1.5] × mean`` (the same offered load with bounded burstiness,
    useful for separating queueing effects from arrival variance).  The
    process has its own :class:`random.Random` stream, so the same seed
    yields the same schedule no matter what else the simulation draws.
    """
    if n < 0:
        raise SimError(f"cannot schedule a negative number of arrivals: {n}")
    if rate_per_sec <= 0:
        raise SimError(f"offered load must be positive: {rate_per_sec}/s")
    if process not in ARRIVAL_PROCESSES:
        raise SimError(
            f"unknown arrival process {process!r}; expected one of {ARRIVAL_PROCESSES}"
        )
    rng = random.Random(seed)
    mean_gap_ms = 1000.0 / rate_per_sec
    times: list[float] = []
    at = start
    for _ in range(n):
        if process == "poisson":
            at += rng.expovariate(1.0) * mean_gap_ms
        else:
            at += rng.uniform(0.5, 1.5) * mean_gap_ms
        times.append(at)
    return times


@dataclass
class LoadResult:
    """What one open-loop run observed, in virtual time.

    Latency is arrival-to-completion (queueing *included* — the client
    cares when its response arrived, not when the server deigned to
    start).  Throughput is completions over the span from first arrival
    to last completion.
    """

    offered_per_sec: float
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    #: Arrival-to-completion latency of successful requests.
    latencies: SampleSet = field(default_factory=SampleSet)
    #: Worker-pool queueing delay of successful requests.
    queueing: SampleSet = field(default_factory=SampleSet)
    first_arrival: float = 0.0
    last_completion: float = 0.0
    #: Per-host high-water queue depth, from the kernel's pools.
    max_queue_depth: dict[str, int] = field(default_factory=dict)
    #: Exception type names of non-rejection failures, in task order.
    errors: list[str] = field(default_factory=list)
    #: Messages put on the wire during the run (for messages/sec).
    messages: int = 0

    @property
    def span_ms(self) -> float:
        return self.last_completion - self.first_arrival

    @property
    def throughput_per_sec(self) -> float:
        """Completed requests per virtual second."""
        if self.span_ms <= 0:
            return 0.0
        return self.completed / (self.span_ms / 1000.0)

    @property
    def messages_per_sec(self) -> float:
        if self.span_ms <= 0:
            return 0.0
        return self.messages / (self.span_ms / 1000.0)

    def summary(self) -> dict:
        """The deterministic report block (everything in virtual time)."""
        return {
            "offered_per_sec": self.offered_per_sec,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "throughput_per_sec": round(self.throughput_per_sec, 6),
            "messages_per_sec": round(self.messages_per_sec, 6),
            "latency": _rounded(self.latencies.summary()),
            "queueing": _rounded(self.queueing.summary()),
            "max_queue_depth": dict(sorted(self.max_queue_depth.items())),
        }


def _rounded(block: dict) -> dict:
    return {
        key: round(value, 6) if isinstance(value, float) else value
        for key, value in block.items()
    }


def run_open_loop(
    kernel: Kernel,
    arrivals: list[float],
    make_task: Callable[[int], Generator],
    *,
    offered_per_sec: float = 0.0,
    name: str = "req",
) -> LoadResult:
    """Spawn ``make_task(i)`` at each arrival instant and drain the kernel.

    Every arrival is pre-scheduled before the event loop starts — a
    saturated server cannot push back on the arrival stream.  Requests
    whose worker-pool queue overflows count as ``rejected``
    (:class:`~repro.sim.errors.QueueFull`); any other task exception
    counts as ``failed`` with its type name recorded.
    """
    metrics = kernel.network.metrics if kernel.network is not None else None
    messages_before = metrics.total_messages if metrics is not None else 0
    tasks: list[Task] = [
        kernel.spawn(make_task(i), f"{name}-{i}", at=at)
        for i, at in enumerate(arrivals)
    ]
    kernel.run()

    result = LoadResult(offered_per_sec=offered_per_sec)
    if arrivals:
        result.first_arrival = min(arrivals)
    for task in tasks:
        if not task.done:
            raise SimError(f"open-loop task {task.name!r} never completed")
        if task.error is not None:
            if isinstance(task.error, QueueFull):
                result.rejected += 1
            else:
                result.failed += 1
                result.errors.append(type(task.error).__name__)
            continue
        result.completed += 1
        result.latencies.add(task.latency_ms)
        result.queueing.add(task.queueing_delay_ms)
        result.last_completion = max(result.last_completion, task.finished_at)
    result.max_queue_depth = kernel.max_queue_depths()
    if metrics is not None:
        result.messages = metrics.total_messages - messages_before
    return result
