"""Instrumentation: message counts, byte counts and virtual-time breakdowns.

The paper attributes its Grid-in-a-Box results to "the number of web service
outcalls (and message signings) triggered on the server"; the recorder makes
exactly those quantities observable so benchmarks (and tests) can assert
them directly.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One node of a per-message trace tree, timed on the virtual clock.

    Spans reproduce the paper's Figure-1 processing order as data: the
    pipeline's :class:`~repro.pipeline.filters.TracingFilter` opens one
    span per processing stage (``client.send``, ``server.receive``, ...),
    and nested stages — the server's whole handling runs inside the
    client's invoke — become child spans.
    """

    name: str
    started_at: float
    ended_at: float = 0.0
    detail: str = ""
    children: list["Span"] = field(default_factory=list)

    @property
    def elapsed_ms(self) -> float:
        return self.ended_at - self.started_at

    def walk(self, depth: int = 0):
        """Yield ``(depth, span)`` pairs in document order (iterative, so
        pathologically deep span trees cannot exhaust the recursion limit)."""
        stack = [(depth, self)]
        while stack:
            level, span = stack.pop()
            yield level, span
            for child in reversed(span.children):
                stack.append((level + 1, child))

    def tree(self) -> list[str]:
        """The span names as an indented text outline (for tests/reports)."""
        return [f"{'  ' * depth}{span.name}" for depth, span in self.walk()]

    def shape(self) -> tuple:
        """The structural fingerprint: ``(name, (child shapes...))``."""
        return (self.name, tuple(child.shape() for child in self.children))

    def find(self, name: str) -> "Span | None":
        for _, span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "elapsed_ms": self.elapsed_ms,
            **({"detail": self.detail} if self.detail else {}),
            "children": [child.to_dict() for child in self.children],
        }


class SpanRecorder:
    """Builds nested :class:`Span` trees from push/pop bracketing.

    One recorder is shared per :class:`MetricsRecorder`; because the
    simulation is synchronous, a single open-span stack suffices — a
    span opened while another is open is its child (the server's
    processing nests inside the client's invoke).
    """

    def __init__(self) -> None:
        #: Completed top-level spans, in completion order.
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def push(self, name: str, now: float, detail: str = "") -> Span:
        span = Span(name=name, started_at=now, detail=detail)
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def pop(self, now: float) -> Span:
        if not self._stack:
            raise RuntimeError("no open span to close")
        span = self._stack.pop()
        span.ended_at = now
        if not self._stack:
            self.roots.append(span)
        return span

    def close(self, span: Span, now: float) -> None:
        """Close ``span``, first closing anything still open beneath it.

        Used by the pipeline's deferred span closure: filters between the
        push and the close open balanced child spans, but an exception may
        abandon one — closing by identity keeps the tree well-formed.
        """
        if span not in self._stack:
            return
        while self._stack:
            if self.pop(now) is span:
                return

    @contextmanager
    def span(self, name: str, clock, detail: str = ""):
        """Context manager bracketing one span on the virtual clock."""
        opened = self.push(name, clock.now, detail)
        try:
            yield opened
        finally:
            # Close this span and anything left open beneath it (an
            # exception mid-pipeline abandons inner spans).
            while self._stack and self._stack[-1] is not opened:
                self.pop(clock.now)
            if self._stack and self._stack[-1] is opened:
                self.pop(clock.now)

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def last_root(self) -> Span:
        if not self.roots:
            raise RuntimeError("no completed span trees")
        return self.roots[-1]

    def clear(self) -> None:
        self.roots.clear()
        self._stack.clear()


@dataclass(frozen=True)
class WireLogEntry:
    """One logged message: who sent what to whom, when (virtual ms)."""

    at: float
    source: str
    target: str
    action: str
    n_bytes: int
    kind: str = "request"  # request | response | notify


@dataclass
class OperationTrace:
    """Everything observed between ``begin()`` and ``end()`` of one operation."""

    name: str
    started_at: float
    ended_at: float = 0.0
    messages: int = 0
    bytes_on_wire: int = 0
    signatures: int = 0
    verifications: int = 0
    db_ops: int = 0
    services_touched: set[str] = field(default_factory=set)
    time_by_category: Counter = field(default_factory=Counter)

    @property
    def elapsed_ms(self) -> float:
        return self.ended_at - self.started_at


class MetricsRecorder:
    """Accumulates simulation events, optionally attributing to an operation.

    One recorder is shared per :class:`~repro.sim.network.Network`.  The
    benchmark harness brackets each measured client operation with
    ``begin()/end()``; all events between the brackets are attributed to
    that operation's :class:`OperationTrace`.
    """

    def __init__(self) -> None:
        self.total_messages = 0
        self.total_bytes = 0
        self.time_by_category: Counter = Counter()
        self._active: OperationTrace | None = None
        self.completed: list[OperationTrace] = []
        #: Per-message log, populated only while ``wire_log_enabled``.
        self.wire_log: list[WireLogEntry] = []
        self.wire_log_enabled = False
        #: Per-message trace-span trees (see :class:`SpanRecorder`).
        self.tracer = SpanRecorder()

    # -- operation bracketing ----------------------------------------------

    def begin(self, name: str, now: float) -> OperationTrace:
        if self._active is not None:
            raise RuntimeError(
                f"operation {self._active.name!r} still active; traces cannot nest"
            )
        self._active = OperationTrace(name=name, started_at=now)
        return self._active

    def end(self, now: float) -> OperationTrace:
        if self._active is None:
            raise RuntimeError("no active operation trace")
        trace = self._active
        trace.ended_at = now
        self.completed.append(trace)
        self._active = None
        return trace

    # -- event hooks ---------------------------------------------------------

    def message_sent(self, n_bytes: int, service: str | None = None) -> None:
        self.total_messages += 1
        self.total_bytes += n_bytes
        if self._active is not None:
            self._active.messages += 1
            self._active.bytes_on_wire += n_bytes
            if service:
                self._active.services_touched.add(service)

    def signed(self) -> None:
        if self._active is not None:
            self._active.signatures += 1

    def verified(self) -> None:
        if self._active is not None:
            self._active.verifications += 1

    def db_op(self) -> None:
        if self._active is not None:
            self._active.db_ops += 1

    def log_message(
        self,
        at: float,
        source: str,
        target: str,
        action: str,
        n_bytes: int,
        kind: str = "request",
    ) -> None:
        """Record one message in the wire log (no-op unless enabled)."""
        if self.wire_log_enabled:
            self.wire_log.append(WireLogEntry(at, source, target, action, n_bytes, kind))

    def time_charged(self, ms: float, category: str) -> None:
        self.time_by_category[category] += ms
        if self._active is not None:
            self._active.time_by_category[category] += ms

    # -- reporting -------------------------------------------------------------

    def last(self) -> OperationTrace:
        if not self.completed:
            raise RuntimeError("no completed operation traces")
        return self.completed[-1]

    def reset(self) -> None:
        self.__init__()


# -- load statistics ---------------------------------------------------------


def percentile(samples: list[float], p: float) -> float:
    """The ``p``-th percentile of ``samples`` by linear interpolation.

    The rank is ``(n - 1) * p / 100`` (the "inclusive"/numpy-default
    definition): p=0 is the minimum, p=100 the maximum, a single sample is
    every percentile of itself.  Empty input is an error — an empty load
    run has no latency, and silently returning 0 would fabricate one.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


class SampleSet:
    """An exact sample collection with percentile/mean/merge support.

    Load runs are small enough (thousands of requests) that exact
    quantiles beat approximate histograms — no bucketing error to explain
    in a reproduction.  ``merge`` combines per-host sets into a fleet-wide
    view; it concatenates rather than summarizes, so a merged set's
    percentiles equal those of the pooled raw data.
    """

    def __init__(self, samples: list[float] | None = None) -> None:
        self._samples: list[float] = list(samples) if samples else []

    def add(self, value: float) -> None:
        self._samples.append(value)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def empty(self) -> bool:
        return not self._samples

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError("mean of an empty sample set")
        return sum(self._samples) / len(self._samples)

    @property
    def max(self) -> float:
        if not self._samples:
            raise ValueError("max of an empty sample set")
        return max(self._samples)

    @property
    def min(self) -> float:
        if not self._samples:
            raise ValueError("min of an empty sample set")
        return min(self._samples)

    def percentile(self, p: float) -> float:
        return percentile(self._samples, p)

    def merge(self, other: "SampleSet") -> "SampleSet":
        """A new set pooling this one's samples with ``other``'s."""
        return SampleSet(self._samples + other._samples)

    def samples(self) -> list[float]:
        return list(self._samples)

    def summary(self) -> dict:
        """The standard load-report block: count, mean, p50/p95/p99, max."""
        if self.empty:
            return {"count": 0}
        return {
            "count": self.count,
            "mean_ms": self.mean,
            "p50_ms": self.percentile(50),
            "p95_ms": self.percentile(95),
            "p99_ms": self.percentile(99),
            "max_ms": self.max,
        }

