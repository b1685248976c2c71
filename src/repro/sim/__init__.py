"""Deterministic virtual-time substrate.

The paper measured wall-clock milliseconds on a pair of 2005-era Opteron
machines.  This package replaces that testbed with a discrete virtual clock
and a calibrated cost model (DESIGN.md §2, §5): every component *charges*
virtual milliseconds for the work it does — SOAP processing scaled by the
real serialized message size, database operations, RSA signing, TLS
handshakes, LAN round trips — so the benchmark figures are deterministic and
reproduce the paper's *shapes* rather than this machine's timings.
"""

from repro.sim.clock import Clock, DeferredCharges
from repro.sim.costs import CostModel
from repro.sim.errors import QueueFull, SimError
from repro.sim.faults import (
    NO_FAULTS,
    ConnectionReset,
    DeliveryFault,
    FaultInjector,
    FaultOutcome,
    FaultSpec,
    MessageLost,
)
from repro.sim.kernel import (
    Acquire,
    Delay,
    Effect,
    Kernel,
    Release,
    Task,
    Timer,
    Work,
    WorkerPool,
)
from repro.sim.metrics import (
    MetricsRecorder,
    OperationTrace,
    SampleSet,
    Span,
    SpanRecorder,
    percentile,
)
from repro.sim.network import Host, Network, TransportKind
from repro.sim.sanitizer import (
    SETUP_HOST,
    TIMER_HOST,
    MutationRecord,
    SimSanitizer,
    Violation,
)

__all__ = [
    "Clock",
    "DeferredCharges",
    "Timer",
    "CostModel",
    "SimError",
    "QueueFull",
    "Kernel",
    "Task",
    "Effect",
    "Delay",
    "Work",
    "Acquire",
    "Release",
    "WorkerPool",
    "MetricsRecorder",
    "OperationTrace",
    "Span",
    "SpanRecorder",
    "SampleSet",
    "percentile",
    "Host",
    "Network",
    "TransportKind",
    "DeliveryFault",
    "MessageLost",
    "ConnectionReset",
    "FaultSpec",
    "FaultOutcome",
    "FaultInjector",
    "NO_FAULTS",
    "SimSanitizer",
    "MutationRecord",
    "Violation",
    "TIMER_HOST",
    "SETUP_HOST",
]
