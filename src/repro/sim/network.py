"""Simulated hosts, transports and connection caches.

Models the part of the paper's testbed that the container does not: moving
bytes between machines.  Three transports are provided:

* ``HTTP`` — per-request connections with a keep-alive cache;
* ``HTTPS`` — TLS on top, with a session-resumption cache (the paper:
  "Due to socket caching, HTTPS performance is much faster");
* ``TCP`` — the persistent socket used by WS-Eventing's ``SoapReceiver``
  notification path (the reason WS-Eventing Notify beats WSRF.NET's
  per-delivery HTTP server).

Costs come from the shared :class:`~repro.sim.costs.CostModel`; all time is
charged to the shared :class:`~repro.sim.clock.Clock` and attributed via the
shared :class:`~repro.sim.metrics.MetricsRecorder`.

The wire can be made imperfect: :attr:`Network.faults` holds per-link
:class:`~repro.sim.faults.FaultSpec` policies (loss, delay, duplication,
connection reset), deterministic via the clock's seeded RNG.  A lost or
reset transmission still charges its wire time — the bytes left the host —
then raises :class:`~repro.sim.faults.MessageLost` /
:class:`~repro.sim.faults.ConnectionReset` for the reliability layer
(:mod:`repro.reliable`) to catch and retry.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from contextlib import nullcontext

from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.sim.faults import ConnectionReset, FaultInjector, MessageLost
from repro.sim.kernel import Kernel
from repro.sim.metrics import MetricsRecorder
from repro.sim.sanitizer import SimSanitizer


class TransportKind(enum.Enum):
    HTTP = "http"
    HTTPS = "https"
    TCP = "tcp"


@dataclass(frozen=True)
class Host:
    """A machine in the simulated deployment."""

    name: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.name


@dataclass
class _ConnectionState:
    """Cached state for one (client-host, server-host, transport) triple."""

    established: bool = False
    tls_session: bool = False


class Network:
    """The simulated wire plus the shared clock/costs/metrics trio."""

    def __init__(
        self,
        cost_model: CostModel | None = None,
        clock: Clock | None = None,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        self.costs = cost_model if cost_model is not None else CostModel()
        self.clock = clock if clock is not None else Clock()
        self.metrics = metrics if metrics is not None else MetricsRecorder()
        self.faults = FaultInjector(self.clock.rng)
        #: Optional cross-host mutation detector (see repro.sim.sanitizer);
        #: None keeps every hook free.
        self.sanitizer: SimSanitizer | None = None
        self._connections: dict[tuple[str, str, TransportKind], _ConnectionState] = {}
        #: Id sources for what is sent on this network (``wsa:MessageID``s
        #: and WS-RM sequence identifiers), so the same program and seed
        #: send the same bytes whatever ran before in the process.
        self.message_ids = itertools.count(1)
        self.sequence_ids = itertools.count(1)
        #: The discrete-event kernel owning this network's timeline
        #: (DESIGN.md §14): every request runs through its eager driver,
        #: load generators spawn tasks on it, and timers sit on its heap.
        self.kernel = Kernel(self)

    # -- helpers ------------------------------------------------------------

    def charge(self, ms: float, category: str) -> None:
        """Advance virtual time and attribute it to ``category``."""
        self.clock.charge(ms)
        self.metrics.time_charged(ms, category)

    def sanitizer_scope(self, host_name: str, message_id: str | None = None):
        """Execution-context scope for the sanitizer; a no-op when the
        sanitizer is detached, so callers can wrap unconditionally."""
        if self.sanitizer is None:
            return nullcontext()
        return self.sanitizer.scope(host_name, message_id)

    def note_mutation(self, store: str, key: str, op: str) -> None:
        """Storage layers report each write here (no-op when detached)."""
        if self.sanitizer is not None:
            self.sanitizer.note_mutation(store, key, op)

    def _conn(self, src: Host, dst: Host, kind: TransportKind) -> _ConnectionState:
        key = (src.name, dst.name, kind)
        state = self._connections.get(key)
        if state is None:
            state = _ConnectionState()
            self._connections[key] = state
        return state

    def drop_connections(self) -> None:
        """Forget all cached connections and TLS sessions (cold start)."""
        self._connections.clear()

    def _reset_connection(self, src: Host, dst: Host, kind: TransportKind) -> None:
        """A connection died: forget its state in both orientations."""
        self._connections.pop((src.name, dst.name, kind), None)
        self._connections.pop((dst.name, src.name, kind), None)

    # -- the wire ---------------------------------------------------------

    def transmit(
        self,
        src: Host,
        dst: Host,
        n_bytes: int,
        kind: TransportKind,
        *,
        service: str | None = None,
    ) -> int:
        """Charge the cost of moving ``n_bytes`` from ``src`` to ``dst``.

        Connection setup costs depend on the cache state; data costs depend
        on placement (loopback vs LAN) and transport (TLS adds per-KB
        symmetric crypto).

        Returns the number of copies delivered (1, or 2 when the fault
        injector duplicates the message).  On injected loss or reset the
        wire time is still charged — the bytes left the host — and
        :class:`MessageLost` / :class:`ConnectionReset` is raised.
        """
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        costs = self.costs
        kb = n_bytes / 1024.0
        state = self._conn(src, dst, kind)
        outcome = self.faults.draw(src.name, dst.name) if self.faults.active else None

        setup = 0.0
        if kind is TransportKind.HTTP:
            setup += costs.http_connect_cached if state.established else costs.http_connect
        elif kind is TransportKind.HTTPS:
            setup += costs.http_connect_cached if state.established else costs.http_connect
            setup += costs.tls_resume if state.tls_session else costs.tls_handshake
            state.tls_session = True
        elif kind is TransportKind.TCP:
            if not state.established:
                setup += costs.tcp_connect
        state.established = True
        if setup:
            self.charge(setup, "transport.setup")

        wire = 0.0
        if src != dst:
            wire += costs.lan_latency + kb * costs.lan_per_kb
        else:
            wire += kb * costs.loopback_per_kb
        if kind is TransportKind.HTTPS:
            wire += kb * costs.tls_per_kb

        return self._apply_outcome(
            outcome, src, dst, kind, n_bytes, wire, service=service
        )

    def transmit_response(
        self,
        src: Host,
        dst: Host,
        n_bytes: int,
        kind: TransportKind,
        *,
        service: str | None = None,
    ) -> int:
        """The reply leg: bytes flow back on the already-open connection.

        No connection setup is charged (the request leg paid it); only wire
        time, plus TLS symmetric crypto on HTTPS.  Fault-injected exactly
        like :meth:`transmit`, so a lossy link can eat responses too.
        """
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        costs = self.costs
        kb = n_bytes / 1024.0
        outcome = self.faults.draw(src.name, dst.name) if self.faults.active else None

        wire = 0.0
        if src != dst:
            wire += costs.lan_latency + kb * costs.lan_per_kb
        else:
            wire += kb * costs.loopback_per_kb
        if kind is TransportKind.HTTPS:
            wire += kb * costs.tls_per_kb

        return self._apply_outcome(
            outcome, src, dst, kind, n_bytes, wire, service=service
        )

    def _apply_outcome(
        self,
        outcome,
        src: Host,
        dst: Host,
        kind: TransportKind,
        n_bytes: int,
        wire: float,
        *,
        service: str | None,
    ) -> int:
        """Charge wire time and settle the message's fate (see faults.py)."""
        if outcome is not None and outcome.extra_delay_ms > 0:
            self.charge(outcome.extra_delay_ms, "transport.delay")
        if wire:
            self.charge(wire, "transport.wire")
        self.metrics.message_sent(n_bytes, service)
        if outcome is None or outcome.clean:
            # Only a *delivered* message legitimizes a cross-host state
            # handoff; lost/reset transmissions never reached the peer.
            if self.sanitizer is not None:
                self.sanitizer.transmission()
            return 1
        if outcome.reset:
            self._reset_connection(src, dst, kind)
            raise ConnectionReset(
                f"connection {src.name}->{dst.name} ({kind.value}) reset mid-transfer"
            )
        if outcome.lost:
            raise MessageLost(f"message {src.name}->{dst.name} lost on the wire")
        if outcome.duplicated:
            # The second copy consumes wire time again and counts as a
            # message of its own.
            if wire:
                self.charge(wire, "transport.wire")
            self.metrics.message_sent(n_bytes, service)
            if self.sanitizer is not None:
                self.sanitizer.transmission()
            return 2
        if self.sanitizer is not None:
            self.sanitizer.transmission()
        return 1
