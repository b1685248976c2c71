"""TSan-style sanitizer for simulated shared state.

The static rules (RPO09, RPO10, RPO12, RPO13) prove isolation *shapes*;
this module checks the actual runs.  When attached to a
:class:`~repro.sim.network.Network`, every store mutation (Collection
insert/update/upsert/delete, and everything layered on it —
WriteThroughCache, ResourceHome) is tagged with the execution context
that performed it: the simulated host and a message id, pushed by the
container for each request it handles.

The invariant checked is the message-passing discipline itself: **two
different hosts may only touch the same (store, key) if a message
travelled between them in the meantime.**  Back-to-back writes by
different hosts with no intervening :meth:`transmission` mean the second
host reached the object through process memory, not through the wire —
exactly the bug the paper's per-host containers cannot have, and the
first thing a concurrent kernel would turn into a real race.

Timer callbacks (WS-ResourceLifetime terminations) run on the clock, on
behalf of no request; they execute under the pseudo-host ``<timer>``,
which conflicts with nobody — expiry is the one legitimate cross-host
mutation channel besides the wire.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

#: Pseudo-host for clock-driven callbacks (lease expiry): exempt from
#: cross-host conflicts in both directions.
TIMER_HOST = "<timer>"

#: Context recorded for mutations outside any request scope (world setup,
#: direct test manipulation).
SETUP_HOST = "<setup>"


@dataclass(frozen=True)
class MutationRecord:
    """One tagged store mutation."""

    store: str
    key: str
    op: str
    host: str
    message_id: str
    #: Network transmission count at mutation time: two records with the
    #: same count had no message between them.
    tx_count: int


@dataclass(frozen=True)
class Violation:
    """A cross-host mutation pair with no intervening transmission."""

    store: str
    key: str
    first: MutationRecord
    second: MutationRecord

    def render(self) -> str:
        return (
            f"{self.store}/{self.key}: {self.second.host} "
            f"({self.second.op} during {self.second.message_id or 'no message'}) "
            f"mutated state last written by {self.first.host} "
            f"({self.first.op} during {self.first.message_id or 'no message'}) "
            "with no message transmission in between"
        )


@dataclass
class SimSanitizer:
    """Execution-context tracker + cross-host mutation detector."""

    #: Stack of (host, message_id): nested scopes happen when a handler's
    #: outcall is delivered inline (server calling server).
    _context: list[tuple[str, str]] = field(default_factory=list)
    _tx_count: int = 0
    _message_counter: int = 0
    _last_write: dict[tuple[str, str], MutationRecord] = field(default_factory=dict)
    mutations: list[MutationRecord] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    # -- execution context ---------------------------------------------------

    @contextmanager
    def scope(self, host: str, message_id: str | None = None):
        """Tag mutations inside the block with (host, message id)."""
        if message_id is None:
            self._message_counter += 1
            message_id = f"msg-{self._message_counter:05d}"
        self._context.append((host, message_id))
        try:
            yield
        finally:
            self._context.pop()

    def current_context(self) -> tuple[str, str]:
        return self._context[-1] if self._context else (SETUP_HOST, "")

    # -- event hooks ---------------------------------------------------------

    def transmission(self) -> None:
        """A message crossed the wire: state handoffs are legitimate now."""
        self._tx_count += 1

    def note_mutation(self, store: str, key: str, op: str) -> None:
        host, message_id = self.current_context()
        record = MutationRecord(
            store=store,
            key=key,
            op=op,
            host=host,
            message_id=message_id,
            tx_count=self._tx_count,
        )
        previous = self._last_write.get((store, key))
        if (
            previous is not None
            and previous.host != host
            and TIMER_HOST not in (previous.host, host)
            and SETUP_HOST not in (previous.host, host)
            and previous.tx_count == record.tx_count
        ):
            self.violations.append(
                Violation(store=store, key=key, first=previous, second=record)
            )
        self._last_write[(store, key)] = record
        self.mutations.append(record)

    # -- reporting -----------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.violations

    def report(self) -> list[str]:
        return [violation.render() for violation in self.violations]
