"""The virtual clock: the single source of time for the whole simulation.

Time is a float in *milliseconds* (matching the paper's reporting unit).
Components advance time by charging costs.  The clock keeps no timers of
its own: they sit on its :class:`~repro.sim.kernel.Kernel`'s event heap,
and a charge hands the advance to that kernel, so every timer due inside
the charge fires at its own instant (DESIGN.md §14).

Two execution regimes share this class:

* **Immediate** (the default, and the eager driver's regime): every
  ``charge`` advances ``now`` at once, firing due timers mid-advance —
  exactly the behaviour all golden cost ledgers were pinned against.
* **Deferred** (inside a :class:`~repro.sim.kernel.Kernel` stage): charges
  accumulate into a pending total instead of moving the shared timeline,
  so the kernel can sleep the stage's cost as one interleavable delay.
  ``now`` still reflects the locally-elapsed time (``_now + pending``), so
  deadlines computed mid-stage (lease expiries, retry backoff) land where
  the immediate regime would have put them.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass

from repro.sim.errors import SimError


@dataclass
class DeferredCharges:
    """Accumulator for charges made while a kernel stage is executing."""

    ms: float = 0.0


class Clock:
    """Monotonic virtual clock.

    ``charge(ms)`` is the workhorse: it advances time, and the clock's
    kernel fires every timer whose deadline falls inside the advance.
    Timer callbacks run with the clock set to *their* deadline (so a
    resource destroyed by a lifetime sweep sees the correct destruction
    instant), after which the clock continues to the end of the charge.
    """

    def __init__(self, start: float = 0.0, seed: int = 0) -> None:
        self._now = float(start)
        #: Non-None while a kernel stage runs with deferred charging.
        self._deferred: DeferredCharges | None = None
        #: The kernel that owns this timeline's heap; set when one is built.
        self._kernel = None
        #: The simulation's single source of randomness.  Everything
        #: stochastic (fault injection, backoff jitter) draws from here, so
        #: one seed makes a whole run reproducible.
        self.seed = seed
        self.rng = random.Random(seed)

    def reseed(self, seed: int | None = None) -> None:
        """Reset the RNG stream in place (``None`` replays the original
        seed).  In-place so components holding a reference to ``rng`` —
        e.g. the network's fault injector — see the new stream too."""
        if seed is not None:
            self.seed = seed
        self.rng.seed(self.seed)

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds.

        While a kernel stage defers its charges, ``now`` includes the
        stage's locally-accumulated time, so code running inside the
        stage sees time progress exactly as it would under immediate
        charging.
        """
        if self._deferred is not None:
            return self._now + self._deferred.ms
        return self._now

    def charge(self, ms: float) -> None:
        """Advance the clock by ``ms`` (must be non-negative)."""
        if ms < 0:
            raise SimError(f"cannot charge negative time: {ms}")
        if self._deferred is not None:
            self._deferred.ms += ms
        elif self._kernel is None:
            self._now += ms
        else:
            self._kernel._advance(self._now + ms)

    @contextmanager
    def defer_charges(self):
        """Accumulate charges instead of advancing (one kernel stage).

        Yields the :class:`DeferredCharges` accumulator; on exit the clock
        returns to immediate mode *without* advancing — the kernel owns
        the advance, sleeping the accumulated total as a schedulable
        delay so other tasks' events can interleave inside it.  Deferral
        cannot nest: a stage is the atomic unit of computation.
        """
        if self._deferred is not None:
            raise SimError("charge deferral cannot nest: already inside a kernel stage")
        self._deferred = pending = DeferredCharges()
        try:
            yield pending
        finally:
            self._deferred = None

    @property
    def deferring(self) -> bool:
        """True while charges are being deferred (a kernel stage runs)."""
        return self._deferred is not None
