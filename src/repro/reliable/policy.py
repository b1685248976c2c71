"""Retransmission policy: attempts, exponential backoff, jitter, budget.

All backoff time is *virtual* — charged through ``Network.charge`` under
the ``reliable.backoff`` category, never slept (repro-lint rule RPO10
flags wall-clock sleeps).
Jitter draws come from the caller-supplied RNG (the sim clock's seeded
stream), keeping retransmission schedules reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a reliable sender tries before dead-lettering."""

    #: Total tries including the first transmission.
    max_attempts: int = 4
    #: Backoff before the first retransmission.
    base_backoff_ms: float = 40.0
    #: Exponential growth factor per further retransmission.
    multiplier: float = 2.0
    #: Ceiling on any single backoff interval.
    max_backoff_ms: float = 4000.0
    #: Uniform random addition in ``[0, jitter_ms]`` per backoff.
    jitter_ms: float = 8.0
    #: Optional cap on *total* backoff spent per message (the retry
    #: budget); once exceeded, remaining attempts are forfeited.
    retry_budget_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_backoff_ms < 0 or self.max_backoff_ms < 0 or self.jitter_ms < 0:
            raise ValueError("backoff parameters must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if self.retry_budget_ms is not None and self.retry_budget_ms < 0:
            raise ValueError("retry_budget_ms must be non-negative")

    def backoff_ms(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff after the ``attempt``-th failed try (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(
            self.base_backoff_ms * self.multiplier ** (attempt - 1),
            self.max_backoff_ms,
        )
        if self.jitter_ms and rng is not None:
            delay += rng.uniform(0.0, self.jitter_ms)
        return delay

    def within_budget(self, spent_backoff_ms: float) -> bool:
        return self.retry_budget_ms is None or spent_backoff_ms < self.retry_budget_ms


#: A policy that never retransmits (reliability bookkeeping only).
NO_RETRY = RetryPolicy(max_attempts=1)
