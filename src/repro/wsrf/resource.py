"""The WS-Resource model: state documents addressed by EPR.

WSRF.NET "models Resources as XML documents that can be persisted to various
backend stores" with a write-through cache in front.  A :class:`ResourceHome`
owns the documents of one service, the EPR→resource resolution key, and the
scheduled-termination machinery used by WS-ResourceLifetime.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.kernel import Timer
from repro.sim.network import Network
from repro.xmldb.cache import WriteThroughCache
from repro.xmldb.collection import Collection, DocumentNotFound
from repro.xmllib import QName, ns
from repro.xmllib.element import XmlElement

#: Reference property carrying the resource key (the WS-Resource Access
#: Pattern as embodied by WSRF.NET).
RESOURCE_ID = QName(ns.REPRO_WSRF, "ResourceID")


class ResourceUnknownError(LookupError):
    """EPR names a resource that does not exist (wsrf ResourceUnknownFault)."""

    def __init__(self, key: str):
        super().__init__(f"unknown WS-Resource: {key}")
        self.key = key


class ResourceHome:
    """Storage + lifetime bookkeeping for one service's WS-Resources."""

    def __init__(self, name: str, network: Network, *, backend=None) -> None:
        self.network = network
        self.store = WriteThroughCache(Collection(name, network, backend))
        self._termination_time: dict[str, float] = {}
        self._timers: dict[str, Timer] = {}
        #: Invoked with the resource key just before scheduled destruction
        #: (the document is still readable).
        self.on_terminate: Callable[[str], None] | None = None
        #: Invoked just after scheduled destruction completed.
        self.after_terminate: Callable[[str], None] | None = None

    # -- CRUD in resource terms ------------------------------------------------

    def create(self, document: XmlElement, key: str | None = None) -> str:
        return self.store.insert(document, key)

    def load(self, key: str) -> XmlElement:
        try:
            return self.store.read(key)
        except DocumentNotFound as exc:
            raise ResourceUnknownError(key) from exc

    def save(self, key: str, document: XmlElement) -> None:
        try:
            self.store.update(key, document)
        except DocumentNotFound as exc:
            raise ResourceUnknownError(key) from exc

    def destroy(self, key: str) -> None:
        try:
            self.store.delete(key)
        except DocumentNotFound as exc:
            raise ResourceUnknownError(key) from exc
        self._clear_schedule(key)

    def contains(self, key: str) -> bool:
        return self.store.contains(key)

    def keys(self) -> list[str]:
        return self.store.keys()

    def query(self, expression: str, prefixes: dict[str, str] | None = None):
        return self.store.query(expression, prefixes)

    def query_keys(self, expression: str, prefixes: dict[str, str] | None = None):
        return self.store.query_keys(expression, prefixes)

    # -- scheduled termination (WS-ResourceLifetime) ------------------------------

    def termination_time(self, key: str) -> float | None:
        """Scheduled termination instant, or None for infinite lifetime."""
        return self._termination_time.get(key)

    def set_termination_time(self, key: str, at: float | None) -> None:
        """(Re)schedule destruction of ``key`` at virtual time ``at``.

        ``None`` means never (the Grid-in-a-Box "claim" path sets infinity
        this way).  The previous schedule, if any, is cancelled.
        """
        if not self.contains(key):
            raise ResourceUnknownError(key)
        self._clear_schedule(key)
        if at is None:
            return
        self._termination_time[key] = at
        self._timers[key] = self.network.kernel.call_at(
            at, lambda: self._terminate(key), label=f"terminate:{key}"
        )

    def _terminate(self, key: str) -> None:
        # Timer-fired: runs on the clock, on behalf of no request, under
        # the kernel timer's <timer> pseudo-host — the sanitizer's one
        # legitimate lease-expiry channel, not a cross-host memory poke.
        if not self.contains(key):
            return
        if self.on_terminate is not None:
            self.on_terminate(key)
        # The hook may itself have destroyed the resource.
        if self.contains(key):
            self.store.delete(key)
        self._clear_schedule(key)
        if self.after_terminate is not None:
            self.after_terminate(key)

    def _clear_schedule(self, key: str) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            self.network.kernel.cancel(timer)
        self._termination_time.pop(key, None)
