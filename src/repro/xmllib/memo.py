"""Cache infrastructure for the message-path memoization layer.

The wall-clock cost of a soak is dominated by re-canonicalizing,
re-digesting and re-signing near-identical XML (DESIGN.md §16).  This
module owns the machinery every cache in ``repro.xmllib`` and
``repro.crypto`` shares:

* :class:`CacheStats` — observable hit/miss counters, one per cache,
  reachable through :func:`cache_stats` so benchmarks and tier-1 tests
  can assert cache behavior instead of guessing at it;
* :class:`ContentCache` — a bounded least-recently-used dict keyed by
  *content* (structural keys from
  :func:`repro.xmllib.element.content_key`), so a freshly re-parsed tree
  that is byte-identical to one seen before still hits, and an entry
  nothing reads again is evicted instead of staying resident;
* :func:`caching_disabled` — the uncached-baseline switch the
  ``msgperf`` benchmark uses to measure honest speedups.

Every cached value is a pure function of its key.  A key that stands for
a tree is that tree's content key, and
:func:`~repro.xmllib.element.content_key` *seals* the tree it keys, which
then can no longer change — so a cached answer can never go stale (the
property tests in
``tests/xmllib/test_memo_coherence.py`` pin this down).  The caches are
process-wide and shared across simulated hosts; that is sound for the
same reason ``rsa._KEY_CACHE`` is: the worst outcome of sharing is a
duplicated computation, never divergent state, and no virtual-clock cost
depends on whether a computation was cached.
"""

from __future__ import annotations

from contextlib import contextmanager

_ENABLED = True


def memo_enabled() -> bool:
    """True unless running inside :func:`caching_disabled`."""
    return _ENABLED


@contextmanager
def caching_disabled():
    """Run with every content cache bypassed (the uncached baseline).

    Global caches are cleared on entry so a following cached measurement
    starts cold and earns its hits, and every received message is re-parsed
    from its bytes.  Sealing is not a cache: trees are sealed at the same
    points in both modes, and the content keys sealed nodes hold need no
    clearing, since a sealed tree cannot change.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    clear_caches()
    try:
        yield
    finally:
        _ENABLED = previous


class CacheStats:
    """Hit/miss counters for one named cache."""

    __slots__ = ("name", "hits", "misses")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CacheStats {self.name} hits={self.hits} misses={self.misses}>"


class ContentCache:
    """A bounded, least-recently-used, content-keyed cache with
    observable statistics.

    Keys must be hashable and fully determine the value.  The dict's
    insertion order is its recency order, least recently used first: a
    hit moves its entry to the end, and an insert into a full cache
    evicts the first entry.  Each owner sizes ``capacity`` from traced
    reuse (DESIGN.md §16), so what stays resident is what gets read again.
    """

    __slots__ = ("_data", "capacity", "stats")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 2:
            raise ValueError(f"cache capacity must be >= 2: {capacity}")
        self._data: dict = {}
        self.capacity = capacity
        self.stats = CacheStats(name)
        _CACHES[name] = self

    def get(self, key):
        """The cached value, counting a hit or a miss; a hit makes the
        entry the most recently used."""
        data = self._data
        value = data.pop(key, _MISSING)
        if value is _MISSING:
            self.stats.misses += 1
            return None
        data[key] = value
        self.stats.hits += 1
        return value

    def put(self, key, value) -> None:
        """Store ``value`` as the most recently used entry, evicting the
        least recently used one if a new key finds the cache full."""
        data = self._data
        if data.pop(key, _MISSING) is _MISSING and len(data) >= self.capacity:
            del data[next(iter(data))]
        data[key] = value

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


_MISSING = object()

#: Registry of every named cache, populated as cache owners import.
_CACHES: dict[str, ContentCache] = {}


def cache_stats() -> dict[str, dict]:
    """Snapshot of every cache's counters, keyed by cache name."""
    return {name: cache.stats.as_dict() for name, cache in sorted(_CACHES.items())}


def reset_cache_stats() -> None:
    for cache in _CACHES.values():
        cache.stats.reset()


def clear_caches() -> None:
    """Drop every cached value (test isolation / baseline runs)."""
    for cache in _CACHES.values():
        cache.clear()


def get_cache(name: str) -> ContentCache:
    """Look up a registered cache by name (tests, benchmarks)."""
    return _CACHES[name]
