"""The write-through resource cache.

The paper attributes WSRF.NET's faster Set to "the more extensive
optimization effort (particularly write-through resource caching)": a Set
avoids the read-before-write the unoptimized WS-Transfer service pays.
This wrapper provides exactly that: reads served from cache are charged the
(cheap) cache-hit cost, writes go to both cache and database.

Eviction is true LRU: a read hit refreshes a document's recency, so under
churn the hottest resources stay resident and the coldest one is evicted.
"""

from __future__ import annotations

from repro.xmldb.collection import Collection
from repro.xmllib.element import XmlElement


class WriteThroughCache:
    """A caching facade over a :class:`~repro.xmldb.collection.Collection`."""

    def __init__(self, collection: Collection, capacity: int = 256) -> None:
        self.collection = collection
        self.capacity = capacity
        # Insertion order doubles as recency order: least-recently-used
        # first.  Every hit and every write moves its key to the end.
        self._cache: dict[str, XmlElement] = {}
        self.hits = 0
        self.misses = 0

    @property
    def name(self) -> str:
        return self.collection.name

    def new_id(self) -> str:
        return self.collection.new_id()

    def insert(self, document: XmlElement, key: str | None = None) -> str:
        key = self.collection.insert(document, key)
        self._put(key, document)
        return key

    def read(self, key: str) -> XmlElement:
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            # Move-to-end: a hit makes this the most recently used entry.
            self._cache[key] = self._cache.pop(key)
            self.collection.network.charge(self.collection.network.costs.cache_hit, "db.cache")
            return cached.copy()
        self.misses += 1
        document = self.collection.read(key)
        self._put(key, document)
        return document

    def update(self, key: str, document: XmlElement) -> None:
        self.collection.update(key, document)
        self._put(key, document)

    def upsert(self, key: str, document: XmlElement) -> None:
        """Write-through upsert: without this, an upsert reaching the raw
        collection would leave a stale copy of ``key`` in the cache."""
        self.collection.upsert(key, document)
        self._put(key, document)

    def delete(self, key: str) -> None:
        self._cache.pop(key, None)
        self.collection.delete(key)

    def contains(self, key: str) -> bool:
        return key in self._cache or self.collection.contains(key)

    def keys(self) -> list[str]:
        return self.collection.keys()

    def documents(self):
        return self.collection.documents()

    def query(self, expression: str, prefixes: dict[str, str] | None = None):
        # Queries bypass the cache: write-through means the DB is never stale.
        return self.collection.query(expression, prefixes)

    def query_keys(self, expression: str, prefixes: dict[str, str] | None = None):
        return self.collection.query_keys(expression, prefixes)

    def _put(self, key: str, document: XmlElement) -> None:
        # Re-inserting an existing key must refresh its recency, so drop it
        # first; then evict the least recently used entry if still full.
        self._cache.pop(key, None)
        if len(self._cache) >= self.capacity:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = document.copy()
