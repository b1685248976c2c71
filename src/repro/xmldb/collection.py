"""Collections: the unit of storage and query.

Every operation charges its calibrated virtual cost (reads are cheap,
inserts expensive — "Creating resources (and adding them to the database) in
particular is always slower than reading or updating them") and counts as a
``db_op`` in the metrics.

Collections may carry secondary indexes (:mod:`repro.xmldb.index`):
``declare_index`` builds one over the current contents, every write
maintains it incrementally, and ``query``/``query_keys`` route through the
planner — answering covered equality lookups in O(hits) instead of O(N),
and falling back to the scan path, bit-identically, for everything else.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.sim.network import Network
from repro.xmldb.backends import Backend, MemoryBackend, backend_items
from repro.xmldb.index import XPathIndex, find_index, plan_query
from repro.xmllib import parse_xml, serialize
from repro.xmllib.element import XmlElement
from repro.xmllib.xpath import NodeResult, compile_xpath


class DocumentNotFound(KeyError):
    """Raised when a document id does not exist in the collection."""

    def __init__(self, collection: str, key: str):
        super().__init__(f"{collection}/{key}")
        self.collection = collection
        self.key = key


class Collection:
    """A named set of XML documents keyed by resource id."""

    def __init__(
        self,
        name: str,
        network: Network,
        backend: Backend | None = None,
    ) -> None:
        self.name = name
        self.network = network
        self.backend: Backend = backend if backend is not None else MemoryBackend()
        self.indexes: dict[str, XPathIndex] = {}
        self._guid = itertools.count(1)

    # -- key generation ---------------------------------------------------

    def new_id(self) -> str:
        """Deterministic GUID-style resource ids (paper §3.2: "by default,
        GUID").  Skips ids already present so a collection reopened over a
        persistent backend (file/custom) never re-issues a taken name."""
        while True:
            candidate = f"{self.name}-{next(self._guid):08d}"
            if self.backend.load(candidate) is None:
                return candidate

    # -- CRUD ----------------------------------------------------------------

    def insert(self, document: XmlElement, key: str | None = None) -> str:
        """Store a new document; returns its id.  Inserting over an existing
        id is an error — that is what :meth:`update` is for."""
        key = key if key is not None else self.new_id()
        if self.backend.load(key) is not None:
            raise ValueError(f"document already exists: {self.name}/{key}")
        self._charge(self.network.costs.db_insert)
        self.network.note_mutation(self.name, key, "insert")
        text = serialize(document)
        self.backend.store(key, text)
        self._index_put(key, text)
        return key

    def read(self, key: str) -> XmlElement:
        self._charge(self.network.costs.db_read)
        text = self.backend.load(key)
        if text is None:
            raise DocumentNotFound(self.name, key)
        return parse_xml(text)

    def update(self, key: str, document: XmlElement) -> None:
        self._charge(self.network.costs.db_update)
        if self.backend.load(key) is None:
            raise DocumentNotFound(self.name, key)
        self.network.note_mutation(self.name, key, "update")
        text = serialize(document)
        self.backend.store(key, text)
        self._index_put(key, text)

    def upsert(self, key: str, document: XmlElement) -> None:
        """Store whether or not the key exists (out-of-band resource
        creation support — paper §3.2's second implementation issue)."""
        if self.backend.load(key) is None:
            self._charge(self.network.costs.db_insert)
        else:
            self._charge(self.network.costs.db_update)
        self.network.note_mutation(self.name, key, "upsert")
        text = serialize(document)
        self.backend.store(key, text)
        self._index_put(key, text)

    def delete(self, key: str) -> None:
        self._charge(self.network.costs.db_delete)
        if not self.backend.remove(key):
            raise DocumentNotFound(self.name, key)
        self.network.note_mutation(self.name, key, "delete")
        self._index_discard(key)

    def contains(self, key: str) -> bool:
        return self.backend.load(key) is not None

    def keys(self) -> list[str]:
        return sorted(self.backend.keys())

    def __len__(self) -> int:
        return len(self.keys())

    # -- secondary indexes --------------------------------------------------

    def declare_index(
        self,
        path: str,
        prefixes: dict[str, str] | None = None,
        *,
        name: str | None = None,
    ) -> XPathIndex:
        """Declare (and build) a secondary index on ``path``.

        Redeclaring a structurally identical path returns the existing
        index.  Building charges one scan over the current contents — the
        same shape as the query the index will keep us from repeating.
        """
        index = XPathIndex(path, prefixes, name=name)
        for existing in self.indexes.values():
            if existing.signature == index.signature:
                return existing
        if index.name in self.indexes:
            raise ValueError(f"index name already taken: {index.name!r}")
        contents = list(backend_items(self.backend))
        if contents:
            self._charge(
                self.network.costs.db_query_base
                + self.network.costs.db_query_per_doc * len(contents)
            )
        for key, text in contents:
            index.add(key, parse_xml(text))
        self.indexes[index.name] = index
        return index

    def find_index(
        self, path: str, prefixes: dict[str, str] | None = None
    ) -> XPathIndex | None:
        """The declared index covering ``path``, or None."""
        return find_index(path, prefixes, self.indexes.values())

    def _index_put(self, key: str, text: str) -> None:
        # Index the *stored* text, not the caller's tree: the backend copy
        # is the source of truth, and callers may mutate their document
        # object after the write returns.
        if not self.indexes:
            return
        document = parse_xml(text)
        for index in self.indexes.values():
            index.add(key, document)
        self.network.charge(
            self.network.costs.db_index_maintain * len(self.indexes), "db.index"
        )

    def _index_discard(self, key: str) -> None:
        if not self.indexes:
            return
        for index in self.indexes.values():
            index.discard(key)
        self.network.charge(
            self.network.costs.db_index_maintain * len(self.indexes), "db.index"
        )

    # -- query -----------------------------------------------------------------

    def documents(self) -> Iterator[tuple[str, XmlElement]]:
        for key, text in backend_items(self.backend):
            yield key, parse_xml(text)

    def query(
        self, expression: str, prefixes: dict[str, str] | None = None
    ) -> list[tuple[str, NodeResult]]:
        """Evaluate an XPath; returns (key, hit) pairs.

        When a declared index covers the expression's equality predicate
        the candidate documents come from its posting list (O(hits),
        charged ``db_query_indexed`` + per-document); otherwise every
        document is scanned (O(N), charged ``db_query_base`` +
        per-document).  The same compiled expression runs against the
        candidates either way, so the results are identical — only the
        candidate set shrinks.
        """
        compiled = compile_xpath(expression, prefixes)
        plan = plan_query(compiled, self.indexes.values()) if self.indexes else None
        if plan is not None:
            keys = sorted(plan.index.lookup(plan.value))
            self._charge(
                self.network.costs.db_query_indexed
                + self.network.costs.db_query_per_doc * len(keys)
            )
        else:
            keys = self.keys()
            self._charge(
                self.network.costs.db_query_base
                + self.network.costs.db_query_per_doc * len(keys)
            )
        hits: list[tuple[str, NodeResult]] = []
        for key in keys:
            text = self.backend.load(key)
            if text is None:
                continue
            for node in compiled.select(parse_xml(text)):
                hits.append((key, node))
        return hits

    def query_keys(self, expression: str, prefixes: dict[str, str] | None = None) -> list[str]:
        """Ids of documents with at least one hit for the expression."""
        seen: dict[str, None] = {}
        for key, _ in self.query(expression, prefixes):
            seen.setdefault(key, None)
        return list(seen)

    # -- internals ---------------------------------------------------------------

    def _charge(self, ms: float) -> None:
        self.network.charge(ms, "db")
        self.network.metrics.db_op()
