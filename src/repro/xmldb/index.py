"""Secondary indexes and the query planner for the XML database.

The paper's central performance caveat is that both stacks are "dominated
by the XML database": every Grid-in-a-Box host and job lookup is a
full-collection XPath scan, so the metadata path degrades linearly as the
VO grows.  That is a missing-index problem, not a stack problem.

An :class:`XPathIndex` is declared on a collection for one simple,
predicate-free location path (``//giab:Host`` in the xmldb bench corpus,
a replica's storage host in the datagrid catalog).  It maps the *string value* of every node
the path selects to the set of document keys containing it, and is
maintained incrementally by the collection on every
insert/update/upsert/delete.

:func:`plan_query` is the planner.  It matches a query expression's
:class:`~repro.xmllib.xpath.PlanShape` against the declared indexes: an
expression of the form ``P[. = 'v']`` or ``B[Q = 'v']`` is covered by an
index on ``P`` (respectively ``B/Q``), because a document holds at least
one hit exactly when it posted the value ``'v'`` under that path.  A
covered query is answered by running the *same* compiled expression over
only the posting-list documents — results are identical to the scan, only
the candidate set (and therefore the charged cost, ``db_query_indexed`` +
per-document over O(hits) instead of ``db_query_base`` + per-document over
O(N)) shrinks.  Anything the shape cannot express falls back to the scan
path untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.xmllib.element import XmlElement
from repro.xmllib.xpath import XPath, XPathError, compile_xpath


class IndexDefinitionError(ValueError):
    """Raised when an index is declared on a path the planner cannot use."""


class XPathIndex:
    """A posting-list index over one location path of a collection.

    The index stores ``value -> {keys}`` plus the reverse ``key -> values``
    map that makes removal (and therefore update) independent of the stored
    document text.
    """

    def __init__(
        self,
        path: str,
        prefixes: dict[str, str] | None = None,
        *,
        name: str | None = None,
    ) -> None:
        self.path = path
        self.prefixes = dict(prefixes or {})
        self.name = name if name is not None else path
        self._compiled = compile_xpath(path, self.prefixes)
        shape = self._compiled.plan_shape()
        if shape is None or shape.literal is not None:
            raise IndexDefinitionError(
                f"index path must be a simple, predicate-free location path: {path!r}"
            )
        #: Structural identity of the indexed path (prefixes resolved), the
        #: key the planner matches query shapes against.
        self.signature = shape.signature
        self._postings: dict[str, set[str]] = {}
        self._values_by_key: dict[str, tuple[str, ...]] = {}

    # -- maintenance (driven by Collection on every write) -----------------

    def extract(self, document: XmlElement) -> tuple[str, ...]:
        """Distinct string values the indexed path selects in ``document``."""
        return tuple(
            sorted({node.string_value() for node in self._compiled.select(document)})
        )

    def add(self, key: str, document: XmlElement) -> None:
        """(Re)index one document; replaces any previous entry for ``key``."""
        self.discard(key)
        values = self.extract(document)
        if not values:
            return
        self._values_by_key[key] = values
        for value in values:
            self._postings.setdefault(value, set()).add(key)

    def discard(self, key: str) -> None:
        """Forget a document's entries (no-op when it posted nothing)."""
        for value in self._values_by_key.pop(key, ()):
            posting = self._postings.get(value)
            if posting is not None:
                posting.discard(key)
                if not posting:
                    del self._postings[value]

    # -- reads -------------------------------------------------------------

    def lookup(self, value: str) -> set[str]:
        """Keys of documents where the indexed path takes ``value``."""
        return set(self._postings.get(value, ()))

    def __len__(self) -> int:
        return len(self._postings)


@dataclass(frozen=True)
class QueryPlan:
    """The planner's verdict: answer ``value`` from ``index``'s postings."""

    index: XPathIndex
    value: str


def plan_query(compiled: XPath, indexes: Iterable[XPathIndex]) -> QueryPlan | None:
    """Match a compiled expression against declared indexes.

    Returns a plan only when an index's path signature equals the
    expression's (base path + predicate value path) and the predicate
    compares against a string literal — the one case where the posting list
    is exactly the set of documents with at least one hit.
    """
    shape = compiled.plan_shape()
    if shape is None or shape.literal is None:
        return None
    signature = shape.signature
    for index in indexes:
        if index.signature == signature:
            return QueryPlan(index, shape.literal)
    return None


def find_index(
    path: str, prefixes: dict[str, str] | None, indexes: Iterable[XPathIndex]
) -> XPathIndex | None:
    """The index declared on ``path``, if any (matched structurally, so the
    lookup succeeds whatever prefix names the caller uses)."""
    try:
        shape = compile_xpath(path, prefixes).plan_shape()
    except XPathError:
        return None
    if shape is None or shape.literal is not None:
        return None
    signature = shape.signature
    for index in indexes:
        if index.signature == signature:
            return index
    return None
