"""The db layer: typed accessors over ``repro.xmldb`` stores.

A :class:`Table` wraps one collection (or any store with the same CRUD
surface, e.g. a :class:`~repro.wsrf.resource.ResourceHome`) and owns its
secondary-index declarations, if it has any.  :meth:`Table.match_keys` is
the index-or-scan decision: answer an equality probe from a covered index
when one exists and the value is expressible as an XPath literal,
otherwise return ``None`` so the accessor falls back to the scan whose
shape — and therefore whose charged cost — it alone knows.  The datagrid
replica catalog is the one accessor that declares an index.

Layer discipline (lint rule RPO15): db-layer modules must not import
``repro.soap``, ``repro.container`` or ``repro.pipeline``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xmllib.xpath import xpath_literal


@dataclass(frozen=True)
class IndexSpec:
    """One declared secondary index: an XPath plus its prefix bindings."""

    path: str
    prefixes: dict[str, str] = field(default_factory=dict)


class Table:
    """Typed accessor base over one xmldb store.

    Subclasses may declare ``indexes`` and expose domain-shaped methods
    (``reserved_hosts()``, ``files_on(host)``, ...); router and logic code
    never touch the collection directly.
    """

    indexes: tuple[IndexSpec, ...] = ()

    def __init__(self, store):
        self.store = store

    def declare_indexes(self) -> None:
        """Declare every index this accessor relies on (idempotent on the
        underlying store; the datagrid deployment builders call this)."""
        for spec in self.indexes:
            self.store.declare_index(spec.path, spec.prefixes)

    # -- the index-or-scan decision ----------------------------------------

    def has_index(self, spec: IndexSpec) -> bool:
        return self.store.find_index(spec.path, spec.prefixes) is not None

    def match_keys(self, spec: IndexSpec, value: str) -> list[str] | None:
        """Keys of documents whose ``spec`` value equals ``value``, answered
        from the covered index — or ``None`` when only a scan can answer
        (no index declared, or the probe is not XPath-literal-safe)."""
        literal = xpath_literal(value)
        if literal is None or not self.has_index(spec):
            return None
        return self.store.query_keys(f"{spec.path}[. = {literal}]", spec.prefixes)
