"""The flat-XML-file subscription store.

Plumbwork Orange "maintains the subscription lists in a flat XML file" —
pointedly *not* the XML database the services use.  Every mutation rewrites
the whole file and every read re-parses it; the costs charged reflect that
(cheap at the handful-of-subscriptions scale the paper measures).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from repro.sim.network import Network
from repro.xmllib import element, ns, parse_xml, serialize, text_of
from repro.xmllib.element import XmlElement

_NS = ns.EVENTING_STORE


@dataclass(frozen=True)
class SubscriptionRecord:
    """One WS-Eventing subscription."""

    identifier: str
    source_address: str
    notify_to: str
    end_to: str = ""
    expires: float | None = None
    filter_expression: str = ""
    delivery_mode: str = ns.WSE_DELIVERY_PUSH

    def expired(self, now: float) -> bool:
        # Inclusive boundary: a lease used on the very tick it expires is
        # already dead, matching WSRF timers which fire at fire_at <= now.
        return self.expires is not None and now >= self.expires

    def to_xml(self) -> XmlElement:
        node = element(
            f"{{{_NS}}}Subscription",
            element(f"{{{_NS}}}Identifier", self.identifier),
            element(f"{{{_NS}}}Source", self.source_address),
            element(f"{{{_NS}}}NotifyTo", self.notify_to),
            element(f"{{{_NS}}}DeliveryMode", self.delivery_mode),
        )
        if self.end_to:
            node.append(element(f"{{{_NS}}}EndTo", self.end_to))
        if self.expires is not None:
            node.append(element(f"{{{_NS}}}Expires", repr(self.expires)))
        if self.filter_expression:
            node.append(element(f"{{{_NS}}}Filter", self.filter_expression))
        return node

    @classmethod
    def from_xml(cls, node: XmlElement) -> "SubscriptionRecord":
        expires_text = text_of(node.find(f"{{{_NS}}}Expires"))
        return cls(
            identifier=text_of(node.find(f"{{{_NS}}}Identifier")),
            source_address=text_of(node.find(f"{{{_NS}}}Source")),
            notify_to=text_of(node.find(f"{{{_NS}}}NotifyTo")),
            end_to=text_of(node.find(f"{{{_NS}}}EndTo")),
            expires=float(expires_text) if expires_text else None,
            filter_expression=text_of(node.find(f"{{{_NS}}}Filter")),
            delivery_mode=text_of(node.find(f"{{{_NS}}}DeliveryMode")),
        )


class FlatFileSubscriptionStore:
    """All subscriptions in one XML document, rewritten on every change."""

    def __init__(self, network: Network, path: str | None = None):
        self.network = network
        self.path = path
        self._ids = itertools.count(1)
        if path is None:
            self._image = serialize(element(f"{{{_NS}}}Subscriptions"))
        else:
            self._write_text(serialize(element(f"{{{_NS}}}Subscriptions")))

    # -- file I/O (virtual cost + optional real file) ---------------------------

    def _read_text(self) -> str:
        if self.path is None:
            text = self._image
        else:
            with open(self.path, "r", encoding="utf-8") as handle:
                text = handle.read()
        self.network.charge(
            self.network.costs.fs_read_per_kb * len(text) / 1024.0, "eventing.store"
        )
        return text

    def _write_text(self, text: str) -> None:
        if self.path is None:
            self._image = text
        else:
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(text)
        self.network.charge(
            self.network.costs.fs_write_per_kb * len(text) / 1024.0, "eventing.store"
        )

    def _load_all(self) -> list[SubscriptionRecord]:
        root = parse_xml(self._read_text())
        return [SubscriptionRecord.from_xml(n) for n in root.element_children()]

    def _save_all(self, records: list[SubscriptionRecord]) -> None:
        root = element(f"{{{_NS}}}Subscriptions")
        for record in records:
            root.append(record.to_xml())
        self._write_text(serialize(root))

    # -- API -------------------------------------------------------------------

    def new_identifier(self) -> str:
        return f"uuid:sub-{next(self._ids):08d}"

    def add(self, record: SubscriptionRecord) -> None:
        records = self._load_all()
        if any(r.identifier == record.identifier for r in records):
            raise ValueError(f"duplicate subscription id: {record.identifier}")
        records.append(record)
        self._save_all(records)

    def get(self, identifier: str) -> SubscriptionRecord | None:
        for record in self._load_all():
            if record.identifier == identifier:
                return record
        return None

    def remove(self, identifier: str) -> bool:
        records = self._load_all()
        remaining = [r for r in records if r.identifier != identifier]
        if len(remaining) == len(records):
            return False
        self._save_all(remaining)
        return True

    def renew(self, identifier: str, expires: float | None) -> SubscriptionRecord | None:
        records = self._load_all()
        for index, record in enumerate(records):
            if record.identifier == identifier:
                records[index] = replace(record, expires=expires)
                self._save_all(records)
                return records[index]
        return None

    def for_source(self, source_address: str) -> list[SubscriptionRecord]:
        return [r for r in self._load_all() if r.source_address == source_address]

    def prune_expired(self, now: float) -> list[SubscriptionRecord]:
        """Drop expired subscriptions; returns what was dropped."""
        records = self._load_all()
        dead = [r for r in records if r.expired(now)]
        if dead:
            self._save_all([r for r in records if not r.expired(now)])
        return dead

    def __len__(self) -> int:
        return len(self._load_all())

