"""Grid-in-a-Box typed storage accessors (the db layer).

Each accessor owns one collection's document layout; routers and logic
never touch a collection directly.  The two stacks keep their historical
layouts — the WSRF stack's single ``accounts`` document versus the
WS-Transfer stack's document-per-DN, the ``HostInfo`` registry versus the
``Site`` registry — because the layout is part of each stack's measured
wire-and-database behaviour; what they share is the accessor vocabulary
of :class:`repro.apps.layers.db.Table`.  Every query is a scan, as in the
paper's Xindice deployment: no Grid-in-a-Box accessor declares an index.

Layer discipline (lint rule RPO15): no ``repro.soap`` /
``repro.container`` / ``repro.pipeline`` imports here.
"""

from __future__ import annotations

from repro.apps.layers.db import Table
from repro.apps.layers.logic import LogicError
from repro.xmldb.collection import DocumentNotFound
from repro.xmllib import element, ns, text_of
from repro.xmllib.element import XmlElement

# -- accounts -----------------------------------------------------------------


class WsrfAccountsStore(Table):
    """The WSRF stack's layout: every account inside one ``accounts``
    document ("All interaction ... uses the same state information", so no
    WS-Resource per user)."""

    DOC_KEY = "accounts"

    def document(self) -> XmlElement:
        try:
            return self.store.read(self.DOC_KEY)
        except DocumentNotFound:
            return element(f"{{{ns.GIAB}}}Accounts")

    def save(self, document: XmlElement) -> None:
        self.store.upsert(self.DOC_KEY, document)

    @staticmethod
    def find(document: XmlElement, dn: str) -> XmlElement | None:
        for account in document.element_children():
            if text_of(account.find_local("DN")) == dn:
                return account
        return None


class TransferAccountsStore(Table):
    """The WS-Transfer stack's layout: one document per user, keyed by the
    X.509 DN ("the EPR containing the X509 DN of the user")."""

    def find(self, dn: str) -> XmlElement | None:
        try:
            return self.store.read(dn)
        except DocumentNotFound:
            return None


# -- host / site registries ---------------------------------------------------


class HostRegistry(Table):
    """The WSRF stack's host registry: one ``HostInfo`` document per host,
    keyed by host name."""

    def register(self, host: str, document: XmlElement) -> None:
        self.store.upsert(host, document)

    def unregister(self, host: str) -> None:
        """Remove a host; raises :class:`DocumentNotFound` when unknown."""
        self.store.delete(host)

    def documents(self) -> list[tuple[str, XmlElement]]:
        """Every registered (host, ``HostInfo``) pair: the availability
        query scans them all and applies the availability rule itself."""
        return list(self.store.documents())


def site_field(site: XmlElement, local: str) -> XmlElement:
    """A required child of a Site document; a missing one is a service-side
    invariant failure (soap:Server on the wire)."""
    node = site.find_local(local)
    if node is None:
        raise LogicError(f"site document lacks {local}", kind="server")
    return node


def site_applications(site: XmlElement) -> list[str]:
    return [
        a.text().strip() for a in site.element_children() if a.tag.local == "Application"
    ]


class SiteRegistry(Table):
    """The WS-Transfer stack's unified registry: one ``Site`` document per
    site carrying both the host facts and its reservation state."""

    def find(self, name: str) -> XmlElement | None:
        try:
            return self.store.read(name)
        except DocumentNotFound:
            return None

    def save(self, name: str, site: XmlElement) -> None:
        self.store.update(name, site)

    def documents(self) -> list[tuple[str, XmlElement]]:
        """Every (name, Site) pair: the availability query scans them all."""
        return list(self.store.documents())


# -- reservations (WSRF WS-Resources) -----------------------------------------


class ReservationsTable(Table):
    """The WSRF stack's reservations: one WS-Resource document per live
    reservation (host + owner fields).  Lifetime does the expiry, so every
    stored document is live."""

    def pairs(self) -> list[tuple[str, str]]:
        pairs = []
        for key in self.store.keys():
            doc = self.store.load(key)
            host = text_of(doc.find(f"{{{ns.WSRF_FIELDS}}}host"))
            owner = text_of(doc.find(f"{{{ns.WSRF_FIELDS}}}owner"))
            pairs.append((host, owner))
        return pairs

    def reserved_hosts(self) -> set[str]:
        return {host for host, _ in self.pairs()}

    def held_by(self, host: str, dn: str) -> bool:
        return any(entry == (host, dn) for entry in self.pairs())

