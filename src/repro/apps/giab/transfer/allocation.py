"""The unified WS-Transfer ResourceAllocation/Reservation service (§4.2.2).

One service stores two kinds of resources — computing sites and their
reservations — which WS-Transfer permits ("WS-Transfer is more flexible
with the number of different types of resources a service can store").
The cost is mode-dispatch on the *shape of the EPR*:

* Get with an id starting ``1`` → available-resources query ("1<app>");
* Get with any other id → who holds the reservation on that site;
* Put with id ``R<site>`` → make a reservation, ``U<site>`` → remove it,
  ``T<site>`` → change the reserved-until time.

Since WS-Transfer lacks lifetime management, "reservation lifetimes must be
managed manually": nothing expires a reservation here, and a client that
forgets to unreserve blocks the site — a failure mode the tests exercise.

This module is a *router*: the CRUD/mode-dispatch mapping and this
stack's fault phrasing over the shared availability and reservation rules
in :mod:`repro.apps.giab.logic` and the :class:`SiteRegistry` accessor in
:mod:`repro.apps.giab.db`.
"""

from __future__ import annotations

from repro.addressing.epr import EndpointReference
from repro.apps.giab.db import SiteRegistry, site_applications, site_field
from repro.apps.giab.logic import (
    AdminPolicy,
    AlreadyReserved,
    NotReserved,
    ReservationRules,
    WrongHolder,
    application_available,
)
from repro.apps.layers.logic import AccessDenied, LogicError
from repro.apps.layers.router import transfer_fault, transfer_faults
from repro.container.service import MessageContext, web_method
from repro.soap.envelope import SoapFault
from repro.transfer.service import (
    TRANSFER_RESOURCE_ID,
    TransferResourceService,
    actions as wxf_actions,
)
from repro.xmllib import element, ns, text_of
from repro.xmllib.element import XmlElement


def site_representation(
    name: str, exec_address: str, data_address: str, applications: list[str]
) -> XmlElement:
    node = element(
        f"{{{ns.GIAB}}}Site",
        element(f"{{{ns.GIAB}}}Name", name),
        element(f"{{{ns.GIAB}}}ExecService", exec_address),
        element(f"{{{ns.GIAB}}}DataService", data_address),
        element(f"{{{ns.GIAB}}}ReservedBy", ""),
        element(f"{{{ns.GIAB}}}ReservedUntil", ""),
    )
    for app in applications:
        node.append(element(f"{{{ns.GIAB}}}Application", app))
    return node


def _deep_text(doc: XmlElement, local: str) -> str:
    """Text of the first descendant with the given local name ("" if none).

    Put bodies nest the interesting fields inside a request wrapper; with no
    schema to anchor on (<xsd:any>!) we go by local name wherever it sits.
    """
    for node in doc.descendants():
        if node.tag.local == local:
            return node.text().strip()
    return ""


class TransferResourceAllocationService(TransferResourceService):
    service_name = "ResourceAllocation"

    def __init__(self, collection, account_address: str = "", admins: set[str] | None = None):
        super().__init__(collection)
        self.sites = SiteRegistry(collection)
        self.account_address = account_address
        self.policy = AdminPolicy(admins)

    # -- Create / Delete: computing sites (administrative) --------------------------

    def process_create(self, representation: XmlElement, context: MessageContext):
        try:
            self.policy.require_admin(context.sender)
        except AccessDenied as denied:
            raise SoapFault("Client", f"{denied.subject} may not register sites") from denied
        name = text_of(representation.find_local("Name"))
        if not name:
            raise SoapFault("Client", "site representation needs a Name")
        if name.startswith(("1", "R", "U", "T")):
            # The mode-dispatch convention makes these prefixes unusable as
            # site names — an idiosyncrasy the paper's design invites.
            raise SoapFault("Client", f"site name may not start with a mode prefix: {name}")
        return representation, None, name

    def process_delete(self, key: str, context: MessageContext) -> None:
        try:
            self.policy.require_admin(context.sender)
        except AccessDenied as denied:
            raise SoapFault("Client", f"{denied.subject} may not remove sites") from denied

    # -- Get: mode dispatch ----------------------------------------------------------

    def process_get(self, key: str, context: MessageContext) -> XmlElement:
        if key.startswith("1"):
            return self._available_resources(key[1:])
        site = self.sites.find(key)
        if site is None:
            raise SoapFault("Client", f"no site {key}")
        with transfer_faults():
            holder = text_of(site_field(site, "ReservedBy"))
        return element(f"{{{ns.GIAB}}}ReservationHolder", holder)

    def _available_resources(self, application: str) -> XmlElement:
        response = element(f"{{{ns.GIAB}}}AvailableResources")
        with transfer_faults():
            for _key, site in self.sites.documents():
                reserved = bool(text_of(site_field(site, "ReservedBy")))
                if application_available(site_applications(site), application, reserved):
                    response.append(site.copy())
        return response

    # -- Put: three reservation modes --------------------------------------------------

    def process_put(
        self, key: str, old: XmlElement | None, replacement: XmlElement, context: MessageContext
    ) -> XmlElement:
        raise SoapFault("Server", "unreachable: wxf_put is overridden")

    @web_method(wxf_actions.PUT)
    def wxf_put(self, context: MessageContext) -> XmlElement:
        key = self._require_key(context)
        mode, site_name = key[:1], key[1:]
        if mode not in ("R", "U", "T"):
            raise SoapFault("Client", f"Put EPR has no reservation mode: {key}")
        site = self.sites.find(site_name)
        if site is None:
            raise SoapFault("Client", f"no site {site_name}")
        sender = str(context.sender) if context.sender is not None else "anonymous"
        if mode == "R":
            self._make_reservation(site, site_name, sender, context)
        elif mode == "U":
            self._remove_reservation(site, site_name, sender)
        else:
            self._change_time(site, context)
        self.sites.save(site_name, site)
        return element(f"{{{ns.WXF}}}PutResponse", site.copy())

    def _make_reservation(
        self, site: XmlElement, site_name: str, sender: str, context: MessageContext
    ) -> None:
        try:
            ReservationRules.require_unreserved(
                bool(text_of(site_field(site, "ReservedBy"))), site_name
            )
        except AlreadyReserved as already:
            raise SoapFault("Client", f"site {already.subject} is already reserved") from already
        except LogicError as error:
            raise transfer_fault(error) from error
        # Identity checks need signed messages; unsigned deployments skip.
        if self.account_address and sender != "anonymous":
            check = context.client().invoke(
                EndpointReference.create(self.account_address).with_property(
                    TRANSFER_RESOURCE_ID, sender
                ),
                wxf_actions.GET,
                element(f"{{{ns.WXF}}}Get"),
            )
            try:
                ReservationRules.require_account(check.text().strip() == "true", sender)
            except LogicError as error:
                raise transfer_fault(error) from error
        until = _deep_text(context.body, "ReservedUntil")
        with transfer_faults():
            site_field(site, "ReservedBy").children = [sender]
            site_field(site, "ReservedUntil").children = [until] if until else []

    def _remove_reservation(self, site: XmlElement, site_name: str, sender: str) -> None:
        with transfer_faults():
            holder = text_of(site_field(site, "ReservedBy"))
        try:
            ReservationRules.require_holder(holder, sender, site_name)
        except NotReserved as unreserved:
            raise SoapFault("Client", f"site {unreserved.subject} is not reserved") from unreserved
        except WrongHolder as wrong:
            raise SoapFault(
                "Client", f"reservation on {wrong.subject} belongs to {wrong.holder}"
            ) from wrong
        with transfer_faults():
            site_field(site, "ReservedBy").children = []
            site_field(site, "ReservedUntil").children = []

    def _change_time(self, site: XmlElement, context: MessageContext) -> None:
        with transfer_faults():
            reserved = bool(text_of(site_field(site, "ReservedBy")))
        if not reserved:
            raise SoapFault("Client", "cannot change time of an unreserved site")
        until = _deep_text(context.body, "ReservedUntil")
        if not until:
            raise SoapFault("Client", "mode T needs a ReservedUntil in the body")
        with transfer_faults():
            site_field(site, "ReservedUntil").children = [until]
