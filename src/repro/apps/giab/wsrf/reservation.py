"""The WSRF ReservationService: reservations are WS-Resources (§4.2.1).

A new reservation terminates at now + an administrator delta; the
ExecService "claims" it by lengthening the termination time (to infinity in
this Grid-in-a-Box, as in the paper), and destroys it once the job is done —
which is why Un-reserve is free in the WSRF column of Figure 6.

This module is a *router*: wire parsing, the lease/EPR idiom and WSRF
fault phrasing over the shared reservation rules in
:mod:`repro.apps.giab.logic` and the :class:`ReservationsTable` accessor
in :mod:`repro.apps.giab.db`.
"""

from __future__ import annotations

from repro.addressing.epr import EndpointReference
from repro.apps.giab.common import RESERVATION_DELTA_MS, wsrf_actions as actions
from repro.apps.giab.db import ReservationsTable
from repro.apps.giab.logic import AlreadyReserved, ReservationRules
from repro.apps.layers.logic import LogicError
from repro.apps.layers.router import wsrf_fault
from repro.container.service import MessageContext, web_method
from repro.wsrf.basefaults import base_fault
from repro.wsrf.lifetime import ResourceLifetimeMixin
from repro.wsrf.programming import ResourceField, WsResourceService, resource_property
from repro.wsrf.properties import ResourcePropertiesMixin
from repro.wsrf.resource import RESOURCE_ID
from repro.xmllib import element, ns, text_of
from repro.xmllib.element import XmlElement


class WsrfReservationService(
    ResourcePropertiesMixin, ResourceLifetimeMixin, WsResourceService
):
    service_name = "Reservation"
    resource_ns = ns.GIAB

    host = ResourceField(str, "")
    owner = ResourceField(str, "")

    def __init__(self, home, account_address: str = "", delta_ms: float = RESERVATION_DELTA_MS):
        super().__init__(home)
        self.reservations = ReservationsTable(home)
        self.account_address = account_address
        self.delta_ms = delta_ms

    # -- creation (application-specific, as WSRF mandates nothing) ----------------

    @web_method(actions.CREATE_RESERVATION)
    def create_reservation(self, context: MessageContext) -> XmlElement:
        host = text_of(context.body.find_local("Host"))
        if not host:
            raise base_fault("createReservation needs a Host")
        owner = str(context.sender) if context.sender is not None else "anonymous"
        # Figure 5 step 4: "Does this user have an account in this VO?"
        # (Identity checks need signed messages; unsigned deployments skip.)
        if self.account_address and context.sender is not None:
            response = context.client().invoke(
                EndpointReference.create(self.account_address),
                actions.ACCOUNT_EXISTS,
                element(f"{{{ns.GIAB}}}accountExists", element(f"{{{ns.GIAB}}}DN", owner)),
            )
            try:
                ReservationRules.require_account(response.text().strip() == "true", owner)
            except LogicError as error:
                raise wsrf_fault(error) from error
        try:
            ReservationRules.require_unreserved(
                host in self.reservations.reserved_hosts(), host
            )
        except AlreadyReserved as already:
            raise base_fault(f"host {already.subject} is already reserved") from already
        epr = self.create_resource(host=host, owner=owner)
        key = epr.property(RESOURCE_ID)
        self.home.set_termination_time(key, self.network.clock.now + self.delta_ms)
        return element(f"{{{ns.GIAB}}}createReservationResponse", epr.to_xml())

    # -- queries used by the other services ------------------------------------------

    @web_method(actions.LIST_RESERVED_HOSTS)
    def list_reserved_hosts(self, context: MessageContext) -> XmlElement:
        response = element(f"{{{ns.GIAB}}}listReservedHostsResponse")
        for host in sorted(self.reservations.reserved_hosts()):
            response.append(element(f"{{{ns.GIAB}}}Host", host))
        return response

    @web_method(actions.CHECK_RESERVATION)
    def check_reservation(self, context: MessageContext) -> XmlElement:
        host = text_of(context.body.find_local("Host"))
        dn = text_of(context.body.find_local("DN"))
        held = self.reservations.held_by(host, dn)
        return element(
            f"{{{ns.GIAB}}}checkReservationResponse", "true" if held else "false"
        )

    # -- resource properties -----------------------------------------------------------

    @resource_property(f"{{{ns.GIAB}}}Host")
    def rp_host(self):
        return self.host

    @resource_property(f"{{{ns.GIAB}}}Owner")
    def rp_owner(self):
        return self.owner
