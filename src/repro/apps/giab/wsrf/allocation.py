"""The WSRF ResourceAllocationService (§4.2.1).

Also not resource-oriented: the mapping of installed applications to
ExecServices is shared state.  GetAvailableResources answers "in concert
with the ReservationService" — a server out-call per query.

This module is a *router*: wire parsing, the out-call to the reservation
service, and WSRF fault phrasing over the shared availability rule in
:mod:`repro.apps.giab.logic` and the :class:`HostRegistry` accessor in
:mod:`repro.apps.giab.db`.
"""

from __future__ import annotations

from repro.addressing.epr import EndpointReference
from repro.apps.giab.common import host_info, parse_host_info, wsrf_actions as actions
from repro.apps.giab.db import HostRegistry
from repro.apps.giab.logic import AdminPolicy, application_available
from repro.apps.layers.logic import AccessDenied
from repro.container.service import MessageContext, ServiceSkeleton, web_method
from repro.wsrf.basefaults import base_fault
from repro.xmldb.collection import Collection, DocumentNotFound
from repro.xmllib import element, ns, text_of
from repro.xmllib.element import XmlElement


class WsrfResourceAllocationService(ServiceSkeleton):
    service_name = "ResourceAllocation"

    def __init__(
        self,
        collection: Collection,
        reservation_address: str,
        admins: set[str] | None = None,
    ):
        super().__init__()
        self.hosts = HostRegistry(collection)
        self.reservation_address = reservation_address
        self.policy = AdminPolicy(admins)

    def _require_admin(self, context: MessageContext) -> None:
        try:
            self.policy.require_admin(context.sender)
        except AccessDenied as denied:
            raise base_fault(f"{denied.subject} is not a VO administrator") from denied

    # -- administration ------------------------------------------------------------

    @web_method(actions.REGISTER_HOST)
    def register_host(self, context: MessageContext) -> XmlElement:
        self._require_admin(context)
        info = parse_host_info(context.body)
        if not info["host"]:
            raise base_fault("registerHost needs a Host")
        self.hosts.register(info["host"], context.body.copy())
        return element(f"{{{ns.GIAB}}}registerHostResponse")

    @web_method(actions.UNREGISTER_HOST)
    def unregister_host(self, context: MessageContext) -> XmlElement:
        self._require_admin(context)
        host = text_of(context.body.find_local("Host"))
        try:
            self.hosts.unregister(host)
        except DocumentNotFound:
            raise base_fault(f"unknown host: {host}")
        return element(f"{{{ns.GIAB}}}unregisterHostResponse")

    # -- the measured query ------------------------------------------------------------

    @web_method(actions.GET_AVAILABLE_RESOURCES)
    def get_available_resources(self, context: MessageContext) -> XmlElement:
        application = text_of(context.body.find_local("Application"))
        if not application:
            raise base_fault("getAvailableResources needs an Application")
        # "in concert with the ReservationService": one out-call per query.
        reserved_response = context.client().invoke(
            EndpointReference.create(self.reservation_address),
            actions.LIST_RESERVED_HOSTS,
            element(f"{{{ns.GIAB}}}listReservedHosts"),
        )
        reserved = {h.text().strip() for h in reserved_response.element_children()}
        response = element(f"{{{ns.GIAB}}}getAvailableResourcesResponse")
        for _key, doc in self.hosts.documents():
            info = parse_host_info(doc)
            if application_available(info["applications"], application, info["host"] in reserved):
                response.append(
                    host_info(
                        info["host"], info["exec_address"], info["data_address"], info["applications"]
                    )
                )
        return response


class ServiceGroupAllocationService(ServiceSkeleton):
    """Alternative ResourceAllocationService backed by a WS-ServiceGroup.

    The host registry is a ServiceGroup whose entries carry HostInfo
    content documents; administrators manage membership through the
    standard wssg:Add operation and entry Destroy, and availability queries
    read the group's members.  Demonstrates the "extra feature" WSRF offers
    (§5 lists service groups among the functionality WS-Transfer lacks).
    """

    service_name = "SgResourceAllocation"

    def __init__(self, group, reservation_address: str):
        super().__init__()
        #: A ServiceGroupService instance (usually in the same container)
        #: whose content rule admits {GIAB}HostInfo documents.
        self.group = group
        self.reservation_address = reservation_address

    @web_method(actions.GET_AVAILABLE_RESOURCES)
    def get_available_resources(self, context: MessageContext) -> XmlElement:
        application = text_of(context.body.find_local("Application"))
        if not application:
            raise base_fault("getAvailableResources needs an Application")
        reserved_response = context.client().invoke(
            EndpointReference.create(self.reservation_address),
            actions.LIST_RESERVED_HOSTS,
            element(f"{{{ns.GIAB}}}listReservedHosts"),
        )
        reserved = {h.text().strip() for h in reserved_response.element_children()}
        response = element(f"{{{ns.GIAB}}}getAvailableResourcesResponse")
        for _entry_key, _member_epr, content in self.group.members():
            if content is None:
                continue
            info = parse_host_info(content)
            if application_available(info["applications"], application, info["host"] in reserved):
                response.append(
                    host_info(
                        info["host"], info["exec_address"], info["data_address"], info["applications"]
                    )
                )
        return response
