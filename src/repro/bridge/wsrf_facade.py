"""A WSRF face over a WS-Transfer backing service.

Existing WSRF clients keep sending GetResourceProperty /
SetResourceProperties / Destroy (and the application's Create); the facade
translates each onto the backing service's Get / Put / Delete / Create.
SetResourceProperties costs *two* backing calls (Get, then Put) because
WS-Transfer has no partial update — switching stacks is possible but not
free, which is §5's point.
"""

from __future__ import annotations

from repro.addressing.epr import EndpointReference
from repro.container.service import MessageContext, ServiceSkeleton, web_method
from repro.bridge.mapping import BridgeMapping
from repro.soap.envelope import SoapFault
from repro.transfer.service import TRANSFER_RESOURCE_ID, actions as wxf_actions
from repro.wsrf.basefaults import base_fault
from repro.wsrf.lifetime import actions as rl_actions
from repro.wsrf.properties import actions as rp_actions, _parse_rp_name
from repro.wsrf.resource import RESOURCE_ID
from repro.xmllib import element, ns, text_of
from repro.xmllib.element import XmlElement


class WsrfFacadeService(ServiceSkeleton):
    service_name = "WsrfFacade"

    def __init__(self, backing_address: str, mapping: BridgeMapping):
        super().__init__()
        self.backing_address = backing_address
        self.mapping = mapping

    # -- EPR translation -------------------------------------------------------

    def _backing_epr(self, context: MessageContext) -> EndpointReference:
        key = context.headers.target_epr().property(RESOURCE_ID)
        if key is None:
            raise base_fault(
                f"{self.service_name}: operation requires a WS-Resource EPR",
                error_code="ResourceUnknownFault",
            )
        return EndpointReference.create(self.backing_address).with_property(
            TRANSFER_RESOURCE_ID, key
        )

    def _fetch_representation(self, context: MessageContext) -> XmlElement:
        response = context.client().invoke(
            self._backing_epr(context), wxf_actions.GET, element(f"{{{ns.WXF}}}Get")
        )
        representation = next(response.element_children(), None)
        if representation is None:
            raise base_fault("backing service returned an empty representation")
        return representation

    # -- the WSRF port types, bridged -----------------------------------------------

    @web_method(rp_actions.GET)
    def bridged_get_resource_property(self, context: MessageContext) -> XmlElement:
        name = _parse_rp_name(context.body.text())
        child_tag = self.mapping.child_for_property(name)
        if child_tag is None:
            raise base_fault(
                f"no ResourceProperty {name.clark()}",
                error_code="InvalidResourcePropertyQNameFault",
            )
        representation = self._fetch_representation(context)
        response = element(f"{{{ns.WSRF_RP}}}GetResourcePropertyResponse")
        for child in representation.element_children():
            if child.tag.local == child_tag.local:
                rp = self.mapping.property_for_child(child.tag)
                response.append(element(rp, child.text()))
        return response

    @web_method(rp_actions.SET)
    def bridged_set_resource_properties(self, context: MessageContext) -> XmlElement:
        # The fetched representation is the received (sealed) Get response.
        representation = self._fetch_representation(context).copy()
        changed = 0
        for modifier in context.body.element_children():
            if modifier.tag.local not in ("Update", "Insert"):
                raise base_fault(
                    f"bridge cannot translate modifier {modifier.tag.local}"
                )
            for replacement in modifier.element_children():
                child_tag = self.mapping.child_for_property(replacement.tag)
                if child_tag is None:
                    raise base_fault(
                        f"ResourceProperty {replacement.tag.clark()} is not modifiable",
                        error_code="UnableToModifyResourcePropertyFault",
                    )
                target = representation.find(child_tag) or representation.find_local(
                    child_tag.local
                )
                if target is None:
                    representation.append(element(child_tag, replacement.text()))
                else:
                    target.children = [replacement.text()]
                changed += 1
        if changed == 0:
            raise base_fault("SetResourceProperties carried no modifications")
        context.client().invoke(
            self._backing_epr(context),
            wxf_actions.PUT,
            element(f"{{{ns.WXF}}}Put", representation),
        )
        return element(f"{{{ns.WSRF_RP}}}SetResourcePropertiesResponse")

    @web_method(rl_actions.DESTROY)
    def bridged_destroy(self, context: MessageContext) -> XmlElement:
        context.client().invoke(
            self._backing_epr(context), wxf_actions.DELETE, element(f"{{{ns.WXF}}}Delete")
        )
        return element(f"{{{ns.WSRF_RL}}}DestroyResponse")

    # -- creation (the application-specific part) ----------------------------------

    def __init_subclass__(cls, **kwargs):  # pragma: no cover - simple passthrough
        super().__init_subclass__(**kwargs)

    def _register_create(self) -> None:
        # Create is bound dynamically because its action URI comes from the
        # mapping (WSRF has no standard create to bridge).
        self._operations[self.mapping.create_action] = self.bridged_create

    def attached(self, container, address: str) -> None:
        super().attached(container, address)
        self._register_create()

    def bridged_create(self, context: MessageContext) -> XmlElement:
        representation = self.mapping.fresh_representation()
        initial = context.body.find_local("Initial")
        if initial is not None:
            value_tag = next(iter(self.mapping.defaults))
            target = representation.find(value_tag)
            target.children = [initial.text().strip()]
        response = context.client().invoke(
            EndpointReference.create(self.backing_address),
            wxf_actions.CREATE,
            element(f"{{{ns.WXF}}}Create", representation),
        )
        created = response.find(f"{{{ns.WXF}}}ResourceCreated")
        backing_epr = EndpointReference.from_xml(created.find_local("EndpointReference"))
        key = backing_epr.property(TRANSFER_RESOURCE_ID)
        facade_epr = self.epr({RESOURCE_ID: key})
        return element(
            f"{{{self.mapping.create_body_tag.namespace}}}CreateResponse",
            facade_epr.to_xml(),
        )
