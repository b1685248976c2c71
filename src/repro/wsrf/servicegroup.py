"""WS-ServiceGroup: represented, managed collections of services/resources.

A ServiceGroup's entries are themselves WS-Resources (destroying an entry
removes the member).  Membership content rules constrain what an entry's
content document may contain.  The default Grid-in-a-Box VO allocates from
a ``hosts`` collection; ``ServiceGroupAllocationService`` is the variant
that tracks the VO's Exec/Data service pairs in a ServiceGroup.
"""

from __future__ import annotations

from repro.addressing.epr import EndpointReference
from repro.container.service import MessageContext, web_method
from repro.wsrf.basefaults import base_fault
from repro.wsrf.lifetime import ResourceLifetimeMixin
from repro.wsrf.programming import ResourceField, WsResourceService, resource_property
from repro.wsrf.properties import ResourcePropertiesMixin
from repro.xmllib import QName, element, ns, parse_xml, serialize, text_of
from repro.xmllib.element import XmlElement


class actions:
    """Action URIs of the WS-ServiceGroup port types."""

    ADD = ns.WSRF_SG + "/Add"


class ServiceGroupService(ResourcePropertiesMixin, ResourceLifetimeMixin, WsResourceService):
    """A registry of member services; entries are WS-Resources.

    ``content_rules`` (element QNames) restrict entry content documents; an
    empty tuple admits anything.
    """

    service_name = "ServiceGroup"
    resource_ns = ns.WSRF_SG

    member_address = ResourceField(str, "")
    content_xml = ResourceField(str, "")

    def __init__(self, home, content_rules: tuple[QName, ...] = ()):
        super().__init__(home)
        self.content_rules = content_rules

    # -- the Add operation -----------------------------------------------------

    @web_method(actions.ADD)
    def wssg_add(self, context: MessageContext) -> XmlElement:
        member_el = context.body.find_local("MemberEPR")
        if member_el is None:
            raise base_fault("Add has no MemberEPR")
        member = EndpointReference.from_xml(member_el)
        content_el = context.body.find_local("Content")
        content = next(content_el.element_children(), None) if content_el is not None else None
        if self.content_rules and (
            content is None or content.tag not in self.content_rules
        ):
            got = content.tag.clark() if content is not None else "nothing"
            raise base_fault(
                f"content {got} violates this group's membership rules",
                error_code="ContentCreationFailedFault",
            )
        entry_epr = self.create_resource(
            member_address=serialize(member.to_xml()),
            content_xml=serialize(content) if content is not None else "",
        )
        return element(
            f"{{{ns.WSRF_SG}}}AddResponse", entry_epr.to_xml()
        )

    # -- entry resource properties ------------------------------------------------

    @resource_property(f"{{{ns.WSRF_SG}}}MemberServiceEPR")
    def rp_member_epr(self):
        if not self.member_address:
            return None
        return parse_xml(self.member_address)

    @resource_property(f"{{{ns.WSRF_SG}}}Content")
    def rp_content(self):
        if not self.content_xml:
            return None
        wrapper = element(f"{{{ns.WSRF_SG}}}Content")
        wrapper.append(parse_xml(self.content_xml))
        return wrapper

    # -- service-side helpers (used by ServiceGroupAllocationService) ---------------

    def members(self) -> list[tuple[str, EndpointReference, XmlElement | None]]:
        """All live entries as (entry key, member EPR, content)."""
        out = []
        for key in self.home.keys():
            doc = self.home.load(key)
            address_xml = text_of(doc.find(f"{{{ns.WSRF_FIELDS}}}member_address"))
            content_xml = text_of(doc.find(f"{{{ns.WSRF_FIELDS}}}content_xml"))
            epr = EndpointReference.from_xml(parse_xml(address_xml))
            content = parse_xml(content_xml) if content_xml else None
            out.append((key, epr, content))
        return out
