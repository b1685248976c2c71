"""Message-information headers (To / Action / MessageID / ReplyTo / RelatesTo)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.addressing.epr import EndpointReference
from repro.xmllib import QName, element, ns, text_of
from repro.xmllib.element import XmlElement

_TO = QName(ns.WSA, "To")
_ACTION = QName(ns.WSA, "Action")
_MESSAGE_ID = QName(ns.WSA, "MessageID")
_REPLY_TO = QName(ns.WSA, "ReplyTo")
_RELATES_TO = QName(ns.WSA, "RelatesTo")


def next_message_id(network) -> str:
    """The next message id sent on ``network``: deterministic (no wall
    clock, no real randomness) and fixed-width, so byte counts never
    depend on how many messages went before."""
    return f"urn:uuid:repro-{next(network.message_ids):08d}"


@dataclass
class MessageHeaders:
    """The WS-Addressing header block of one SOAP message."""

    to: str
    action: str
    message_id: str
    reply_to: EndpointReference | None = None
    relates_to: str | None = None
    #: Reference properties of the target EPR, echoed as headers.
    reference_properties: tuple[tuple[QName, str], ...] = ()

    def to_elements(self) -> list[XmlElement]:
        out = [
            element(_TO, self.to),
            element(_ACTION, self.action),
            element(_MESSAGE_ID, self.message_id),
        ]
        if self.reply_to is not None:
            out.append(self.reply_to.to_xml(_REPLY_TO))
        if self.relates_to:
            out.append(element(_RELATES_TO, self.relates_to))
        for key, value in self.reference_properties:
            out.append(element(key, value))
        return out

    @classmethod
    def from_header_element(cls, header: XmlElement) -> "MessageHeaders":
        """Parse from a soap:Header element; unknown headers become
        reference properties (that is exactly how WS-Addressing reference
        properties arrive — as otherwise-unexplained headers)."""
        to = action = ""
        message_id = ""
        reply_to = None
        relates_to = None
        extras: dict[QName, str] = {}
        for child in header.element_children():
            if child.tag == _TO:
                to = child.text().strip()
            elif child.tag == _ACTION:
                action = child.text().strip()
            elif child.tag == _MESSAGE_ID:
                message_id = child.text().strip()
            elif child.tag == _REPLY_TO:
                reply_to = EndpointReference.from_xml(child)
            elif child.tag == _RELATES_TO:
                relates_to = child.text().strip()
            elif child.tag.namespace == ns.WSSE or child.tag.namespace == ns.DS:
                continue  # security headers handled by the security layer
            else:
                extras[child.tag] = child.text().strip()
        if not to or not action:
            raise ValueError("message lacks required wsa:To / wsa:Action headers")
        return cls(
            to=to,
            action=action,
            message_id=message_id,
            reply_to=reply_to,
            relates_to=relates_to,
            reference_properties=tuple(sorted(extras.items(), key=lambda kv: kv[0].sort_key())),
        )

    def target_epr(self) -> EndpointReference:
        """Reconstruct the EPR this message was addressed to."""
        return EndpointReference(self.to, self.reference_properties)
