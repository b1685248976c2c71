"""SOAP envelopes and faults."""

from __future__ import annotations

from dataclasses import dataclass

from repro.xmllib import QName, element, ns, parse_xml, text_of
from repro.xmllib.element import XmlElement, seal

_ENVELOPE = QName(ns.SOAP, "Envelope")
_HEADER = QName(ns.SOAP, "Header")
_BODY = QName(ns.SOAP, "Body")
_FAULT = QName(ns.SOAP, "Fault")
_NO_HEADER = seal(element(_HEADER))


class SoapFault(Exception):
    """A SOAP fault, raised by services and re-raised client-side.

    ``code`` is the fault code local name ("Client"/"Server" or a
    spec-defined code); ``detail`` optionally carries a structured payload
    (WS-BaseFaults uses this).
    """

    def __init__(self, code: str, reason: str, detail: XmlElement | None = None):
        super().__init__(f"{code}: {reason}")
        self.code = code
        self.reason = reason
        self.detail = detail

    def to_body_element(self) -> XmlElement:
        fault = element(
            _FAULT,
            element("faultcode", f"soap:{self.code}"),
            element("faultstring", self.reason),
        )
        if self.detail is not None:
            fault.append(element("detail", self.detail))
        return fault

    @classmethod
    def from_body_element(cls, fault: XmlElement) -> "SoapFault":
        code = text_of(fault.find_local("faultcode"))
        if ":" in code:
            code = code.rsplit(":", 1)[1]
        reason = text_of(fault.find_local("faultstring"))
        detail_wrapper = fault.find_local("detail")
        detail = None
        if detail_wrapper is not None:
            detail = next(detail_wrapper.element_children(), None)
        return cls(code or "Server", reason or "unspecified fault", detail)


@dataclass
class Envelope:
    """A parsed SOAP envelope with convenient header/body access."""

    root: XmlElement

    @property
    def header(self) -> XmlElement:
        """The soap:Header, or an empty detached (sealed) one when there is
        none: reading never edits the envelope."""
        node = self.root.find(_HEADER)
        return _NO_HEADER if node is None else node

    @property
    def body(self) -> XmlElement:
        node = self.root.find(_BODY)
        if node is None:
            raise SoapFault("Client", "envelope has no soap:Body")
        return node

    def body_child(self) -> XmlElement:
        """The single payload element inside the Body."""
        child = next(self.body.element_children(), None)
        if child is None:
            raise SoapFault("Client", "empty soap:Body")
        return child

    def header_element(self, tag: str | QName) -> XmlElement | None:
        return self.header.find(tag)

    def is_fault(self) -> bool:
        return self.body.find(_FAULT) is not None

    def fault(self) -> SoapFault:
        fault_el = self.body.find(_FAULT)
        if fault_el is None:
            raise ValueError("envelope is not a fault")
        return SoapFault.from_body_element(fault_el)


def build_envelope(
    headers: list[XmlElement] | None,
    body_children: list[XmlElement] | None,
) -> Envelope:
    root = element(
        _ENVELOPE,
        element(_HEADER, *(headers or [])),
        element(_BODY, *(body_children or [])),
    )
    return Envelope(root)


def build_fault_envelope(headers: list[XmlElement] | None, fault: SoapFault) -> Envelope:
    return build_envelope(headers, [fault.to_body_element()])


def parse_envelope(text: str) -> Envelope:
    root = parse_xml(text)
    if root.tag != _ENVELOPE:
        raise SoapFault("Client", f"not a SOAP envelope: {root.tag.clark()}")
    return Envelope(root)
