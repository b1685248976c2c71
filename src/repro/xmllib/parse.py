"""Parsing XML text into :class:`~repro.xmllib.element.XmlElement` trees.

We lean on the standard library's expat-backed ``xml.etree.ElementTree`` for
tokenization and namespace resolution (it emits Clark-notation tags), then
rebuild the tree in our own mixed-content representation.  The rebuild is
iterative (an explicit work stack), so deep documents do not exhaust the
recursion limit.  Parsed trees are unsealed (see
:mod:`repro.xmllib.element`); the SOAP layer seals what it receives.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.xmllib.element import XmlElement, _blank
from repro.xmllib.qname import QName


class XmlParseError(ValueError):
    """Raised when input text is not well-formed XML."""


def parse_xml(text: str | bytes) -> XmlElement:
    """Parse an XML document and return its root element.

    Raises :class:`XmlParseError` on malformed input.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlParseError(f"malformed XML: {exc}") from exc
    return _convert(root)


def _convert(root: ET.Element) -> XmlElement:
    parse = QName.parse

    def make(node: ET.Element) -> XmlElement:
        attributes: dict[QName, str] = {}
        for key, value in node.attrib.items():
            attributes[parse(key)] = value
        return _blank(parse(node.tag), attributes)

    out_root = make(root)
    stack: list[tuple[ET.Element, XmlElement]] = [(root, out_root)]
    while stack:
        src, dst = stack.pop()
        children = dst._children
        if src.text:
            children.append(src.text)
        for child in src:
            converted = make(child)
            children.append(converted)
            stack.append((child, converted))
            if child.tail:
                children.append(child.tail)
    return out_root
