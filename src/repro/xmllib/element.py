"""Element tree with mixed content.

An :class:`XmlElement` owns a qualified tag, an attribute map keyed by
:class:`~repro.xmllib.qname.QName`, and an ordered list of children where each
child is either another element or a text string (mixed content).  Keeping
text as ordinary list entries (rather than ElementTree's text/tail split)
makes canonicalization and XPath ``text()`` handling straightforward.

A tree is mutable until it is *sealed* (DESIGN.md §16).  :func:`content_key`
seals the subtree it keys, and :func:`seal` is the same call for code that
only wants the tree frozen: each node's children become a tuple, its
attributes a read-only mapping, and its memo dict holds the key, so a node
is sealed exactly when it has a memo.  Every value the c14n/DSig caches hold
derives from a sealed tree, which cannot change, so no cached value can go
stale, and a sealed tree can be shared instead of copied: the receiver of a
message gets the sender's envelope, and the signature cache hands out its
``ds:Signature`` itself.  ``append``, ``extend``, ``set`` and the
``children``/``attributes`` setters raise :class:`TypeError` on a sealed
node, and writes through its containers fail by themselves; code that must
edit a sealed tree edits a :meth:`~XmlElement.copy`, which is unsealed.
Tags are fixed at construction (nothing in the tree may reassign
``node.tag``).  Nodes hold no links to their parents, so no tree is a
reference cycle: a dropped message tree is freed by reference counting the
moment its last reference goes, never left for the cyclic garbage collector.
"""

from __future__ import annotations

from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator

from repro.xmllib.qname import QName

Child = "XmlElement | str"

_sort_key = attrgetter("_key")

#: The attributes of every sealed node that has none.
_NO_ATTRIBUTES = MappingProxyType({})


class XmlElement:
    """A namespace-aware XML element node."""

    __slots__ = ("tag", "_attributes", "_children", "_memo")

    def __init__(
        self,
        tag: str | QName,
        attributes: dict[str | QName, str] | None = None,
        children: Iterable["XmlElement | str"] | None = None,
    ) -> None:
        self.tag = QName.parse(tag)
        self._attributes: dict = {}
        self._children: list = []
        self._memo: dict | None = None
        if attributes:
            for key, value in attributes.items():
                self._attributes[QName.parse(key)] = str(value)
        if children is not None:
            for child in children:
                self.append(child)

    @property
    def attributes(self) -> "dict | MappingProxyType":
        return self._attributes

    @attributes.setter
    def attributes(self, value: dict) -> None:
        if self._memo is not None:
            raise _sealed(self)
        self._attributes = {QName.parse(key): val for key, val in value.items()}

    @property
    def children(self) -> "list | tuple":
        return self._children

    @children.setter
    def children(self, value: Iterable["XmlElement | str"]) -> None:
        if self._memo is not None:
            raise _sealed(self)
        self._children = list(value)

    # -- construction -----------------------------------------------------

    def append(self, child: "XmlElement | str | int | float") -> "XmlElement":
        """Append a child element or text node; returns self for chaining."""
        if self._memo is not None:
            raise _sealed(self)
        if isinstance(child, XmlElement):
            self._children.append(child)
        elif isinstance(child, (str, int, float)):
            text = str(child)
            if text:
                self._children.append(text)
        else:
            raise TypeError(f"cannot append {type(child).__name__} to XmlElement")
        return self

    def extend(self, children: Iterable["XmlElement | str"]) -> "XmlElement":
        for child in children:
            self.append(child)
        return self

    def set(self, key: str | QName, value: str) -> "XmlElement":
        if self._memo is not None:
            raise _sealed(self)
        self._attributes[QName.parse(key)] = str(value)
        return self

    def get(self, key: str | QName, default: str | None = None) -> str | None:
        return self._attributes.get(QName.parse(key), default)

    # -- navigation -------------------------------------------------------

    def element_children(self) -> Iterator["XmlElement"]:
        """Iterate child elements, skipping text nodes."""
        for child in self._children:
            if isinstance(child, XmlElement):
                yield child

    def find(self, tag: str | QName) -> "XmlElement | None":
        """First child element with the given qualified tag, or None."""
        want = QName.parse(tag)
        for child in self.element_children():
            if child.tag == want:
                return child
        return None

    def find_all(self, tag: str | QName) -> list["XmlElement"]:
        """All child elements with the given qualified tag."""
        want = QName.parse(tag)
        return [c for c in self.element_children() if c.tag == want]

    def find_local(self, local: str) -> "XmlElement | None":
        """First child element matching on local name only (any namespace)."""
        for child in self.element_children():
            if child.tag.local == local:
                return child
        return None

    def descendants(self) -> Iterator["XmlElement"]:
        """Depth-first iteration over all descendant elements (preorder)."""
        stack = [c for c in reversed(self._children) if isinstance(c, XmlElement)]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(
                c for c in reversed(node._children) if isinstance(c, XmlElement)
            )

    def text(self) -> str:
        """Concatenated text content of this element and all descendants."""
        parts: list[str] = []
        stack: list = list(reversed(self._children))
        while stack:
            child = stack.pop()
            if isinstance(child, str):
                parts.append(child)
            else:
                stack.extend(reversed(child._children))
        return "".join(parts)

    # -- structural equality ----------------------------------------------

    def structurally_equal(self, other: "XmlElement") -> bool:
        """Deep equality on tag, attributes and normalized mixed content.

        Adjacent text nodes are coalesced and empty text ignored, so two
        trees that canonicalize identically compare equal.
        """
        stack = [(self, other)]
        while stack:
            mine, theirs = stack.pop()
            if mine.tag != theirs.tag or mine._attributes != theirs._attributes:
                return False
            a_kids = _normalized_children(mine)
            b_kids = _normalized_children(theirs)
            if len(a_kids) != len(b_kids):
                return False
            for a, b in zip(a_kids, b_kids):
                if isinstance(a, str) or isinstance(b, str):
                    if a != b:
                        return False
                else:
                    stack.append((a, b))
        return True

    def copy(self) -> "XmlElement":
        """Unsealed deep copy (aliased subtrees become distinct copies, one
        per use); the way to edit a sealed tree."""
        clone_root = _blank(self.tag, dict(self._attributes))
        stack = [(self, clone_root)]
        while stack:
            src, dst = stack.pop()
            dst_children = dst._children
            for child in src._children:
                if isinstance(child, str):
                    dst_children.append(child)
                else:
                    child_clone = _blank(child.tag, dict(child._attributes))
                    dst_children.append(child_clone)
                    stack.append((child, child_clone))
        return clone_root

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XmlElement {self.tag.clark()} attrs={len(self._attributes)} children={len(self._children)}>"


def _sealed(node: XmlElement) -> TypeError:
    return TypeError(f"element {node.tag.clark()} is sealed; edit a copy() of it instead")


def _blank(tag: QName, attributes: dict) -> XmlElement:
    """Fast internal constructor: pre-parsed tag, pre-validated attributes
    (the node takes the dict over)."""
    node = XmlElement.__new__(XmlElement)
    node.tag = tag
    node._attributes = attributes
    node._children = []
    node._memo = None
    return node


_CK = "ck"


def content_key(node: XmlElement) -> tuple:
    """A structural key, equal for trees with identical canonical content;
    seals ``node``'s subtree.

    The key is ``(hash, node_count, text_length)`` computed bottom-up from
    tags, sorted attributes, and child keys/text, and stored in each node's
    memo as that node is sealed, so it is computed once per node.  Equal
    trees — even freshly parsed, distinct objects — get equal keys, which is
    what lets the c14n/DSig caches hit on the receiving side of a round
    trip.  Attribute *order* is deliberately ignored (canonical output sorts
    attributes); text-node splits are not coalesced, which can only split
    cache entries, never conflate distinct content.
    """
    memo = node._memo
    if memo is not None:
        return memo[_CK]
    stack = [node]
    while stack:
        el = stack[-1]
        if el._memo is not None:
            stack.pop()
            continue
        children = el._children
        pending = [c for c in children if isinstance(c, XmlElement) and c._memo is None]
        if pending:
            stack.extend(pending)
            continue
        parts: list = [el.tag._key]
        attrs = el._attributes
        if attrs:
            for name in sorted(attrs, key=_sort_key):
                parts.append(name._key)
                parts.append(attrs[name])
            # A copy, so a reference to the dict taken before sealing
            # cannot edit the sealed node.
            el._attributes = MappingProxyType(dict(attrs))
        else:
            el._attributes = _NO_ATTRIBUTES
        node_count = 1
        text_length = 0
        for c in children:
            if isinstance(c, str):
                parts.append(c)
                text_length += len(c)
            else:
                child_key = c._memo[_CK]
                parts.append(child_key)
                node_count += child_key[1]
                text_length += child_key[2]
        el._children = tuple(children)
        el._memo = {_CK: (hash(tuple(parts)), node_count, text_length)}
        stack.pop()
    return node._memo[_CK]


def seal(node: XmlElement) -> XmlElement:
    """Seal ``node``'s subtree (see :func:`content_key`) and return it."""
    content_key(node)
    return node


def _normalized_children(node: XmlElement) -> list["XmlElement | str"]:
    out: list[XmlElement | str] = []
    for child in node.children:
        if isinstance(child, str):
            if not child:
                continue
            if out and isinstance(out[-1], str):
                out[-1] = out[-1] + child
            else:
                out.append(child)
        else:
            out.append(child)
    return out


def element(
    tag: str | QName,
    *children: "XmlElement | str | int | float",
    attrs: dict[str | QName, str] | None = None,
) -> XmlElement:
    """Terse element constructor: ``element(q, child1, "text", attrs={...})``."""
    node = XmlElement(tag, attrs)
    for child in children:
        node.append(child)
    return node


def text_of(node: XmlElement | None, default: str = "") -> str:
    """Stripped text content of ``node``, or ``default`` when node is None."""
    if node is None:
        return default
    return node.text().strip()
