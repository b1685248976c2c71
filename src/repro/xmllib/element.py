"""Element tree with mixed content.

An :class:`XmlElement` owns a qualified tag, an attribute map keyed by
:class:`~repro.xmllib.qname.QName`, and an ordered list of children where each
child is either another element or a text string (mixed content).  Keeping
text as ordinary list entries (rather than ElementTree's text/tail split)
makes canonicalization and XPath ``text()`` handling straightforward.

Every element carries a mutation *version* (DESIGN.md §16): the child list
and attribute map are tracked containers whose mutators bump the version of
the owning element and of every ancestor reachable through parent links, and
drop any memoized derived values (`content_key`, namespace tuples).  That is
what lets ``canonicalize``/XML-DSig memoize per subtree while staying
byte-identical under mutation — including mutation through aliased child
references, since a child shared by two trees keeps a parent link into each.
Parent links are weak so caching a signature subtree across many envelopes
does not leak the envelopes, and so are the containers' links back to their
element: no tree holds a reference cycle, so a dropped message tree is freed
by reference counting the moment its last reference goes, never left for
the cyclic garbage collector.  Tags are fixed at construction (nothing in the
tree may reassign ``node.tag``); all other mutation goes through the tracked
containers or the ``children``/``attributes`` property setters.
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from typing import Iterable, Iterator

from repro.xmllib.qname import QName

Child = "XmlElement | str"

_ref = weakref.ref
_sort_key = attrgetter("_key")


def _bump(origin: "XmlElement") -> None:
    """Invalidate memos on ``origin`` and every (transitive) parent."""
    seen = {id(origin)}
    stack = [origin]
    while stack:
        node = stack.pop()
        node._version += 1
        node._memo = None
        parents = node._parents
        if parents:
            live = []
            for ref in parents:
                parent = ref()
                if parent is None:
                    continue
                live.append(ref)
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
            if len(live) != len(parents):
                parents[:] = live


def _bump_owner(container) -> None:
    """Bump the element owning ``container``, if it is still alive.

    A container outlives its element only when someone kept the container
    alone; no tree can reach it then, so there is no memo to invalidate.
    """
    owner = container._owner()
    if owner is not None:
        _bump(owner)


class _Children(list):
    """Child list that maintains parent links and version bumps.

    ``_owner`` is a weak reference to the owning element.
    """

    __slots__ = ("_owner",)

    def _adopt(self, child) -> None:
        if isinstance(child, XmlElement) and self._owner() is not None:
            child._parents.append(self._owner)

    def _orphan(self, child) -> None:
        owner = self._owner()
        if isinstance(child, XmlElement) and owner is not None:
            parents = child._parents
            for i, ref in enumerate(parents):
                if ref() is owner:
                    del parents[i]
                    break

    def append(self, child) -> None:
        list.append(self, child)
        self._adopt(child)
        _bump_owner(self)

    def extend(self, items) -> None:
        items = list(items)
        list.extend(self, items)
        for child in items:
            self._adopt(child)
        _bump_owner(self)

    def insert(self, index, child) -> None:
        list.insert(self, index, child)
        self._adopt(child)
        _bump_owner(self)

    def remove(self, child) -> None:
        list.remove(self, child)
        self._orphan(child)
        _bump_owner(self)

    def pop(self, index=-1):
        child = list.pop(self, index)
        self._orphan(child)
        _bump_owner(self)
        return child

    def clear(self) -> None:
        for child in self:
            self._orphan(child)
        list.clear(self)
        _bump_owner(self)

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            removed = list.__getitem__(self, index)
            value = list(value)
            list.__setitem__(self, index, value)
            for child in removed:
                self._orphan(child)
            for child in value:
                self._adopt(child)
        else:
            removed = list.__getitem__(self, index)
            list.__setitem__(self, index, value)
            self._orphan(removed)
            self._adopt(value)
        _bump_owner(self)

    def __delitem__(self, index) -> None:
        removed = list.__getitem__(self, index)
        if isinstance(index, slice):
            for child in removed:
                self._orphan(child)
        else:
            self._orphan(removed)
        list.__delitem__(self, index)
        _bump_owner(self)

    def __iadd__(self, items):
        self.extend(items)
        return self

    def __imul__(self, count):
        if count <= 0:
            self.clear()
        elif count > 1:
            self.extend(list(self) * (count - 1))
        return self

    def sort(self, *args, **kwargs) -> None:
        list.sort(self, *args, **kwargs)
        _bump_owner(self)

    def reverse(self) -> None:
        list.reverse(self)
        _bump_owner(self)


class _Attrs(dict):
    """Attribute map whose writes bump the owning element's version.

    ``_owner`` is a weak reference to the owning element.
    """

    __slots__ = ("_owner",)

    def __setitem__(self, key, value) -> None:
        dict.__setitem__(self, key, value)
        _bump_owner(self)

    def __delitem__(self, key) -> None:
        dict.__delitem__(self, key)
        _bump_owner(self)

    def pop(self, *args):
        result = dict.pop(self, *args)
        _bump_owner(self)
        return result

    def popitem(self):
        result = dict.popitem(self)
        _bump_owner(self)
        return result

    def clear(self) -> None:
        dict.clear(self)
        _bump_owner(self)

    def update(self, *args, **kwargs) -> None:
        dict.update(self, *args, **kwargs)
        _bump_owner(self)

    def setdefault(self, key, default=None):
        result = dict.setdefault(self, key, default)
        _bump_owner(self)
        return result


class XmlElement:
    """A namespace-aware XML element node."""

    __slots__ = ("tag", "_attributes", "_children", "_version", "_parents", "_memo", "__weakref__")

    def __init__(
        self,
        tag: str | QName,
        attributes: dict[str | QName, str] | None = None,
        children: Iterable["XmlElement | str"] | None = None,
    ) -> None:
        self.tag = QName.parse(tag)
        owner = _ref(self)
        attrs = _Attrs()
        attrs._owner = owner
        self._attributes: _Attrs = attrs
        kids = _Children()
        kids._owner = owner
        self._children: _Children = kids
        self._version = 0
        self._parents: list = []
        self._memo: dict | None = None
        if attributes:
            for key, value in attributes.items():
                dict.__setitem__(attrs, QName.parse(key), str(value))
        if children is not None:
            for child in children:
                self.append(child)

    # -- tracked state ------------------------------------------------------

    @property
    def attributes(self) -> "_Attrs":
        return self._attributes

    @attributes.setter
    def attributes(self, value: dict) -> None:
        if value is self._attributes:
            return
        attrs = _Attrs()
        attrs._owner = _ref(self)
        for key, val in value.items():
            dict.__setitem__(attrs, QName.parse(key), val)
        self._attributes = attrs
        _bump(self)

    @property
    def children(self) -> "_Children":
        return self._children

    @children.setter
    def children(self, value: Iterable["XmlElement | str"]) -> None:
        current = self._children
        if value is current:
            return
        for child in current:
            current._orphan(child)
        kids = _Children()
        kids._owner = _ref(self)
        list.extend(kids, value)
        for child in kids:
            kids._adopt(child)
        self._children = kids
        _bump(self)

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever this subtree's content may have."""
        return self._version

    # -- construction -----------------------------------------------------

    def append(self, child: "XmlElement | str | int | float") -> "XmlElement":
        """Append a child element or text node; returns self for chaining."""
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
        """Deep copy (aliased subtrees become distinct copies, one per use).

        Memoized derived values (content keys, namespace tuples) are pure
        functions of content, and a copy has identical content — so they
        carry over to the clones, which keeps serializing a cached-and-
        copied subtree cheap.
        """
        clone_root = _blank(self.tag, self._attributes)
        if self._memo:
            clone_root._memo = dict(self._memo)
        stack = [(self, clone_root)]
        while stack:
            src, dst = stack.pop()
            dst_children = dst._children
            for child in src._children:
                if isinstance(child, str):
                    list.append(dst_children, child)
                else:
                    child_clone = _blank(child.tag, child._attributes)
                    if child._memo:
                        child_clone._memo = dict(child._memo)
                    child_clone._parents.append(_ref(dst))
                    list.append(dst_children, child_clone)
                    stack.append((child, child_clone))
        return clone_root

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XmlElement {self.tag.clark()} attrs={len(self._attributes)} children={len(self._children)}>"


def _blank(tag: QName, attributes: dict) -> XmlElement:
    """Fast internal constructor: pre-parsed tag, pre-validated attributes."""
    node = XmlElement.__new__(XmlElement)
    node.tag = tag
    owner = _ref(node)
    attrs = _Attrs(attributes)
    attrs._owner = owner
    node._attributes = attrs
    kids = _Children()
    kids._owner = owner
    node._children = kids
    node._version = 0
    node._parents = []
    node._memo = None
    return node


_CK = "ck"


def content_key(node: XmlElement) -> tuple:
    """A structural key: equal for trees with identical canonical content.

    The key is ``(hash, node_count, text_length)`` computed bottom-up from
    tags, sorted attributes, and child keys/text, and memoized per element
    (dropped by any version bump).  Equal trees — even freshly parsed,
    distinct objects — get equal keys, which is what lets the c14n/DSig
    caches hit on the receiving side of a round trip.  Attribute *order* is
    deliberately ignored (canonical output sorts attributes); text-node
    splits are not coalesced, which can only split cache entries, never
    conflate distinct content.
    """
    memo = node._memo
    if memo is not None:
        key = memo.get(_CK)
        if key is not None:
            return key
    stack = [node]
    while stack:
        el = stack[-1]
        memo = el._memo
        if memo is not None and _CK in memo:
            stack.pop()
            continue
        children = el._children
        pending = [
            c
            for c in children
            if isinstance(c, XmlElement) and (c._memo is None or _CK not in c._memo)
        ]
        if pending:
            stack.extend(pending)
            continue
        parts: list = [el.tag._key]
        attrs = el._attributes
        if attrs:
            for name in sorted(attrs, key=_sort_key):
                parts.append(name._key)
                parts.append(attrs[name])
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
        key = (hash(tuple(parts)), node_count, text_length)
        if memo is None:
            el._memo = {_CK: key}
        else:
            memo[_CK] = key
        stack.pop()
    return node._memo[_CK]


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
