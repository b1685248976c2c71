"""Serialization of element trees back to XML text.

Prefixes are allocated deterministically (preferred prefixes from
:mod:`repro.xmllib.ns`, then ``n0``, ``n1``, ... in first-use document
order) and every namespace is declared on the root, which keeps output
stable and easy to read in logs.  The canonical form used for signing
lives in :mod:`repro.xmllib.c14n`.

The writer is iterative (an explicit op stack), so ~1000-deep documents
serialize without hitting the interpreter recursion limit, and it reuses
serialized fragments for repeated envelope skeletons: in a sealed tree,
subtrees at depth 1-2 under the serialized root (SOAP headers, the Body
payload) are cached by ``(content_key, namespace-allocation token)``.
The token is the whole-document first-use URI tuple, which fully
determines the prefix map, so a cached fragment is only ever replayed
under the identical prefix allocation; fragments below the root never
contain ``xmlns`` declarations.  Output is byte-identical to the uncached
writer.
"""

from __future__ import annotations

from operator import attrgetter

from repro.xmllib import ns as nsmod
from repro.xmllib.element import _CK, XmlElement
from repro.xmllib.memo import ContentCache, memo_enabled
from repro.xmllib.qname import QName

_sort_key = attrgetter("_key")


def escape_text(value: str) -> str:
    # \r must be escaped or the receiving parser will normalize it to \n.
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#xD;")
    )


def escape_attr(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\t", "&#x9;")
        .replace("\n", "&#xA;")
        .replace("\r", "&#xD;")
    )


_NS = "ns"


def _ns_tuple(root: XmlElement) -> tuple[str, ...]:
    """First-use document-order URI tuple of a sealed tree, memoized per node.

    Computed bottom-up: a node's tuple is the first-use dedup of its own
    tag/attribute URIs followed by its children's tuples, which equals the
    preorder walk's result.  Every node of a sealed tree is sealed and has a
    memo, so the tuple is stored there beside the content key.
    """
    cached = root._memo.get(_NS)
    if cached is not None:
        return cached
    stack = [root]
    while stack:
        el = stack[-1]
        memo = el._memo
        if _NS in memo:
            stack.pop()
            continue
        pending = [c for c in el._children if isinstance(c, XmlElement) and _NS not in c._memo]
        if pending:
            stack.extend(pending)
            continue
        seen: dict[str, None] = {}
        if el.tag.namespace:
            seen[el.tag.namespace] = None
        for attr in el._attributes:
            if attr.namespace:
                seen.setdefault(attr.namespace, None)
        for c in el._children:
            if isinstance(c, XmlElement):
                for uri in c._memo[_NS]:
                    seen.setdefault(uri, None)
        memo[_NS] = tuple(seen)
        stack.pop()
    return root._memo[_NS]


def _collect_plain(root: XmlElement) -> list[str]:
    """Memo-free preorder namespace collection (the uncached baseline)."""
    seen: dict[str, None] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.tag.namespace:
            seen.setdefault(node.tag.namespace, None)
        for attr in node.attributes:
            if attr.namespace:
                seen.setdefault(attr.namespace, None)
        stack.extend(
            c for c in reversed(node.children) if isinstance(c, XmlElement)
        )
    return list(seen)


def collect_namespaces(root: XmlElement) -> list[str]:
    """Namespace URIs used anywhere in the tree, in first-use document order."""
    if root._memo is not None and memo_enabled():
        return list(_ns_tuple(root))
    return _collect_plain(root)


def allocate_prefixes(uris: list[str]) -> dict[str, str]:
    """Deterministic URI -> prefix map."""
    out: dict[str, str] = {}
    used: set[str] = set()
    counter = 0
    for uri in uris:
        preferred = nsmod.PREFERRED_PREFIXES.get(uri)
        if preferred and preferred not in used:
            prefix = preferred
        else:
            while f"n{counter}" in used:
                counter += 1
            prefix = f"n{counter}"
            counter += 1
        out[uri] = prefix
        used.add(prefix)
    return out


# Twice the traced LRU knee, rounded up to a power of two (DESIGN.md §16).
_FRAGMENTS = ContentCache("serialize.fragment", capacity=2048)

# Op codes for the iterative writer's explicit stack.
_OPEN, _TEXT, _END, _STORE = 0, 1, 2, 3

# Fragments are cached for subtrees this deep under the serialized root:
# depth 1-2 covers SOAP Header/Body children (Security blocks, payloads)
# without caching every leaf.
_FRAGMENT_MIN_DEPTH = 1
_FRAGMENT_MAX_DEPTH = 2


def serialize(root: XmlElement, *, xml_declaration: bool = False) -> str:
    """Serialize to compact XML with all namespaces declared on the root.

    Fragment reuse is opportunistic: it engages only when the root is
    sealed (the SOAP message path seals every envelope it sends — see
    ``WireMessage.from_envelope``), so one-shot trees like xmldb documents
    pay no caching overhead at all.
    """
    warm = root._memo is not None and memo_enabled()
    if warm:
        uris = _ns_tuple(root)
    else:
        uris = tuple(_collect_plain(root))
    prefixes = allocate_prefixes(list(uris))
    parts: list[str] = []
    if xml_declaration:
        parts.append('<?xml version="1.0" encoding="utf-8"?>')
    _write(root, prefixes, uris, parts, warm)
    return "".join(parts)


def _qname_str(name: QName, prefixes: dict[str, str]) -> str:
    if not name.namespace:
        return name.local
    return f"{prefixes[name.namespace]}:{name.local}"


def _write(
    node: XmlElement,
    prefixes: dict[str, str],
    token: tuple[str, ...],
    parts: list[str],
    warm: bool,
) -> None:
    append = parts.append
    stack: list[tuple] = [(_OPEN, node, 0)]
    while stack:
        op, payload, depth = stack.pop()
        if op == _TEXT:
            append(escape_text(payload))
            continue
        if op == _END:
            append(payload)
            continue
        if op == _STORE:
            fragment = "".join(parts[depth:])
            del parts[depth:]
            append(fragment)
            _FRAGMENTS.put((payload._memo[_CK], token), fragment)
            continue
        el = payload
        if warm and _FRAGMENT_MIN_DEPTH <= depth <= _FRAGMENT_MAX_DEPTH:
            # Every node of a sealed tree is sealed and keyed.
            fragment = _FRAGMENTS.get((el._memo[_CK], token))
            if fragment is not None:
                append(fragment)
                continue
            # Everything parts gains from here until this entry pops is the
            # element's complete markup; _STORE reuses `depth` as the
            # starting index into parts.
            stack.append((_STORE, el, len(parts)))
        tag = _qname_str(el.tag, prefixes)
        append(f"<{tag}")
        if depth == 0:
            for uri, prefix in prefixes.items():
                append(f' xmlns:{prefix}="{escape_attr(uri)}"')
        attrs = el.attributes
        if attrs:
            for attr in sorted(attrs, key=_sort_key):
                append(f' {_qname_str(attr, prefixes)}="{escape_attr(attrs[attr])}"')
        children = el.children
        if not children:
            append("/>")
            continue
        append(">")
        stack.append((_END, f"</{tag}>", 0))
        for child in reversed(children):
            if isinstance(child, str):
                stack.append((_TEXT, child, 0))
            else:
                stack.append((_OPEN, child, depth + 1))
