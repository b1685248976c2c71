"""Exclusive-style XML canonicalization.

XML-DSig signs a byte stream, so both signer and verifier must serialize a
tree to *exactly* the same bytes even after the tree has been re-parsed
(which loses original prefixes and attribute order).  The canonical form
implemented here follows the spirit of Exclusive XML Canonicalization:

* prefixes are derived solely from the set of namespace URIs in the subtree,
  assigned in first-use document order (so they survive a parse round-trip);
* a namespace is declared on the outermost element where it becomes visibly
  used, never redeclared below;
* namespace declarations come first (sorted by prefix), then attributes
  sorted by (namespace URI, local name);
* text is escaped with the canonical replacements and carriage returns are
  normalized;
* empty elements use an explicit start/end tag pair (never ``<a/>``).

Two structurally-equal trees therefore canonicalize to identical bytes —
which also makes the canonical text a pure function of the tree's *content*,
so :func:`canonicalize` memoizes whole-tree results in a content-keyed
cache: the second message of a soak canonicalizes its (unchanged)
SignedInfo in one dict lookup.  :func:`render_canonical` is the same
writer without the cache, for callers that cache a value derived from the
text instead.
Mutating any node bumps version counters up the tree (see
:mod:`repro.xmllib.element`), changing the content key, so a stale entry can
never be replayed.  The writer itself is iterative and survives ~1000-deep
documents.
"""

from __future__ import annotations

from operator import attrgetter

from repro.xmllib.element import XmlElement, content_key
from repro.xmllib.memo import ContentCache, memo_enabled
from repro.xmllib.qname import QName
from repro.xmllib.serialize import collect_namespaces

_sort_key = attrgetter("_key")

_C14N = ContentCache("c14n.text", capacity=8192)


def canonicalize(root: XmlElement) -> str:
    """Render ``root`` in the canonical form described above, memoized."""
    enabled = memo_enabled()
    if enabled:
        key = content_key(root)
        cached = _C14N.get(key)
        if cached is not None:
            return cached
    text = render_canonical(root)
    if enabled:
        _C14N.put(key, text)
    return text


def render_canonical(root: XmlElement) -> str:
    """The canonical text of ``root``, always rendered afresh.

    For callers that cache what they derive from the text under the same
    content key (the XML-DSig reference digest): storing the text as well
    would hold memory for entries that are never read.
    """
    prefixes = _canonical_prefixes(collect_namespaces(root))
    parts: list[str] = []
    _write(root, prefixes, parts)
    return "".join(parts)


def _canonical_prefixes(uris: list[str]) -> dict[str, str]:
    # Prefixes are a pure function of the *sorted* URI set: independent of the
    # cosmetic PREFERRED_PREFIXES table, of attribute insertion order, and of
    # whatever prefixes a parsed document happened to use — otherwise a
    # re-parsed tree could canonicalize to different bytes and break
    # signature verification.
    return {uri: f"c{i}" for i, uri in enumerate(sorted(uris))}


def _canon_text(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#xD;")
    )


def _canon_attr(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\t", "&#x9;")
        .replace("\n", "&#xA;")
        .replace("\r", "&#xD;")
    )


def _visibly_used(node: XmlElement) -> set[str]:
    used = set()
    if node.tag.namespace:
        used.add(node.tag.namespace)
    for attr in node.attributes:
        if attr.namespace:
            used.add(attr.namespace)
    return used


def _qname_str(name: QName, prefixes: dict[str, str]) -> str:
    if not name.namespace:
        return name.local
    return f"{prefixes[name.namespace]}:{name.local}"


# Op codes for the iterative writer's explicit stack.
_OPEN, _TEXT, _END = 0, 1, 2


def _write(
    root: XmlElement,
    prefixes: dict[str, str],
    parts: list[str],
) -> None:
    append = parts.append
    # Each _OPEN entry carries the set of URIs declared by its ancestors;
    # the common case adds nothing and reuses the parent's frozenset.
    stack: list[tuple] = [(_OPEN, root, frozenset())]
    while stack:
        op, payload, declared = stack.pop()
        if op == _TEXT:
            append(_canon_text(payload))
            continue
        if op == _END:
            append(payload)
            continue
        node = payload
        tag = _qname_str(node.tag, prefixes)
        append(f"<{tag}")

        newly = sorted(
            (prefixes[uri], uri) for uri in _visibly_used(node) if uri not in declared
        )
        if newly:
            child_declared = declared | {uri for _, uri in newly}
            for prefix, uri in newly:
                append(f' xmlns:{prefix}="{_canon_attr(uri)}"')
        else:
            child_declared = declared

        attrs = node.attributes
        if attrs:
            for attr in sorted(attrs, key=_sort_key):
                append(f' {_qname_str(attr, prefixes)}="{_canon_attr(attrs[attr])}"')
        append(">")

        stack.append((_END, f"</{tag}>", None))
        for child in reversed(node.children):
            if isinstance(child, str):
                stack.append((_TEXT, child, None))
            else:
                stack.append((_OPEN, child, child_declared))
