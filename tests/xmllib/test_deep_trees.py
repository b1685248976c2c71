"""Depth regression: every tree walker must survive ~1500-deep documents.

Before the iterative rewrites (ISSUE 9), ``parse._convert``,
``serialize._write``, ``serialize.collect_namespaces``, ``c14n._write`` and
``Span.walk`` were recursive and blew the interpreter stack somewhere past
~1000 levels.  These tests build pathological chains well beyond the default
recursion limit and exercise each walker end to end.
"""

from __future__ import annotations

import sys

import pytest

from repro.sim.metrics import SpanRecorder
from repro.xmllib import parse_xml, serialize
from repro.xmllib.c14n import canonicalize
from repro.xmllib.element import XmlElement, content_key, element

DEPTH = 1500


def chain(depth: int = DEPTH) -> XmlElement:
    """A chain of nested elements, built bottom-up, with a leaf payload."""
    node = element("{urn:deep}leaf", "payload")
    for _ in range(depth):
        node = element("{urn:deep}level", node)
    return node


@pytest.fixture(scope="module")
def deep() -> XmlElement:
    root = chain()
    assert DEPTH > sys.getrecursionlimit()
    return root


class TestDeepWalkers:
    def test_serialize_and_parse_round_trip(self, deep):
        text = serialize(deep, xml_declaration=True)
        reparsed = parse_xml(text)
        assert reparsed.structurally_equal(deep)

    def test_canonicalize(self, deep):
        canonical = canonicalize(deep)
        assert canonical.count("<c0:level") == DEPTH
        assert canonicalize(parse_xml(serialize(deep))) == canonical

    def test_content_key_and_copy(self, deep):
        twin = deep.copy()
        assert content_key(twin) == content_key(deep)

    def test_text_and_descendants(self, deep):
        assert deep.text() == "payload"
        count = sum(1 for _ in deep.descendants())
        assert count == DEPTH  # DEPTH - 1 levels below root, plus the leaf

    def test_structural_equality_detects_deep_difference(self, deep):
        other = chain()
        assert deep.structurally_equal(other)
        leaf = other
        while leaf.children and isinstance(leaf.children[0], XmlElement):
            leaf = leaf.children[0]
        leaf.set("changed", "1")
        assert not deep.structurally_equal(other)

    def test_mutating_the_leaf_invalidates_the_whole_chain(self, deep):
        before = content_key(deep)  # seals the chain: edit a copy of it
        twin = deep.copy()
        leaf = twin
        while leaf.children and isinstance(leaf.children[0], XmlElement):
            leaf = leaf.children[0]
        leaf.append("x")
        assert content_key(twin) != before
        assert content_key(deep) == before
        sealed_leaf = deep
        while sealed_leaf.children and isinstance(sealed_leaf.children[0], XmlElement):
            sealed_leaf = sealed_leaf.children[0]
        with pytest.raises(TypeError, match="sealed"):
            sealed_leaf.append("x")

    def test_span_walk(self):
        recorder = SpanRecorder()
        for i in range(DEPTH):
            recorder.push("level", float(i))
        for i in range(DEPTH):
            recorder.pop(float(DEPTH + i))
        root = recorder.roots[0]
        walked = list(root.walk())
        assert len(walked) == DEPTH
        assert walked[-1][0] == DEPTH - 1
        assert len(root.tree()) == DEPTH
