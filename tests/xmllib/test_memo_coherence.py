"""Sealed trees: cached bytes can never go stale.

The c14n/DSig caches key on content keys, and keying a tree seals it
(:func:`repro.xmllib.element.content_key`): a sealed node refuses every
edit, so the tree a cached value derives from cannot change under it.
These tests pin the contract from both sides: sealing at the unit level
(keying seals, each mutator raises on a sealed node, a copy is unsealed
and keeps the key), and a seeded property test asserting that any mutation
applied to a copy of a cached tree canonicalizes and signs byte-identically
to ground truth — the same computation run under :func:`caching_disabled`
on a fresh deep copy — while the same mutation on the sealed original
raises, including through aliased child references.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import CertificateAuthority, DsigError, sign_element, verify_element
from repro.xmllib import QName
from repro.xmllib.c14n import canonicalize
from repro.xmllib.element import XmlElement, content_key, element, seal
from repro.xmllib.memo import caching_disabled


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority.create(seed=7)


@pytest.fixture(scope="module")
def identity(ca):
    return ca.issue_identity("alice", seed=11)


#: What an edit of a sealed node raises: the element's own mutators and its
#: read-only attribute mapping raise TypeError; the children tuple has no
#: list mutators at all.
REFUSED = (TypeError, AttributeError)


class TestSealing:
    def test_append_raises_on_sealed_node_and_ancestors(self):
        child = element("{u}child")
        root = element("{u}root", child)
        content_key(root)
        for node in (root, child):
            with pytest.raises(TypeError, match="sealed"):
                node.append("text")
            with pytest.raises(TypeError, match="sealed"):
                node.extend([element("{u}more")])
        assert root.children == (child,) and child.children == ()

    def test_attribute_set_raises(self):
        root = seal(element("{u}root"))
        with pytest.raises(TypeError, match=r"\{u\}root is sealed"):
            root.set("{u}attr", "v")
        assert root.get("{u}attr") is None

    def test_children_reassignment_raises(self):
        old = element("{u}old")
        root = seal(element("{u}root", old))
        with pytest.raises(TypeError, match="sealed"):
            root.children = [element("{u}new")]
        with pytest.raises(TypeError, match="sealed"):
            root.attributes = {"k": "v"}
        assert root.children == (old,)

    def test_children_inplace_ops_raise(self):
        root = seal(element("{u}root", element("{u}a"), "text"))
        for write in (
            lambda kids: kids.append(element("{u}b")),
            lambda kids: kids.insert(0, "lead"),
            lambda kids: kids.pop(),
            lambda kids: kids.__setitem__(0, "x"),
            lambda kids: kids.__delitem__(0),
        ):
            with pytest.raises(REFUSED):
                write(root.children)
        with pytest.raises(REFUSED):
            root.children += [element("{u}c")]
        assert len(root.children) == 2

    def test_attrs_dict_mutators_raise(self):
        root = seal(element("{u}root", attrs={"a": "1"}))
        attrs = root.attributes
        for write in (
            lambda: attrs.__setitem__(QName.parse("b"), "2"),
            lambda: attrs.__delitem__(QName.parse("a")),
            lambda: attrs.update({QName.parse("b"): "2"}),
            lambda: attrs.pop(QName.parse("a")),
            lambda: attrs.clear(),
        ):
            with pytest.raises(REFUSED):
                write()
        assert dict(root.attributes) == {QName.parse("a"): "1"}

    def test_content_key_seals_and_a_mutated_copy_differs(self):
        root = element("{u}root", element("{u}child", "x"))
        key = content_key(root)
        assert content_key(root) == key  # computed once, stable
        assert seal(root) is root
        twin = root.copy()
        assert twin.children[0] is not root.children[0]
        assert content_key(twin.copy()) == key  # a copy keeps the content
        twin.children[0].set("id", "1")  # and is editable
        assert content_key(twin) != key
        assert content_key(root) == key

    def test_mutation_via_aliased_reference_is_refused(self):
        shared = element("{u}shared", "payload")
        root = element("{u}root", shared)
        key = content_key(root)
        alias = root.children[0]
        assert alias is shared
        with pytest.raises(TypeError, match="sealed"):
            alias.append("more")
        assert content_key(root) == key


def random_tree(rng: random.Random, depth: int = 0) -> XmlElement:
    """A small random tree mixing namespaces, attributes and text."""
    ns = rng.choice(["urn:a", "urn:b", ""])
    node = element(f"{{{ns}}}n{rng.randrange(4)}" if ns else f"n{rng.randrange(4)}")
    for _ in range(rng.randrange(3)):
        node.set(
            rng.choice(["k", "{urn:attr}k", "id"]) + str(rng.randrange(3)),
            f"v{rng.randrange(10)}",
        )
    for _ in range(rng.randrange(4) if depth < 3 else 0):
        if rng.random() < 0.4:
            node.append(f"text{rng.randrange(10)}")
        else:
            node.append(random_tree(rng, depth + 1))
    return node


def draw_mutation(rng: random.Random, root: XmlElement) -> tuple:
    """One random mutation somewhere in the tree: (preorder index, kind, n)."""
    nodes = [root, *root.descendants()]
    index = rng.randrange(len(nodes))
    return index, rng.randrange(3), rng.randrange(100)


def apply_mutation(root: XmlElement, mutation: tuple) -> None:
    index, kind, n = mutation
    target = [root, *root.descendants()][index]
    if kind == 0:
        target.append(f"mutated{n}")
    elif kind == 1:
        target.set("mutated", str(n))
    else:
        target.children.insert(n % (len(target.children) + 1), element("{urn:mut}new"))


def ground_truth_c14n(root: XmlElement) -> str:
    with caching_disabled():
        return canonicalize(root.copy())


class TestMutationCoherence:
    def test_canonicalize_after_mutation_matches_fresh_copy(self):
        rng = random.Random(90901)
        for _ in range(40):
            tree = random_tree(rng)
            canonicalize(tree)  # populate the cache; seals the tree
            mutation = draw_mutation(rng, tree)
            edited = tree.copy()
            apply_mutation(edited, mutation)
            assert canonicalize(edited) == ground_truth_c14n(edited)
            before = canonicalize(tree)
            with pytest.raises(REFUSED):
                apply_mutation(tree, mutation)
            assert canonicalize(tree) == before == ground_truth_c14n(tree)

    def test_each_mutation_kind_explicitly(self):
        for mutator in (
            lambda t: t.children[0].append("tail"),
            lambda t: t.children[0].set("{urn:x}a", "v"),
            lambda t: t.children.insert(1, element("{urn:x}ins")),
            lambda t: setattr(t, "children", [element("{urn:x}only")]),
            lambda t: t.attributes.update({QName.parse("top"): "1"}),
            lambda t: setattr(t, "attributes", {"top": "1"}),
        ):
            tree = element("{urn:x}root", element("{urn:x}child", "text"), "mid")
            canonical = canonicalize(tree)
            edited = tree.copy()
            mutator(edited)
            assert canonicalize(edited) == ground_truth_c14n(edited) != canonical
            with pytest.raises(REFUSED):
                mutator(tree)
            assert canonicalize(tree) == canonical

    def test_aliased_child_mutation_invalidates_both_trees(self):
        shared = element("{urn:x}shared", "payload")
        left = element("{urn:x}left", shared)
        right = element("{urn:x}right", shared)
        canonical_left = canonicalize(left)
        # Keying the left tree sealed the shared child: the right tree can
        # still be keyed (it adopts the sealed child) but not edited there.
        canonical_right = canonicalize(right)
        with pytest.raises(TypeError, match="sealed"):
            shared.append("tampered")
        edited = right.copy()
        edited.children[0].append("tampered")
        assert canonicalize(edited) == ground_truth_c14n(edited) != canonical_right
        assert canonicalize(left) == canonical_left == ground_truth_c14n(left)
        assert canonicalize(right) == canonical_right == ground_truth_c14n(right)

    def test_sign_after_mutation_matches_uncached_signature(self, identity):
        cert, keypair = identity
        rng = random.Random(90902)
        for _ in range(8):
            body = random_tree(rng)
            sign_element(body, keypair, cert)  # populate the signature cache
            mutation = draw_mutation(rng, body)
            edited = body.copy()
            apply_mutation(edited, mutation)
            cached = canonicalize(sign_element(edited, keypair, cert))
            with caching_disabled():
                fresh = canonicalize(sign_element(edited.copy(), keypair, cert))
            assert cached == fresh
            with pytest.raises(REFUSED):
                apply_mutation(body, mutation)

    def test_stale_signature_fails_verification_after_mutation(self, identity):
        cert, keypair = identity
        body = element("{urn:x}Body", element("{urn:x}value", "7"))
        signature = sign_element(body, keypair, cert)
        verify_element(body, signature, keypair.public)
        with pytest.raises(TypeError, match="sealed"):
            body.children[0].append("8")
        tampered = body.copy()
        tampered.children[0].append("8")
        with pytest.raises(DsigError):
            verify_element(tampered, signature, keypair.public)
        verify_element(body, signature, keypair.public)

    def test_signature_cache_shares_its_signature(self, identity):
        cert, keypair = identity
        body = element("{urn:x}Body", "x")
        first = sign_element(body, keypair, cert)
        second = sign_element(body, keypair, cert)
        assert first is second  # a hit hands out the cached element itself
        with pytest.raises(TypeError, match="sealed"):
            first.set("tampered", "1")  # so no caller can poison the cache
        third = sign_element(body.copy(), keypair, cert)
        assert third is first
        with caching_disabled():
            fresh = sign_element(body.copy(), keypair, cert)
        assert fresh is not first
        assert canonicalize(fresh) == canonicalize(first)
