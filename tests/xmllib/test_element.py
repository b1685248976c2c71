"""Unit tests for the element tree."""

import gc
import weakref

import pytest

from repro.xmllib import QName, XmlElement, element, parse_xml, text_of


class TestConstruction:
    def test_element_helper_builds_children(self):
        node = element("root", element("child"), "text", attrs={"id": "1"})
        assert node.tag == QName("", "root")
        assert node.get("id") == "1"
        assert [c for c in node.children if isinstance(c, str)] == ["text"]

    def test_numeric_children_become_text(self):
        node = element("n", 42)
        assert node.text() == "42"

    def test_empty_string_child_dropped(self):
        node = element("n", "")
        assert node.children == []

    def test_invalid_child_type_rejected(self):
        with pytest.raises(TypeError):
            element("n").append(object())  # type: ignore[arg-type]

    def test_set_get_attributes_with_clark_names(self):
        node = element("n")
        node.set("{u}a", "v")
        assert node.get("{u}a") == "v"
        assert node.get("{u}missing") is None
        assert node.get("{u}missing", "dflt") == "dflt"


class TestNavigation:
    def make_tree(self):
        return element(
            "{ns}root",
            element("{ns}a", "1"),
            element("{ns}b", "2"),
            element("{ns}a", "3"),
            element("{other}a", "4"),
        )

    def test_find_first_match(self):
        tree = self.make_tree()
        found = tree.find("{ns}a")
        assert found is not None and found.text() == "1"

    def test_find_returns_none(self):
        assert self.make_tree().find("{ns}zzz") is None

    def test_find_all(self):
        tree = self.make_tree()
        assert [n.text() for n in tree.find_all("{ns}a")] == ["1", "3"]

    def test_find_local_ignores_namespace(self):
        tree = self.make_tree()
        found = tree.find_local("b")
        assert found is not None and found.text() == "2"

    def test_descendants_depth_first(self):
        tree = element("r", element("a", element("b")), element("c"))
        tags = [d.tag.local for d in tree.descendants()]
        assert tags == ["a", "b", "c"]

    def test_text_concatenates_descendants(self):
        tree = element("r", "x", element("a", "y"), "z")
        assert tree.text() == "xyz"


class TestEqualityAndCopy:
    def test_structural_equality_coalesces_text(self):
        one = element("r", "ab")
        two = element("r", "a", "b")
        # The element() helper coalesces nothing; build raw children.
        two.children = ["a", "b"]
        assert one.structurally_equal(two)

    def test_structural_inequality_on_attrs(self):
        assert not element("r", attrs={"a": "1"}).structurally_equal(element("r"))

    def test_structural_inequality_on_children(self):
        assert not element("r", element("a")).structurally_equal(element("r", element("b")))

    def test_copy_is_deep(self):
        original = element("r", element("a", "x"), attrs={"id": "1"})
        clone = original.copy()
        clone.find("a").append("y")  # type: ignore[union-attr]
        clone.set("id", "2")
        assert original.find("a").text() == "x"  # type: ignore[union-attr]
        assert original.get("id") == "1"
        assert not original.structurally_equal(clone)


def freed_by_refcount(make) -> bool:
    """True if the tree ``make`` returns, and its first child element, are
    freed as soon as the tree is dropped, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        tree = make()
        probes = [weakref.ref(tree), weakref.ref(next(tree.element_children()))]
        del tree
        return all(probe() is None for probe in probes)
    finally:
        if enabled:
            gc.enable()


class TestNoReferenceCycles:
    """Containers link back to their element weakly, so no tree is a cycle."""

    def test_built_tree(self):
        assert freed_by_refcount(lambda: element("r", element("a", "x", attrs={"k": "v"}), "t"))

    def test_parsed_tree(self):
        assert freed_by_refcount(lambda: parse_xml('<r a="1"><b>x</b><c/></r>'))

    def test_copied_tree(self):
        original = element("r", element("a", element("b")))
        assert freed_by_refcount(original.copy)

    def test_mutated_tree(self):
        def make():
            tree = element("r", element("a"))
            tree.children.append(element("b"))
            tree.attributes = {"k": "v"}
            tree.children = [element("c"), *tree.children]
            return tree

        assert freed_by_refcount(make)

    def test_container_outliving_its_element_stays_usable(self):
        kids = element("r", element("a")).children
        attrs = element("r").attributes
        kids.append(element("b"))
        kids.pop(0)
        attrs["k"] = "v"
        assert [child.tag.local for child in kids] == ["b"]
        assert kids[0]._parents == []
        assert attrs["k"] == "v"


class TestTextOf:
    def test_text_of_none_gives_default(self):
        assert text_of(None) == ""
        assert text_of(None, "d") == "d"

    def test_text_of_strips(self):
        assert text_of(element("n", "  x \n")) == "x"
