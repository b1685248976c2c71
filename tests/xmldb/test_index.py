"""Secondary indexes and the query planner.

Covers index definition and maintenance, planner shape matching, cost
accounting (O(hits) vs O(N)), and the fallback guarantee: any expression
the planner cannot cover must produce byte-identical results via the scan
path — exercised over a GiaB-style corpus under update/delete churn.
"""

import pytest

from repro.apps.giab.common import host_info
from repro.sim import CostModel, Network
from repro.xmldb import (
    Collection,
    IndexDefinitionError,
    XPathIndex,
    plan_query,
)
from repro.xmllib import ns, serialize
from repro.xmllib.element import XmlElement
from repro.xmllib.xpath import compile_xpath, xpath_literal

G = {"g": ns.GIAB}


@pytest.fixture()
def net():
    return Network(CostModel())


@pytest.fixture()
def coll(net):
    return Collection("hosts", net)


def host_doc(name: str, apps: list[str]) -> XmlElement:
    return host_info(name, f"soap://{name}/Exec", f"soap://{name}/Data", apps)


class TestXPathIndex:
    def test_extracts_and_looks_up(self):
        index = XPathIndex("//g:Host", G)
        index.add("k1", host_doc("n1", ["sort"]))
        index.add("k2", host_doc("n2", ["sort"]))
        assert index.lookup("n1") == {"k1"}
        assert index.lookup("missing") == set()

    def test_multivalued_path(self):
        index = XPathIndex("//g:Application", G)
        index.add("k1", host_doc("n1", ["sort", "blast"]))
        assert index.lookup("sort") == {"k1"}
        assert index.lookup("blast") == {"k1"}

    def test_re_add_replaces_old_values(self):
        index = XPathIndex("//g:Host", G)
        index.add("k1", host_doc("old", ["sort"]))
        index.add("k1", host_doc("new", ["sort"]))
        assert index.lookup("old") == set()
        assert index.lookup("new") == {"k1"}

    def test_discard(self):
        index = XPathIndex("//g:Host", G)
        index.add("k1", host_doc("n1", ["sort"]))
        index.discard("k1")
        assert index.lookup("n1") == set()
        assert len(index) == 0

    def test_rejects_predicate_paths(self):
        with pytest.raises(IndexDefinitionError):
            XPathIndex("//g:Host[. = 'n1']", G)

    def test_rejects_unions_and_functions(self):
        with pytest.raises(IndexDefinitionError):
            XPathIndex("//g:Host | //g:Application", G)
        with pytest.raises(IndexDefinitionError):
            XPathIndex("count(//g:Host)", G)


class TestPlanner:
    def test_plans_final_step_self_predicate(self):
        index = XPathIndex("//g:Host", G)
        plan = plan_query(compile_xpath("//g:Host[. = 'n1']", G), [index])
        assert plan is not None and plan.index is index and plan.value == "n1"

    def test_plans_child_value_predicate(self):
        index = XPathIndex("//g:HostInfo/g:Host", G)
        plan = plan_query(compile_xpath("//g:HostInfo[g:Host = 'n1']", G), [index])
        assert plan is not None and plan.value == "n1"

    def test_no_plan_without_matching_index(self):
        index = XPathIndex("//g:Application", G)
        assert plan_query(compile_xpath("//g:Host[. = 'n1']", G), [index]) is None

    def test_no_plan_for_non_equality(self):
        index = XPathIndex("//g:Host", G)
        for expr in (
            "//g:Host[contains(., 'n1')]",
            "//g:Host[1]",
            "//g:Host",
            "//g:Host[. != 'n1']",
        ):
            assert plan_query(compile_xpath(expr, G), [index]) is None, expr

    def test_xpath_literal_quoting(self):
        assert xpath_literal("plain") == "'plain'"
        assert xpath_literal("with'apostrophe") == '"with\'apostrophe"'
        assert xpath_literal("both\"'kinds") is None


class TestCollectionIndexes:
    def test_declare_is_idempotent(self, coll):
        first = coll.declare_index("//g:Host", G)
        again = coll.declare_index("//g:Host", G)
        assert again is first

    def test_declare_over_existing_contents_backfills(self, coll):
        coll.insert(host_doc("n1", ["sort"]), key="n1")
        index = coll.declare_index("//g:Host", G)
        assert index.lookup("n1") == {"n1"}

    def test_writes_maintain_index(self, coll):
        index = coll.declare_index("//g:Host", G)
        coll.insert(host_doc("n1", ["sort"]), key="k")
        coll.update("k", host_doc("n2", ["sort"]))
        assert index.lookup("n1") == set() and index.lookup("n2") == {"k"}
        coll.upsert("k2", host_doc("n3", []))
        assert index.lookup("n3") == {"k2"}
        coll.delete("k")
        assert index.lookup("n2") == set()

    def test_index_immune_to_caller_mutation(self, coll):
        index = coll.declare_index("//g:Host", G)
        doc = host_doc("n1", ["sort"])
        coll.insert(doc, key="k")
        doc.find_local("Host").children = ["mutated"]
        assert index.lookup("n1") == {"k"}
        assert index.lookup("mutated") == set()


class TestQueryCosts:
    def _fill(self, coll, n):
        for i in range(n):
            coll.insert(host_doc(f"n{i:03d}", ["sort"]), key=f"n{i:03d}")

    def test_scan_charges_per_document(self, net, coll):
        self._fill(coll, 20)
        before = net.clock.now
        coll.query_keys("//g:Host[. = 'n007']", G)
        costs = net.costs
        assert net.clock.now - before == pytest.approx(
            costs.db_query_base + costs.db_query_per_doc * 20, abs=1e-9
        )

    def test_indexed_charges_per_hit(self, net, coll):
        coll.declare_index("//g:Host", G)
        self._fill(coll, 20)
        before = net.clock.now
        keys = coll.query_keys("//g:Host[. = 'n007']", G)
        assert keys == ["n007"]
        costs = net.costs
        assert net.clock.now - before == pytest.approx(
            costs.db_query_indexed + costs.db_query_per_doc * 1, abs=1e-9
        )

    def test_uncovered_expression_charges_scan_price(self, net, coll):
        coll.declare_index("//g:Host", G)
        self._fill(coll, 20)
        before = net.clock.now
        coll.query_keys("//g:Host[contains(., 'n00')]", G)
        costs = net.costs
        assert net.clock.now - before == pytest.approx(
            costs.db_query_base + costs.db_query_per_doc * 20, abs=1e-9
        )

    def test_writes_charge_index_maintenance(self, net, coll):
        coll.declare_index("//g:Host", G)
        coll.declare_index("//g:Application", G)
        before = net.clock.now
        coll.insert(host_doc("n1", ["sort"]), key="k")
        costs = net.costs
        assert net.clock.now - before == pytest.approx(
            costs.db_insert + 2 * costs.db_index_maintain, abs=1e-9
        )


EXPRESSIONS = (
    "//g:Host[. = 'n05']",
    "//g:HostInfo[g:Host = 'n05']",
    "//g:Application[. = 'sort']",
    "//g:Host[contains(., 'n0')]",
    "//g:Host",
)


def _snapshot(coll, expression):
    out = []
    for key, hit in coll.query(expression, G):
        node = hit.node
        image = serialize(node) if isinstance(node, XmlElement) else str(node)
        out.append((key, hit.kind, image))
    return out


class TestScanEquivalenceUnderChurn:
    """Satellite 5: indexed query() is byte-identical to the scan path
    across a GiaB corpus, including under update/delete churn."""

    def test_indexed_results_match_scan_through_churn(self):
        plain = Collection("hosts", Network(CostModel()))
        fast = Collection("hosts", Network(CostModel()))
        fast.declare_index("//g:Host", G)
        fast.declare_index("//g:HostInfo/g:Host", G)
        fast.declare_index("//g:Application", G)

        def both(op):
            op(plain)
            op(fast)

        apps = ("sort", "blast", "render")
        for i in range(12):
            doc = host_doc(f"n{i:02d}", [apps[i % 3], apps[(i + 1) % 3]])
            both(lambda c, d=doc, k=f"n{i:02d}": c.insert(d.copy(), k))
        self._assert_equivalent(plain, fast)

        # churn: rename some hosts, change applications, delete, re-insert
        both(lambda c: c.update("n05", host_doc("renamed", ["sort"])))
        both(lambda c: c.upsert("n07", host_doc("n07", ["render"])))
        both(lambda c: c.delete("n03"))
        both(lambda c: c.upsert("n03", host_doc("n03", ["blast"])))
        both(lambda c: c.delete("n09"))
        self._assert_equivalent(plain, fast)

    def _assert_equivalent(self, plain, fast):
        for expression in EXPRESSIONS:
            assert _snapshot(plain, expression) == _snapshot(fast, expression), expression
            assert plain.query_keys(expression, G) == fast.query_keys(expression, G)
