"""Unit tests for the project-wide symbol table and call graph."""

from repro.analysis.context import ModuleContext
from repro.analysis.project import MODULE_SCOPE, ProjectContext


def _ctx(name: str, source: str) -> ModuleContext:
    return ModuleContext.build(f"{name}.py", source)


def _project(**modules: str) -> ProjectContext:
    return ProjectContext([_ctx(name, source) for name, source in modules.items()])


class TestResolution:
    def test_direct_name_call(self):
        project = _project(alpha=(
            "def helper():\n"
            "    return 1\n"
            "def entry():\n"
            "    return helper()\n"
        ))
        assert "alpha.helper" in project.callees_closure("alpha.entry")

    def test_self_method_resolves_to_own_class(self):
        project = _project(alpha=(
            "class Worker:\n"
            "    def run(self):\n"
            "        return self.step()\n"
            "    def step(self):\n"
            "        return 1\n"
            "class Other:\n"
            "    def step(self):\n"
            "        return 2\n"
        ))
        callees = project.callees_closure("alpha.Worker.run")
        assert "alpha.Worker.step" in callees
        assert "alpha.Other.step" not in callees
        [site] = project.functions["alpha.Worker.run"].call_sites
        assert not site.dynamic

    def test_cross_module_from_import(self):
        project = _project(
            beta="def helper():\n    return 1\n",
            alpha=(
                "from beta import helper\n"
                "def entry():\n"
                "    return helper()\n"
            ),
        )
        assert "beta.helper" in project.callees_closure("alpha.entry")

    def test_dynamic_dispatch_by_name_fallback(self):
        project = _project(alpha=(
            "class Wsrf:\n"
            "    def process(self):\n"
            "        return 1\n"
            "class Transfer:\n"
            "    def process(self):\n"
            "        return 2\n"
            "def drive(stack):\n"
            "    return stack.process()\n"
        ))
        callees = project.callees_closure("alpha.drive")
        assert {"alpha.Wsrf.process", "alpha.Transfer.process"} <= callees
        [site] = project.functions["alpha.drive"].call_sites
        assert site.dynamic

    def test_by_name_fallback_targets_methods_only(self):
        # An attribute call dispatches to methods; a module-level function
        # that merely shares the name is not a callee.
        project = _project(alpha=(
            "class Cert:\n"
            "    def check(self):\n"
            "        return 1\n"
            "def check():\n"
            "    return 2\n"
            "def verify(cert):\n"
            "    return cert.check()\n"
        ))
        assert project.callees_closure("alpha.verify") == {"alpha.Cert.check"}

    def test_generic_attrs_produce_no_edges(self):
        project = _project(alpha=(
            "class Log:\n"
            "    def append(self, line):\n"
            "        return line\n"
            "def note(parts, line):\n"
            "    parts.append(line)\n"
        ))
        assert project.callees_closure("alpha.note") == frozenset()

    def test_nested_def_gets_parent_edge(self):
        project = _project(alpha=(
            "def outer():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner\n"
        ))
        assert "alpha.outer.inner" in project.callees_closure("alpha.outer")

    def test_function_at_finds_tracked_node(self):
        module = _ctx("alpha", "def solo():\n    return 1\n")
        project = ProjectContext([module])
        node = module.tree.body[0]
        info = project.function_at(module, node)
        assert info is not None and info.qualname == "alpha.solo"


class TestClosures:
    def test_cycles_terminate(self):
        project = _project(alpha=(
            "def a():\n    return b()\n"
            "def b():\n    return c()\n"
            "def c():\n    return a()\n"
        ))
        closure = project.callees_closure("alpha.a")
        assert closure == {"alpha.a", "alpha.b", "alpha.c"}
        assert project.callers_closure("alpha.c") == {
            "alpha.a", "alpha.b", "alpha.c",
        }

    def test_reaches(self):
        project = _project(alpha=(
            "def sink():\n    return 0\n"
            "def mid():\n    return sink()\n"
            "def top():\n    return mid()\n"
            "def lonely():\n    return 1\n"
        ))
        assert project.reaches("alpha.top", {"alpha.sink"})
        assert not project.reaches("alpha.lonely", {"alpha.sink"})


class TestRuntimeReachability:
    SOURCE = (
        "REGISTRY = {}\n"
        "def install(func):\n"
        "    REGISTRY[func.__name__] = func\n"
        "    return func\n"
        "@install\n"
        "def handler_body():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "install(helper)\n"
    )

    def test_module_scope_is_a_caller(self):
        project = _project(alpha=self.SOURCE)
        assert f"alpha.{MODULE_SCOPE}" in project.callers_closure("alpha.install")

    def test_import_time_only_function_is_not_runtime_reachable(self):
        # install is only ever invoked while the module loads (decorator
        # plus a module-scope call).
        project = _project(alpha=self.SOURCE)
        assert not project.runtime_reachable("alpha.install")

    def test_function_caller_makes_runtime_reachable(self):
        project = _project(alpha=self.SOURCE)
        assert project.runtime_reachable("alpha.helper")


class TestHandlers:
    SOURCE = (
        "from repro.container.service import ServiceSkeleton, web_method\n"
        "class CounterService(ServiceSkeleton):\n"
        "    @web_method('urn:made-up:Add')\n"
        "    def add(self, context):\n"
        "        return self._apply()\n"
        "    def _apply(self):\n"
        "        return deep()\n"
        "def deep():\n"
        "    return 1\n"
        "def offline():\n"
        "    return 2\n"
    )

    def test_handler_flag(self):
        project = _project(alpha=self.SOURCE)
        assert [info.qualname for info in project.handlers()] == [
            "alpha.CounterService.add"
        ]

    def test_handler_reach_is_transitive(self):
        project = _project(alpha=self.SOURCE)
        assert [info.qualname for info in project.handler_reach("alpha.deep")] == [
            "alpha.CounterService.add"
        ]
        assert project.handler_reach("alpha.offline") == []

    def test_handler_reach_includes_self(self):
        project = _project(alpha=self.SOURCE)
        reached = project.handler_reach("alpha.CounterService.add")
        assert [info.qualname for info in reached] == ["alpha.CounterService.add"]


class TestSingle:
    def test_single_wraps_one_module(self):
        module = _ctx("alpha", "def solo():\n    return 1\n")
        project = ProjectContext.single(module)
        assert list(project.functions) == ["alpha.solo"]
