"""RPO09 — host isolation: no shared mutable state across simulated hosts.

The concurrent kernel (ROADMAP item 1) will interleave many requests on
one virtual timeline.  Any module-level mutable, class-level mutable
default, or module-level singleton instance is then *one* object shared
by every simulated host in the process — a race and a fidelity bug,
because two real Globus/WSRF.NET containers would each have their own
copy.  State that two hosts must both observe has to travel through the
mediated substrate (``Network`` messages, ``Clock`` timers,
``ResourceHome`` stores), never through the interpreter's module dict.

Two finding shapes:

w1. module-level state changed from code that runs after import time —
    handlers or anything transitively callable from a function:
    a module-level mutable (``{}``/``[]``/``set()``/constructor call)
    mutated in place, a module-level iterator (``itertools.count()``,
    any call or generator) advanced by ``next()``, or any module-level
    name rebound through a ``global`` statement.  Import-time-only
    mutation (decorator registries populated while the module loads) is
    exempt: it is finished before any host exists.
w2. a class-level mutable default (``class C: items = []``) — every
    instance on every host aliases one list.

Pure memoization caches are still flagged — under concurrency they need
an owner — and are expected to be *baselined* with a justification, not
silently exempted, so the inventory of shared state stays visible.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import register
from repro.analysis.project import FunctionInfo, ProjectContext

#: Constructor names whose call produces a fresh mutable container.
_MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter"}
)

#: Method names that mutate a container in place.
_MUTATORS = frozenset(
    {
        "append", "add", "update", "pop", "popitem", "remove", "clear",
        "extend", "insert", "setdefault", "discard", "appendleft",
    }
)


def _exempt(path: str) -> bool:
    # The analyzer itself runs offline in a single thread (no hosts), and
    # the sim substrate *is* the mediation layer the rule points to.
    return "repro/analysis/" in path or "repro/sim/" in path


@register
class HostIsolationChecker:
    rule_id = "RPO09"
    description = (
        "no module-level mutables, iterators or global rebinding, "
        "class-level mutable defaults, or singletons shared across "
        "simulated hosts outside Network/Clock/ResourceHome mediation"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if _exempt(module.path):
            return
        yield from self._class_defaults(module)
        yield from self._module_state(module)

    # -- w2: class-level mutable defaults ------------------------------------

    def _class_defaults(self, module: ModuleContext) -> Iterator[Finding]:
        for klass in module.classes():
            if _is_dataclass(klass) or klass.name == "actions" or klass.name.endswith("_actions"):
                # dataclasses reject mutable defaults themselves; actions
                # tables hold constant strings.
                continue
            for statement in klass.body:
                target = _class_attr_target(statement)
                if target is None or target.isupper():
                    # SCREAMING_CASE class attributes are constant lookup
                    # tables by convention; runtime mutation of one is
                    # caught by the module-level pass when it happens.
                    continue
                value = statement.value
                if value is not None and _is_mutable_value(value):
                    yield Finding(
                        rule=self.rule_id,
                        path=module.path,
                        line=statement.lineno,
                        col=statement.col_offset,
                        symbol=f"{klass.name}.{target}",
                        message=(
                            "class-level mutable default is one object aliased "
                            "by every instance on every simulated host; "
                            "initialize it per-instance in __init__"
                        ),
                        severity="warning",
                    )

    # -- w1: module-level state changed at runtime ---------------------------

    def _module_state(self, module: ModuleContext) -> Iterator[Finding]:
        project = module.project
        mutables, iterators = _module_level_state(module)
        reported: set[str] = set()
        for node in ast.walk(module.tree):
            for name, change in _shared_writes(node, mutables, iterators):
                if name in reported:
                    continue
                info = project.enclosing_function(module, node)
                if info is None:
                    # Mutation at module scope is part of building the table
                    # at import time — by definition single-threaded and
                    # pre-host.
                    continue
                if not _runs_after_import(project, info):
                    continue
                reported.add(name)
                yield Finding(
                    rule=self.rule_id,
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    symbol=info.symbol,
                    message=(
                        f"module-level {change} at runtime and "
                        "shared by every simulated host; move it behind "
                        "Network/Clock/ResourceHome mediation or scope it "
                        "per-host"
                    ),
                    severity="warning",
                )


def _is_dataclass(klass: ast.ClassDef) -> bool:
    for decorator in klass.decorator_list:
        name = decorator
        if isinstance(name, ast.Call):
            name = name.func
        if isinstance(name, ast.Attribute) and name.attr == "dataclass":
            return True
        if isinstance(name, ast.Name) and name.id == "dataclass":
            return True
    return False


def _class_attr_target(statement: ast.stmt) -> str | None:
    if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
        target = statement.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        # ClassVar annotations are an explicit "shared on purpose" marker;
        # still shared, still flagged — baselining is the opt-out.
        return statement.target.id
    return None


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Name):
            return func.id in _MUTABLE_CALLS
        if isinstance(func, ast.Attribute):
            return func.attr in _MUTABLE_CALLS
    return False


def _module_level_state(module: ModuleContext) -> tuple[set[str], set[str]]:
    """(mutables, iterators): module-level names bound to a mutable
    container, and to a call or generator that ``next()`` can advance."""
    mutables: set[str] = set()
    iterators: set[str] = set()
    for statement in module.tree.body:
        if isinstance(statement, ast.Assign):
            targets = [t for t in statement.targets if isinstance(t, ast.Name)]
            value = statement.value
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            targets = [statement.target]
            value = statement.value
        else:
            continue
        names = {t.id for t in targets}
        if value is not None and _is_mutable_value(value):
            mutables.update(names)
        if isinstance(value, (ast.Call, ast.GeneratorExp)):
            iterators.update(names)
    return mutables, iterators


def _shared_writes(
    node: ast.AST, mutables: set[str], iterators: set[str]
) -> Iterator[tuple[str, str]]:
    """(name, how it changes) for each piece of module state ``node`` changes."""
    if isinstance(node, ast.Global):
        for name in node.names:
            yield name, f"name '{name}' is rebound through `global`"
        return
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in mutables
        ):
            yield func.value.id, f"mutable '{func.value.id}' is mutated"
        elif (
            isinstance(func, ast.Name)
            and func.id == "next"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in iterators
        ):
            yield node.args[0].id, f"iterator '{node.args[0].id}' is advanced by next()"
        return
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    else:
        return
    for target in targets:
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id in mutables
        ):
            yield target.value.id, f"mutable '{target.value.id}' is mutated"
            return


def _runs_after_import(project: ProjectContext, info: FunctionInfo) -> bool:
    """True unless every path to this function starts at module scope.

    A function no one calls is assumed to be runtime API surface; one
    only reachable from ``<module>`` scopes (decorator registries) runs
    while the interpreter holds the import lock and is safe.
    """
    return (
        info.is_handler
        or not project.callers_closure(info.qualname)
        or project.runtime_reachable(info.qualname)
    )
