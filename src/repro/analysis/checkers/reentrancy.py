"""RPO12 — re-entrancy: settle state before fan-out, not after.

A notification fan-out (``deliver``/``notify``/observer ``on_*``
callbacks) hands control to arbitrary code — in the concurrent kernel,
to code that may re-enter the very object that is mid-mutation.  The
WS-Eventing/WSN stacks are full of the shape

    for subscriber in ...:
        self.deliverer.deliver(...)     # re-entrant boundary
    self.records.remove(...)            # state settles AFTER fan-out

where a subscriber's handler can observe (or mutate) the half-updated
record list.  The fix is almost always mechanical: finish mutating
``self``/``PipelineContext``/store state, *then* fan out.

This rule flags, per function, the first mutation of ``self``/``ctx``
state (attribute assignment, container mutator, store write) that occurs
after a fan-out call or a ``yield``.  ``@contextmanager`` generators are
exempt — mutate-after-yield is their contract — and so is the sim
substrate, whose Network/Clock internals are the mediation layer itself.
Yields of kernel *effects* (``yield Work(...)``, ``yield Acquire(...)``,
…) are scheduler suspension points, not observer fan-outs: the kernel
resumes the task with a result, and the task's own state is exactly what
it is supposed to update with it — those yields are skipped.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import register

#: Call names that hand control to other hosts/handlers mid-function.
_FANOUT_NAMES = frozenset(
    {"deliver", "deliver_notification", "notify", "publish", "broadcast", "emit", "fire"}
)

#: Receivers whose state the rule protects.
_GUARDED_ROOTS = frozenset({"self", "cls", "ctx", "context"})

#: Kernel effect constructors (repro.sim.kernel): ``yield Work(...)`` is a
#: cooperative suspension awaiting the scheduler, not a fan-out.
_EFFECT_NAMES = frozenset({"Delay", "Work", "Acquire", "Release"})

_MUTATORS = frozenset(
    {
        "append", "add", "update", "pop", "popitem", "remove", "clear",
        "extend", "insert", "setdefault", "discard",
        # store/home write surface
        "store", "delete", "upsert", "put",
    }
)


def _exempt(path: str) -> bool:
    return "repro/analysis/" in path or "repro/sim/" in path


@register
class ReentrancyChecker:
    rule_id = "RPO12"
    description = (
        "filter/handler code settles PipelineContext/store state before "
        "notification fan-out or yield, never after"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if _exempt(module.path):
            return
        for func, symbol in _functions(module.tree):
            if _is_contextmanager(func):
                continue
            finding_site = _mutation_after_fanout(func)
            if finding_site is None:
                continue
            mutation, fanout_name = finding_site
            yield Finding(
                rule=self.rule_id,
                path=module.path,
                line=mutation.lineno,
                col=mutation.col_offset,
                symbol=symbol,
                message=(
                    f"mutates shared state after the '{fanout_name}' fan-out; "
                    "a re-entrant handler can observe the half-updated object "
                    "— settle state first, then fan out"
                ),
                severity="warning",
            )


def _functions(tree: ast.AST) -> Iterator[tuple[ast.FunctionDef, str]]:
    def walk(scope: ast.AST, owner: str | None) -> Iterator[tuple[ast.FunctionDef, str]]:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                yield from walk(node, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, f"{owner}.{node.name}" if owner else node.name
                yield from walk(node, owner)

    yield from walk(tree, None)


def _is_contextmanager(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in func.decorator_list:
        name = decorator
        if isinstance(name, ast.Call):
            name = name.func
        if isinstance(name, ast.Attribute):
            name = ast.Name(id=name.attr)
        if isinstance(name, ast.Name) and name.id in (
            "contextmanager",
            "asynccontextmanager",
        ):
            return True
    return False


def _mutation_after_fanout(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[ast.AST, str] | None:
    """(mutation node, fan-out name) for the first guarded-state mutation
    positioned after the first fan-out point, in source order."""
    events: list[tuple[int, int, str, ast.AST, str]] = []
    frontier: list[ast.AST] = list(ast.iter_child_nodes(func))
    while frontier:
        node = frontier.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested defs are analyzed on their own
        frontier.extend(ast.iter_child_nodes(node))
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if not _is_effect_yield(node):
                events.append((node.lineno, node.col_offset, "fanout", node, "yield"))
        elif isinstance(node, ast.Call):
            fanout = _fanout_name(node)
            if fanout is not None:
                events.append((node.lineno, node.col_offset, "fanout", node, fanout))
            elif _is_guarded_mutator_call(node):
                events.append((node.lineno, node.col_offset, "mutation", node, ""))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_is_guarded_target(t) for t in targets):
                events.append((node.lineno, node.col_offset, "mutation", node, ""))

    events.sort(key=lambda item: (item[0], item[1]))
    fanout_name: str | None = None
    for _, _, kind, node, name in events:
        if kind == "fanout" and fanout_name is None:
            fanout_name = name
        elif kind == "mutation" and fanout_name is not None:
            return node, fanout_name
    return None


def _is_effect_yield(node: ast.Yield | ast.YieldFrom) -> bool:
    """True for ``yield Work(...)`` / ``yield kernel.Acquire(...)`` etc."""
    value = getattr(node, "value", None)
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute):
        return func.attr in _EFFECT_NAMES
    return isinstance(func, ast.Name) and func.id in _EFFECT_NAMES


def _fanout_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in _FANOUT_NAMES:
            return func.attr
        # Observer/hook callbacks: self.on_delivery_failure(...), hook.on_terminate(...)
        if func.attr.startswith("on_"):
            return func.attr
    elif isinstance(func, ast.Name) and func.id.startswith("on_"):
        return func.id
    return None


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_guarded_mutator_call(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _MUTATORS
        and isinstance(func.value, (ast.Attribute, ast.Subscript, ast.Name))
        and _root_name(func.value) in _GUARDED_ROOTS
        and not isinstance(func.value, ast.Name)  # x.append on a local is fine
    )


def _is_guarded_target(target: ast.expr) -> bool:
    if isinstance(target, (ast.Attribute, ast.Subscript)):
        root = _root_name(target)
        return root in _GUARDED_ROOTS
    return False
