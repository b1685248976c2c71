"""Project-wide analysis: the symbol table and call graph.

Most rules see one file at a time; RPO05, RPO09 and RPO10 need to answer
*inter*procedural questions — "is this mutation reachable from a message
handler?", "does this call launder a ``clock.charge`` through a
wrapper?".  A :class:`ProjectContext` is built once per analysis run over
every parsed module and answers those questions for all checkers.

Call resolution is deliberately conservative-but-useful:

* ``f(...)`` resolves through the module's own defs, then its
  ``from X import f`` bindings (including aliases);
* ``self.m(...)`` resolves to the enclosing class's method when it has
  one, else falls back to *dynamic dispatch by name* — every known
  method called ``m`` (an over-approximation that keeps duck-typed
  dispatch visible to reachability queries);
* ``mod.f(...)`` resolves through plain ``import repro.x as mod``
  bindings and through ``from repro import x``-style module bindings;
* ``obj.m(...)`` on anything else uses the same by-name fallback.

The by-name fallback only ever targets methods (defs in a class body):
an attribute call cannot reach a module-level function, so
``Cert().check(...)`` never links to a module-level ``check()``.

Nested functions get their own node plus an implicit edge from the
enclosing function (a closure the parent defines is assumed callable by
it).  Edges never leave the analyzed file set, and all closure queries
are iterative (cycle-safe).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.context import ModuleContext, web_method_action

#: Attribute names so generic that a by-name fallback edge would be pure
#: noise when the receiver is a builtin container (``seen.add``,
#: ``parts.append``...).  A project method with one of these names is
#: still resolvable through ``self.``.
_GENERIC_ATTRS = frozenset(
    {
        "append", "extend", "insert", "pop", "remove", "clear", "sort",
        "get", "items", "keys", "values", "setdefault", "update",
        "join", "split", "strip", "startswith", "endswith", "format",
        "encode", "decode", "read", "write", "close", "copy",
    }
)

#: Callers at module scope are recorded under this pseudo-function name
#: (per module), so "is this only reached at import time?" is answerable.
MODULE_SCOPE = "<module>"


@dataclass
class CallSite:
    """One call expression, resolved as far as the symbol table allows."""

    node: ast.Call
    #: Qualified names of possible callees within the project (empty when
    #: the target is a builtin / third-party / unresolvable expression).
    targets: tuple[str, ...]
    #: True when the targets came from the by-name fallback rather than a
    #: direct symbol-table resolution.
    dynamic: bool = False


@dataclass
class FunctionInfo:
    """One function or method, project-wide."""

    qualname: str  # "repro.pkg.mod.Class.method" / "repro.pkg.mod.func"
    name: str
    module: ModuleContext
    node: ast.FunctionDef | ast.AsyncFunctionDef
    owner: str | None = None  # enclosing class name, if a method
    is_handler: bool = False  # carries @web_method
    call_sites: list[CallSite] = field(default_factory=list)

    @property
    def symbol(self) -> str:
        """Module-local symbol, matching Finding.symbol conventions."""
        if self.owner is not None:
            return f"{self.owner}.{self.name}"
        return self.name


@dataclass
class ClassInfo:
    qualname: str
    name: str
    module: ModuleContext
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)  # name -> fn qualname


class ProjectContext:
    """Symbol table + call graph over one set of parsed modules."""

    def __init__(self, modules: Iterable[ModuleContext]):
        self.modules: dict[str, ModuleContext] = {m.path: m for m in modules}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: terminal function name -> qualnames (dynamic dispatch fallback)
        self.by_name: dict[str, list[str]] = {}
        #: class terminal name -> qualnames
        self.class_by_name: dict[str, list[str]] = {}
        #: caller qualname (or "<module-name>.<module>") -> callee qualnames
        self.calls: dict[str, set[str]] = {}
        self.callers: dict[str, set[str]] = {}
        self._by_node: dict[tuple[str, int], FunctionInfo] = {}
        self._closure_cache: dict[tuple[str, str], frozenset[str]] = {}
        #: Scratch space for checkers: project-wide computations (wrapper
        #: tables, sink sets) are derived once per project here instead of
        #: once per module — the analysis is O(files), not O(files²).
        self.memo: dict[str, object] = {}
        self._collect()
        self._resolve()

    # -- construction -------------------------------------------------------

    def _collect(self) -> None:
        for module in self.modules.values():
            self._collect_scope(module, module.tree, prefix=module.module_name, owner=None)

    def _collect_scope(
        self,
        module: ModuleContext,
        scope: ast.AST,
        prefix: str,
        owner: ClassInfo | None,
    ) -> None:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                qualname = f"{prefix}.{node.name}"
                info = ClassInfo(qualname, node.name, module, node)
                self.classes[qualname] = info
                self.class_by_name.setdefault(node.name, []).append(qualname)
                self._collect_scope(module, node, prefix=qualname, owner=info)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}"
                info = FunctionInfo(
                    qualname=qualname,
                    name=node.name,
                    module=module,
                    node=node,
                    owner=owner.name if owner is not None else None,
                    is_handler=web_method_action(node) is not None,
                )
                self.functions[qualname] = info
                self.by_name.setdefault(node.name, []).append(qualname)
                self._by_node[(module.path, id(node))] = info
                if owner is not None:
                    owner.methods[node.name] = qualname
                # Nested defs belong to this function's scope; the implicit
                # parent->child edge is added during resolution.
                self._collect_scope(module, node, prefix=qualname, owner=None)

    def _resolve(self) -> None:
        for module in self.modules.values():
            self._resolve_scope(
                module,
                module.tree,
                caller=f"{module.module_name}.{MODULE_SCOPE}",
                prefix=module.module_name,
                owner=None,
            )

    def _resolve_scope(
        self,
        module: ModuleContext,
        scope: ast.AST,
        caller: str,
        prefix: str,
        owner: ClassInfo | None,
    ) -> None:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                qualname = f"{prefix}.{node.name}"
                # Decorators and class-body expressions run at definition
                # time in the *enclosing* scope.
                for decorator in node.decorator_list:
                    self._resolve_decorator(module, decorator, caller, owner)
                self._resolve_scope(
                    module, node, caller, qualname, self.classes.get(qualname)
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}"
                for decorator in node.decorator_list:
                    self._resolve_decorator(module, decorator, caller, owner)
                if qualname in self.functions and caller in self.functions:
                    # A closure the parent defines is assumed callable by it.
                    self._edge(caller, qualname)
                self._resolve_scope(
                    module,
                    node,
                    caller=qualname if qualname in self.functions else caller,
                    prefix=qualname,
                    owner=owner,
                )
            else:
                self._resolve_expr(module, node, caller, owner)

    def _resolve_decorator(
        self, module: ModuleContext, decorator: ast.expr, caller: str, owner: ClassInfo | None
    ) -> None:
        """A decorator *is* a call at definition time, even when the AST
        shows a bare name (``@register``) — record the edge either way."""
        if isinstance(decorator, ast.Call):
            self._resolve_expr(module, decorator, caller, owner)
            return
        if isinstance(decorator, ast.Name):
            targets = self._resolve_name(module, decorator.id)
        elif isinstance(decorator, ast.Attribute):
            targets = self._fallback(decorator.attr)
        else:
            targets = set()
        for target in targets:
            self._edge(caller, target)

    def _resolve_expr(
        self, module: ModuleContext, node: ast.AST, caller: str, owner: ClassInfo | None
    ) -> None:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            targets, dynamic = self._targets_for(module, call, owner)
            site = CallSite(call, tuple(sorted(targets)), dynamic)
            info = self.functions.get(caller)
            if info is not None:
                info.call_sites.append(site)
            for target in targets:
                self._edge(caller, target)

    def _targets_for(
        self, module: ModuleContext, call: ast.Call, owner: ClassInfo | None
    ) -> tuple[set[str], bool]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(module, func.id), False
        if isinstance(func, ast.Attribute):
            attr = func.attr
            base = func.value
            # self.m(...) — the enclosing class's method, if it has one.
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                if owner is not None and attr in owner.methods:
                    return {owner.methods[attr]}, False
                return self._fallback(attr), True
            # mod.f(...) via `import pkg.mod as mod` or `from pkg import mod`.
            if isinstance(base, ast.Name):
                target_module = module.plain_imports.get(base.id)
                if target_module is None and base.id in module.imports:
                    source, original = module.imports[base.id]
                    target_module = f"{source}.{original}"
                if target_module is not None:
                    qualname = f"{target_module}.{attr}"
                    if qualname in self.functions:
                        return {qualname}, False
                    init = f"{qualname}.__init__"
                    if qualname in self.classes:
                        return ({init} if init in self.functions else set()), False
                # Class.m(...) via `from pkg import Class`.
                for class_qualname in self.class_by_name.get(base.id, []):
                    info = self.classes[class_qualname]
                    if attr in info.methods:
                        return {info.methods[attr]}, False
            return self._fallback(attr), True
        return set(), False

    def _resolve_name(self, module: ModuleContext, name: str) -> set[str]:
        local = f"{module.module_name}.{name}"
        if local in self.functions:
            return {local}
        if local in self.classes:
            init = f"{local}.__init__"
            return {init} if init in self.functions else set()
        bound = module.imports.get(name)
        if bound is not None:
            source, original = bound
            qualname = f"{source}.{original}"
            if qualname in self.functions:
                return {qualname}
            if qualname in self.classes:
                init = f"{qualname}.__init__"
                return {init} if init in self.functions else set()
            # `from pkg import name` re-exported through __init__: fall back
            # to any unique project definition with that terminal name.
            candidates = [
                q for q in self.by_name.get(original, []) if q.endswith(f".{original}")
            ]
            if len(candidates) == 1:
                return set(candidates)
        return set()

    def _fallback(self, attr: str) -> set[str]:
        """Dynamic dispatch by name: every known method with this name."""
        if attr in _GENERIC_ATTRS:
            return set()
        return {q for q in self.by_name.get(attr, ()) if self.functions[q].owner is not None}

    def _edge(self, caller: str, callee: str) -> None:
        self.calls.setdefault(caller, set()).add(callee)
        self.callers.setdefault(callee, set()).add(caller)

    # -- queries ------------------------------------------------------------

    def module_for(self, path: str) -> ModuleContext | None:
        return self.modules.get(path)

    def function_at(self, module: ModuleContext, node: ast.AST) -> FunctionInfo | None:
        """The FunctionInfo whose def node is ``node``, if tracked."""
        return self._by_node.get((module.path, id(node)))

    def enclosing_function(self, module: ModuleContext, target: ast.AST) -> FunctionInfo | None:
        """The innermost tracked def containing ``target``; None at module scope."""
        stack: list[tuple[ast.AST, FunctionInfo | None]] = [(module.tree, None)]
        while stack:
            node, current = stack.pop()
            if node is target:
                return current
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                current = self.function_at(module, node) or current
            stack.extend((child, current) for child in ast.iter_child_nodes(node))
        return None

    def handlers(self) -> Iterator[FunctionInfo]:
        for info in self.functions.values():
            if info.is_handler:
                yield info

    def callees_closure(self, qualname: str) -> frozenset[str]:
        """Every function transitively callable from ``qualname`` (cycle-safe)."""
        return self._closure("calls", qualname)

    def callers_closure(self, qualname: str) -> frozenset[str]:
        """Every caller that can transitively reach ``qualname`` (cycle-safe)."""
        return self._closure("callers", qualname)

    def _closure(self, direction: str, start: str) -> frozenset[str]:
        cached = self._closure_cache.get((direction, start))
        if cached is not None:
            return cached
        graph = self.calls if direction == "calls" else self.callers
        seen: set[str] = set()
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbour in graph.get(current, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        result = frozenset(seen)
        self._closure_cache[(direction, start)] = result
        return result

    def reaches(self, qualname: str, targets: set[str] | frozenset[str]) -> bool:
        return bool(self.callees_closure(qualname) & targets)

    def handler_reach(self, qualname: str) -> list[FunctionInfo]:
        """The @web_method handlers from which ``qualname`` is reachable
        (including itself, when it is one)."""
        reachable_from = self.callers_closure(qualname) | {qualname}
        return sorted(
            (info for info in self.handlers() if info.qualname in reachable_from),
            key=lambda info: info.qualname,
        )

    def runtime_reachable(self, qualname: str) -> bool:
        """False when every path to ``qualname`` starts at module scope —
        i.e. the function only ever runs at import time (registry
        decorators and the like).  Over-approximate: any function caller
        anywhere in the closure counts as runtime."""
        return any(
            caller in self.functions for caller in self.callers_closure(qualname)
        )

    @classmethod
    def single(cls, module: ModuleContext) -> "ProjectContext":
        """A project of one file — what ``analyze_file`` uses, so the
        interprocedural rules degrade gracefully to module-local scope."""
        return cls([module])
