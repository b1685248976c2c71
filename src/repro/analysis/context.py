"""Per-file analysis context: one parse, shared derived views.

Every checker receives a :class:`ModuleContext`; the expensive or commonly
needed views (import bindings, ``actions`` class bodies, ``@web_method``
handlers) are computed once per file here rather than once per checker.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator


def call_name(node: ast.Call) -> str:
    """Terminal name of a call target: ``f(...)`` → ``f``; ``a.b.c(...)`` → ``c``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def dotted_name(node: ast.expr) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def is_http_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith(("http://", "https://"))
    )


def web_method_action(func: ast.FunctionDef | ast.AsyncFunctionDef) -> ast.expr | None:
    """The action expression of a ``@web_method(action)`` decorator, if any."""
    for decorator in func.decorator_list:
        if (
            isinstance(decorator, ast.Call)
            and call_name(decorator) == "web_method"
            and decorator.args
        ):
            return decorator.args[0]
    return None


@dataclass
class WebMethod:
    """One ``@web_method``-decorated handler and where it lives."""

    func: ast.FunctionDef | ast.AsyncFunctionDef
    action: ast.expr
    owner: ast.ClassDef | None

    @property
    def symbol(self) -> str:
        if self.owner is not None:
            return f"{self.owner.name}.{self.func.name}"
        return self.func.name


@dataclass
class ModuleContext:
    """Everything checkers can know about one parsed file."""

    path: str  # normalized with "/" separators, as given on the CLI
    tree: ast.Module
    source_lines: list[str]
    module_name: str = ""
    #: ``from X import Y as Z`` → imports["Z"] == ("X", "Y")
    imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: ``import a.b.c as x`` → plain_imports["x"] == "a.b.c";
    #: ``import a.b.c`` → plain_imports["a"] == "a" (the bound root).
    plain_imports: dict[str, str] = field(default_factory=dict)
    #: class name → attribute names, for classes named ``actions``/``*_actions``
    action_classes: dict[str, set[str]] = field(default_factory=dict)
    web_methods: list[WebMethod] = field(default_factory=list)
    #: Set by the engine after all files are parsed; single-file analyses
    #: get a project of one module, so interprocedural checkers degrade
    #: gracefully.  Typed loosely to avoid an import cycle with project.py.
    project: object | None = None

    @classmethod
    def build(cls, path: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(
            path=path,
            tree=tree,
            source_lines=source.splitlines(),
            module_name=_module_name_for(path),
        )
        ctx._scan()
        return ctx

    # -- derived views -------------------------------------------------------

    def _scan(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.plain_imports[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        self.plain_imports[root] = root
            elif isinstance(node, ast.ClassDef) and (
                node.name == "actions" or node.name.endswith("_actions")
            ):
                attrs: set[str] = set()
                for statement in node.body:
                    if isinstance(statement, ast.Assign):
                        for target in statement.targets:
                            if isinstance(target, ast.Name):
                                attrs.add(target.id)
                    elif isinstance(statement, ast.AnnAssign) and isinstance(
                        statement.target, ast.Name
                    ):
                        attrs.add(statement.target.id)
                self.action_classes[node.name] = attrs
        self._collect_web_methods(self.tree, owner=None)

    def _collect_web_methods(self, scope: ast.AST, owner: ast.ClassDef | None) -> None:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                self._collect_web_methods(node, owner=node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                action = web_method_action(node)
                if action is not None:
                    self.web_methods.append(WebMethod(node, action, owner))
                self._collect_web_methods(node, owner=owner)

    # -- queries used by several checkers ------------------------------------

    def classes(self) -> Iterator[ast.ClassDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node

    def bindings_for(self, imported_name: str, module_suffixes: tuple[str, ...]) -> set[str]:
        """Local names bound (via ``from X import Y``) to ``Y == imported_name``
        where X ends with one of ``module_suffixes``."""
        return {
            bound
            for bound, (module, original) in self.imports.items()
            if original == imported_name and module.endswith(module_suffixes)
        }

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1]
        return ""


def _module_name_for(path: str) -> str:
    parts = path.replace("\\", "/").split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if "repro" in parts[:-1]:
        start = parts.index("repro")
        dotted = parts[start:-1] + ([] if stem == "__init__" else [stem])
        return ".".join(dotted)
    return stem
