"""RPO05 — sim-discipline: message work is charged through the cost model.

The paper's quantitative comparison (§5) stands on per-message cost
accounting: every serialize/deserialize/transmit of a SOAP envelope is
charged to the simulated clock *with a category*, so the reported
breakdowns attribute time to the right layer.  Code that builds a wire
message and sends it without going through ``repro.sim.costs`` /
``Network.charge`` silently makes one stack look faster than it is.

Four warning shapes, one rule:

w1. a function constructs a ``WireMessage`` (or calls
    ``WireMessage.from_envelope``) but never charges or transmits —
    the bytes move for free;
w2. a function serializes an envelope and hands the bytes to a raw sink
    (``open``/``.write``/``.store``) without any charge — persistence
    work escapes the cost model;
w3. a direct ``charge``/``advance`` on a clock (``<x>.clock``, or a bare
    ``clock``/``*_clock`` name such as a wrapper's parameter) — it
    advances the clock but bypasses ``Network.charge``'s metrics
    attribution, so the time is invisible in the per-category breakdown;
w4. a function that transitively calls a w3 function (project call
    graph) — a wrapper such as ``def bump(clock, ms): clock.charge(ms)``
    launders the charge for every caller, however deep.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Iterator

from repro.analysis.context import ModuleContext, call_name
from repro.analysis.findings import Finding
from repro.analysis.project import FunctionInfo, ProjectContext
from repro.analysis.registry import register

_SERIALIZE_NAMES = frozenset({"serialize", "to_bytes", "tostring"})
_CHARGE_NAMES = frozenset(
    {"charge", "_charge", "transmit", "charge_serialize", "charge_parse"}
)
_RAW_SINK_ATTRS = frozenset({"write", "store"})
_CLOCK_METHODS = frozenset({"charge", "advance"})


def _exempt(path: str) -> bool:
    # The cost model itself and the SOAP layer it wraps are where the
    # charging primitives live; they cannot charge through themselves.
    # The analyzer only describes them.
    return "/sim/" in path or "/soap/" in path or "repro/analysis/" in path


@register
class SimCostChecker:
    rule_id = "RPO05"
    description = (
        "code that serializes and sends a message charges simulated time "
        "through repro.sim.costs / Network.charge, directly or via wrappers"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if _exempt(module.path):
            return
        yield from self._message_work(module)
        yield from self._clock_charges(module)

    def _message_work(self, module: ModuleContext) -> Iterator[Finding]:
        for func, symbol in _functions(module.tree):
            # A charge anywhere in the subtree counts, closures included;
            # the work sites are the function's own, since a nested def is
            # checked as its own function.
            if any(
                isinstance(n, ast.Call) and call_name(n) in _CHARGE_NAMES
                for n in ast.walk(func)
            ):
                continue
            calls = _own_calls(func)

            # w1 — WireMessage built but never charged/transmitted.
            wire = next((c for c in calls if _builds_wire_message(c)), None)
            if wire is not None:
                yield self._finding(
                    module, wire, symbol,
                    "constructs a WireMessage but never charges or "
                    "transmits it through the sim cost model; the message "
                    "moves for free",
                )
                continue

            # w2 — serialize + raw sink without a charge.
            serialize = next((c for c in calls if _serializes(c)), None)
            sink = next((c for c in calls if _raw_sink(c)), None)
            if serialize is not None and sink is not None:
                yield self._finding(
                    module, sink, symbol,
                    "serializes an envelope and writes it to a raw sink "
                    "without charging simulated time; persistence cost "
                    "escapes the model",
                )

    def _clock_charges(self, module: ModuleContext) -> Iterator[Finding]:
        project = module.project
        chargers = _clock_chargers(project)
        for info, calls in chargers.values():
            if info.module.path != module.path:
                continue
            for call in calls:
                # w3 — the direct charge.
                yield self._finding(
                    module, call, info.symbol,
                    "charges the clock directly, bypassing Network.charge "
                    "metrics attribution; the time is missing from the "
                    "per-category breakdown — charge through "
                    "Network.charge(ms, category)",
                )
        if not chargers:
            return
        # w4 — callers in this module that reach a direct charge.
        for info in project.functions.values():
            if info.module.path != module.path or info.qualname in chargers:
                continue
            reached = sorted(project.callees_closure(info.qualname) & chargers.keys())
            if reached:
                leaf = chargers[reached[0]][0]
                yield self._finding(
                    module, info.node, info.symbol,
                    f"reaches '{leaf.symbol}', which charges the clock "
                    "outside Network.charge; the laundered time is missing "
                    "from the per-category breakdown",
                )

    def _finding(self, module: ModuleContext, node: ast.AST, symbol: str, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.path,
            line=node.lineno,
            col=node.col_offset,
            symbol=symbol,
            message=message,
            severity="warning",
        )


def _clock_chargers(project: ProjectContext) -> dict[str, tuple[FunctionInfo, list[ast.Call]]]:
    """qualname -> (function, its direct clock charges), project-wide.

    Computed once per project: every module's check consults the same
    table, and the body scan is the expensive part.
    """
    cached = project.memo.get("rpo05.chargers")
    if cached is None:
        cached = {}
        for qualname, info in project.functions.items():
            if _exempt(info.module.path):
                continue
            calls = _own_clock_charges(info.node)
            if calls:
                cached[qualname] = (info, calls)
        project.memo["rpo05.chargers"] = cached
    return cached


def _own_calls(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.Call]:
    """The calls in ``func``'s own body, breadth first as ``ast.walk``
    yields them, skipping nested defs (each is its own function)."""
    calls = []
    frontier = deque(ast.iter_child_nodes(func))
    while frontier:
        node = frontier.popleft()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        frontier.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Call):
            calls.append(node)
    return calls


def _own_clock_charges(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.Call]:
    """``charge``/``advance`` calls on a clock in ``func``'s own body, in
    source order."""
    calls = [call for call in _own_calls(func) if _is_clock_charge(call)]
    return sorted(calls, key=lambda call: (call.lineno, call.col_offset))


def _is_clock_charge(call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr in _CLOCK_METHODS):
        return False
    receiver = func.value
    if isinstance(receiver, ast.Attribute):
        name = receiver.attr
    elif isinstance(receiver, ast.Name):
        name = receiver.id
    else:
        return False
    return name == "clock" or name.endswith("_clock")


def _functions(tree: ast.AST) -> Iterator[tuple[ast.FunctionDef, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, f"{node.name}.{item.name}"
    seen_in_class = {
        id(item)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if id(node) not in seen_in_class:
                yield node, node.name


def _builds_wire_message(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "WireMessage":
        return True
    if isinstance(func, ast.Attribute):
        if func.attr == "from_envelope":
            base = func.value
            return isinstance(base, ast.Name) and base.id == "WireMessage"
    return False


def _serializes(call: ast.Call) -> bool:
    return call_name(call) in _SERIALIZE_NAMES


def _raw_sink(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return True
    return isinstance(func, ast.Attribute) and func.attr in _RAW_SINK_ATTRS
