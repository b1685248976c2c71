"""RPO10 — determinism: no ambient entropy on cost-ledger/comparator paths.

The dual-stack comparison only works because both stacks run on the same
virtual timeline with the same seeded RNG: a run is a pure function of
(program, mode, seed).  Reading the wall clock, sleeping on it, pulling
unseeded randomness, hashing object identities, or iterating a set where
order leaks into output all smuggle host entropy into results — and once
the concurrent kernel interleaves requests, that entropy becomes schedule
nondeterminism the conformance harness cannot distinguish from a real
stack divergence.

Sources detected (calls resolve through the file's imports, so
``from time import sleep as nap`` makes ``nap(...)`` a ``time.sleep``):

* ``time.time``/``time.time_ns``/``time.monotonic``/``time.perf_counter``
* ``time.sleep``/``asyncio.sleep`` — a wall-clock wait stalls the
  simulation for real seconds while the charged-time ledger misses it;
  backoff and retransmission wait virtually via ``Network.charge``
* ``datetime.now``/``datetime.utcnow``/``datetime.today``
* module-level ``random.*`` (unseeded process RNG; a seeded
  ``random.Random(seed)`` instance is fine and is what ``Clock.rng`` is)
* ``os.urandom`` and ``uuid.uuid4``
* ``id(x)`` used as a dict/set key or sort key
* iterating a set literal / ``set(...)`` directly (iteration order is
  hash-seed dependent; sort first)

Severity is *error* when the enclosing function can reach the cost
ledger (``Network.charge``/``MetricsRecorder``) or a comparator, or is
reachable from a ``@web_method`` handler — that entropy lands in
reported numbers.  Elsewhere it is a warning.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import register
from repro.analysis.project import ProjectContext

_TIME_ATTRS = frozenset({"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"})
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
_SLEEP_MODULES = frozenset({"time", "asyncio"})

#: Terminal qualname fragments that mark a cost-ledger / comparator sink.
_SINK_MARKERS = (
    "repro.sim.network.Network.charge",
    "repro.sim.metrics.",
    "repro.testkit.comparators.",
)


def _exempt(path: str) -> bool:
    # The analyzer runs offline; the clock module owns the seeded RNG.
    return "repro/analysis/" in path or path.endswith("sim/clock.py")


@register
class DeterminismChecker:
    rule_id = "RPO10"
    description = (
        "no wall-clock reads or sleeps, unseeded randomness, id()-keyed or "
        "set-iteration-ordered data on paths feeding the cost ledger or "
        "comparators"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if _exempt(module.path):
            return
        project = module.project
        sinks = _sink_functions(project)
        for node, reason in _entropy_sites(module):
            symbol, severity = _classify(project, module, node, sinks)
            yield Finding(
                rule=self.rule_id,
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                symbol=symbol,
                message=f"{reason}; runs must be a pure function of (program, mode, seed)",
                severity=severity,
            )


def _sink_functions(project: ProjectContext) -> frozenset[str]:
    cached = project.memo.get("rpo10.sinks")
    if cached is None:
        cached = frozenset(
            qualname for qualname in project.functions if qualname.startswith(_SINK_MARKERS)
        )
        project.memo["rpo10.sinks"] = cached
    return cached


def _classify(
    project: ProjectContext,
    module: ModuleContext,
    node: ast.AST,
    sinks: frozenset[str],
) -> tuple[str, str]:
    """(symbol, severity) for an entropy site."""
    info = project.enclosing_function(module, node)
    if info is None:
        return "<module>", "warning"
    on_ledger_path = bool(sinks) and project.reaches(info.qualname, sinks)
    handler_reachable = info.is_handler or bool(project.handler_reach(info.qualname))
    return info.symbol, "error" if (on_ledger_path or handler_reachable) else "warning"


def _entropy_sites(module: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
    _ID_KEY_MSG = "id()-keyed data varies per process (addresses are not stable)"
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            reason = _call_entropy(node, module)
            if reason is not None:
                yield node, reason
        elif isinstance(node, (ast.For, ast.comprehension)):
            iterable = node.iter
            if _is_bare_set(iterable):
                yield iterable, (
                    "iteration order of a set is hash-seed dependent and "
                    "leaks into output; sort it first"
                )
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None and _is_id_call(key):
                    yield key, _ID_KEY_MSG
        elif isinstance(node, ast.Subscript) and _is_id_call(node.slice):
            yield node.slice, _ID_KEY_MSG


def _call_entropy(call: ast.Call, module: ModuleContext) -> str | None:
    target = _call_target(call, module)
    if target is not None:
        reason = _entropy_source(call, *target)
        if reason is not None:
            return reason
    # sorted(xs, key=id) — ordering by object address.
    for keyword in call.keywords:
        if (
            keyword.arg == "key"
            and isinstance(keyword.value, ast.Name)
            and keyword.value.id == "id"
        ):
            return "sorting by id() orders objects by memory address"
    return None


def _call_target(call: ast.Call, module: ModuleContext) -> tuple[str, str] | None:
    """(module, attribute) a call resolves to through the file's imports:
    ``time.sleep(...)`` and, after ``from time import sleep as nap``,
    ``nap(...)`` both give ``("time", "sleep")``."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        base = func.value.id
        return module.plain_imports.get(base, base), func.attr
    if isinstance(func, ast.Name):
        return module.imports.get(func.id)
    return None


def _entropy_source(call: ast.Call, source: str, attr: str) -> str | None:
    if source == "time" and attr in _TIME_ATTRS:
        return f"wall-clock read time.{attr}() is host entropy; use the virtual Clock"
    if source in _SLEEP_MODULES and attr == "sleep":
        return (
            f"wall-clock sleep {source}.sleep() stalls the simulation and escapes "
            "the charged-time ledger; wait virtually via clock.charge / Network.charge"
        )
    if source == "datetime" and attr in _DATETIME_ATTRS:
        return f"datetime.{attr}() reads the host clock; use the virtual Clock"
    if source == "random":
        if attr == "Random" and (call.args or call.keywords):
            return None  # random.Random(seed) — explicitly seeded, fine
        if attr == "Random":
            return (
                "random.Random() with no seed draws from process entropy; "
                "seed it from the run's (program, mode, seed) tuple"
            )
        if attr == "SystemRandom":
            return "random.SystemRandom() is OS entropy and never reproducible"
        return (
            f"module-level random.{attr}() uses the unseeded process RNG; "
            "use the run's seeded Clock.rng"
        )
    if (source, attr) == ("os", "urandom"):
        return "os.urandom() is irreproducible entropy; derive bytes from the seeded RNG"
    if (source, attr) == ("uuid", "uuid4"):
        return "uuid.uuid4() is random per process; derive ids from the seeded RNG"
    return None


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


def _is_bare_set(node: ast.expr) -> bool:
    if isinstance(node, ast.Set):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "set"
    )
