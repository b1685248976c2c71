"""The analysis engine: file discovery, the project-wide pass, the
per-file checker pipeline, inline suppressions, and baseline filtering.

The pipeline parses each file once (memoized by content hash, so repeated
runs in one process — the test suite, engine + report passes — reparse
nothing that did not change), builds a
:class:`~repro.analysis.context.ModuleContext` per file plus one
:class:`~repro.analysis.project.ProjectContext` over the whole file set
(symbol table + call graph), and hands each module to every registered
checker.  Findings on lines carrying a
``# repro-lint: disable=RULE[,RULE...]`` marker are dropped at collection
time; findings matching the baseline are kept but flagged, so reporters
can show them without failing the run.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from repro.analysis.baseline import Baseline
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.registry import all_checkers

#: Files the analyzer never lints: the canonical namespace table (the one
#: place URI literals belong) is exempted by the RPO04 checker itself, but
#: generated caches and hidden directories are skipped at discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache"}

_SUPPRESS_MARKER = "repro-lint: disable="

#: Per-file AST cache: path -> (sha1 of source, ModuleContext).  Keyed by
#: content hash so an edited file re-parses and an untouched one never
#: does, across every run in this process.
_CONTEXT_CACHE: dict[str, tuple[str, ModuleContext]] = {}


@dataclass
class AnalysisResult:
    """Everything one run produced."""

    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings or self.parse_failures else 0


def discover_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of .py files."""
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    out.append(os.path.join(root, name))
    return [p.replace(os.sep, "/") for p in out]


def context_for(path: str) -> ModuleContext:
    """Parse ``path`` into a ModuleContext, memoized by content hash."""
    normalized = path.replace(os.sep, "/")
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    digest = hashlib.sha1(source.encode("utf-8")).hexdigest()
    cached = _CONTEXT_CACHE.get(normalized)
    if cached is not None and cached[0] == digest:
        return cached[1]
    context = ModuleContext.build(normalized, source)
    _CONTEXT_CACHE[normalized] = (digest, context)
    return context


def clear_context_cache() -> None:
    """Drop the per-file AST cache (tests exercising the cache use this)."""
    _CONTEXT_CACHE.clear()


def _check_module(context: ModuleContext, rules: list[str] | None) -> list[Finding]:
    findings: list[Finding] = []
    for rule_id, checker_class in all_checkers().items():
        if rules is not None and rule_id not in rules:
            continue
        findings.extend(checker_class().check(context))
    return [f for f in findings if not _suppressed(context, f)]


def analyze_file(path: str, *, rules: list[str] | None = None) -> list[Finding]:
    """Run every (selected) checker over one file, as a project of one."""
    context = context_for(path)
    context.project = ProjectContext.single(context)
    return _check_module(context, rules)


def run_analysis(
    paths: list[str],
    *,
    baseline: Baseline | None = None,
    rules: list[str] | None = None,
) -> AnalysisResult:
    """Analyze ``paths`` project-wide; split findings into new vs baselined."""
    result = AnalysisResult()
    contexts: list[ModuleContext] = []
    for path in discover_files(paths):
        result.files_scanned += 1
        try:
            contexts.append(context_for(path))
        except SyntaxError as exc:
            result.parse_failures.append((path, str(exc)))
    project = ProjectContext(contexts)
    for context in contexts:
        context.project = project
        for finding in sorted(_check_module(context, rules), key=Finding.sort_key):
            if baseline is not None and baseline.covers(finding):
                result.baselined.append(finding)
            else:
                result.findings.append(finding)
    return result


def _suppressed(context: ModuleContext, finding: Finding) -> bool:
    """Inline suppression: the finding's source line opts out of the rule."""
    line = context.line_text(finding.line)
    marker = line.find(_SUPPRESS_MARKER)
    if marker < 0:
        return False
    listed = line[marker + len(_SUPPRESS_MARKER):].split()[0]
    rules = {item.strip() for item in listed.split(",")}
    return finding.rule in rules or "all" in rules
