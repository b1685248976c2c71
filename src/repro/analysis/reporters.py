"""Text and JSON reporters.

The JSON schema (version 2) is part of the tool's contract and is asserted
by the tier-1 tests::

    {
      "version": 2,
      "tool": "repro-lint",
      "rules": {"RPO01": "<description>", ...},
      "summary": {
        "files_scanned": <int>,
        "total": <int>,       # new + baselined
        "new": <int>,         # findings that fail the run
        "baselined": <int>,
        "parse_failures": <int>
      },
      "findings": [
        {"rule", "severity", "path", "line", "col", "symbol", "message",
         "fingerprint", "normalized_fingerprint", "baselined"},
        ...
      ]
    }

``normalized_fingerprint`` is the key ``lint-baseline.json`` entries
match on.  The report is printed, never committed: the baseline is the
one stored inventory of accepted findings.
"""

from __future__ import annotations

import json

from repro.analysis.engine import AnalysisResult
from repro.analysis.registry import rule_table

JSON_REPORT_VERSION = 2


def render_text(result: AnalysisResult, *, show_baselined: bool = False) -> str:
    lines: list[str] = []
    for path, error in result.parse_failures:
        lines.append(f"{path}:0:0: RPO00 [error] <module>: syntax error: {error}")
    for finding in result.findings:
        lines.append(finding.render())
    if show_baselined:
        for finding in result.baselined:
            lines.append(f"{finding.render()}  (baselined)")
    new = len(result.findings) + len(result.parse_failures)
    lines.append(
        f"repro-lint: {result.files_scanned} files, "
        f"{new} new finding{'s' if new != 1 else ''}, "
        f"{len(result.baselined)} baselined"
    )
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    findings = [f.to_dict(baselined=False) for f in result.findings]
    findings += [f.to_dict(baselined=True) for f in result.baselined]
    findings.sort(key=lambda d: (d["path"], d["line"], d["col"], d["rule"]))
    document = {
        "version": JSON_REPORT_VERSION,
        "tool": "repro-lint",
        "rules": rule_table(),
        "summary": {
            "files_scanned": result.files_scanned,
            "total": len(result.findings) + len(result.baselined),
            "new": len(result.findings),
            "baselined": len(result.baselined),
            "parse_failures": len(result.parse_failures),
        },
        "findings": findings,
    }
    return json.dumps(document, indent=2)
