"""Baseline files: known, justified findings that do not fail the build.

A version-2 baseline is a JSON document::

    {
      "version": 2,
      "entries": [
        {
          "rule": "RPO05",
          "path": "src/repro/bench/giab.py",
          "symbol": "_measure_wsrf",
          "message": "...finding message...",
          "justification": "why this one is intentional"
        }
      ]
    }

Matching is by the *normalized* (rule, path, symbol, message) tuple —
whitespace collapsed, digit runs replaced by ``#`` — so entries survive
line-number drift, message reflows, and count changes ("after 3
attempts" vs "after 5 attempts"), but are invalidated the moment the
code changes what the finding actually says.  Every entry must carry a
non-empty ``justification``.  The committed ``lint-baseline.json`` is the
one inventory of accepted findings: a finding outside it fails the
linter, and an entry no finding matches fails the tier-1 self-clean test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.findings import Finding

BASELINE_VERSION = 2

#: The file the CLI auto-loads from the working directory when --baseline
#: is not given (kept at the repository root).
DEFAULT_BASELINE_NAME = "lint-baseline.json"


class BaselineError(ValueError):
    """Raised for malformed baseline documents."""


@dataclass
class Baseline:
    """A set of accepted findings keyed by normalized fingerprint."""

    entries: dict[str, dict] = field(default_factory=dict)
    path: str = ""

    def covers(self, finding: Finding) -> bool:
        return finding.normalized_fingerprint in self.entries

    def justification_for(self, finding: Finding) -> str:
        entry = self.entries.get(finding.normalized_fingerprint)
        return entry.get("justification", "") if entry else ""

    def __len__(self) -> int:
        return len(self.entries)

    # -- serialization -------------------------------------------------------

    @classmethod
    def from_findings(cls, findings: list[Finding], justification: str) -> "Baseline":
        baseline = cls()
        for finding in findings:
            baseline.entries[finding.normalized_fingerprint] = {
                "rule": finding.rule,
                "path": finding.path,
                "symbol": finding.symbol,
                "message": finding.message,
                "justification": justification,
            }
        return baseline

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if not isinstance(document, dict) or document.get("version") != BASELINE_VERSION:
            raise BaselineError(f"{path}: not a version-{BASELINE_VERSION} baseline")
        baseline = cls(path=path)
        for index, entry in enumerate(document.get("entries", [])):
            missing = {"rule", "path", "symbol", "message"} - set(entry)
            if missing:
                raise BaselineError(f"{path}: entry {index} lacks {sorted(missing)}")
            if not entry.get("justification", "").strip():
                raise BaselineError(
                    f"{path}: entry {index} ({entry['rule']} in {entry['path']}) "
                    "has no justification"
                )
            shadow = Finding(
                rule=entry["rule"],
                path=entry["path"],
                line=0,
                col=0,
                symbol=entry["symbol"],
                message=entry["message"],
            )
            baseline.entries[shadow.normalized_fingerprint] = dict(entry)
        return baseline

    def save(self, path: str) -> None:
        document = {
            "version": BASELINE_VERSION,
            "entries": [
                self.entries[fingerprint]
                for fingerprint in sorted(
                    self.entries,
                    key=lambda fp: (
                        self.entries[fp]["path"],
                        self.entries[fp]["rule"],
                        self.entries[fp]["symbol"],
                    ),
                )
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=False)
            handle.write("\n")
        self.path = path
