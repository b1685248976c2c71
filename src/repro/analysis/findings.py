"""Structured findings: what a checker reports and how it is identified.

A finding's :attr:`~Finding.fingerprint` deliberately excludes line and
column so that baseline entries survive unrelated edits to the same file;
it is the tuple (rule, path, symbol, message) that names a violation.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

#: Finding severities, in increasing order of concern.  Both count toward
#: the exit code; the split exists so reporters can rank output.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one site."""

    rule: str
    path: str
    line: int
    col: int
    symbol: str
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity: {self.severity!r}")

    @property
    def fingerprint(self) -> str:
        """Stable identity used by baseline matching (line-independent)."""
        basis = "|".join((self.rule, self.path, self.symbol, self.message))
        return hashlib.sha1(basis.encode("utf-8")).hexdigest()[:16]

    @property
    def normalized_fingerprint(self) -> str:
        """Baseline-v2 identity: message text is normalized first, so
        entries survive refactors that shift counts or reflow wording
        whitespace without changing what the finding *is*."""
        basis = "|".join(
            (self.rule, self.path, self.symbol, normalize_message(self.message))
        )
        return hashlib.sha1(basis.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.symbol}: {self.message}"
        )

    def to_dict(self, *, baselined: bool = False) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
            "fingerprint": self.fingerprint,
            "normalized_fingerprint": self.normalized_fingerprint,
            "baselined": baselined,
        }

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)


def normalize_message(message: str) -> str:
    """Collapse whitespace and replace digit runs with ``#`` so messages
    that embed counts ('after 3 attempts') fingerprint stably."""
    collapsed = re.sub(r"\s+", " ", message).strip()
    return re.sub(r"\d+", "#", collapsed)
