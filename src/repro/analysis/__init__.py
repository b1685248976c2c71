"""``repro.analysis`` — AST-based spec-conformance linting for both stacks.

The paper's functional-equivalence claim holds only while every service
honours its stack's contract exactly: the WS-Transfer CRUD quartet, the
WS-Eventing subscription quartet, WS-BaseFaults on the WSRF side, action
URIs derived from the canonical namespace table, honest sim-cost
accounting.  This package enforces those contracts mechanically so that
aggressive refactors cannot silently break them.

Entry points:

* ``python -m repro.analysis [--format json] [--baseline FILE] [paths...]``
  — from the repository root it loads ``lint-baseline.json`` and exits 1
  on any finding outside it (the CI lint gate)
* the ``repro-lint`` console script
* :func:`repro.analysis.engine.run_analysis` for programmatic use

Built entirely on the standard-library ``ast`` module — no third-party
dependencies, matching the rest of the reproduction.
"""

from repro.analysis.findings import Finding
from repro.analysis.registry import all_checkers, get_checker, register
from repro.analysis.engine import AnalysisResult, run_analysis

__all__ = [
    "AnalysisResult",
    "Finding",
    "all_checkers",
    "get_checker",
    "register",
    "run_analysis",
]
