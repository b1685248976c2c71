"""Regression gates: fresh numbers vs the recorded trajectory.

Three failure classes, in the order they are reported:

* **structural problems** — the grid contract (spec fingerprint) moved,
  cells went missing or appeared, or a numeric leaf appeared in or
  vanished from a cell;
* **invariant violations** — the spec's declared shape claims
  (x509 > https > none, distributed > colocated, Create slowest, …)
  no longer hold on the fresh run;
* **cost drift** — a numeric leaf changed at all: virtual-clock numbers
  must match the record bit for bit, so a reversed cross-cell ordering
  is drift in each leaf that moved.

Specs gated ``shape`` (wall-clock benches) skip drift — their absolute
numbers are machine-dependent — and are judged on structure and
invariants alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.schema import RunRecord, numeric_leaves
from repro.experiments.spec import ExperimentSpec, evaluate_invariants


@dataclass
class GateReport:
    """The outcome of one spec's check, partitioned by failure class."""

    spec: str
    invariant_violations: list[str] = field(default_factory=list)
    drift_violations: list[str] = field(default_factory=list)
    structural_problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.invariant_violations
            or self.drift_violations
            or self.structural_problems
        )

    def lines(self) -> list[str]:
        out: list[str] = []
        for label, problems in (
            ("structural", self.structural_problems),
            ("invariant", self.invariant_violations),
            ("drift", self.drift_violations),
        ):
            out.extend(f"{self.spec}: {label}: {problem}" for problem in problems)
        return out


def _leaves_by_cell(record: RunRecord) -> dict[str, dict[str, float]]:
    return {cell.cell_id: numeric_leaves(cell.values) for cell in record.cells}


def find_leaf_changes(recorded: RunRecord, fresh: RunRecord) -> list[str]:
    """Numeric leaves that appeared in or vanished from a fresh cell."""
    rec = _leaves_by_cell(recorded)
    new = _leaves_by_cell(fresh)
    problems: list[str] = []
    for cell_id in recorded.cell_ids():
        if cell_id not in new:
            continue
        for path in sorted(set(rec[cell_id]) ^ set(new[cell_id])):
            if path in new[cell_id]:
                problems.append(f"{cell_id}:{path} appeared (not in the record)")
            else:
                problems.append(f"{cell_id}:{path} vanished from the fresh run")
    return problems


def find_drift(recorded: RunRecord, fresh: RunRecord) -> list[str]:
    """Numeric leaves whose value changed."""
    rec = _leaves_by_cell(recorded)
    new = _leaves_by_cell(fresh)
    problems: list[str] = []
    for cell_id in recorded.cell_ids():
        if cell_id not in new:
            continue
        rec_leaves, new_leaves = rec[cell_id], new[cell_id]
        for path in sorted(set(rec_leaves) & set(new_leaves)):
            was, now = rec_leaves[path], new_leaves[path]
            if was != now:
                problems.append(f"{cell_id}:{path} drifted {was!r} → {now!r}")
    return problems


def check_against_record(
    spec: ExperimentSpec, recorded: RunRecord, fresh: RunRecord
) -> GateReport:
    """Gate one fresh run against its recorded trajectory."""
    report = GateReport(spec=spec.name)
    if recorded.fingerprint != fresh.fingerprint:
        report.structural_problems.append(
            f"spec fingerprint changed ({recorded.fingerprint} → "
            f"{fresh.fingerprint}); the grid contract moved — regenerate the "
            f"record with `python -m repro experiments --run {spec.name}`"
        )
        return report
    missing = [c for c in recorded.cell_ids() if c not in fresh.cell_ids()]
    extra = [c for c in fresh.cell_ids() if c not in recorded.cell_ids()]
    if missing:
        report.structural_problems.append(f"cells missing from fresh run: {missing}")
    if extra:
        report.structural_problems.append(f"cells not in the record: {extra}")
    report.structural_problems.extend(find_leaf_changes(recorded, fresh))
    report.invariant_violations = evaluate_invariants(spec, fresh)
    if spec.gate == "exact":
        report.drift_violations = find_drift(recorded, fresh)
    return report


def check_artifacts(
    spec: ExperimentSpec, record: RunRecord, results_dir: str
) -> list[str]:
    """Committed artifact files that differ from what ``record`` renders.

    The staleness gate: every ``results/*.csv`` a spec publishes must be
    exactly what its committed record produces.
    """
    import os

    problems: list[str] = []
    for name, text in spec.artifacts(record).items():
        path = os.path.join(results_dir, name)
        if not os.path.exists(path):
            problems.append(f"{spec.name}: artifact {name} is missing")
            continue
        with open(path, encoding="utf-8") as fh:
            committed = fh.read()
        if committed != text:
            problems.append(
                f"{spec.name}: artifact {name} is stale (regenerate with "
                f"`python -m repro experiments --run {spec.name}`)"
            )
    return problems
