"""Declarative experiment engine (DESIGN.md §17).

A spec (:class:`~repro.experiments.spec.ExperimentSpec`) names its swept
axes, its measurement callable and its shape invariants; the engine
(:class:`~repro.experiments.engine.ExperimentEngine`) expands the grid,
runs cells deterministically (seeded, in grid order) and consolidates
them into one unified record schema
(:class:`~repro.experiments.schema.RunRecord`) that every published
artifact — ``results/*.csv``, ``BENCH_*.json``, EXPERIMENTS.md — renders
from.  The gates (:mod:`~repro.experiments.gates`) diff fresh runs
against the recorded trajectory: invariant violations, ordering flips and
virtual-cost drift all fail ``python -m repro experiments --check``.
"""

from repro.experiments.engine import EngineError, ExperimentEngine, run_in_memory
from repro.experiments.gates import (
    GateReport,
    check_against_record,
    check_artifacts,
    find_drift,
    find_leaf_changes,
    find_ordering_flips,
)
from repro.experiments.schema import (
    SCHEMA_VERSION,
    CellResult,
    RunRecord,
    SchemaError,
    dumps_canonical,
    numeric_leaves,
)
from repro.experiments.spec import (
    Axis,
    ExperimentSpec,
    Invariant,
    PairOrdering,
    Predicate,
    SpecError,
    evaluate_invariants,
    make_record,
)

__all__ = [
    "SCHEMA_VERSION",
    "Axis",
    "CellResult",
    "EngineError",
    "ExperimentEngine",
    "ExperimentSpec",
    "GateReport",
    "Invariant",
    "PairOrdering",
    "Predicate",
    "RunRecord",
    "SchemaError",
    "SpecError",
    "check_against_record",
    "check_artifacts",
    "dumps_canonical",
    "evaluate_invariants",
    "find_drift",
    "find_leaf_changes",
    "find_ordering_flips",
    "make_record",
    "numeric_leaves",
    "run_in_memory",
]
