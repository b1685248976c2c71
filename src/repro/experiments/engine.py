"""The sweep engine: deterministic, seeded grid execution.

Cells run in grid order (outer axes slowest), each with a seed derived
from the spec's base seed and the cell id.  A completed grid is
consolidated into ``<results>/experiments/<spec>.json`` (the unified
:mod:`~repro.experiments.schema` record) and the spec's published
artifacts (``results/*.csv``, ``BENCH_*.json``) are rewritten from the
record — the record is the single source every number flows through.
A run is all or nothing: the whole registry re-measures in seconds, so
an interrupted run is simply run again.
"""

from __future__ import annotations

import os

from repro.experiments.schema import CellResult, RunRecord
from repro.experiments.spec import ExperimentSpec, make_record


class EngineError(RuntimeError):
    """A run that cannot proceed (bad measurement, missing record)."""


class ExperimentEngine:
    """Runs specs against a results directory.

    ``results_dir`` is the repo's ``results/``; records land in
    ``results/experiments/`` and artifacts in ``results/`` itself.  Pass
    ``persist=False`` for a purely in-memory run (no record, no
    artifacts) — what the check gates and tests use.
    """

    def __init__(self, results_dir: str, *, persist: bool = True) -> None:
        self.results_dir = results_dir
        self.persist = persist

    # -- paths -------------------------------------------------------------

    def record_path(self, spec_name: str) -> str:
        return os.path.join(self.results_dir, "experiments", f"{spec_name}.json")

    # -- running -----------------------------------------------------------

    def run(self, spec: ExperimentSpec) -> RunRecord:
        """Run ``spec``'s grid and return the consolidated record."""
        cells: list[CellResult] = []
        for params in spec.grid():
            cell_id = spec.cell_id(params)
            seed = spec.cell_seed(cell_id)
            values = spec.measure(dict(params), seed)
            if not isinstance(values, dict):
                raise EngineError(
                    f"{spec.name}:{cell_id} measure returned "
                    f"{type(values).__name__}, expected dict"
                )
            cells.append(
                CellResult(cell_id=cell_id, params=dict(params), seed=seed, values=values)
            )
        record = make_record(spec, cells)
        if self.persist:
            self._write_outputs(spec, record)
        return record

    def _write_outputs(self, spec: ExperimentSpec, record: RunRecord) -> None:
        os.makedirs(os.path.join(self.results_dir, "experiments"), exist_ok=True)
        record.save(self.record_path(spec.name))
        for name, text in spec.artifacts(record).items():
            path = os.path.join(self.results_dir, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)

    # -- records -----------------------------------------------------------

    def load_record(self, spec_name: str) -> RunRecord:
        path = self.record_path(spec_name)
        if not os.path.exists(path):
            raise EngineError(
                f"no recorded run for {spec_name!r} at {path}; "
                f"run `python -m repro experiments --run {spec_name}` first"
            )
        return RunRecord.load(path)


def run_in_memory(spec: ExperimentSpec) -> RunRecord:
    """One fresh run that writes nothing (what benches and gates use)."""
    return ExperimentEngine(results_dir=".", persist=False).run(spec)
