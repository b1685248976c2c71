"""The regression gates, exercised with planted tampering.

Every failure class check.sh relies on is demonstrated here: a planted
ordering flip, planted drift beyond tolerance, invariant violations, a
changed grid contract, missing/extra cells, and stale artifacts.
"""

import dataclasses

from repro.experiments import (
    CellResult,
    ExperimentEngine,
    check_against_record,
    check_artifacts,
    find_drift,
    find_leaf_changes,
    find_ordering_flips,
    make_record,
    run_in_memory,
)
from tests.experiments.conftest import make_toy_spec, toy_measure


def without_leaf(record, cell_index, leaf):
    """A copy of ``record`` with one numeric leaf dropped from one cell."""
    cells = list(record.cells)
    target = cells[cell_index]
    values = {k: v for k, v in target.values.items() if k != leaf}
    cells[cell_index] = CellResult(
        cell_id=target.cell_id, params=target.params, seed=target.seed, values=values
    )
    return dataclasses.replace(record, cells=cells)


def tampered(record, cell_index, **new_values):
    """A copy of ``record`` with one cell's values overridden."""
    cells = list(record.cells)
    target = cells[cell_index]
    cells[cell_index] = CellResult(
        cell_id=target.cell_id,
        params=target.params,
        seed=target.seed,
        values={**target.values, **new_values},
    )
    return dataclasses.replace(record, cells=cells)


class TestOrderingFlips:
    def test_identical_runs_have_no_flips(self):
        spec = make_toy_spec()
        record = run_in_memory(spec)
        assert find_ordering_flips(record, record) == []

    def test_planted_flip_is_detected(self):
        spec = make_toy_spec()
        recorded = run_in_memory(spec)
        # Recorded: wsrf get (10.0) > transfer get (6.0) under mode=none.
        # Plant the reversal in the fresh run.
        fresh = tampered(run_in_memory(spec), 0, get_ms=1.0)
        flips = find_ordering_flips(recorded, fresh)
        assert flips
        assert any("get_ms" in flip and "mode=none,stack=wsrf" in flip for flip in flips)

    def test_ties_are_not_flips(self):
        spec = make_toy_spec()
        recorded = run_in_memory(spec)
        # Collapse a strict ordering into a tie: suspicious, but not a flip
        # (drift catches it; the flip gate only fires on reversals).
        fresh = tampered(run_in_memory(spec), 0, get_ms=6.0)
        assert find_ordering_flips(recorded, fresh) == []


class TestDrift:
    def test_identical_runs_have_no_drift(self):
        record = run_in_memory(make_toy_spec())
        assert find_drift(record, record, tolerance=0.0) == []

    def test_planted_drift_beyond_tolerance_is_reported(self):
        spec = make_toy_spec()
        recorded = run_in_memory(spec)
        fresh = tampered(run_in_memory(spec), 0, get_ms=10.5)  # +5%
        assert find_drift(recorded, fresh, tolerance=0.0)
        assert find_drift(recorded, fresh, tolerance=0.01)
        assert find_drift(recorded, fresh, tolerance=0.10) == []

    def test_vanished_and_appeared_leaves_are_reported(self):
        spec = make_toy_spec()
        recorded = run_in_memory(spec)
        cells = list(run_in_memory(spec).cells)
        target = cells[0]
        values = dict(target.values)
        del values["get_ms"]
        values["surprise_ms"] = 1.0
        cells[0] = CellResult(
            cell_id=target.cell_id, params=target.params, seed=target.seed, values=values
        )
        fresh = dataclasses.replace(recorded, cells=cells)
        problems = find_leaf_changes(recorded, fresh)
        assert any("vanished" in p for p in problems)
        assert any("appeared" in p for p in problems)
        # Value drift is a separate class: the shared leaves did not move.
        assert find_drift(recorded, fresh, tolerance=0.0) == []


class TestCheckAgainstRecord:
    def test_clean_run_passes(self):
        spec = make_toy_spec()
        report = check_against_record(spec, run_in_memory(spec), run_in_memory(spec))
        assert report.ok
        assert report.lines() == []

    def test_fingerprint_change_is_structural_and_short_circuits(self):
        spec = make_toy_spec()
        recorded = run_in_memory(spec)
        fresh = run_in_memory(make_toy_spec(seed=1))
        report = check_against_record(spec, recorded, fresh)
        assert not report.ok
        assert "fingerprint changed" in report.structural_problems[0]
        # No noise from downstream classes once the contract moved.
        assert report.drift_violations == []

    def test_missing_cell_is_structural(self):
        spec = make_toy_spec()
        recorded = run_in_memory(spec)
        fresh = dataclasses.replace(recorded, cells=list(recorded.cells[:-1]))
        report = check_against_record(spec, recorded, fresh)
        assert any("missing" in p for p in report.structural_problems)

    def test_invariant_violation_fails_even_for_shape_gate(self):
        def inverted(params, seed):
            values = toy_measure(params, seed)
            if params["mode"] == "x509":
                values["get_ms"] = 0.5
            return values

        spec = make_toy_spec(measure=inverted, gate="shape")
        recorded = run_in_memory(spec)
        report = check_against_record(spec, recorded, run_in_memory(spec))
        assert report.invariant_violations
        assert not report.ok

    def test_shape_gate_ignores_drift_and_flips(self):
        spec = make_toy_spec(gate="shape")
        recorded = run_in_memory(spec)
        fresh = tampered(run_in_memory(spec), 0, get_ms=9.0)  # drifted but ordered
        report = check_against_record(spec, recorded, fresh)
        assert report.ok

    def test_shape_gate_fails_when_a_leaf_vanishes(self):
        spec = make_toy_spec(gate="shape")
        recorded = run_in_memory(spec)
        fresh = without_leaf(run_in_memory(spec), 0, "seed_echo")
        report = check_against_record(spec, recorded, fresh)
        assert not report.ok
        assert any(
            "seed_echo vanished" in problem for problem in report.structural_problems
        )

    def test_exact_gate_fails_on_the_same_drift(self):
        spec = make_toy_spec()
        recorded = run_in_memory(spec)
        fresh = tampered(run_in_memory(spec), 0, get_ms=9.0)
        report = check_against_record(spec, recorded, fresh)
        assert report.drift_violations
        assert report.lines()


class TestCheckArtifacts:
    def test_written_artifacts_pass(self, tmp_path):
        spec = make_toy_spec()
        engine = ExperimentEngine(str(tmp_path))
        record = engine.run(spec)
        assert check_artifacts(spec, record, str(tmp_path)) == []

    def test_missing_artifact_reported(self, tmp_path):
        spec = make_toy_spec()
        record = make_record(spec, run_in_memory(spec).cells)
        problems = check_artifacts(spec, record, str(tmp_path))
        assert problems and "missing" in problems[0]

    def test_stale_artifact_reported(self, tmp_path):
        spec = make_toy_spec()
        engine = ExperimentEngine(str(tmp_path))
        record = engine.run(spec)
        name = next(iter(spec.artifacts(record)))
        with open(tmp_path / name, "a", encoding="utf-8") as fh:
            fh.write("tampered\n")
        problems = check_artifacts(spec, record, str(tmp_path))
        assert problems and "stale" in problems[0]
