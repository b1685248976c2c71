"""Engine grid execution, determinism and records."""

import pytest

from repro.experiments import EngineError, ExperimentEngine, run_in_memory
from tests.experiments.conftest import CountingMeasure, make_toy_spec


class TestGridExecution:
    def test_grid_runs_in_declared_order(self, tmp_path):
        measure = CountingMeasure()
        spec = make_toy_spec(measure=measure)
        record = ExperimentEngine(str(tmp_path)).run(spec)
        assert [cell.cell_id for cell in record.cells] == [
            "mode=none,stack=wsrf",
            "mode=none,stack=transfer",
            "mode=x509,stack=wsrf",
            "mode=x509,stack=transfer",
        ]
        assert measure.calls == [cell.params for cell in record.cells]

    def test_cell_seeds_derive_from_base_seed(self, tmp_path):
        spec = make_toy_spec(seed=0)
        reseeded = make_toy_spec(seed=7)
        for cell in run_in_memory(spec).cells:
            assert cell.seed == spec.cell_seed(cell.cell_id)
        assert [c.seed for c in run_in_memory(spec).cells] != [
            c.seed for c in run_in_memory(reseeded).cells
        ]

    def test_non_dict_measurement_is_an_error(self):
        spec = make_toy_spec(measure=lambda params, seed: 42.0)
        with pytest.raises(EngineError, match="expected dict"):
            run_in_memory(spec)


class TestDeterminism:
    def test_two_full_runs_are_bit_identical(self, tmp_path):
        spec = make_toy_spec()
        first = ExperimentEngine(str(tmp_path / "a")).run(spec)
        second = ExperimentEngine(str(tmp_path / "b")).run(spec)
        assert first.dumps() == second.dumps()

    def test_persisted_record_matches_in_memory_run(self, tmp_path):
        spec = make_toy_spec()
        engine = ExperimentEngine(str(tmp_path))
        engine.run(spec)
        assert engine.load_record(spec.name).dumps() == run_in_memory(spec).dumps()

    def test_artifacts_written_from_record(self, tmp_path):
        spec = make_toy_spec()
        engine = ExperimentEngine(str(tmp_path))
        record = engine.run(spec)
        for name, text in spec.artifacts(record).items():
            with open(tmp_path / name, encoding="utf-8") as fh:
                assert fh.read() == text


class TestRecords:
    def test_missing_record_error_names_the_run_command(self, tmp_path):
        with pytest.raises(EngineError, match="--run toy"):
            ExperimentEngine(str(tmp_path)).load_record("toy")
