"""Differential conformance: the executable form of the paper's thesis.

The tier-1 slice here runs a handful of seeds across representative cells;
the full 60-program corpus runs in scripts/check.sh via
``python -m repro conformance``, and the ``soak`` marker scales it up.
"""

import json

import pytest

from repro.container import SecurityMode
from repro.testkit import ops as op
from repro.testkit.generator import generate_program
from repro.testkit.harness import ALL_MODES, run_differential
from repro.testkit.ops import Program


def _assert_equivalent(outcome):
    details = [
        f"[{d.comparator}] {line}" for d in outcome.divergences for line in d.details
    ]
    assert outcome.equivalent, "\n".join(details)


class TestHandWrittenPrograms:
    def test_full_counter_lifecycle_all_six_cells(self):
        program = Program("counter", (
            op.CreateCounter("c0", 5),
            op.GetCounter("c0"),
            op.Subscribe("c0", "s0", 60_000.0),
            op.SetCounter("c0", 7),
            op.GetStatus("s0"),
            op.Renew("s0", 120_000.0),
            op.AdvanceClock(120_000.0),
            op.GetStatus("s0"),
            op.Unsubscribe("s0"),
            op.DestroyCounter("c0"),
            op.GetCounter("c0"),
            op.DestroyCounter("c0"),
        ))
        for mode, colocated in ALL_MODES:
            _assert_equivalent(run_differential(program, mode, colocated))

    def test_giab_figure5_flow_every_security_mode(self):
        program = Program("giab", (
            op.GiabDiscover("sort"),
            op.GiabReserve(1),
            op.GiabUpload("input.dat", "a<b&c>d ]]> é☃"),
            op.GiabListFiles(),
            op.GiabDownload("input.dat"),
            op.GiabSubmit("sort", "input.dat", 250.0, 3),
            op.GiabJobStatus(),
            op.GiabAwaitJob(),
            op.GiabJobStatus(),
            op.GiabDeleteFile("input.dat"),
            op.GiabCheckAvailable("sort"),
        ))
        for mode in (SecurityMode.NONE, SecurityMode.X509, SecurityMode.HTTPS):
            outcome = run_differential(program, mode, True)
            _assert_equivalent(outcome)
            assert outcome.wsrf.events == [["job-exited", 3]]

    def test_infinite_lease_survives_any_advance(self):
        program = Program("counter", (
            op.CreateCounter("c0", 0),
            op.Subscribe("c0", "s0", None),
            op.AdvanceClock(600_000.0),
            op.GetStatus("s0"),
            op.SetCounter("c0", 1),
        ))
        outcome = run_differential(program, SecurityMode.NONE, True)
        _assert_equivalent(outcome)
        assert outcome.wsrf.steps[3] == ["status", "infinity"]
        assert outcome.wsrf.events == [["c0", 0, 1]]

    def test_datagrid_replication_flow_all_six_cells(self):
        program = Program("datagrid", (
            op.DgRegister("lfn:f0", "se1.cern"),
            op.DgRegister("lfn:f0", "se1.fnal"),
            op.DgLocate("lfn:f0"),
            op.DgReplicate("lfn:f0", "se2.cern"),
            op.DgStageIn("lfn:f0", "se2.fnal"),
            op.DgFilesOn("se2.cern"),
            op.DgListFiles(),
            op.DgUnregister("lfn:f0", "se1.cern"),
            op.DgLocate("lfn:f0"),
            op.DgLocate("lfn:missing"),
        ))
        for mode, colocated in ALL_MODES:
            outcome = run_differential(program, mode, colocated)
            _assert_equivalent(outcome)
            # Replicate to se2.cern must pick the LAN source (se1.cern),
            # stage-in to se2.fnal the same-site one (se1.fnal).
            assert outcome.wsrf.steps[3] == ["dg_replicate", "se1.cern"]
            assert outcome.wsrf.steps[4] == ["dg_stage_in", "se1.fnal"]

    def test_replay_is_bit_identical(self):
        program = generate_program(0)
        outcome = run_differential(program, SecurityMode.X509, False, replay=True)
        _assert_equivalent(outcome)


class TestGeneratedCorpus:
    @pytest.mark.slow
    def test_small_seeded_corpus_is_equivalent(self):
        for seed in range(12):
            program = generate_program(seed, "counter")
            mode, colocated = ALL_MODES[seed % len(ALL_MODES)]
            outcome = run_differential(program, mode, colocated, seed=seed)
            _assert_equivalent(outcome)

    @pytest.mark.slow
    def test_generated_giab_corpus_is_equivalent(self):
        for seed in (100_000, 100_001, 100_002):
            program = generate_program(seed, "giab")
            outcome = run_differential(program, SecurityMode.X509, True, seed=seed)
            _assert_equivalent(outcome)

    @pytest.mark.soak
    def test_soak_corpus(self, tmp_path):
        """The larger sweep behind ``scripts/check.sh --soak``; its summary
        goes to ``tmp_path``, never over the committed default-corpus one."""
        from repro.testkit.cli import run_conformance

        summary = run_conformance(240, 0, 12, out_dir=str(tmp_path), verbose=False)
        assert summary["divergences"] == 0
        assert summary["invalid_programs"] == 0


class TestCli:
    def test_cli_writes_summary_and_exit_status(self, tmp_path):
        from repro.testkit.cli import conformance_main

        assert conformance_main([
            "--seeds", "6", "--giab-seeds", "0", "--datagrid-seeds", "1",
            "--out", str(tmp_path),
        ]) == 0
        summary = json.loads((tmp_path / "conformance_summary.json").read_text())
        assert summary["programs"] == 7
        assert summary["datagrid_seeds"] == 1
        assert summary["divergences"] == 0
        assert not (tmp_path / "conformance_divergences.json").exists()

    def test_cli_rejects_unknown_flags(self):
        from repro.testkit.cli import conformance_main

        assert conformance_main(["--bogus"]) == 2
