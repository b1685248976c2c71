"""Tests of the benchmark itself: ``python -m pytest wallbench``.

Short in-process runs check the op model, determinism and the span
accounting; two subprocess runs check the command-line contract.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_repro()

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import STACKS, WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


def traced_units(workload: str, seed: int, units: int):
    """A traced run of exactly ``units`` units per stack."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        runs = run.run_stacks(workload, seed, 1.0, tracer, units={s: units for s in STACKS})
    finally:
        tracer.uninstall()
    return tracer, runs


@pytest.mark.parametrize("workload", NAMES)
def test_short_run_has_no_failures(workload):
    runs = run.run_stacks(workload, 3, 0.2)
    for stack in STACKS:
        assert runs[stack].attempted > 0
        assert runs[stack].failed == 0, runs[stack].failures
        assert runs[stack].ops > 0


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_repeats_fingerprints_calls_and_cache_hits(workload):
    first_tracer, first = traced_units(workload, 5, 2)
    second_tracer, second = traced_units(workload, 5, 2)
    timed = lambda tracer: {  # noqa: E731
        seam: calls for (phase, seam), (calls, _) in tracer.totals.items() if phase == "timed"
    }
    assert timed(first_tracer) == timed(second_tracer)
    for stack in STACKS:
        assert first[stack].fingerprint == second[stack].fingerprint
        assert first[stack].cache == second[stack].cache


@pytest.mark.parametrize("workload", NAMES)
def test_wrappers_leave_the_fingerprint_alone(workload):
    _, traced = traced_units(workload, 6, 2)
    untraced = run.run_stacks(workload, 6, 1.0, units={s: 2 for s in STACKS})
    for stack in STACKS:
        assert traced[stack].fingerprint == untraced[stack].fingerprint


def test_pinned_fingerprints_match_the_default_seed():
    pinned = json.loads(run.PINNED.read_text(encoding="utf-8"))
    assert pinned["seed"] == run.DEFAULT_SEED
    for workload in NAMES:
        units = WORKLOADS[workload].PIN_UNITS
        runs = run.run_stacks(workload, run.DEFAULT_SEED, 1.0, units={s: units for s in STACKS})
        assert run.check_pinned(workload, run.DEFAULT_SEED, runs) == []


def test_command_line_names_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    config = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [entry["name"] for entry in config["workloads"]] == list(run.WORKLOAD_NAMES)


def test_a_different_seed_gives_a_different_op_sequence():
    first = [repr(op) for op in itertools.islice(workloads.counter_ops(1), 100)]
    second = [repr(op) for op in itertools.islice(workloads.counter_ops(2), 100)]
    assert first != second
    runs = {
        seed: run.run_stacks("giab-jobs", seed, 1.0, units={s: 3 for s in STACKS})
        for seed in (1, 2)
    }
    assert runs[1]["wsrf"].fingerprint != runs[2]["wsrf"].fingerprint


@pytest.mark.parametrize("workload", NAMES)
def test_self_times_are_non_negative_and_sum_to_the_timed_wall_time(workload):
    tracer, runs = traced_units(workload, 7, 2)
    self_ms = {
        seam: tracer.self_ms("timed", seam) for (phase, seam) in tracer.totals if phase == "timed"
    }
    assert all(value >= 0 for value in self_ms.values()), self_ms
    wall_ms = sum(r.wall_s for r in runs.values()) * 1e3
    assert sum(self_ms.values()) == pytest.approx(wall_ms, rel=1e-3, abs=0.5)
    assert tracer.calls("timed", spans.ROOT) == len(STACKS)


def test_open_loop_spans_name_their_request():
    tracer, _ = traced_units("counter-load", 9, 1)
    ops = {span[4] for span in tracer.spans if span is not None and span[0] == "pipeline.outbound"}
    # Deploying creates the counter with one serial request, before any round.
    rounds = {"warmup": workloads.LOAD_WARMUP_REQUESTS, 0: workloads.ROUND_REQUESTS}
    assert ops - {"setup"} == {
        f"{stack}:round{label}-{i}" for stack in STACKS for label, n in rounds.items()
        for i in range(n)
    }


def test_set_up_clock_covers_every_import():
    """``setup_s`` is timed from just before ``load_repro()``; after it, a
    run imports no further module of the program or the benchmark."""
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import run\n"
        "def program():\n"
        "    return {m for m in sys.modules if m.split('.')[0] in ('repro', 'workloads')}\n"
        "assert not program(), sorted(program())\n"
        "run.load_repro()\n"
        "loaded = program()\n"
        "for name in run.WORKLOAD_NAMES:\n"
        "    run.run_stacks(name, 3, 1.0, units={'wsrf': 1, 'transfer': 1})\n"
        "print(sorted(program() - loaded))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, str(HERE)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().splitlines()[-1] == "[]"


def test_expected_seams_record_calls():
    for workload in NAMES:
        tracer, _ = traced_units(workload, 8, WORKLOADS[workload].PIN_UNITS)
        metrics = tracer.layer_metrics()
        unused = WORKLOADS[workload].UNUSED_SEAMS
        for seam in spans.SEAM_NAMES:
            calls = metrics[f"{seam}.calls"][0]
            assert (calls == 0) == (seam in unused), (workload, seam, calls)


def bindings() -> dict:
    """Every binding a tracer may patch: seam methods, and each repro
    module attribute that holds a seam function."""
    found = {}
    for _, module_name, attr in spans.SEAMS + spans.COUNTED:
        owner = sys.modules[module_name]
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
            found[(owner, name)] = owner.__dict__[name]
            continue
        original = getattr(owner, name)
        for module in spans._repro_modules():
            for bound, value in vars(module).items():
                if value is original:
                    found[(module, bound)] = value
    return found


def test_wrappers_cover_every_importing_module_and_are_removed():
    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        sites = tracer.patched_sites()
    finally:
        tracer.uninstall()
    parse_xml_importers = ("repro.soap.envelope", "repro.xmldb.collection", "repro.eventing.store",
                           "repro.wsn.broker", "repro.wsrf.servicegroup")
    serialize_importers = ("repro.soap.message", "repro.xmldb.collection", "repro.eventing.store",
                           "repro.wsn.broker", "repro.wsrf.servicegroup",
                           "repro.apps.giab.wsrf.execservice")
    expected = {
        "repro.container.security.sign_element",
        "repro.container.security.verify_element",
        "repro.pipeline.filters.verify_element",
        "repro.crypto.xmldsig.canonicalize",
        "repro.crypto.x509.canonicalize",
        "repro.soap.message.parse_envelope",
        # The Grid-in-a-Box ExecService imports parse_xml from here at call time.
        "repro.xmllib.parse_xml",
        "ServiceSkeleton.dispatch",
        "WsResourceService.dispatch",
        *(f"{module}.parse_xml" for module in parse_xml_importers),
        *(f"{module}.serialize" for module in serialize_importers),
    }
    assert expected <= sites, sorted(expected - sites)
    assert len(sites) == len(before)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_command_line_contract(tmp_path):
    script = str(HERE / "run.py")
    completed = subprocess.run(
        [sys.executable, script, "--workload", "counter-mix", "--seed", "4",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    config = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {entry["name"] for entry in config["end_to_end"]}

    # Without the program's sources the benchmark must fail, printing no result.
    shutil.copy(run.CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "wallbench", ignore=shutil.ignore_patterns("__pycache__"))
    bare = subprocess.run(
        [sys.executable, "wallbench/run.py", "--workload", "counter-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert bare.returncode != 0
    assert '"correct"' not in bare.stdout
