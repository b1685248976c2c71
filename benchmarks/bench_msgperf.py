"""Msgperf — wall-clock message-path throughput, memoized vs uncached
(ISSUE 9 / ROADMAP item 2; no figure in the paper).

Thin wrapper over the ``msgperf`` experiment spec.  Unlike the other
benches, the headline numbers here are *wall-clock* and therefore
machine-dependent: the spec is gate="shape", so ``scripts/check.sh``
re-evaluates only the invariants — the 5x speedup floor on the signed
soak, virtual-cost invariance across caching modes, and signature caches
that miss only during the warm-up — while absolute throughput may drift
with the host.
``results/BENCH_msgperf.json`` is regenerated by this bench (or
``python -m repro experiments --run msgperf``).
"""

import json
import os

import pytest

from benchmarks.conftest import record_figure, write_spec_artifacts
from repro.bench.msgperf import run_soak
from repro.experiments import evaluate_invariants, run_in_memory
from repro.experiments.registry import cell_values, get_spec

SPEC = get_spec("msgperf")
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")
BENCH_PATH = os.path.join(RESULTS_DIR, "BENCH_msgperf.json")


@pytest.fixture(scope="module")
def record():
    rec = run_in_memory(SPEC)
    record_figure(SPEC.title, SPEC.figure(rec))
    write_spec_artifacts(SPEC, rec)
    return rec


class TestTrajectoryShape:
    def test_spec_invariants_hold(self, record):
        assert evaluate_invariants(SPEC, record) == []

    def test_report_round_trips_through_json(self, record):
        with open(BENCH_PATH, encoding="utf-8") as fh:
            assert json.load(fh) == cell_values(record, run="all")


class TestWallClock:
    def test_bench_cached_soak(self, benchmark):
        benchmark(lambda: run_soak(30))

    def test_bench_uncached_soak(self, benchmark):
        benchmark(lambda: run_soak(10, uncached=True))
