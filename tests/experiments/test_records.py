"""The committed records stay in contract with the current specs.

These are the cheap halves of the regression gate: no re-measurement,
just the committed ``results/experiments/*.json`` checked for fingerprint
skew, invariant violations and artifact/docs staleness, and ``results/``
checked for files nothing writes.  The expensive half (fresh runs diffed
cell-by-cell) lives in ``scripts/check.sh`` via
``python -m repro experiments --check``.
"""

import os

import pytest

from repro.experiments import check_artifacts, evaluate_invariants
from repro.experiments.cli import DEFAULT_RESULTS_DIR
from repro.experiments.docgen import check_docs
from repro.experiments.engine import ExperimentEngine
from repro.experiments.registry import all_specs, get_spec, smoke_specs, spec_names

ENGINE = ExperimentEngine(DEFAULT_RESULTS_DIR)


@pytest.mark.parametrize("name", spec_names())
def test_committed_record_matches_spec_contract(name):
    spec = get_spec(name)
    record = ENGINE.load_record(name)
    assert record.fingerprint == spec.fingerprint(), (
        f"{name}: the grid contract changed since the record was written; "
        f"regenerate with `python -m repro experiments --run {name}`"
    )
    assert record.cell_ids() == [spec.cell_id(p) for p in spec.grid()]
    assert evaluate_invariants(spec, record) == []


@pytest.mark.parametrize("name", spec_names())
def test_committed_artifacts_render_from_the_record(name):
    spec = get_spec(name)
    record = ENGINE.load_record(name)
    assert check_artifacts(spec, record, DEFAULT_RESULTS_DIR) == []


def test_results_holds_only_what_is_written():
    """Each spec's record, what renders from it, and the conformance
    summary: a file no spec publishes any more cannot linger."""
    expected = {"conformance_summary.json"}
    for spec in all_specs():
        expected.add(f"experiments/{spec.name}.json")
        expected.update(spec.artifacts(ENGINE.load_record(spec.name)))
    present = {
        os.path.relpath(os.path.join(root, name), DEFAULT_RESULTS_DIR).replace(os.sep, "/")
        for root, _dirs, files in os.walk(DEFAULT_RESULTS_DIR)
        for name in files
    }
    assert sorted(present - expected) == [], "files in results/ that nothing writes"
    assert sorted(expected - present) == [], "files missing from results/"


def test_experiments_md_is_fresh():
    assert check_docs(DEFAULT_RESULTS_DIR) == []


def test_smoke_subset_is_cheap_and_nonempty():
    smoke = list(smoke_specs())
    assert smoke, "CI smoke gate would be vacuous"
    assert all(len(spec.grid()) <= 4 for spec in smoke)
    assert {spec.name for spec in smoke} < {spec.name for spec in all_specs()}
