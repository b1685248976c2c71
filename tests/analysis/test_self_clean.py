"""Tier-1 gate: the tree must lint clean against its own rules.

Everything the paper-conformance rules flag in ``src/repro`` must either
be fixed or carried in ``lint-baseline.json`` with a justification.
"""

from pathlib import Path

import pytest

from repro.analysis import run_analysis
from repro.analysis.baseline import Baseline

REPO_ROOT = Path(__file__).parents[2]


@pytest.fixture(scope="module")
def baseline():
    return Baseline.load(str(REPO_ROOT / "lint-baseline.json"))


@pytest.fixture(scope="module")
def result(baseline):
    """One baselined analysis of the tree, shared by the checks below."""
    # Baseline entries key on repo-relative paths, so lint from the root.
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO_ROOT)
        return run_analysis(["src/repro"], baseline=baseline)


def test_src_repro_has_no_new_findings(result):
    assert result.parse_failures == []
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.findings == [], f"new lint findings:\n{rendered}"


def test_baseline_entries_still_match_real_findings(result, baseline):
    """A stale baseline (code fixed, entry left behind) should be pruned."""
    assert len(result.baselined) == len(baseline), (
        "baseline carries entries that no longer correspond to findings"
    )


def test_every_baseline_entry_is_justified(baseline):
    for entry in baseline.entries.values():
        assert entry["justification"].strip()
