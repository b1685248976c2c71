"""Unit tests for the analysis engine: registry, baseline round-trip,
inline suppression, JSON report schema, and CLI exit codes."""

import json
from pathlib import Path

import pytest

from repro.analysis import all_checkers, get_checker, register, run_analysis
from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.cli import main
from repro.analysis.engine import clear_context_cache, context_for
from repro.analysis.findings import Finding
from repro.analysis.registry import rule_table, unregister
from repro.analysis.reporters import JSON_REPORT_VERSION, render_json, render_text

FIXTURES = str(Path(__file__).parent / "fixtures")
REPO_ROOT = Path(__file__).parents[2]


class TestRegistry:
    def test_builtin_rules_registered(self):
        assert list(all_checkers()) == [
            "RPO01", "RPO02", "RPO03", "RPO04", "RPO05",
            "RPO09", "RPO10", "RPO12", "RPO13", "RPO15",
        ]

    def test_get_checker(self):
        checker = get_checker("RPO03")
        assert checker is not None
        assert checker.rule_id == "RPO03"

    def test_rule_table_has_descriptions(self):
        table = rule_table()
        assert set(table) == set(all_checkers())
        assert all(table.values())

    def test_register_requires_rule_id(self):
        with pytest.raises(ValueError):
            register(type("NoId", (), {}))

    def test_register_rejects_duplicates(self):
        class Extra:
            rule_id = "RPO99"
            description = "test rule"

            def check(self, module):
                return iter(())

        register(Extra)
        try:
            with pytest.raises(ValueError):
                register(type("Clash", (), {"rule_id": "RPO99"}))
            assert "RPO99" in all_checkers()
        finally:
            unregister("RPO99")


def _finding(**overrides):
    values = dict(
        rule="RPO04",
        path="src/repro/x.py",
        line=12,
        col=4,
        symbol="X.y",
        message="hard-coded namespace URI",
    )
    values.update(overrides)
    return Finding(**values)


class TestBaseline:
    def test_round_trip(self, tmp_path):
        baseline = Baseline.from_findings(
            [_finding(), _finding(rule="RPO05", symbol="Z.w")], "known drift"
        )
        path = tmp_path / "baseline.json"
        baseline.save(str(path))
        loaded = Baseline.load(str(path))
        assert len(loaded) == 2
        assert loaded.covers(_finding())
        assert loaded.justification_for(_finding()) == "known drift"

    def test_fingerprint_ignores_line_numbers(self):
        baseline = Baseline.from_findings([_finding(line=12)], "why")
        assert baseline.covers(_finding(line=99))

    def test_fingerprint_tracks_message(self):
        baseline = Baseline.from_findings([_finding()], "why")
        assert not baseline.covers(_finding(message="a different defect"))

    def test_load_rejects_empty_justification(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 2,
            "entries": [{
                "rule": "RPO04", "path": "x.py", "symbol": "s",
                "message": "m", "justification": "",
            }],
        }))
        with pytest.raises(BaselineError):
            Baseline.load(str(path))

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        for version in (1, 99):
            path.write_text(json.dumps({"version": version, "entries": []}))
            with pytest.raises(BaselineError):
                Baseline.load(str(path))

    def test_fingerprint_normalizes_counts_and_whitespace(self):
        baseline = Baseline.from_findings(
            [_finding(message="retried 3 times  across 2 hosts")], "why"
        )
        assert baseline.covers(
            _finding(message="retried 11 times across 40 hosts")
        )
        assert not baseline.covers(
            _finding(message="retried 11 times across 40 sockets")
        )

    def test_save_writes_version_2(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([_finding()], "why").save(str(path))
        document = json.loads(path.read_text())
        assert document["version"] == 2


class TestSuppression:
    def test_inline_disable_drops_finding(self, tmp_path):
        source = (
            'from repro.xmllib import QName\n'
            'A = QName("http://example.org/made-up", "A")  # repro-lint: disable=RPO04\n'
            'B = QName("http://example.org/made-up", "B")\n'
        )
        target = tmp_path / "module.py"
        target.write_text(source)
        result = run_analysis([str(target)])
        assert [f.line for f in result.findings] == [3]

    def test_disable_all(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text(
            '_NS = "http://example.org/made-up"  # repro-lint: disable=all\n'
        )
        result = run_analysis([str(target)])
        assert result.findings == []


class TestReports:
    def test_json_schema(self):
        result = run_analysis([FIXTURES])
        document = json.loads(render_json(result))
        assert document["version"] == JSON_REPORT_VERSION
        assert document["tool"] == "repro-lint"
        assert set(document["rules"]) == set(all_checkers())
        summary = document["summary"]
        assert set(summary) == {
            "files_scanned", "total", "new", "baselined", "parse_failures",
        }
        assert summary["new"] == len(result.findings)
        assert summary["total"] == summary["new"] + summary["baselined"]
        for entry in document["findings"]:
            assert set(entry) == {
                "rule", "severity", "path", "line", "col", "symbol",
                "message", "fingerprint", "normalized_fingerprint",
                "baselined",
            }
            assert entry["severity"] in ("warning", "error")
            assert len(entry["fingerprint"]) == 16
            assert len(entry["normalized_fingerprint"]) == 16

    def test_text_report_summary_line(self):
        result = run_analysis([FIXTURES])
        lines = render_text(result).splitlines()
        assert lines[-1].startswith("repro-lint: ")
        assert f"{len(result.findings)} new findings" in lines[-1]

    def test_parse_failure_reported_and_fails_run(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        result = run_analysis([str(target)])
        assert result.exit_code == 1
        assert "RPO00" in render_text(result)


class TestContextCache:
    def test_unchanged_file_is_not_reparsed(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text("def f():\n    return 1\n")
        clear_context_cache()
        first = context_for(str(target))
        assert context_for(str(target)) is first

    def test_edited_file_is_reparsed(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text("def f():\n    return 1\n")
        clear_context_cache()
        first = context_for(str(target))
        target.write_text("def f():\n    return 2\n")
        second = context_for(str(target))
        assert second is not first

    def test_clear_drops_entries(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text("def f():\n    return 1\n")
        first = context_for(str(target))
        clear_context_cache()
        assert context_for(str(target)) is not first


class TestPerformanceBudget:
    def test_full_tree_under_wall_clock_budget(self):
        import time

        clear_context_cache()
        start = time.monotonic()
        result = run_analysis([str(REPO_ROOT / "src" / "repro")])
        elapsed = time.monotonic() - start
        assert result.files_scanned > 100
        assert elapsed < 10.0, f"full-tree analysis took {elapsed:.1f}s"


class TestCli:
    def test_fixture_violations_exit_1(self, capsys):
        assert main([FIXTURES, "--no-baseline"]) == 1
        out = capsys.readouterr().out
        for rule in all_checkers():
            assert rule in out

    def test_clean_fixture_exits_0(self, capsys):
        assert main([f"{FIXTURES}/clean.py", "--no-baseline"]) == 0

    def test_missing_path_exits_2(self, capsys):
        assert main(["no/such/path"]) == 2

    def test_bad_baseline_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text("{nope")
        assert main([f"{FIXTURES}/clean.py", "--baseline", str(bad)]) == 2

    def test_rule_filter(self, capsys):
        assert main([f"{FIXTURES}/rpo06_bad.py", "--no-baseline", "--rule", "RPO04"]) == 0
        assert main([f"{FIXTURES}/rpo06_bad.py", "--no-baseline", "--rule", "RPO09"]) == 1

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([FIXTURES, "--write-baseline", str(baseline)]) == 0
        assert main([FIXTURES, "--baseline", str(baseline)]) == 0

    def test_default_baseline_is_read_from_the_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        """The CI lint gate is the bare command run from the repo root."""
        bad = f"{FIXTURES}/rpo04_bad.py"
        monkeypatch.chdir(tmp_path)
        assert main([bad]) == 1
        assert main([bad, "--write-baseline", "lint-baseline.json"]) == 0
        assert main([bad]) == 0

    def test_list_rules(self, capsys):
        assert main(["--rules"]) == 0
        out = capsys.readouterr().out
        assert "RPO01" in out and "RPO09" in out and "RPO13" in out

    def test_format_json(self, capsys):
        main([FIXTURES, "--no-baseline", "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert document["tool"] == "repro-lint"
        assert document["summary"]["new"] > 0
