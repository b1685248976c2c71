"""Smoke tests: every example stays runnable; the CLI names its commands."""

import importlib
import io
import sys
from contextlib import redirect_stdout

import pytest

EXAMPLES = [
    "quickstart",
    "grid_job_wsrf",
    "grid_job_transfer",
    "brokered_notification",
    "anatomy_of_a_request",
    "figure5_sequence",
    "schema_discovery",
    "lossy_network",
]


@pytest.fixture(autouse=True)
def examples_on_path():
    import os

    examples_dir = os.path.join(os.path.dirname(__file__), "..", "examples")
    sys.path.insert(0, examples_dir)
    yield
    sys.path.remove(examples_dir)


class TestExamples:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_example_runs_and_prints(self, name):
        module = importlib.import_module(name)
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            module.main()
        assert len(buffer.getvalue().strip()) > 50

    def test_quickstart_shows_notification(self):
        module = importlib.import_module("quickstart")
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            module.main()
        assert "CounterValueChanged" in buffer.getvalue()

    def test_lossy_network_shows_closed_ledger_and_dead_letter(self):
        module = importlib.import_module("lossy_network")
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            module.main()
        out = buffer.getvalue()
        assert "ledger closes" in out
        assert "dead-lettered delivery" in out
        assert "consumer endpoint gone" in out

    def test_figure5_sequence_shows_outcalls(self):
        module = importlib.import_module("figure5_sequence")
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            module.main()
        out = buffer.getvalue()
        assert "server" in out and "out-calls" in out


class TestCli:
    def run_cli(self, *args):
        from repro.__main__ import main

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(list(args))
        return code, buffer.getvalue()

    def test_fig2(self, tmp_path):
        code, out = self.run_cli(
            "experiments", "--run", "fig2_hello_nosec", "--results", str(tmp_path)
        )
        assert code == 0
        assert "Figure 2" in out and "WSRF.NET" in out

    def test_multiple_figures(self, tmp_path):
        code, out = self.run_cli(
            "experiments", "--run", "fig2_hello_nosec", "fig4_hello_x509",
            "--results", str(tmp_path),
        )
        assert code == 0
        assert "Figure 2" in out and "Figure 4" in out

    def test_unknown_figure_exits_nonzero(self):
        code, _ = self.run_cli("fig99")
        assert code == 2

    def test_only_experiments_and_conformance_dispatch(self, capsys):
        from repro.__main__ import main

        for argv in ([], ["fig2"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "experiments" in err and "conformance" in err
