"""``python -m repro experiments`` — run, check, document.

Modes (combinable where it makes sense):

* ``--list``            — every spec: grid size, gate kind, smoke flag.
* ``--run NAME...``     — run grids (``all`` = every spec), write records
                          + artifacts.
* ``--check [NAME...]`` — fresh in-memory runs gated against the
                          committed records (invariants, ordering flips,
                          drift, artifact staleness).
* ``--smoke``           — the CI quick gate: ``--check`` over the smoke
                          subset only.
* ``--soak``            — the full-grid gate: ``--check`` over every spec.
* ``--docs``            — regenerate EXPERIMENTS.md from the records.
* ``--check-docs``      — fail if the committed EXPERIMENTS.md differs
                          from the regenerated one.
* ``--json``            — machine-readable summary on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.experiments.engine import ExperimentEngine, run_in_memory
from repro.experiments.gates import check_against_record, check_artifacts
from repro.experiments.registry import all_specs, get_spec, smoke_specs

_REPO_ROOT = os.path.dirname(  # repo root: src/repro/experiments/cli.py -> ../../..
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)
DEFAULT_RESULTS_DIR = os.path.join(_REPO_ROOT, "results")


def _resolve(names: list[str]):
    if not names or "all" in names:
        return list(all_specs())
    try:
        return [get_spec(name) for name in names]
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")


def _list_specs(out) -> None:
    for spec in all_specs():
        cells = len(spec.grid())
        axes = " x ".join(f"{axis.name}[{len(axis.values)}]" for axis in spec.axes)
        smoke = "  [smoke]" if spec.smoke else ""
        out.write(f"{spec.name:22s} {cells:3d} cells  {spec.gate:5s}  {axes}{smoke}\n")
        out.write(f"{'':22s} {spec.title}\n")


def _run_specs(engine: ExperimentEngine, specs, out) -> dict:
    from repro.bench.report import format_figure_table

    summary = {}
    for spec in specs:
        record = engine.run(spec)
        out.write(
            f"{spec.name}: {len(record.cells)} cells "
            f"-> {engine.record_path(spec.name)}\n"
        )
        if spec.to_figure is not None:
            out.write(format_figure_table(spec.title, spec.figure(record)) + "\n\n")
        summary[spec.name] = {
            "cells": len(record.cells),
            "record": engine.record_path(spec.name),
            "artifacts": sorted(spec.artifacts(record)),
        }
    return summary


def _check_specs(engine: ExperimentEngine, specs, out) -> dict:
    summary = {}
    for spec in specs:
        recorded = engine.load_record(spec.name)
        fresh = run_in_memory(spec)
        report = check_against_record(spec, recorded, fresh)
        problems = report.lines()
        problems.extend(check_artifacts(spec, recorded, engine.results_dir))
        status = "ok" if not problems else "FAIL"
        out.write(f"{spec.name}: {status} ({len(recorded.cells)} cells)\n")
        for problem in problems:
            out.write(f"  {problem}\n")
        summary[spec.name] = {"ok": not problems, "problems": problems}
    return summary


def experiments_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro experiments",
        description="declarative experiment engine: run grids, gate regressions",
    )
    parser.add_argument("--list", action="store_true", help="list every spec")
    parser.add_argument(
        "--run", nargs="+", metavar="NAME", help="run specs ('all' = every spec)"
    )
    parser.add_argument(
        "--check", nargs="*", metavar="NAME",
        help="gate fresh runs against the records (default: every spec)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="check the smoke subset only (CI)"
    )
    parser.add_argument(
        "--soak", action="store_true", help="check every spec (full grids)"
    )
    parser.add_argument(
        "--docs", action="store_true", help="regenerate EXPERIMENTS.md from the records"
    )
    parser.add_argument(
        "--check-docs", action="store_true",
        help="fail if EXPERIMENTS.md differs from the regenerated one",
    )
    parser.add_argument("--json", action="store_true", help="JSON summary on stdout")
    parser.add_argument(
        "--results", default=DEFAULT_RESULTS_DIR, metavar="DIR",
        help="results directory (default: the repo's results/)",
    )
    args = parser.parse_args(argv)

    engine = ExperimentEngine(args.results)
    out = sys.stderr if args.json else sys.stdout
    summary: dict = {}
    failed = False
    acted = False

    if args.list:
        acted = True
        _list_specs(out)

    if args.run:
        acted = True
        summary["run"] = _run_specs(engine, _resolve(args.run), out)

    check_specs = None
    if args.smoke:
        check_specs = list(smoke_specs())
    elif args.soak:
        check_specs = list(all_specs())
    elif args.check is not None:
        check_specs = _resolve(args.check)
    if check_specs is not None:
        acted = True
        summary["check"] = _check_specs(engine, check_specs, out)
        failed = failed or any(not r["ok"] for r in summary["check"].values())

    if args.docs:
        acted = True
        from repro.experiments.docgen import write_docs

        path = write_docs(args.results)
        out.write(f"wrote {path}\n")
        summary["docs"] = {"path": path}

    if args.check_docs:
        acted = True
        from repro.experiments.docgen import check_docs

        problems = check_docs(args.results)
        for problem in problems:
            out.write(f"docs: {problem}\n")
        summary["check_docs"] = {"ok": not problems, "problems": problems}
        failed = failed or bool(problems)

    if not acted:
        parser.print_help(sys.stderr)
        return 2

    if args.json:
        summary["ok"] = not failed
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(experiments_main(sys.argv[1:]))
