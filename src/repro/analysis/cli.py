"""The ``repro-lint`` command line.

Exit codes: 0 — clean (or every finding baselined); 1 — new findings or
unparsable files; 2 — usage/configuration errors (bad baseline, missing
paths).  Run from the repository root, it loads ``lint-baseline.json``,
so ``python -m repro.analysis`` is the CI lint gate.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.analysis.engine import run_analysis
from repro.analysis.registry import rule_table
from repro.analysis.reporters import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Spec-conformance and sim-discipline linter for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=f"baseline file (default: ./{DEFAULT_BASELINE_NAME} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline, including the default one",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="write current findings to FILE as a new baseline and exit 0",
    )
    parser.add_argument(
        "--justification",
        default="accepted by --write-baseline; edit per-entry justifications",
        help="justification recorded on entries created by --write-baseline",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RPOxx",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--rules", action="store_true", dest="list_rules", help="list rules and exit"
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="also print findings covered by the baseline",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id, description in rule_table().items():
            print(f"{rule_id}  {description}")
        return 0

    for path in args.paths:
        if not os.path.exists(path):
            print(f"repro-lint: no such path: {path}", file=sys.stderr)
            return 2

    baseline = None
    if not args.no_baseline and args.write_baseline is None:
        baseline_path = args.baseline
        if baseline_path is None and os.path.exists(DEFAULT_BASELINE_NAME):
            baseline_path = DEFAULT_BASELINE_NAME
        if baseline_path is not None:
            try:
                baseline = Baseline.load(baseline_path)
            except (OSError, ValueError) as exc:
                print(f"repro-lint: cannot load baseline: {exc}", file=sys.stderr)
                return 2

    result = run_analysis(args.paths, baseline=baseline, rules=args.rules)

    if args.write_baseline is not None:
        fresh = Baseline.from_findings(result.findings, args.justification)
        fresh.save(args.write_baseline)
        print(
            f"repro-lint: wrote {len(fresh)} entr{'ies' if len(fresh) != 1 else 'y'} "
            f"to {args.write_baseline}"
        )
        return 0

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, show_baselined=args.show_baselined))
    return result.exit_code
