"""Command-line entry point: ``python -m repro experiments|conformance``.

``python -m repro experiments`` drives the declarative experiment engine
(see :mod:`repro.experiments.cli`), the one way to regenerate, print and
gate the paper's figures and every other declared sweep:
``--list``/``--run``/``--resume`` manage the recorded grids,
``--check``/``--smoke``/``--soak`` gate fresh runs against the committed
records, and ``--docs``/``--check-docs`` regenerate EXPERIMENTS.md from
them.  ``--run NAME --results DIR`` prints a figure without touching the
committed ``results/``.

``python -m repro conformance`` runs the differential dual-stack
conformance sweep (see :mod:`repro.testkit.cli`).
"""

from __future__ import annotations

import sys

COMMANDS = ("experiments", "conformance")


def main(argv: list[str]) -> int:
    if argv and argv[0] == "experiments":
        from repro.experiments.cli import experiments_main

        return experiments_main(argv[1:])
    if argv and argv[0] == "conformance":
        from repro.testkit.cli import conformance_main

        return conformance_main(argv[1:])
    got = f"unknown command {argv[0]!r}" if argv else "no command given"
    print(f"{got}; expected one of: {', '.join(COMMANDS)}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
