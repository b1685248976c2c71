#!/bin/sh
# The CI gate, tox-free: tier-1 tests, repro-lint, conformance, the
# wall-clock benchmark's tests and the experiments gate in one command.
#
#   scripts/check.sh              # run everything
#   scripts/check.sh --soak      # also run the large conformance sweeps
#   scripts/check.sh --lint-only # just repro-lint against the baseline (pre-commit)
#   scripts/check.sh tests/sim   # pass extra args through to pytest
#
# Exits non-zero if any stage fails.

set -eu

cd "$(dirname "$0")/.."

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
export PYTHONPATH

soak=0
lint_only=0
if [ "${1:-}" = "--soak" ]; then
    soak=1
    shift
elif [ "${1:-}" = "--lint-only" ]; then
    lint_only=1
    shift
fi

status=0

if [ "$lint_only" = 1 ]; then
    echo "== repro-lint =="
    python -m repro.analysis || status=1
    exit $status
fi

echo "== tier-1 tests =="
python -m pytest -q "$@" || status=1

if [ "$soak" = 1 ]; then
    echo "== soak tests =="
    python -m pytest -q -m soak "$@" || status=1
fi

echo "== repro-lint =="
# Any finding outside the justified lint-baseline.json fails.
python -m repro.analysis || status=1

echo "== conformance =="
if [ "$soak" = 1 ]; then
    # The soak sweep's summary goes to a scratch directory: the committed
    # results/conformance_summary.json belongs to the default corpus.
    soak_out=$(mktemp -d)
    python -m repro conformance --seeds 300 --giab-seeds 12 --out "$soak_out" || status=1
    rm -rf "$soak_out"
else
    python -m repro conformance || status=1
fi

echo "== wallbench tests =="
# The wall-clock benchmark's own tests (outside tier-1 testpaths): op
# model, determinism, pinned fingerprints and the traced seams, so a
# renamed seam such as RsaKeyPair.sign fails here.
python -m pytest wallbench -q || status=1

echo "== experiments smoke =="
# Re-run the smoke subset of the declarative experiment grid and gate it
# against the committed records in results/experiments/.
python -m repro experiments --smoke || status=1

echo "== experiments regression gate =="
# Re-measure experiment grids and compare against the committed records:
# exact-gate specs must match bit-identically (structural changes,
# invariant violations and any drift all fail); the shape-gate spec
# (msgperf, wall-clock) must keep the record's numeric leaves and its
# invariants.
# loadgen re-runs the kernel's concurrent schedule, datagrid the declared
# services, trace_spans the Figure-1 span trees and xmldb_scaling the
# index planner.  --check-docs additionally fails when EXPERIMENTS.md is
# stale; regenerate with:
#   python -m repro experiments --run all && python -m repro experiments --docs
if [ "$soak" = 1 ]; then
    python -m repro experiments --soak --check-docs || status=1
else
    python -m repro experiments --check datagrid loadgen msgperf trace_spans xmldb_scaling --check-docs || status=1
fi

exit $status
