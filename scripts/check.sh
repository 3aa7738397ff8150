#!/bin/sh
# The CI gate, tox-free: tier-1 tests + repro-lint in one command.
#
#   scripts/check.sh              # run everything
#   scripts/check.sh --soak      # also run the large conformance sweeps
#   scripts/check.sh --lint-only # just repro-lint + the report gate (pre-commit)
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
    echo "== repro-lint (report gate) =="
    python -m repro.analysis --fail-on-new results/lint_report.json || status=1
    exit $status
fi

echo "== tier-1 tests =="
python -m pytest -q "$@" || status=1

if [ "$soak" = 1 ]; then
    echo "== soak tests =="
    python -m pytest -q -m soak "$@" || status=1
fi

echo "== repro-lint =="
# Any finding not in the committed report (even a baselined one) fails;
# regenerate with: python -m repro.analysis --format json --out results/lint_report.json
python -m repro.analysis --fail-on-new results/lint_report.json || status=1

echo "== conformance =="
# The sweep writes into a scratch directory so no run rewrites the
# committed results; the default corpus's summary is gated byte for byte
# against results/conformance_summary.json.
conformance_out=$(mktemp -d)
trap 'rm -rf "$conformance_out"' EXIT
if [ "$soak" = 1 ]; then
    python -m repro conformance --seeds 300 --giab-seeds 12 \
        --out "$conformance_out" || status=1
else
    python -m repro conformance --out "$conformance_out" || status=1
    cmp "$conformance_out/conformance_summary.json" \
        results/conformance_summary.json || status=1
fi

echo "== experiments smoke =="
# Re-run the smoke subset of the declarative experiment grid and gate it
# against the committed records in results/experiments/.
python -m repro experiments --smoke || status=1

echo "== experiments regression gate =="
# Re-measure experiment grids and compare against the committed records:
# every spec is gated the same way — its invariants must hold and every
# leaf of every cell (numbers, strings, bools) must equal the record,
# which also proves a seeded run reproduces itself.  The default subset
# covers the span tree, the xmldb index, the datagrid staging sweep, the
# kernel's load trajectory and the message-path cache counts (memo).
# --check-docs additionally fails when EXPERIMENTS.md is stale;
# regenerate with:
#   python -m repro experiments --run all && python -m repro experiments --docs
if [ "$soak" = 1 ]; then
    python -m repro experiments --soak --check-docs || status=1
else
    python -m repro experiments \
        --check trace_spans xmldb_scaling datagrid loadgen memo \
        --check-docs || status=1
fi

exit $status
