#!/usr/bin/env bash
# CI entry point for the sp-system reproduction.
#
# Mirrors the staged check layout of the pyhc-actions compliance tooling:
# a cheap structural audit first, then the tier-1 suite, then the
# work-count gate and the headless example smoke runs.  Stages:
#
#   1. bench marker audit — every test below benchmarks/ must carry the
#      `bench` marker, or the tier-1 deselection (-m "not bench") would
#      silently start running paper-reproduction benchmarks in CI.
#   2. tier-1 — the documented fast suite (ROADMAP.md):
#      pytest -x -q -m "not bench"; its determinism suites run both
#      backends, and tests/test_tooling_ci.py carries the structural
#      audits (history-ledger writes, scheduler clock, lifecycle, service
#      and telemetry purity, the storage write path, the storage's dirty
#      keys and bounded physics memos).
#   3. work-count gate — scripts/work_counts.py runs every perfbench
#      workload once at a tiny size, fails on a science mismatch or a
#      failed operation, and prints the exact work counts (physics calls,
#      cache lookups, storage files loaded and written, ...); the stage
#      fails when they differ from the committed scripts/work_counts.json.
#      A change meant to alter the work re-records the file with
#      python3 scripts/work_counts.py > scripts/work_counts.json
#   4. examples — headless smoke run of every examples/*.py script:
#      pytest -m examples
#
# Usage: scripts/ci.sh [--skip-examples]

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== stage 1/4: bench marker audit =="
# Selecting "not bench" below benchmarks/ must collect nothing; any test id
# in the output is a benchmark that escaped the marker.
unmarked=$(python -m pytest benchmarks/ -m "not bench" --collect-only -q 2>/dev/null | grep -c "::" || true)
if [ "${unmarked}" -ne 0 ]; then
    echo "error: ${unmarked} test(s) under benchmarks/ lack the 'bench' marker:" >&2
    python -m pytest benchmarks/ -m "not bench" --collect-only -q 2>/dev/null | grep "::" >&2 || true
    exit 1
fi
echo "ok: every benchmarks/ test carries the bench marker"

echo "== stage 2/4: tier-1 test suite =="
python -m pytest -x -q -m "not bench"

echo "== stage 3/4: work-count gate =="
# Counts, not wall times: they repeat exactly across runs of one seed, so
# any difference is a change in the work the commit does.
counts=$(python3 scripts/work_counts.py)
if ! diff -u scripts/work_counts.json - <<<"${counts}"; then
    echo "error: perfbench work counts differ from scripts/work_counts.json;" \
         "if the change is meant, re-record them with:" \
         "python3 scripts/work_counts.py > scripts/work_counts.json" >&2
    exit 1
fi
echo "ok: perfbench science and work counts match scripts/work_counts.json"

if [ "${1:-}" = "--skip-examples" ]; then
    echo "== stage 4/4: examples smoke run skipped =="
    exit 0
fi

echo "== stage 4/4: examples smoke run =="
python -m pytest -q -m examples

echo "CI checks passed."
