#!/usr/bin/env bash
# CI entry point for the sp-system reproduction.
#
# Mirrors the staged check layout of the pyhc-actions compliance tooling:
# a cheap structural audit first, then the tier-1 suite, then the
# bench-trend gate and the headless example smoke runs.  Stages:
#
#   1. bench marker audit — every test below benchmarks/ must carry the
#      `bench` marker, or the tier-1 deselection (-m "not bench") would
#      silently start running paper-reproduction benchmarks in CI.
#   2. tier-1 — the documented fast suite (ROADMAP.md):
#      pytest -x -q -m "not bench"; its determinism suites run both
#      backends, and tests/test_tooling_ci.py carries the structural
#      audits (history-ledger writes, scheduler clock, lifecycle, service
#      and telemetry purity, and the storage write path).
#   3. bench-trends gate — `repro bench-trends check` compares the latest
#      recorded benchmark trend point of every series against the
#      trailing median and fails on a regression past the threshold
#      (a fresh checkout with no recorded series passes trivially).
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

echo "== stage 3/4: bench-trends gate =="
# Gate on the recorded benchmark trend series: the latest point of every
# series must stay within the threshold of the trailing median.  A fresh
# checkout with no recorded series passes trivially.
python -m repro.cli bench-trends check

if [ "${1:-}" = "--skip-examples" ]; then
    echo "== stage 4/4: examples smoke run skipped =="
    exit 0
fi

echo "== stage 4/4: examples smoke run =="
python -m pytest -q -m examples

echo "CI checks passed."
