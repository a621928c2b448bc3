#!/usr/bin/env bash
# CI entry point for the sp-system reproduction.
#
# Mirrors the staged check layout of the pyhc-actions compliance tooling:
# cheap structural audits first, then the tier-1 suite, then the bench-trend
# gate and the headless example smoke runs.  Stages:
#
#   1. bench marker audit — every test below benchmarks/ must carry the
#      `bench` marker, or the tier-1 deselection (-m "not bench") would
#      silently start running paper-reproduction benchmarks in CI.
#   2. history-ledger write audit — the `history` storage namespace is
#      owned by the ValidationHistoryLedger: a raw put() into it would
#      bypass the journal's idempotence and index bookkeeping, so no
#      module outside src/repro/history/ may write the namespace literal.
#   3. scheduler monotonic-clock audit — scheduler timings use
#      time.monotonic(); a time.time() call in src/repro/scheduler/ would
#      make them jump with NTP adjustments, so the wall clock is banned
#      there outright.
#   4. lifecycle-purity audit — automated intervention tickets and history
#      ingestion are plugin-layer concerns: no module outside
#      src/repro/plugins (and the owning core/history modules) may
#      construct an InterventionTracker or call ingest_cycle directly.
#   5. service-purity audit — the validation service is a pure queueing
#      layer: no module under src/repro/service/ may construct an
#      execution backend or a CampaignScheduler (all execution flows
#      through SPSystem.submit) or call wall-clock time.time() (rate
#      limiting runs on an injectable monotonic clock).
#   6. telemetry-purity audit — the telemetry subsystem observes, never
#      participates: no time.time() under src/repro/telemetry/ (the
#      registry and tracer run on injectable monotonic clocks), and the
#      science layers (src/repro/hepdata/, src/repro/environment/) must
#      not import repro.telemetry at all.
#   7. tier-1 — the documented fast suite (ROADMAP.md):
#      pytest -x -q -m "not bench"; its determinism suites run every
#      backend.
#   8. bench-trends gate — `repro bench-trends check` compares the latest
#      recorded benchmark trend point of every series against the
#      trailing median and fails on a regression past the threshold
#      (a fresh checkout with no recorded series passes trivially).
#   9. examples — headless smoke run of every examples/*.py script:
#      pytest -m examples
#
# Usage: scripts/ci.sh [--skip-examples]

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== stage 1/9: bench marker audit =="
# Selecting "not bench" below benchmarks/ must collect nothing; any test id
# in the output is a benchmark that escaped the marker.
unmarked=$(python -m pytest benchmarks/ -m "not bench" --collect-only -q 2>/dev/null | grep -c "::" || true)
if [ "${unmarked}" -ne 0 ]; then
    echo "error: ${unmarked} test(s) under benchmarks/ lack the 'bench' marker:" >&2
    python -m pytest benchmarks/ -m "not bench" --collect-only -q 2>/dev/null | grep "::" >&2 || true
    exit 1
fi
echo "ok: every benchmarks/ test carries the bench marker"

echo "== stage 2/9: history-ledger write audit =="
# Writers must go through the ledger API: no raw put into the 'history'
# namespace (and no string-literal namespace handle to put through) outside
# the owning package.  The same rule is enforced by tests/test_tooling_ci.py.
violations=$(grep -rnE "(put|create_namespace|namespace)\(\s*[\"']history[\"']" src --include='*.py' | grep -v "^src/repro/history/" || true)
if [ -n "${violations}" ]; then
    echo "error: raw 'history' namespace access outside src/repro/history/:" >&2
    echo "${violations}" >&2
    echo "write through ValidationHistoryLedger (repro.history.ledger) instead" >&2
    exit 1
fi
echo "ok: every history-namespace writer goes through the ledger API"

echo "== stage 3/9: scheduler monotonic-clock audit =="
# time.time() would tie scheduler timings to a clock that NTP can step.
# Only time.monotonic() is allowed anywhere under src/repro/scheduler/.  The same rule is enforced
# by tests/test_tooling_ci.py.
clock_violations=$(grep -rn "time\.time(" src/repro/scheduler --include='*.py' || true)
if [ -n "${clock_violations}" ]; then
    echo "error: wall-clock time.time() call in src/repro/scheduler/:" >&2
    echo "${clock_violations}" >&2
    echo "use time.monotonic() for scheduler timing" >&2
    exit 1
fi
echo "ok: the scheduler times itself with time.monotonic() only"

echo "== stage 4/9: lifecycle-purity audit =="
# Automated tickets and history ingestion flow through the plugin layer:
# no module outside src/repro/plugins (and the owning core/history modules)
# may construct an InterventionTracker or call ingest_cycle directly, or
# the lifecycle bus would stop being the single reporting path.  The same
# rule is enforced by tests/test_tooling_ci.py.
lifecycle_violations=$(grep -rnE "InterventionTracker\(|ingest_cycle\(" src --include='*.py' | grep -vE "^src/repro/(plugins/|history/|core/intervention\.py)" || true)
if [ -n "${lifecycle_violations}" ]; then
    echo "error: direct tracker construction or history ingestion outside the plugin layer:" >&2
    echo "${lifecycle_violations}" >&2
    echo "route it through repro.plugins (new_intervention_tracker / HistoryRecorderPlugin) instead" >&2
    exit 1
fi
echo "ok: tickets and history ingestion flow through the plugin layer"

echo "== stage 5/9: service-purity audit =="
# The daemon layer queues, schedules and bills -- it never executes. A
# backend or scheduler construction under src/repro/service/ would open a
# second execution path around SPSystem.submit; a time.time() call would
# tie rate limiting to a steppable wall clock.  The same rule is enforced
# by tests/test_tooling_ci.py.
service_violations=$(grep -rnE "[A-Za-z_]*Backend\(|CampaignScheduler\(|execution_backend\(|time\.time\(" src/repro/service --include='*.py' || true)
if [ -n "${service_violations}" ]; then
    echo "error: execution or wall-clock call under src/repro/service/:" >&2
    echo "${service_violations}" >&2
    echo "dispatch through SPSystem.submit and time with a monotonic clock" >&2
    exit 1
fi
echo "ok: the service layer queues and bills; only SPSystem.submit executes"

echo "== stage 6/9: telemetry-purity audit =="
# Telemetry observes, it never participates.  The registry and tracer run
# on injectable monotonic clocks — a time.time() call under
# src/repro/telemetry/ would tie metric timestamps to a steppable wall
# clock.  And the science layers stay instrumentation-free: nothing under
# src/repro/hepdata/ or src/repro/environment/ may import repro.telemetry,
# or instrumentation could start influencing the numbers it reports.  The
# same rules are enforced by tests/test_tooling_ci.py.
telemetry_clock_violations=$(grep -rn "time\.time(" src/repro/telemetry --include='*.py' || true)
if [ -n "${telemetry_clock_violations}" ]; then
    echo "error: wall-clock time.time() call in src/repro/telemetry/:" >&2
    echo "${telemetry_clock_violations}" >&2
    echo "use time.monotonic() (or the injected clock) for telemetry timing" >&2
    exit 1
fi
telemetry_import_violations=$(grep -rnE "(from|import)[[:space:]]+repro\.telemetry" src/repro/hepdata src/repro/environment --include='*.py' || true)
if [ -n "${telemetry_import_violations}" ]; then
    echo "error: repro.telemetry imported from a science layer:" >&2
    echo "${telemetry_import_violations}" >&2
    echo "hepdata/ and environment/ must stay instrumentation-free" >&2
    exit 1
fi
echo "ok: telemetry runs on monotonic clocks and the science layers stay instrumentation-free"

echo "== stage 7/9: tier-1 test suite =="
python -m pytest -x -q -m "not bench"

echo "== stage 8/9: bench-trends gate =="
# Gate on the recorded benchmark trend series: the latest point of every
# series must stay within the threshold of the trailing median.  A fresh
# checkout with no recorded series passes trivially.
python -m repro.cli bench-trends check

if [ "${1:-}" = "--skip-examples" ]; then
    echo "== stage 9/9: examples smoke run skipped =="
    exit 0
fi

echo "== stage 9/9: examples smoke run =="
python -m pytest -q -m examples

echo "CI checks passed."
