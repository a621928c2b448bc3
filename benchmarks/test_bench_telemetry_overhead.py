"""Telemetry overhead — a fully instrumented campaign vs a bare one.

The telemetry subsystem promises to observe without participating: the
science must stay bit-identical (pinned by ``TestBackendParity``) and the
wall-clock cost of full instrumentation — every hot-path span plus the
``MetricsObserver`` folding lifecycle events into the registry — must stay
within a bounded factor of an uninstrumented run.  This benchmark measures
that factor on a 100-cell campaign and also times the fingerprint
memoisation satellite (cold vs memoised ``configuration_fingerprint``).

Both results, along with the headline campaign metrics (cells/sec, cache
hit rate, journal bytes, ledger µs/event), are written to
``benchmarks/_results/telemetry-overhead.json``.  Wall time is too noisy
to gate CI on; the CI gate compares perfbench's exact work counts instead
(``scripts/work_counts.py``).
"""

import time

from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.environment.configuration import (
    _configuration_fingerprint,
    configuration_fingerprint,
    sp_system_configurations,
)
from repro.experiments import build_hermes_experiment
from repro.scheduler.spec import CampaignSpec
from repro.telemetry import MetricsObserver, Telemetry

from conftest import emit

ROUNDS = 20  # x 5 standard configurations = 100 matrix cells
REPEATS = 3  # best-of; absorbs scheduler noise on a loaded CI box
#: Maximum tolerated instrumented/bare wall-time ratio.  Generous on
#: purpose: the bare run takes well under a second at this scale, so tiny
#: absolute deltas inflate the ratio.
MAX_OVERHEAD_FACTOR = 2.0


def _run_campaign(telemetry):
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0),
        telemetry=telemetry,
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.05))
    if telemetry is not None:
        system.lifecycle.add_observer(MetricsObserver(telemetry.metrics))
    spec = CampaignSpec(
        workers=4, rounds=ROUNDS, record_history=True, persist_spec=False
    )
    start = time.perf_counter()
    campaign = system.submit(spec).result()
    wall = time.perf_counter() - start
    system.persist_build_cache()
    return system, campaign, wall


def _science(system, campaign):
    return {
        "runs": [run.to_document() for run in campaign.runs()],
        "catalog": [record.to_dict() for record in system.catalog.all()],
        "cache": campaign.cache_statistics,
    }


def _best_of(telemetry_factory):
    best = None
    for _ in range(REPEATS):
        system, campaign, wall = _run_campaign(telemetry_factory())
        if best is None or wall < best[2]:
            best = (system, campaign, wall)
    return best


def _memoisation_delta():
    """Cold vs memoised configuration_fingerprint, microseconds per call.

    Best-of-``REPEATS`` minima: single-digit-microsecond loops jitter by
    tens of percent on a loaded box, the minimum is the stable statistic.
    """
    configurations = sp_system_configurations()
    calls = 500

    def _loop(fingerprint):
        best = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(calls):
                for configuration in configurations:
                    fingerprint(configuration)
            elapsed = (time.perf_counter() - start) / (calls * len(configurations))
            best = elapsed if best is None else min(best, elapsed)
        return best * 1e6

    cold = _loop(_configuration_fingerprint)
    configuration_fingerprint(configurations[0])  # prime the memo
    memoised = _loop(configuration_fingerprint)
    return cold, memoised


def test_telemetry_overhead_100_cells(benchmark):
    bare_system, bare_campaign, bare_wall = _best_of(lambda: None)

    holder = {}

    def _instrumented():
        holder["result"] = _best_of(Telemetry.create)
        return holder["result"]

    benchmark.pedantic(_instrumented, rounds=1, iterations=1)
    system, campaign, wall = holder["result"]
    telemetry = system.telemetry

    assert campaign.n_cells == 5 * ROUNDS
    assert _science(system, campaign) == _science(bare_system, bare_campaign), (
        "instrumentation changed the science"
    )

    factor = wall / bare_wall
    assert factor <= MAX_OVERHEAD_FACTOR, (
        f"instrumented campaign took {factor:.2f}x the bare wall time "
        f"(limit {MAX_OVERHEAD_FACTOR}x)"
    )

    metrics = telemetry.metrics
    cells_per_second = campaign.n_cells / wall
    hits = metrics.counter_value("cache_hits_total")
    misses = metrics.counter_value("cache_misses_total")
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    journal_bytes = metrics.gauge_value("journal_bytes") or 0.0
    ledger_events = metrics.counter_value("ledger_events_total")
    ledger_seconds = sum(
        span.duration for span in telemetry.tracer.spans
        if span.name == "ledger_ingest"
    )
    ledger_us_per_event = (
        ledger_seconds / ledger_events * 1e6 if ledger_events else 0.0
    )
    cold_us, memoised_us = _memoisation_delta()

    emit(
        "Telemetry-overhead",
        f"100-cell campaign ({ROUNDS} rounds x 5 configurations), "
        "fully instrumented vs bare",
        [
            {
                "variant": "bare",
                "wall_seconds": f"{bare_wall:.3f}",
                "cells_per_second": f"{bare_campaign.n_cells / bare_wall:.1f}",
                "spans": 0,
                "metric_series": 0,
            },
            {
                "variant": "instrumented",
                "wall_seconds": f"{wall:.3f}",
                "cells_per_second": f"{cells_per_second:.1f}",
                "spans": len(telemetry.tracer.spans),
                "metric_series": len(metrics.summary_rows()),
            },
            {
                "variant": "overhead",
                "wall_seconds": f"{factor:.2f}x",
                "cells_per_second": "-",
                "spans": "-",
                "metric_series": "-",
            },
        ],
        notes=(
            "science (run documents, catalogue, cache statistics) is "
            "bit-identical between the two variants; "
            f"cache hit rate {hit_rate:.2%}, journal {journal_bytes:.0f} "
            f"bytes, ledger ingest {ledger_us_per_event:.1f} us/event; "
            f"configuration_fingerprint {cold_us:.1f} us cold vs "
            f"{memoised_us:.2f} us memoised"
        ),
    )
