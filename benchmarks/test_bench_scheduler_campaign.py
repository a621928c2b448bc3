"""Smoke benchmark — sequential vs pooled campaign scheduling with build cache.

The campaign scheduler promises two things: the simulated worker pool
compresses the campaign makespan without changing a single output document,
and the content-hash build cache compiles identical package builds once per
campaign instead of once per cell.  This benchmark runs the same
two-round, multi-configuration HERMES campaign four ways — cell-by-cell
sequential, scheduled with one worker, scheduled with four workers, and
scheduled with four workers on a *fresh* installation warm-started from the
persisted build cache — and records real wall time, simulated makespan and
the cache hit rate.  The warm row quantifies what cross-campaign cache
persistence buys a restarted installation.
"""

import time

import pytest

from repro.core.spsystem import SPSystem
from repro.core.runner import RunnerSettings
from repro.experiments import (
    build_hermes_experiment,
    build_zeus_experiment,
    shared_external_packages,
)
from repro.scheduler.spec import CampaignSpec

from conftest import emit

CONFIGURATIONS = ["SL5_64bit_gcc4.4", "SL5_64bit_gcc4.1", "SL6_64bit_gcc4.4"]
ROUNDS = 2


def _fresh_system():
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.25))
    return system


def _sequential_campaign():
    system = _fresh_system()
    results = [
        system.validate("HERMES", key)
        for _round in range(ROUNDS)
        for key in CONFIGURATIONS
    ]
    return system, results


def _campaign_spec(workers):
    return CampaignSpec(
        experiments=("HERMES",),
        configuration_keys=tuple(CONFIGURATIONS),
        workers=workers,
        rounds=ROUNDS,
        persist_spec=False,
    )


def _scheduled_campaign(workers):
    system = _fresh_system()
    campaign = system.submit(_campaign_spec(workers)).result()
    return system, campaign


def _warm_campaign(cold_system):
    """A fresh installation warm-started from the persisted build cache."""
    cold_system.persist_build_cache()
    system = _fresh_system()
    system.restore_build_cache(cold_system.storage)
    campaign = system.submit(_campaign_spec(4)).result()
    return system, campaign


def test_scheduler_campaign_smoke(benchmark):
    start = time.perf_counter()
    _, sequential_results = _sequential_campaign()
    sequential_wall = time.perf_counter() - start

    start = time.perf_counter()
    _, single = _scheduled_campaign(workers=1)
    single_wall = time.perf_counter() - start

    start = time.perf_counter()
    scheduled_system, pooled = benchmark.pedantic(
        _scheduled_campaign, args=(4,), rounds=1, iterations=1
    )
    pooled_wall = time.perf_counter() - start

    start = time.perf_counter()
    _, warm = _warm_campaign(scheduled_system)
    warm_wall = time.perf_counter() - start

    # Identical scientific output, whatever the execution strategy.
    sequential_documents = [cycle.run.to_document() for cycle in sequential_results]
    assert [run.to_document() for run in single.runs()] == sequential_documents
    assert [run.to_document() for run in pooled.runs()] == sequential_documents
    assert [run.to_document() for run in warm.runs()] == sequential_documents

    # The warm installation compiled nothing at all.
    assert warm.cache_statistics.misses == 0
    assert warm.cache_statistics.hit_rate == 1.0

    # The build cache must fire on a multi-configuration campaign: round two
    # replays every build of round one.
    assert pooled.cache_statistics.hit_rate > 0
    assert pooled.cache_statistics.hits == pooled.cache_statistics.misses

    # The pool compresses the simulated makespan.
    assert (
        pooled.schedule.makespan_seconds < pooled.schedule.sequential_seconds
    )
    assert pooled.schedule.speedup > 1.0

    emit(
        "Scheduler-campaign",
        "Sequential vs pooled validation campaign (2 rounds x 3 configurations)",
        [
            {
                "strategy": "sequential validate() loop",
                "wall_seconds": f"{sequential_wall:.3f}",
                "simulated_seconds": f"{pooled.schedule.sequential_seconds:.0f}",
                "cache_hit_rate": "-",
                "speedup": "1.00x",
            },
            {
                "strategy": "scheduler, 1 worker",
                "wall_seconds": f"{single_wall:.3f}",
                "simulated_seconds": f"{single.schedule.makespan_seconds:.0f}",
                "cache_hit_rate": f"{single.cache_statistics.hit_rate:.1%}",
                "speedup": f"{single.schedule.speedup:.2f}x",
            },
            {
                "strategy": "scheduler, 4 workers",
                "wall_seconds": f"{pooled_wall:.3f}",
                "simulated_seconds": f"{pooled.schedule.makespan_seconds:.0f}",
                "cache_hit_rate": f"{pooled.cache_statistics.hit_rate:.1%}",
                "speedup": f"{pooled.schedule.speedup:.2f}x",
            },
            {
                "strategy": "scheduler, 4 workers, warm persisted cache",
                "wall_seconds": f"{warm_wall:.3f}",
                "simulated_seconds": f"{warm.schedule.makespan_seconds:.0f}",
                "cache_hit_rate": f"{warm.cache_statistics.hit_rate:.1%}",
                "speedup": f"{warm.schedule.speedup:.2f}x",
            },
        ],
        notes=(
            "identical ValidationRun documents in all four strategies; "
            f"{pooled.n_cells} cells, {len(pooled.dag)} scheduled tasks, "
            f"{pooled.cache_statistics.hits} cached builds replayed cold, "
            f"{warm.cache_statistics.hits} replayed from the persisted cache "
            f"(cold wall {pooled_wall:.3f}s vs warm wall {warm_wall:.3f}s)"
        ),
    )


def _shared_system(experiment_builder):
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
    )
    system.provision_standard_images()
    system.register_experiment(experiment_builder())
    return system


def _zeus():
    return build_zeus_experiment(scale=0.2, shared_externals=True)


def _hermes():
    return build_hermes_experiment(scale=0.25, shared_externals=True)


def _run_campaign(system):
    return system.submit(
        CampaignSpec(
            configuration_keys=tuple(CONFIGURATIONS),
            workers=4,
            persist_spec=False,
        )
    ).result()


def test_shared_external_campaign(benchmark):
    """Cross-experiment warm start through the content-addressed cache.

    Two experiments pin the same external packages.  The scenario compares a
    cold HERMES campaign against a HERMES campaign warm-started from a ZEUS
    installation's persisted build-cache journal: the shared externals are
    donated across the experiment boundary, so HERMES compiles only its own
    packages.
    """
    start = time.perf_counter()
    donor_system = _shared_system(_zeus)
    donor = _run_campaign(donor_system)
    donor_wall = time.perf_counter() - start
    appended = donor_system.persist_build_cache()
    assert appended > 0

    start = time.perf_counter()
    cold = _run_campaign(_shared_system(_hermes))
    cold_wall = time.perf_counter() - start

    start = time.perf_counter()
    warm_system = _shared_system(_hermes)
    warm_system.restore_build_cache(donor_system.storage)
    warm = _run_campaign(warm_system)
    same_experiment_warm_wall = time.perf_counter() - start

    def _cross_experiment_warm():
        system = _shared_system(_hermes)
        system.restore_build_cache(donor_system.storage)
        return _run_campaign(system)

    start = time.perf_counter()
    cross = benchmark.pedantic(_cross_experiment_warm, rounds=1, iterations=1)
    cross_wall = time.perf_counter() - start

    n_shared = len(shared_external_packages("HERMES")) * len(CONFIGURATIONS)
    # Each shared external was donated by ZEUS once per configuration.
    assert cross.cache_statistics.shared_hits == n_shared
    assert cross.cache_statistics.donated_by_experiment == {"ZEUS": n_shared}
    # HERMES's own packages still compile; only the externals are shared.
    assert 0 < cross.cache_statistics.hits < (
        cross.cache_statistics.hits + cross.cache_statistics.misses
    )
    # Warm output stays bit-identical to the cold campaign.
    assert [run.to_document() for run in cross.runs()] == [
        run.to_document() for run in cold.runs()
    ]

    def _row(strategy, campaign, wall):
        statistics = campaign.cache_statistics
        return {
            "strategy": strategy,
            "wall_seconds": f"{wall:.3f}",
            "cache_hit_rate": f"{statistics.hit_rate:.1%}",
            "shared_hits": statistics.shared_hits,
            "shared_hit_rate": f"{statistics.shared_hit_rate:.1%}",
        }

    emit(
        "Scheduler-shared-externals",
        "Cross-experiment build sharing via content-addressed cache keys "
        f"({len(CONFIGURATIONS)} configurations, "
        f"{len(shared_external_packages('HERMES'))} shared externals)",
        [
            _row("ZEUS donor campaign (cold)", donor, donor_wall),
            _row("HERMES cold", cold, cold_wall),
            _row(
                "HERMES warm from ZEUS journal", warm,
                same_experiment_warm_wall,
            ),
            _row("HERMES warm from ZEUS journal (benchmarked)", cross, cross_wall),
        ],
        notes=(
            f"the donor journal appended {appended} entries; the warm HERMES "
            f"campaigns received {cross.cache_statistics.shared_hits} "
            "cross-experiment hits and compiled each shared external zero "
            "times (bit-identical run documents to the cold campaign)"
        ),
    )


def test_history_ledger_ingest_and_query(benchmark, tmp_path):
    """Micro-benchmark of the validation history ledger.

    Measures the three operations a production monitoring loop performs on
    every campaign: ingesting events into the append-only journal,
    re-mounting the ledger from a persisted storage (journal replay + index
    rebuild over segment files), and the longitudinal queries (trends,
    campaign diff, regression classification).
    """
    import json
    import os

    from repro.environment.evolution import (
        EVENT_EXTERNAL_RELEASE,
        EnvironmentEvent,
    )
    from repro.history import (
        RegressionDetector,
        ValidationEvent,
        ValidationHistoryLedger,
        diff_campaigns,
        health_trends,
    )
    from repro.storage.common_storage import CommonStorage

    N_CAMPAIGNS = 20
    EXPERIMENTS = ("ZEUS", "H1", "HERMES")
    BREAK_AFTER = 14  # campaigns before the simulated evolution event

    def synthetic_event(index, campaign, experiment, key, status):
        return ValidationEvent(
            run_id=f"sp-{index:06d}",
            campaign_id=f"campaign-{campaign:04d}",
            experiment=experiment,
            configuration_key=key,
            configuration_fingerprint=(
                "fp-after" if campaign > BREAK_AFTER else "fp-before"
            ),
            status=status,
            n_passed=40 if status == "passed" else 37,
            n_failed=0 if status == "passed" else 3,
            n_skipped=0,
            failed_tests=() if status == "passed" else ("t-a", "t-b", "t-c"),
            diagnostics_digest="" if status == "passed" else "digest-root6",
            cache_provenance="warm" if campaign > 1 else "cold",
            backend="simulated",
            logical_timestamp=1356998400 + campaign * 86400,
            description="bench",
        )

    storage = CommonStorage()
    ledger = ValidationHistoryLedger(storage)

    def ingest_all():
        index = 0
        for campaign in range(1, N_CAMPAIGNS + 1):
            for experiment in EXPERIMENTS:
                for key in CONFIGURATIONS:
                    index += 1
                    status = (
                        "failed"
                        if campaign > BREAK_AFTER and key == CONFIGURATIONS[0]
                        else "passed"
                    )
                    ledger.record_validation(
                        synthetic_event(index, campaign, experiment, key, status)
                    )
        return index

    start = time.perf_counter()
    n_events = ingest_all()
    ingest_wall = time.perf_counter() - start
    ledger.record_evolution(
        EnvironmentEvent(
            year=2014, kind=EVENT_EXTERNAL_RELEASE, subject="ROOT-6.02",
            detail="bench evolution",
        ),
        1356998400 + BREAK_AFTER * 86400 + 3600,
    )

    start = time.perf_counter()
    storage.persist(str(tmp_path))
    persist_wall = time.perf_counter() - start
    segment_files = len(os.listdir(tmp_path / ValidationHistoryLedger.NAMESPACE))

    start = time.perf_counter()
    remounted = benchmark.pedantic(
        lambda: ValidationHistoryLedger.open(CommonStorage.load(str(tmp_path))),
        rounds=1, iterations=1,
    )
    remount_wall = time.perf_counter() - start
    assert len(remounted) == n_events

    start = time.perf_counter()
    trends = health_trends(remounted)
    diff = diff_campaigns(
        remounted, "campaign-0001", f"campaign-{N_CAMPAIGNS:04d}"
    )
    findings = RegressionDetector(remounted).findings()
    query_wall = time.perf_counter() - start

    regressions = [finding for finding in findings if finding.is_regression]
    assert len(trends) == len(EXPERIMENTS)
    assert len(diff.broke) == len(EXPERIMENTS)
    assert len(regressions) == len(EXPERIMENTS)
    assert all(
        finding.suspected_event is not None
        and finding.suspected_event.subject == "ROOT-6.02"
        for finding in regressions
    )

    emit(
        "History-ledger",
        f"Validation history ledger: ingest, remount and query "
        f"({n_events} events, {N_CAMPAIGNS} campaigns, "
        f"{len(EXPERIMENTS) * len(CONFIGURATIONS)} cells)",
        [
            {
                "operation": "ingest (journal append + index)",
                "wall_seconds": f"{ingest_wall:.3f}",
                "per_event_us": f"{ingest_wall / n_events * 1e6:.0f}",
            },
            {
                "operation": f"persist to disk ({segment_files} segment file(s))",
                "wall_seconds": f"{persist_wall:.3f}",
                "per_event_us": f"{persist_wall / n_events * 1e6:.0f}",
            },
            {
                "operation": "remount (load + journal replay + reindex)",
                "wall_seconds": f"{remount_wall:.3f}",
                "per_event_us": f"{remount_wall / n_events * 1e6:.0f}",
            },
            {
                "operation": "trends + diff + regression classification",
                "wall_seconds": f"{query_wall:.3f}",
                "per_event_us": f"{query_wall / n_events * 1e6:.0f}",
            },
        ],
        notes=(
            f"{len(regressions)} regression(s) found and all attributed to "
            "the injected ROOT-6.02 evolution event; the journal persisted "
            f"as {segment_files} segment file(s) instead of "
            f"{n_events + 1} per-record files"
        ),
    )
