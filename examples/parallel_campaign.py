#!/usr/bin/env python3
"""A parallel validation campaign through the unified execution API.

The regular operation of the sp-system validates every preserved experiment
on every preserved environment.  This example describes that matrix as a
:class:`~repro.scheduler.spec.CampaignSpec` request object and submits it to
the system: the (experiments x configurations x rounds) matrix is expanded
into a job DAG, dispatched over four client machines, and the content-hash
build cache replays every identical package build of the second round.  The
scientific output — run documents and catalogue records — is bit-identical
to the sequential path; only the campaign's wall-clock story changes.

The second half demonstrates the process backend and the cross-campaign
features: the same spec (serialised to JSON and back — exactly what
``campaign --spec file.json`` does) is replayed on the ``processes``
backend, which computes the cells' tests in child processes forked once
per campaign, one task per cell, with run documents identical to the
simulated backend; two
experiments pinning the same external packages share builds through the
experiment-agnostic content-addressed cache keys and warm-start each other
across installations via the append-only ``buildcache`` journal, and the
same campaign is scheduled under each pool policy to compare the dispatch
orders.

Run with::

    python examples/parallel_campaign.py [output-directory]
"""

from __future__ import annotations

import sys

from repro import SPSystem
from repro.core.runner import RunnerSettings
from repro.experiments import (
    build_hera_experiments,
    build_hermes_experiment,
    build_zeus_experiment,
    shared_external_packages,
)
from repro.reporting.export import catalog_to_rows, rows_to_text
from repro.reporting.summary import ValidationSummaryBuilder
from repro.scheduler import BuildCache, SCHEDULING_POLICIES, CampaignSpec


def _fresh_system() -> SPSystem:
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
    )
    system.provision_standard_images()
    # shared_externals: every experiment pins the same external products
    # (CERNLIB, the ROOT-like toolkit, ...), so the campaign compiles each
    # of them once for all three experiments.
    for experiment in build_hera_experiments(scale=0.15, shared_externals=True):
        system.register_experiment(experiment)
    return system


def main() -> None:
    system = _fresh_system()
    print(f"provisioned {len(system.configurations())} configurations, "
          f"{len(system.experiments())} experiments")

    spec = CampaignSpec(workers=4, rounds=2, description="parallel campaign demo")
    print("\nSubmitting a 2-round campaign spec over 4 simulated workers...")
    handle = system.submit(spec)
    campaign = handle.result()
    print(f"  {handle.campaign_id}: {handle.status}, "
          f"{handle.cells_completed}/{handle.cells_total} matrix cells, "
          f"{len(campaign.dag)} scheduled tasks")
    print(f"  simulated sequential time: {campaign.schedule.sequential_seconds:,.0f} s")
    print(f"  simulated pooled makespan: {campaign.schedule.makespan_seconds:,.0f} s "
          f"({campaign.schedule.speedup:.2f}x speedup)")
    print(f"  build cache: {campaign.cache_statistics.hits} hits, "
          f"{campaign.cache_statistics.misses} misses "
          f"({campaign.cache_statistics.hit_rate:.0%} hit rate)")
    print(f"  shared across experiments: "
          f"{campaign.cache_statistics.shared_hits} hits donated "
          f"({dict(sorted(campaign.cache_statistics.donated_by_experiment.items()))})")

    print("\n" + campaign.render_text())

    matrix = ValidationSummaryBuilder().from_campaign(campaign)
    print("\n" + matrix.render_text())

    print(f"\nRun catalogue now holds {system.total_runs()} validation runs:")
    rows = catalog_to_rows(system.catalog)
    print(rows_to_text(
        rows[:10],
        columns=["run_id", "experiment", "configuration", "overall_status"],
    ))
    if len(rows) > 10:
        print(f"  ... and {len(rows) - 10} more")

    # -- the same spec on the process backend ---------------------------------
    print("\nReplaying the identical spec on the processes backend "
          "(tests computed in forked child processes)...")
    # to_dict()/from_dict() is the same round trip `campaign --spec` uses.
    replayed_spec = CampaignSpec.from_dict(dict(spec.to_dict(), backend="processes"))
    replayed = _fresh_system().submit(replayed_spec).result()
    identical = (
        [run.to_document() for run in replayed.runs()]
        == [run.to_document() for run in campaign.runs()]
    )
    print(f"  backend {replayed.schedule.backend!r}: "
          f"{replayed.n_cells} cells, simulated makespan "
          f"{replayed.schedule.makespan_seconds:,.0f} s on "
          f"{replayed.schedule.total_slots} slots")
    print(f"  run documents identical to the simulated backend: {identical}")

    # -- journal persistence and warm-start on a fresh installation -----------
    print("\nPersisting the build-cache journal and warm-starting a fresh "
          "sp-system...")
    appended = system.persist_build_cache()
    status = BuildCache.journal_status(system.storage)
    print(f"  first persist appended {appended} journal entries "
          f"({status['records']} records, {status['bytes']:,} bytes)")
    # Persistence is incremental: nothing changed, so nothing is appended.
    print(f"  re-persist without new builds appended "
          f"{system.persist_build_cache()} records")
    warm_system = _fresh_system()
    warm_system.restore_build_cache(system.storage)
    warm = warm_system.submit(spec).result()
    print(f"  warm campaign: {warm.cache_statistics.hits} hits, "
          f"{warm.cache_statistics.misses} misses "
          f"({warm.cache_statistics.hit_rate:.0%} hit rate)")
    identical = (
        [run.to_document() for run in warm.runs()]
        == [run.to_document() for run in campaign.runs()]
    )
    print(f"  run documents identical to the cold campaign: {identical}")

    # -- two experiments warm-starting each other ------------------------------
    print("\nCross-experiment sharing: a ZEUS installation donating its "
          "external-package builds to a HERMES installation...")
    donor = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
    )
    donor.provision_standard_images()
    donor.register_experiment(build_zeus_experiment(scale=0.15, shared_externals=True))
    donor.submit(CampaignSpec(description="ZEUS donor campaign"))
    donor_entries = donor.persist_build_cache()
    print(f"  ZEUS campaign journalled {donor_entries} build-cache entries")

    taker = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
    )
    taker.provision_standard_images()
    taker.register_experiment(build_hermes_experiment(scale=0.2, shared_externals=True))
    taker.restore_build_cache(donor.storage)
    hermes_campaign = taker.submit(
        CampaignSpec(description="HERMES warm-started from ZEUS")
    ).result()
    statistics = hermes_campaign.cache_statistics
    n_shared = len(shared_external_packages("HERMES"))
    print(f"  HERMES campaign: {statistics.shared_hits} cross-experiment hits "
          f"for the {n_shared} shared externals "
          f"(donated by {dict(sorted(statistics.donated_by_experiment.items()))}); "
          f"{statistics.misses} HERMES-only builds still compiled")

    # -- policy comparison ----------------------------------------------------
    print("\nScheduling the same campaign under each pool policy:")
    for policy in sorted(SCHEDULING_POLICIES):
        policy_system = _fresh_system()
        policy_system.restore_build_cache(system.storage)
        result = policy_system.submit(
            CampaignSpec(
                workers=4, rounds=2, policy=policy, deadline_seconds=20000.0,
            )
        ).result()
        schedule = result.schedule
        verdict = (
            "met" if schedule.met_deadline
            else f"missed ({len(schedule.late_cells())} late cells)"
        )
        print(f"  {policy:<14} makespan {schedule.makespan_seconds:>8,.0f} s, "
              f"utilisation {schedule.utilisation:.1%}, "
              f"deadline {verdict}")

    if len(sys.argv) > 1:
        output_directory = sys.argv[1]
        from repro.reporting.webpages import StatusPageGenerator

        pages = StatusPageGenerator(system.storage, system.catalog)
        pages.campaign_page(
            campaign, cache_journal=BuildCache.journal_status(system.storage)
        )
        pages.index_page()
        pages.summary_page(matrix.render_text())
        written = system.storage.persist(output_directory)
        print(f"\npersisted {len(written)} storage documents below {output_directory}")


if __name__ == "__main__":
    main()
