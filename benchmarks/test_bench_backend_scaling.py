"""Backend scaling — threads vs processes vs sharded on a 1000-cell campaign.

A backend decides only where a round's cell computation (the tests'
executors) runs: inline (simulated), on a thread pool, in a process pool
forked once per campaign with one task per cell, or round-robined over
forked shard processes with one task per shard.  A 1000-cell synthetic
campaign (5 configurations x 200 rounds of a scaled-down HERMES) must
produce run documents, history ledger events and cache statistics
bit-identical to the simulated backend on every one of them.  The recorded
artefact is the cells-vs-wall-seconds table of the four backends.  Each
round has only 5 cells, so at most 5 of a backend's slots are busy at
once.
"""

import time

from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.experiments import build_hermes_experiment
from repro.scheduler.spec import CampaignSpec

from conftest import emit

ROUNDS = 200  # x 5 standard configurations = 1000 matrix cells
SHARDS = 4


def _fresh_system():
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.05))
    return system


def _spec(backend):
    return CampaignSpec(
        workers=SHARDS,
        rounds=ROUNDS,
        backend=backend,
        shards=SHARDS if backend == "sharded" else None,
        record_history=True,
        persist_spec=False,
    )


def _run(backend):
    system = _fresh_system()
    start = time.perf_counter()
    campaign = system.submit(_spec(backend)).result()
    wall = time.perf_counter() - start
    return system, campaign, wall


def _science(system, campaign):
    """Everything that must be backend-invariant, in comparable form."""
    return {
        "runs": [run.to_document() for run in campaign.runs()],
        "catalog": [record.to_dict() for record in system.catalog.all()],
        "cache": campaign.cache_statistics,
        # The ledger records which backend executed; everything else in an
        # event is science and must match.
        "events": [
            {
                key: value
                for key, value in event.to_dict().items()
                if key != "backend"
            }
            for event in system.history.events()
        ],
    }


def test_backend_scaling_1000_cells(benchmark):
    results = {}
    for backend in ("simulated", "threads", "processes"):
        results[backend] = _run(backend)
    sharded_holder = {}

    def _sharded():
        sharded_holder["result"] = _run("sharded")
        return sharded_holder["result"]

    benchmark.pedantic(_sharded, rounds=1, iterations=1)
    results["sharded"] = sharded_holder["result"]

    reference_system, reference_campaign, _ = results["simulated"]
    assert reference_campaign.n_cells == 5 * ROUNDS
    reference = _science(reference_system, reference_campaign)
    for backend in ("threads", "processes", "sharded"):
        system, campaign, _wall = results[backend]
        assert _science(system, campaign) == reference, (
            f"the {backend} backend diverged from the simulated science"
        )
        assert campaign.schedule.backend == backend

    _, sharded_campaign, _ = results["sharded"]
    assert sharded_campaign.schedule.shards == SHARDS
    assert sharded_campaign.schedule.n_workers == SHARDS
    # Rounds >= 2 replay round one's builds from the cache.
    assert reference_campaign.cache_statistics.hit_rate > 0

    def _row(backend):
        _system, campaign, wall = results[backend]
        schedule = campaign.schedule
        return {
            "backend": backend,
            "cells": campaign.n_cells,
            "tasks": len(campaign.dag),
            "wall_seconds": f"{wall:.3f}",
            "cells_per_second": f"{campaign.n_cells / wall:.1f}",
            "slots": schedule.total_slots,
            "shards": schedule.shards or "-",
        }

    emit(
        "Backend-scaling",
        f"1000-cell campaign (5 configurations x {ROUNDS} rounds): "
        "simulated vs threads vs processes vs sharded",
        [_row(backend) for backend in ("simulated", "threads", "processes", "sharded")],
        notes=(
            "run documents, catalogue records, history events (modulo the "
            "recorded backend name) and cache statistics are bit-identical "
            "across all four backends; builds and stamping run serially in "
            "the parent, the tests' executors run where the backend maps "
            "them: inline, on threads, in forked processes (one task per "
            f"cell) or round-robined over {SHARDS} forked shard processes "
            f"(one task per shard) for the sharded run's "
            f"{sharded_campaign.n_cells} cells"
        ),
    )
