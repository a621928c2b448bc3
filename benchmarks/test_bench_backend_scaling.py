"""Backend scaling — simulated vs processes on a 1000-cell campaign.

A backend decides only where a round's cell computation (the tests'
executors) runs: inline (simulated) or in a process pool forked once per
campaign with one task per cell (processes).  A 1000-cell synthetic
campaign (5 configurations x 200 rounds of a scaled-down HERMES) must
produce run documents, history ledger events and cache statistics
bit-identical to the simulated backend on the process backend.  The
recorded artefact is the cells-vs-wall-seconds table of the two backends.
Each round has only 5 cells, so at most 5 of the process pool's slots are
busy at once.
"""

import time

from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.experiments import build_hermes_experiment
from repro.scheduler.spec import CampaignSpec

from conftest import emit

ROUNDS = 200  # x 5 standard configurations = 1000 matrix cells
WORKERS = 4


def _fresh_system():
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.05))
    return system


def _spec(backend):
    return CampaignSpec(
        workers=WORKERS,
        rounds=ROUNDS,
        backend=backend,
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
    results = {"simulated": _run("simulated")}
    results["processes"] = benchmark.pedantic(
        _run, args=("processes",), rounds=1, iterations=1
    )

    reference_system, reference_campaign, _ = results["simulated"]
    assert reference_campaign.n_cells == 5 * ROUNDS
    system, campaign, _wall = results["processes"]
    assert _science(system, campaign) == _science(
        reference_system, reference_campaign
    ), "the processes backend diverged from the simulated science"
    assert campaign.schedule.backend == "processes"
    # Rounds >= 2 replay round one's builds from the cache.
    assert reference_campaign.cache_statistics.hit_rate > 0

    def _row(backend):
        _system, campaign, wall = results[backend]
        return {
            "backend": backend,
            "cells": campaign.n_cells,
            "tasks": len(campaign.dag),
            "wall_seconds": f"{wall:.3f}",
            "cells_per_second": f"{campaign.n_cells / wall:.1f}",
            "slots": campaign.schedule.total_slots,
        }

    emit(
        "Backend-scaling",
        f"1000-cell campaign (5 configurations x {ROUNDS} rounds): "
        "simulated vs processes",
        [_row(backend) for backend in ("simulated", "processes")],
        notes=(
            "run documents, catalogue records, history events (modulo the "
            "recorded backend name) and cache statistics are bit-identical "
            "across both backends; builds and stamping run serially in the "
            "parent, the tests' executors run where the backend maps them: "
            "inline, or in forked processes (one task per cell)"
        ),
    )
