"""Tests for the campaign scheduler: DAG expansion and pool dispatch.

The scheduler expands a validation matrix into a job DAG (build tasks follow
the package dependency graph, standalone tests are batched, chain steps are
linked sequentially) and simulates its dispatch over a pool of sp-system
client workers supplied with slots by the resource layer.
"""

import pytest

from repro._common import SchedulingError
from repro.core.spsystem import SPSystem
from repro.scheduler.campaign import CampaignScheduler
from repro.scheduler.dag import CampaignDAG, CampaignTask, TaskKind
from repro.scheduler.pool import SimulatedWorkerPool, WorkerFailure
from repro.scheduler.spec import CampaignSpec


def _task(task_id, duration=10.0, deps=(), kind=TaskKind.BUILD, cell=0):
    return CampaignTask(
        task_id=task_id,
        kind=kind,
        cell_index=cell,
        experiment="TESTEXP",
        configuration_key="SL5_64bit_gcc4.4",
        duration_seconds=duration,
        dependencies=tuple(deps),
    )


def _hermes_spec(configuration_keys=("SL5_64bit_gcc4.4",), **options):
    """HERMES on *configuration_keys*, without a persisted spec record."""
    return CampaignSpec(
        experiments=("HERMES",),
        configuration_keys=configuration_keys,
        persist_spec=False,
        **options,
    )


class TestCampaignDAG:
    def test_insertion_order_is_topological(self):
        dag = CampaignDAG()
        dag.add(_task("a"))
        dag.add(_task("b", deps=["a"]))
        with pytest.raises(SchedulingError):
            dag.add(_task("c", deps=["missing"]))
        with pytest.raises(SchedulingError):
            dag.add(_task("a"))
        assert [task.task_id for task in dag.tasks()] == ["a", "b"]
        assert "a" in dag and "missing" not in dag

    def test_totals_and_critical_path(self):
        dag = CampaignDAG()
        dag.add(_task("a", duration=10.0))
        dag.add(_task("b", duration=20.0))
        dag.add(_task("c", duration=5.0, deps=["a", "b"]))
        assert dag.total_seconds() == 35.0
        # Longest chain: b (20) -> c (5).
        assert dag.critical_path_seconds() == 25.0
        assert dag.dependents()["a"] == ["c"]


class TestSimulatedWorkerPool:
    def test_independent_tasks_run_concurrently(self):
        dag = CampaignDAG()
        for index in range(4):
            dag.add(_task(f"t{index}", duration=100.0))
        # 2 workers x 2 slots: all four tasks run at once.
        schedule = SimulatedWorkerPool(n_workers=2).execute(dag)
        assert schedule.makespan_seconds == 100.0
        assert schedule.sequential_seconds == 400.0
        assert schedule.speedup == 4.0
        assert schedule.peak_concurrent_tasks == 4

    def test_dependencies_are_honoured(self):
        dag = CampaignDAG()
        dag.add(_task("build", duration=50.0))
        dag.add(_task("test", duration=30.0, deps=["build"], kind=TaskKind.TEST_BATCH))
        schedule = SimulatedWorkerPool(n_workers=4).execute(dag)
        by_id = {a.task_id: a for a in schedule.assignments}
        assert by_id["test"].start_seconds >= by_id["build"].end_seconds
        assert schedule.makespan_seconds == 80.0

    def test_empty_dag(self):
        schedule = SimulatedWorkerPool(n_workers=2).execute(CampaignDAG())
        assert schedule.makespan_seconds == 0.0
        assert schedule.assignments == []

    def test_deterministic_assignment(self):
        def run_once():
            dag = CampaignDAG()
            for index in range(7):
                dag.add(_task(f"t{index}", duration=10.0 + index))
            return SimulatedWorkerPool(n_workers=2).execute(dag).assignments

        assert run_once() == run_once()

    def test_invalid_configurations_rejected(self):
        with pytest.raises(SchedulingError):
            SimulatedWorkerPool(n_workers=0)
        with pytest.raises(SchedulingError):
            SimulatedWorkerPool(n_workers=2, failures=[WorkerFailure(5, 10.0)])
        with pytest.raises(SchedulingError):
            WorkerFailure(0, -1.0)


class TestCampaignScheduler:
    def test_campaign_over_full_matrix(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        spec = CampaignSpec(workers=4, persist_spec=False)
        campaign = sp_system.submit(spec).result()
        assert campaign.n_cells == 5
        assert sp_system.total_runs() == 5
        assert sp_system.last_campaign is campaign
        # Every cell contributed build, batch and chain tasks.
        counts = campaign.dag.counts_by_kind()
        assert set(counts) == {"build", "test-batch", "chain-step"}
        # Cells are independent, so pooling beats the sequential makespan.
        assert campaign.schedule.makespan_seconds < campaign.schedule.sequential_seconds
        assert campaign.schedule.makespan_seconds >= campaign.dag.critical_path_seconds()
        assert "build cache" in campaign.render_text()

    def test_batching_of_standalone_tests(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        n_standalone = len(tiny_hermes.standalone_tests)
        campaign = sp_system.submit(_hermes_spec(batch_size=2)).result()
        batches = [
            task for task in campaign.dag.tasks() if task.kind is TaskKind.TEST_BATCH
        ]
        assert sum(batch.n_tests for batch in batches) == n_standalone
        assert all(batch.n_tests <= 2 for batch in batches)
        assert len(batches) == (n_standalone + 1) // 2

    def test_task_durations_match_executed_jobs(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        campaign = sp_system.submit(_hermes_spec()).result()
        run = campaign.cells[0].run
        assert campaign.dag.total_seconds() == pytest.approx(
            run.total_duration_seconds()
        )

    def test_validate_everywhere_returns_cycle_results(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        results = sp_system.submit(
            CampaignSpec(experiments=("HERMES",), workers=2, persist_spec=False)
        ).result().cycles_for("HERMES")
        assert len(results) == 5
        assert [r.run.configuration_key for r in results] == sorted(
            c.key for c in sp_system.configurations()
        )

    def test_validate_all_experiments_groups_by_experiment(
        self, sp_system, tiny_hermes, tiny_zeus
    ):
        sp_system.register_experiment(tiny_hermes)
        sp_system.register_experiment(tiny_zeus)
        results = sp_system.submit(
            CampaignSpec(
                configuration_keys=("SL5_64bit_gcc4.4",),
                workers=2,
                persist_spec=False,
            )
        ).result().by_experiment()
        assert sorted(results) == ["HERMES", "ZEUS"]
        assert all(len(cycles) == 1 for cycles in results.values())

    def test_empty_configuration_list(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        campaign = sp_system.submit(_hermes_spec(())).result()
        assert campaign.cycles_for("HERMES") == []
        assert sp_system.total_runs() == 0

    def test_rejects_bad_parameters(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        with pytest.raises(SchedulingError):
            CampaignScheduler(sp_system, workers=0)
        with pytest.raises(SchedulingError):
            CampaignScheduler(sp_system, batch_size=0)
        with pytest.raises(SchedulingError):
            CampaignScheduler(sp_system).run_requests([], rounds=0)

    def test_builder_restored_after_campaign(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        original = sp_system.runner.builder
        sp_system.submit(_hermes_spec())
        assert sp_system.runner.builder is original

    def test_builder_restored_after_failing_campaign(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        original = sp_system.runner.builder
        with pytest.raises(Exception):
            sp_system.submit(_hermes_spec(("no-such-configuration",)))
        assert sp_system.runner.builder is original

    def test_multi_round_campaign(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        campaign = sp_system.submit(_hermes_spec(rounds=3)).result()
        assert campaign.n_cells == 3
        assert sp_system.total_runs() == 3
        # Rounds two and three replay cached builds.
        assert campaign.cache_statistics.hits > 0


class TestCampaignCli:
    def test_campaign_command_with_workers(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main([
            "campaign", "--scale", "0.1", "--workers", "4", "--rounds", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert "campaign schedule and build-cache summary" in output
        assert "build cache hits" in output
        assert "total validation runs recorded" in output
