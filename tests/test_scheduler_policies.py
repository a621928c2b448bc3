"""Tests for the worker-pool scheduling policies and deadline reporting.

A policy only reorders the ready queue — dependencies always gate dispatch —
so every policy must produce a valid, deterministic timeline and leave the
campaign's scientific output untouched.  The deadline turns the schedule
into a report of late matrix cells.
"""

import pytest

from repro._common import SchedulingError
from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.experiments import build_hermes_experiment
from repro.scheduler.backends import EXECUTION_BACKENDS
from repro.scheduler.dag import CampaignDAG, CampaignTask, TaskKind
from repro.scheduler.spec import CampaignSpec
from repro.scheduler.pool import (
    SCHEDULING_POLICIES,
    CriticalPathPolicy,
    FifoPolicy,
    LongestTaskFirstPolicy,
    SimulatedWorkerPool,
    scheduling_policy,
)
from repro.virtualization.resources import ResourceProfile

POLICY_NAMES = sorted(SCHEDULING_POLICIES)

#: One slot in the whole pool, so the dispatch order is fully observable.
SINGLE_SLOT = ResourceProfile(cpu_cores=1, memory_gb=4.0, disk_gb=100.0)


def _task(task_id, duration, dependencies=(), cell_index=0):
    return CampaignTask(
        task_id=task_id,
        kind=TaskKind.BUILD,
        cell_index=cell_index,
        experiment="EXP",
        configuration_key="CFG",
        duration_seconds=duration,
        dependencies=tuple(dependencies),
    )


def _diamond_dag():
    """Two independent chains of very different lengths plus a short task."""
    dag = CampaignDAG()
    dag.add(_task("short", 10.0))
    dag.add(_task("long-head", 100.0, cell_index=1))
    dag.add(_task("long-tail", 100.0, ["long-head"], cell_index=1))
    dag.add(_task("mid", 50.0, cell_index=2))
    return dag


def _fresh_system(seed=20131029):
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0, seed=seed)
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.2))
    return system


class TestPolicyResolution:
    def test_names_resolve(self):
        assert isinstance(scheduling_policy("fifo"), FifoPolicy)
        assert isinstance(scheduling_policy("longest-first"), LongestTaskFirstPolicy)
        assert isinstance(scheduling_policy("critical-path"), CriticalPathPolicy)

    def test_none_is_fifo(self):
        assert isinstance(scheduling_policy(None), FifoPolicy)

    def test_instance_passes_through(self):
        policy = CriticalPathPolicy()
        assert scheduling_policy(policy) is policy

    def test_unknown_name_raises(self):
        with pytest.raises(SchedulingError):
            scheduling_policy("round-robin")

    def test_registry_names_match_policy_names(self):
        for name, policy_class in SCHEDULING_POLICIES.items():
            assert policy_class.name == name


class TestPolicyOrdering:
    def test_fifo_keeps_dag_order(self):
        schedule = SimulatedWorkerPool(
            n_workers=1, profile=SINGLE_SLOT, policy="fifo"
        ).execute(_diamond_dag())
        dispatch_order = [
            a.task_id for a in sorted(schedule.assignments,
                                      key=lambda a: a.start_seconds)
        ]
        assert dispatch_order == ["short", "long-head", "long-tail", "mid"]

    def test_longest_first_prefers_long_tasks(self):
        schedule = SimulatedWorkerPool(
            n_workers=1, profile=SINGLE_SLOT, policy="longest-first"
        ).execute(_diamond_dag())
        first = min(schedule.assignments, key=lambda a: a.start_seconds)
        assert first.task_id == "long-head"

    def test_critical_path_prefers_chain_heads(self):
        # Critical-path counts the downstream chain: long-head (20 s) heads a
        # 120 s chain and goes first even against the 50 s standalone task.
        dag = CampaignDAG()
        dag.add(_task("mid", 50.0))
        dag.add(_task("long-head", 20.0, cell_index=1))
        dag.add(_task("long-tail", 100.0, ["long-head"], cell_index=1))
        schedule = SimulatedWorkerPool(
            n_workers=1, profile=SINGLE_SLOT, policy="critical-path"
        ).execute(dag)
        first = min(schedule.assignments, key=lambda a: a.start_seconds)
        assert first.task_id == "long-head"

    def test_critical_path_downstream_lengths(self):
        dag = _diamond_dag()
        policy = CriticalPathPolicy()
        policy.prepare(dag)
        assert policy.priority(dag.get("long-head")) == (-200.0,)
        assert policy.priority(dag.get("long-tail")) == (-100.0,)
        assert policy.priority(dag.get("short")) == (-10.0,)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_dependencies_always_respected(self, policy, workers):
        schedule = SimulatedWorkerPool(n_workers=workers, policy=policy).execute(
            _diamond_dag()
        )
        ends = {a.task_id: a.end_seconds for a in schedule.assignments}
        starts = {a.task_id: a.start_seconds for a in schedule.assignments}
        assert len(ends) == 4
        assert starts["long-tail"] >= ends["long-head"]

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_policy_is_deterministic(self, policy):
        first = SimulatedWorkerPool(n_workers=3, policy=policy).execute(_diamond_dag())
        second = SimulatedWorkerPool(n_workers=3, policy=policy).execute(_diamond_dag())
        assert first.assignments == second.assignments
        assert first.makespan_seconds == second.makespan_seconds

    def test_schedule_records_policy_name(self):
        schedule = SimulatedWorkerPool(n_workers=2, policy="critical-path").execute(
            _diamond_dag()
        )
        assert schedule.policy == "critical-path"


class TestPolicyCampaigns:
    @pytest.mark.parametrize("backend", tuple(EXECUTION_BACKENDS))
    @pytest.mark.parametrize("seed", [20131029, 7])
    def test_policies_reproducible_across_identical_systems(self, seed, backend):
        for policy in POLICY_NAMES:
            spec = CampaignSpec(
                experiments=("HERMES",),
                configuration_keys=("SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4"),
                workers=3,
                backend=backend,
                policy=policy,
                persist_spec=False,
            )
            first = _fresh_system(seed).submit(spec).result()
            second = _fresh_system(seed).submit(spec).result()
            assert first.schedule.assignments == second.schedule.assignments
            assert first.policy == policy

    @pytest.mark.parametrize("backend", tuple(EXECUTION_BACKENDS))
    def test_policy_changes_timeline_not_output(self, backend):
        documents = {}
        schedules = {}
        for policy in POLICY_NAMES:
            campaign = _fresh_system().submit(
                CampaignSpec(
                    experiments=("HERMES",),
                    configuration_keys=("SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4"),
                    workers=2,
                    backend=backend,
                    policy=policy,
                    persist_spec=False,
                )
            ).result()
            documents[policy] = [run.to_document() for run in campaign.runs()]
            schedules[policy] = [
                (a.task_id, a.worker_index, a.start_seconds)
                for a in campaign.schedule.assignments
            ]
        # Identical scientific output under every policy...
        assert documents["fifo"] == documents["longest-first"]
        assert documents["fifo"] == documents["critical-path"]
        # ... while at least one policy actually reorders the dispatch.
        assert any(
            schedules[policy] != schedules["fifo"]
            for policy in ("longest-first", "critical-path")
        )


class TestDeadlines:
    def test_late_cells_reported(self):
        dag = _diamond_dag()
        schedule = SimulatedWorkerPool(
            n_workers=1, policy="fifo", deadline_seconds=60.0
        ).execute(dag)
        assert not schedule.met_deadline
        # Cell 1 holds the 200 s chain; it cannot finish within 60 s.
        assert 1 in schedule.late_cells()

    def test_generous_deadline_is_met(self):
        schedule = SimulatedWorkerPool(
            n_workers=4, deadline_seconds=100000.0
        ).execute(_diamond_dag())
        assert schedule.met_deadline
        assert schedule.late_cells() == []

    def test_no_deadline_means_no_late_cells(self):
        schedule = SimulatedWorkerPool(n_workers=2).execute(_diamond_dag())
        assert schedule.met_deadline
        assert schedule.late_cells() == []
        # An explicit ad-hoc deadline can still be probed after the fact.
        assert schedule.late_cells(1.0)

    def test_cell_end_seconds_cover_every_cell(self):
        schedule = SimulatedWorkerPool(n_workers=2).execute(_diamond_dag())
        assert set(schedule.cell_end_seconds) == {0, 1, 2}
        assert schedule.cell_end_seconds[1] == max(
            a.end_seconds for a in schedule.assignments
            if a.task_id.startswith("long")
        )

    def test_invalid_deadline_raises(self):
        with pytest.raises(SchedulingError):
            SimulatedWorkerPool(n_workers=1, deadline_seconds=0.0)

    @pytest.mark.parametrize("backend", tuple(EXECUTION_BACKENDS))
    def test_campaign_reports_late_cells(self, backend):
        campaign = _fresh_system().submit(
            CampaignSpec(
                experiments=("HERMES",),
                configuration_keys=("SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4"),
                deadline_seconds=1.0,
                backend=backend,
                persist_spec=False,
            )
        ).result()
        assert not campaign.schedule.met_deadline
        assert campaign.schedule.late_cells() == [0, 1]
        assert "deadline verdict" in campaign.render_text()


class TestPolicyCLI:
    def test_campaign_policy_flag(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main([
            "campaign", "--scale", "0.1", "--workers", "2",
            "--policy", "longest-first", "--deadline-seconds", "100",
        ]) == 0
        output = capsys.readouterr().out
        assert "longest-first" in output
        assert "deadline verdict" in output

    def test_campaign_rejects_unknown_policy(self, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(["campaign", "--policy", "round-robin"])
