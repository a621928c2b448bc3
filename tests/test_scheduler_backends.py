"""Backend-level tests: slot reporting, where cells are computed, failures.

Three contracts are pinned here.  First, ``PoolSchedule.slots_per_worker``
used to report the worker profile's raw ``cpu_cores`` even when memory or
disk was the binding constraint — inflating ``total_slots`` and
``available_slot_seconds`` and so deflating ``utilisation`` for any
memory-bound profile.  Every backend must now report the *effective* slot
count, ``min(cpu, memory, disk)`` in task units.  Second, a backend maps
the cell computation: executors run in this process on the simulated
backend and in forked children on the process one, always with the
``SP_RUN_ID`` of the run they are stamped into.  Third, a crashing
executor is recorded alike everywhere, while a map that cannot finish
raises a :class:`SchedulingError` naming the backend and the cell.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro._common import SchedulingError
from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.experiments import build_hermes_experiment
from repro.scheduler.backends import (
    EXECUTION_BACKENDS,
    ProcessPoolBackend,
    execution_backend,
)
from repro.scheduler.campaign import CampaignScheduler
from repro.scheduler.dag import CampaignDAG, CampaignTask, TaskKind
from repro.scheduler.pool import (
    SimulatedWorkerPool,
    effective_slots_per_worker,
)
from repro.scheduler.spec import CampaignSpec
from repro.virtualization.resources import VALIDATION_VM_PROFILE, ResourceProfile

KEYS = ["SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4"]
BACKENDS = tuple(EXECUTION_BACKENDS)

#: One entry per executor call made in this process (see ``_instrumented``).
EXECUTOR_CALLS = []

#: Four cores but only 2 GB of memory: with one core and 1 GB per task,
#: memory binds the worker to two concurrent tasks, not four.
MEMORY_BOUND_PROFILE = ResourceProfile(cpu_cores=4, memory_gb=2.0, disk_gb=100.0)


def _fresh_system(seed=20131029):
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0, seed=seed)
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.2))
    return system


def _wrapped_system(wrap):
    """A fresh system whose HERMES tests all run through ``wrap(executor)``."""
    system = _fresh_system()
    for test in system.experiment("HERMES").all_tests():
        test.executor = wrap(test.executor)
    return system


def _spec(backend, **options):
    return CampaignSpec(
        configuration_keys=tuple(KEYS),
        workers=2,
        backend=backend,
        persist_spec=False,
        **options,
    )


def _run_documents(campaign):
    return [run.to_document() for run in campaign.runs()]


def _instrumented(executor):
    """Count the call here and echo the run ID the executor was shown."""

    def run(context):
        EXECUTOR_CALLS.append(context.shell_variables["SP_TEST_NAME"])
        output = executor(context)
        output.messages.append(f"SP_RUN_ID={context.shell_variables['SP_RUN_ID']}")
        return output

    return run


def _echoed_run_ids(run):
    return [
        message[len("SP_RUN_ID="):]
        for job in run.jobs
        for message in job.messages
        if message.startswith("SP_RUN_ID=")
    ]


def _tiny_dag():
    """One cell: a build task feeding a test batch."""
    dag = CampaignDAG()
    dag.add(
        CampaignTask(
            task_id="c0000:build:alpha",
            kind=TaskKind.BUILD,
            cell_index=0,
            experiment="HERMES",
            configuration_key=KEYS[0],
            duration_seconds=10.0,
        )
    )
    dag.add(
        CampaignTask(
            task_id="c0000:standalone-batch:000",
            kind=TaskKind.TEST_BATCH,
            cell_index=0,
            experiment="HERMES",
            configuration_key=KEYS[0],
            duration_seconds=5.0,
            dependencies=("c0000:build:alpha",),
        )
    )
    return dag


class TestEffectiveSlotArithmetic:
    def test_cpu_bound_profile(self):
        # The standard VM: 2 cores, 4 GB, 100 GB -> the cores bind.
        assert effective_slots_per_worker(VALIDATION_VM_PROFILE) == 2

    def test_memory_bound_profile(self):
        assert effective_slots_per_worker(MEMORY_BOUND_PROFILE) == 2

    def test_disk_bound_profile(self):
        # 10 GB of disk holds two 5 GB task sandboxes, regardless of cores.
        profile = ResourceProfile(cpu_cores=8, memory_gb=16.0, disk_gb=10.0)
        assert effective_slots_per_worker(profile) == 2


class TestSlotReportingRegression:
    """slots_per_worker must be the effective count, not raw cpu_cores."""

    def _memory_bound_campaign(self, backend):
        system = _fresh_system()
        scheduler = CampaignScheduler(
            system,
            workers=2,
            worker_profile=MEMORY_BOUND_PROFILE,
            backend=backend,
        )
        return scheduler.run_requests(scheduler.expand_matrix(["HERMES"], KEYS))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_memory_bound_profile_reports_effective_slots(self, backend):
        schedule = self._memory_bound_campaign(backend).schedule
        # min(4 cores, 2 GB / 1 GB, 100 GB / 5 GB) = 2, not cpu_cores = 4.
        assert schedule.slots_per_worker == 2
        assert schedule.total_slots == 4
        assert schedule.backend == backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_memory_bound_utilisation_is_a_fraction(self, backend):
        """The inflated denominator used to push utilisation far below 1."""
        schedule = self._memory_bound_campaign(backend).schedule
        assert 0.0 < schedule.utilisation <= 1.0
        assert schedule.available_slot_seconds == pytest.approx(
            schedule.makespan_seconds * schedule.total_slots
        )

    def test_simulated_pool_reports_effective_slots_directly(self):
        pool = SimulatedWorkerPool(2, profile=MEMORY_BOUND_PROFILE)
        schedule = pool.execute(_tiny_dag())
        assert schedule.slots_per_worker == 2
        assert schedule.total_slots == 4

    def test_oversubscribed_spec_slots_are_capped_by_memory(self):
        """A spec asking for 8 slots gets the memory-capped effective count.

        ``CampaignSpec.slots_per_worker`` only raises the profile's core
        count; the 4 GB of memory still caps the worker at 4 tasks, and the
        schedule must say so instead of echoing the requested 8.
        """
        from repro.scheduler.spec import CampaignSpec

        system = _fresh_system()
        campaign = system.submit(
            CampaignSpec(
                configuration_keys=tuple(KEYS),
                workers=2,
                slots_per_worker=8,
                persist_spec=False,
            )
        ).result()
        assert campaign.schedule.slots_per_worker == 4


class TestCellMap:
    """Each backend computes the cells where it says, with their run IDs."""

    def _campaign(self, backend):
        return _wrapped_system(_instrumented).submit(_spec(backend, rounds=2)).result()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_executors_see_the_run_id_they_are_stamped_into(self, backend):
        campaign = self._campaign(backend)
        for run in campaign.runs():
            assert _echoed_run_ids(run), f"no executor ran for {run.run_id}"
            assert set(_echoed_run_ids(run)) == {run.run_id}
        assert _run_documents(campaign) == _run_documents(self._campaign("simulated"))

    @pytest.mark.parametrize(
        "backend,in_process",
        [("simulated", True), ("processes", False)],
    )
    def test_executors_run_where_the_backend_says(self, backend, in_process):
        reference = self._campaign("simulated")
        EXECUTOR_CALLS.clear()
        campaign = self._campaign(backend)
        executed = sum(len(_echoed_run_ids(run)) for run in campaign.runs())
        assert executed > 0
        assert len(EXECUTOR_CALLS) == (executed if in_process else 0)
        assert _run_documents(campaign) == _run_documents(reference)


class TestFailureContract:
    """A crashing executor is recorded; a broken map names backend and cell."""

    @staticmethod
    def _crashing(executor):
        def run(context):
            raise RuntimeError(f"broken script {context.shell_variables['SP_TEST_NAME']}")

        return run

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crashing_executor_is_recorded_alike_on_every_backend(self, backend):
        campaign = _wrapped_system(self._crashing).submit(_spec(backend)).result()
        crashes = [
            message
            for run in campaign.runs()
            for job in run.jobs
            for message in job.messages
            if message.startswith("test crashed: RuntimeError: broken script ")
        ]
        assert crashes
        reference = _wrapped_system(self._crashing).submit(_spec("simulated")).result()
        assert _run_documents(campaign) == _run_documents(reference)

    @pytest.mark.parametrize("backend", ["processes"])
    def test_dead_child_fails_the_campaign_naming_backend_and_cell(
        self, backend, tmp_path
    ):
        test_pid = os.getpid()
        round_one_done = tmp_path / "round-one-done"

        def die_in_round_two(executor):
            def run(context):
                # Never exit the test process itself, whatever the backend.
                if os.getpid() != test_pid and round_one_done.exists():
                    os._exit(1)
                return executor(context)

            return run

        system = _wrapped_system(die_in_round_two)
        stamped = []

        def on_cell(cell):
            stamped.append(cell.run.run_id)
            if len(stamped) == len(KEYS):
                round_one_done.touch()

        with pytest.raises(SchedulingError) as error:
            system.submit(_spec(backend, rounds=2), on_cell_complete=on_cell)
        message = str(error.value)
        assert f"cell 2 (HERMES on {KEYS[0]}) failed on the {backend} backend" in message
        assert "BrokenProcessPool" in message
        assert "2 validation run(s) of the campaign remain recorded" in message
        assert [record.run_id for record in system.catalog.all()] == stamped
        assert len(stamped) == len(KEYS)

    def test_child_dying_during_submission_fails_the_same_cell(
        self, tmp_path, monkeypatch
    ):
        """A pause after each submission lets the child die before the
        round's next cell is submitted, whose submission then raises; the
        dead-child test's assertions hold unchanged."""
        submit = ProcessPoolExecutor.submit

        def pausing_submit(pool, *args, **kwargs):
            future = submit(pool, *args, **kwargs)
            time.sleep(0.3)
            return future

        monkeypatch.setattr(ProcessPoolExecutor, "submit", pausing_submit)
        self.test_dead_child_fails_the_campaign_naming_backend_and_cell(
            "processes", tmp_path
        )

    def test_registry_knows_both_backends(self):
        assert set(EXECUTION_BACKENDS) == {"simulated", "processes"}
        assert isinstance(execution_backend("processes"), ProcessPoolBackend)
