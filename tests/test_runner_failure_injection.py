"""Failure-injection tests: the framework must survive broken experiment tests.

The experiments write their own test scripts; the sp-system has no control
over their quality.  These tests inject misbehaving executors (crashes, wrong
payloads, missing chain products, non-deterministic behaviour across chain
boundaries) and check that the validation runner degrades gracefully: the
broken test fails, everything else still runs, and the run is recorded.
"""

import pytest

from repro._common import SchedulingError
from repro.buildsys.package import Language, PackageCategory, PackageInventory, SoftwarePackage
from repro.core.jobs import JobStatus
from repro.core.levels import PreservationLevel
from repro.core.runner import ValidationRunner
from repro.core.spsystem import SPSystem
from repro.core.testspec import (
    AnalysisChain,
    ExperimentDefinition,
    OutputKind,
    TestKind,
    TestOutput,
    ValidationTestSpec,
)
from repro.scheduler.backends import EXECUTION_BACKENDS
from repro.scheduler.pool import WorkerFailure
from repro.scheduler.spec import CampaignSpec


def _minimal_inventory(name="FAULTEXP"):
    return PackageInventory(
        name,
        [
            SoftwarePackage(
                name=f"{name.lower()}-core", version="1.0", experiment=name,
                category=PackageCategory.CORE, language=Language.CPP, lines_of_code=1000,
            )
        ],
    )


def _experiment(standalone=None, chains=None, name="FAULTEXP"):
    return ExperimentDefinition(
        name=name,
        full_name="fault injection experiment",
        preservation_level=PreservationLevel.ANALYSIS_SOFTWARE,
        inventory=_minimal_inventory(name),
        standalone_tests=standalone or [],
        chains=chains or [],
    )


def _passing_test(name, experiment="FAULTEXP"):
    return ValidationTestSpec(
        name=name, experiment=experiment, kind=TestKind.STANDALONE,
        executor=lambda context: TestOutput(kind=OutputKind.YES_NO, passed=True, yes_no=True),
    )


class TestExecutorCrashes:
    def test_crashing_executor_fails_only_its_own_job(self, sl5_64_gcc44):
        def crash(context):
            raise RuntimeError("segmentation violation in user code")

        crashing = ValidationTestSpec(
            name="crashing-test", experiment="FAULTEXP", kind=TestKind.STANDALONE,
            executor=crash,
        )
        experiment = _experiment(standalone=[crashing, _passing_test("healthy-test")])
        run = ValidationRunner().run(experiment, sl5_64_gcc44)
        assert run.job_for("crashing-test").status is JobStatus.FAILED
        assert "crashed" in run.job_for("crashing-test").messages[0]
        assert run.job_for("healthy-test").status is JobStatus.PASSED
        assert not run.all_passed

    def test_wrong_payload_is_a_failure_not_a_crash(self, sl5_64_gcc44):
        def wrong_payload(context):
            # Declares numbers but returns none: caught by output validation.
            return TestOutput(kind=OutputKind.NUMBERS, passed=True)

        broken = ValidationTestSpec(
            name="wrong-payload", experiment="FAULTEXP", kind=TestKind.STANDALONE,
            executor=wrong_payload,
        )
        run = ValidationRunner().run(_experiment(standalone=[broken]), sl5_64_gcc44)
        job = run.job_for("wrong-payload")
        assert job.status is JobStatus.FAILED
        assert "execution error" in job.messages[0]

    def test_run_with_crash_is_still_recorded_and_comparable(self, sl5_64_gcc44):
        def crash(context):
            raise ValueError("bad input file")

        crashing = ValidationTestSpec(
            name="crashing-test", experiment="FAULTEXP", kind=TestKind.STANDALONE,
            executor=crash,
        )
        runner = ValidationRunner()
        run = runner.run(_experiment(standalone=[crashing]), sl5_64_gcc44)
        assert runner.catalog.get(run.run_id).overall_status == "failed"
        stored = runner.load_output(run.job_for("crashing-test").output_key)
        assert not stored.passed


class TestChainFailurePropagation:
    def _chain(self, broken_step_index):
        chain = AnalysisChain(name="fault-chain", experiment="FAULTEXP")

        def make_executor(index):
            def execute(context):
                if index == broken_step_index:
                    raise RuntimeError(f"step {index} aborted")
                context.chain_state[f"product-{index}"] = index
                return TestOutput(
                    kind=OutputKind.NUMBERS, passed=True, numbers={"step": float(index)},
                )
            return execute

        for index in range(4):
            chain.add_step(
                ValidationTestSpec(
                    name=f"fault-chain-{index:02d}-step",
                    experiment="FAULTEXP",
                    kind=TestKind.CHAIN_STEP,
                    executor=make_executor(index),
                    chain="fault-chain",
                    chain_index=index,
                )
            )
        return chain

    def test_steps_after_broken_step_are_skipped(self, sl5_64_gcc44):
        run = ValidationRunner().run(
            _experiment(chains=[self._chain(broken_step_index=1)]), sl5_64_gcc44
        )
        statuses = [run.job_for(f"fault-chain-{i:02d}-step").status for i in range(4)]
        assert statuses[0] is JobStatus.PASSED
        assert statuses[1] is JobStatus.FAILED
        assert statuses[2] is JobStatus.SKIPPED
        assert statuses[3] is JobStatus.SKIPPED

    def test_unbroken_chain_passes_and_shares_state(self, sl5_64_gcc44):
        run = ValidationRunner().run(
            _experiment(chains=[self._chain(broken_step_index=99)]), sl5_64_gcc44
        )
        assert all(
            run.job_for(f"fault-chain-{i:02d}-step").status is JobStatus.PASSED
            for i in range(4)
        )

    def test_chain_failure_does_not_affect_other_chain(self, sl5_64_gcc44):
        healthy = AnalysisChain(name="healthy-chain", experiment="FAULTEXP")
        healthy.add_step(
            ValidationTestSpec(
                name="healthy-chain-00-step", experiment="FAULTEXP",
                kind=TestKind.CHAIN_STEP,
                executor=lambda context: TestOutput(
                    kind=OutputKind.YES_NO, passed=True, yes_no=True
                ),
                chain="healthy-chain", chain_index=0,
            )
        )
        run = ValidationRunner().run(
            _experiment(chains=[self._chain(broken_step_index=0), healthy]),
            sl5_64_gcc44,
        )
        assert run.job_for("healthy-chain-00-step").status is JobStatus.PASSED

    def test_chain_state_does_not_leak_between_runs(self, sl5_64_gcc44):
        observed_states = []

        def observe(context):
            observed_states.append(dict(context.chain_state))
            context.chain_state["seen"] = True
            return TestOutput(kind=OutputKind.YES_NO, passed=True, yes_no=True)

        chain = AnalysisChain(name="observe-chain", experiment="FAULTEXP")
        chain.add_step(
            ValidationTestSpec(
                name="observe-chain-00-step", experiment="FAULTEXP",
                kind=TestKind.CHAIN_STEP, executor=observe,
                chain="observe-chain", chain_index=0,
            )
        )
        experiment = _experiment(chains=[chain])
        runner = ValidationRunner()
        runner.run(experiment, sl5_64_gcc44)
        runner.run(experiment, sl5_64_gcc44)
        assert observed_states == [{}, {}]


class TestSchedulerFailureInjection:
    """The campaign scheduler must degrade gracefully, exactly like the runner.

    A worker dying mid-campaign reassigns its in-flight tasks to the
    survivors, a failing chain step still produces the sequential path's
    skip/fail statuses, and a pool with no survivors raises instead of
    deadlocking.
    """

    def _system(self, experiment):
        system = SPSystem()
        system.provision_standard_images()
        system.register_experiment(experiment)
        return system

    def _broken_chain_experiment(self):
        chain = AnalysisChain(name="fault-chain", experiment="FAULTEXP")

        def make_executor(index):
            def execute(context):
                if index == 1:
                    raise RuntimeError(f"step {index} aborted")
                return TestOutput(
                    kind=OutputKind.NUMBERS, passed=True, numbers={"step": float(index)},
                )
            return execute

        for index in range(4):
            chain.add_step(
                ValidationTestSpec(
                    name=f"fault-chain-{index:02d}-step",
                    experiment="FAULTEXP",
                    kind=TestKind.CHAIN_STEP,
                    executor=make_executor(index),
                    chain="fault-chain",
                    chain_index=index,
                )
            )
        # The data-export capability makes the experiment pass the workflow's
        # preparation checks (required at the ANALYSIS_SOFTWARE level).
        export_test = ValidationTestSpec(
            name="healthy-test", experiment="FAULTEXP", kind=TestKind.STANDALONE,
            executor=lambda context: TestOutput(
                kind=OutputKind.YES_NO, passed=True, yes_no=True
            ),
            capability="data-export",
        )
        return _experiment(standalone=[export_test], chains=[chain])

    def _spec(self, keys, **options):
        return CampaignSpec(
            experiments=("FAULTEXP",),
            configuration_keys=tuple(keys),
            persist_spec=False,
            **options,
        )

    @pytest.mark.parametrize("backend", tuple(EXECUTION_BACKENDS))
    def test_worker_death_reassigns_and_preserves_statuses(self, backend):
        experiment = self._broken_chain_experiment()
        keys = ("SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4")
        baseline_system = self._system(experiment)
        baseline = [baseline_system.validate("FAULTEXP", key) for key in keys]
        failures = (WorkerFailure(worker_index=0, at_seconds=50.0),)

        system = self._system(experiment)
        campaign = system.submit(
            self._spec(keys, backend=backend, workers=2, failures=failures)
        ).result()
        # The dead worker's in-flight tasks were retried on the survivor...
        assert campaign.schedule.failed_workers == (0,)
        assert campaign.schedule.n_retries > 0
        assert all(
            assignment.worker_index == 1
            for assignment in campaign.schedule.assignments
            if assignment.start_seconds >= 50.0
        )
        # ...and the scientific output is still the sequential baseline.
        assert [run.to_document() for run in campaign.runs()] == [
            cycle.run.to_document() for cycle in baseline
        ]
        # The failure acts on the simulated timeline, alike on every backend.
        simulated = self._system(experiment).submit(
            self._spec(keys, workers=2, failures=failures)
        ).result().schedule
        assert campaign.schedule.failed_workers == simulated.failed_workers
        assert campaign.schedule.n_retries == simulated.n_retries
        assert campaign.schedule.assignments == simulated.assignments

    @pytest.mark.parametrize("backend", tuple(EXECUTION_BACKENDS))
    def test_chain_failure_statuses_survive_pooled_scheduling(self, backend):
        system = self._system(self._broken_chain_experiment())
        campaign = system.submit(
            self._spec(["SL5_64bit_gcc4.4"], backend=backend, workers=4)
        ).result()
        run = campaign.cells[0].run
        statuses = [run.job_for(f"fault-chain-{i:02d}-step").status for i in range(4)]
        assert statuses == [
            JobStatus.PASSED, JobStatus.FAILED, JobStatus.SKIPPED, JobStatus.SKIPPED,
        ]
        assert run.job_for("healthy-test").status is JobStatus.PASSED
        # The skipped steps still appear in the DAG (zero-duration tasks).
        skipped_tasks = [
            task for task in campaign.dag.tasks()
            if task.task_id.endswith(("02-step", "03-step"))
        ]
        assert all(task.duration_seconds == 0.0 for task in skipped_tasks)

    @pytest.mark.parametrize("backend", tuple(EXECUTION_BACKENDS))
    def test_all_workers_dead_raises_instead_of_deadlocking(self, backend):
        system = self._system(self._broken_chain_experiment())
        with pytest.raises(SchedulingError, match="every worker"):
            system.submit(
                self._spec(
                    ["SL5_64bit_gcc4.4"],
                    backend=backend,
                    workers=2,
                    failures=[
                        WorkerFailure(worker_index=0, at_seconds=10.0),
                        WorkerFailure(worker_index=1, at_seconds=20.0),
                    ],
                )
            )

    @pytest.mark.parametrize("backend", tuple(EXECUTION_BACKENDS))
    def test_late_failure_after_campaign_end_is_harmless(self, backend):
        system = self._system(self._broken_chain_experiment())
        campaign = system.submit(
            self._spec(
                ["SL5_64bit_gcc4.4"],
                backend=backend,
                workers=2,
                failures=[WorkerFailure(worker_index=0, at_seconds=10.0 ** 9)],
            )
        ).result()
        assert campaign.schedule.n_retries == 0
        assert campaign.schedule.failed_workers == ()

    @pytest.mark.parametrize("backend", tuple(EXECUTION_BACKENDS))
    def test_crashing_executor_inside_campaign(self, sl5_64_gcc44, backend):
        def crash(context):
            raise RuntimeError("segmentation violation in user code")

        crashing = ValidationTestSpec(
            name="crashing-test", experiment="FAULTEXP", kind=TestKind.STANDALONE,
            executor=crash,
        )
        export_test = ValidationTestSpec(
            name="healthy-test", experiment="FAULTEXP", kind=TestKind.STANDALONE,
            executor=lambda context: TestOutput(
                kind=OutputKind.YES_NO, passed=True, yes_no=True
            ),
            capability="data-export",
        )
        experiment = _experiment(standalone=[crashing, export_test])
        system = self._system(experiment)
        campaign = system.submit(
            self._spec([sl5_64_gcc44.key], backend=backend, workers=3)
        ).result()
        run = campaign.cells[0].run
        assert run.job_for("crashing-test").status is JobStatus.FAILED
        assert run.job_for("healthy-test").status is JobStatus.PASSED
        assert system.catalog.get(run.run_id).overall_status == "failed"
