"""Tests for validation jobs, runs and the validation runner."""

import pytest

from repro._common import ValidationError
from repro.core.jobs import JobStatus, ValidationJob, ValidationRun
from repro.core.runner import (
    CellComputation,
    RunnerSettings,
    ValidationRunner,
    default_numeric_context,
    unusable_packages,
)
from repro.core.testspec import OutputKind, TestKind, TestOutput
from repro.storage.bookkeeping import EPOCH_2013


def make_job(name, status=JobStatus.PASSED, kind=TestKind.STANDALONE,
             experiment="H1", process="nc_dis"):
    return ValidationJob(
        job_id=f"job-{name}",
        test_name=name,
        experiment=experiment,
        configuration_key="SL5_64bit_gcc4.4",
        kind=kind,
        status=status,
        started_at=EPOCH_2013,
        duration_seconds=10.0,
        process=process,
    )


class TestValidationRun:
    def _run(self):
        return ValidationRun(
            run_id="sp-000001", experiment="H1",
            configuration_key="SL5_64bit_gcc4.4",
            description="test", started_at=EPOCH_2013,
        )

    def test_add_job_enforces_experiment(self):
        run = self._run()
        with pytest.raises(ValidationError):
            run.add_job(make_job("t", experiment="ZEUS"))

    def test_counts_and_status(self):
        run = self._run()
        run.add_job(make_job("a", JobStatus.PASSED))
        run.add_job(make_job("b", JobStatus.FAILED))
        run.add_job(make_job("c", JobStatus.SKIPPED))
        assert run.n_jobs == 3
        assert run.n_passed == 1
        assert run.n_failed == 1
        assert run.n_skipped == 1
        assert not run.all_passed
        assert run.overall_status == "failed"
        assert run.pass_fraction() == pytest.approx(1 / 3)

    def test_all_passed_requires_no_skips(self):
        run = self._run()
        run.add_job(make_job("a", JobStatus.PASSED))
        run.add_job(make_job("b", JobStatus.SKIPPED))
        assert not run.all_passed

    def test_empty_run_status(self):
        assert self._run().overall_status == "empty"
        assert self._run().pass_fraction() == 0.0

    def test_job_lookup(self):
        run = self._run()
        run.add_job(make_job("a"))
        assert run.job_for("a").test_name == "a"
        assert run.has_job("a")
        assert not run.has_job("ghost")
        with pytest.raises(ValidationError):
            run.job_for("ghost")

    def test_statuses_by_process(self):
        run = self._run()
        run.add_job(make_job("a", JobStatus.PASSED, process="nc_dis"))
        run.add_job(make_job("b", JobStatus.FAILED, process="nc_dis"))
        run.add_job(make_job("c", JobStatus.PASSED, process="cc_dis"))
        by_process = run.statuses_by_process()
        assert by_process["nc_dis"] == {"passed": 1, "failed": 1, "skipped": 0}
        assert by_process["cc_dis"]["passed"] == 1

    def test_document_serialisation(self):
        run = self._run()
        run.add_job(make_job("a"))
        document = run.to_document()
        assert document["run_id"] == "sp-000001"
        assert document["n_jobs"] == 1
        assert document["jobs"][0]["test_name"] == "a"


class TestValidationRunner:
    def test_full_run_structure(self, tiny_hermes, sl5_64_gcc44):
        runner = ValidationRunner()
        run = runner.run(tiny_hermes, sl5_64_gcc44)
        assert run.n_jobs == tiny_hermes.total_test_count()
        assert run.experiment == "HERMES"
        # Compilation jobs come first, one per package.
        compilation_jobs = run.jobs_of_kind(TestKind.COMPILATION)
        assert len(compilation_jobs) == len(tiny_hermes.inventory)
        assert run.all_passed

    def test_run_recorded_in_catalog_and_storage(self, tiny_hermes, sl5_64_gcc44):
        runner = ValidationRunner()
        run = runner.run(tiny_hermes, sl5_64_gcc44)
        assert runner.catalog.total_runs() == 1
        record = runner.catalog.get(run.run_id)
        assert record.overall_status == "passed"
        # Every job output is retrievable from the common storage.
        for job in run.jobs:
            if job.output_key:
                output = runner.load_output(job.output_key)
                assert isinstance(output, TestOutput)

    def test_unique_ids_across_runs(self, tiny_hermes, sl5_64_gcc44):
        runner = ValidationRunner()
        first = runner.run(tiny_hermes, sl5_64_gcc44)
        second = runner.run(tiny_hermes, sl5_64_gcc44)
        first_ids = {job.job_id for job in first.jobs} | {first.run_id}
        second_ids = {job.job_id for job in second.jobs} | {second.run_id}
        assert not first_ids & second_ids

    def test_artifacts_stored_for_successful_builds(self, tiny_hermes, sl5_64_gcc44):
        runner = ValidationRunner()
        runner.run(tiny_hermes, sl5_64_gcc44)
        assert len(runner.artifact_store) > 0

    def test_unported_packages_fail_on_sl6(self, tiny_zeus, sl6_64_gcc44):
        runner = ValidationRunner()
        run = runner.run(tiny_zeus, sl6_64_gcc44)
        failed_compilations = [
            job for job in run.jobs_of_kind(TestKind.COMPILATION)
            if job.status is JobStatus.FAILED
        ]
        assert failed_compilations, "the ZEUS inventory contains un-ported packages"
        # Tests requiring those packages are skipped, not failed.
        skipped = [job for job in run.jobs if job.status is JobStatus.SKIPPED]
        assert all("failed to build" in job.messages[0] or "failed" in job.messages[0]
                   for job in skipped if job.messages)

    def test_chain_steps_share_state_and_pass(self, tiny_h1, sl5_64_gcc44):
        runner = ValidationRunner()
        run = runner.run(tiny_h1, sl5_64_gcc44)
        chain_jobs = run.jobs_of_kind(TestKind.CHAIN_STEP)
        assert chain_jobs
        assert all(job.status is JobStatus.PASSED for job in chain_jobs)

    def test_clock_advances_during_run(self, tiny_hermes, sl5_64_gcc44):
        runner = ValidationRunner()
        start = runner.clock.now
        runner.run(tiny_hermes, sl5_64_gcc44)
        assert runner.clock.now > start

    def test_description_defaults_and_tags(self, tiny_hermes, sl5_64_gcc44):
        runner = ValidationRunner()
        run = runner.run(tiny_hermes, sl5_64_gcc44, description="pre-SL6 reference")
        assert run.description == "pre-SL6 reference"
        assert runner.tag_registry.runs_for("pre-SL6 reference") == [run.run_id]

    def test_runner_settings_disable_catalog(self, tiny_hermes, sl5_64_gcc44):
        runner = ValidationRunner(settings=RunnerSettings(record_in_catalog=False))
        runner.run(tiny_hermes, sl5_64_gcc44)
        assert runner.catalog.total_runs() == 0

    @staticmethod
    def _computed(runner, experiment, configuration, run_id):
        builds = runner.builder.build_inventory(experiment.inventory, configuration)
        jobs = runner.compute(experiment, configuration, run_id, unusable_packages(builds))
        return CellComputation(run_id, builds, jobs)

    def test_compute_allocates_no_id_reads_no_clock_writes_no_storage(
        self, tiny_zeus, sl6_64_gcc44
    ):
        runner = ValidationRunner()

        def state():
            return (
                runner.id_allocator.peek(),
                runner.clock.now,
                runner.storage.total_documents(),
                len(runner.artifact_store),
            )

        before = state()
        computed = self._computed(runner, tiny_zeus, sl6_64_gcc44, "sp-000001")
        assert state() == before
        assert len(computed.jobs) == len(tiny_zeus.all_tests())
        assert {entry.job.job_id for entry in computed.jobs} == {""}

    def test_stamping_a_computed_cell_equals_a_plain_run(self, tiny_zeus, sl6_64_gcc44):
        # ZEUS on SL6 has failed builds, skipped tests and broken chains.
        plain = ValidationRunner().run(tiny_zeus, sl6_64_gcc44)
        runner = ValidationRunner()
        computed = self._computed(runner, tiny_zeus, sl6_64_gcc44, runner.id_allocator.peek())
        stamped = runner.run(tiny_zeus, sl6_64_gcc44, computed=computed)
        assert stamped.to_document() == plain.to_document()

    def test_stamping_under_another_run_id_is_refused(self, tiny_hermes, sl5_64_gcc44):
        runner = ValidationRunner()
        computed = self._computed(runner, tiny_hermes, sl5_64_gcc44, "sp-000042")
        with pytest.raises(ValidationError, match="stamped as run sp-000001"):
            runner.run(tiny_hermes, sl5_64_gcc44, computed=computed)
        assert runner.catalog.total_runs() == 0

    def test_default_numeric_context_depends_on_configuration(
        self, sl5_64_gcc44, sl6_64_gcc44
    ):
        first = default_numeric_context(sl5_64_gcc44)
        second = default_numeric_context(sl6_64_gcc44)
        assert first.label != second.label
        assert first.perturb_scalar(1.0, "x") != second.perturb_scalar(1.0, "x")
