"""The validation runner: executes an experiment's suite on one environment.

This is step (ii) of the sp-system work flow: "A regular build of the
experimental software is done automatically according to the current
prescription of the working environment, and the validation tests are
performed."  One invocation of :meth:`ValidationRunner.run` produces a
:class:`~repro.core.jobs.ValidationRun`:

1. every package of the experiment is compiled (one compilation job each,
   artifacts stored as tar-balls);
2. the standalone tests run, grouped into parallel batches;
3. the analysis chains run sequentially, each step consuming the products of
   the previous one; a failing step causes the remaining steps of that chain
   to be skipped.

A cell is worked in two steps.  :meth:`ValidationRunner.compute` is the pure
part of phases 2 and 3: the compatibility checker, the executors and the
chain skips give each test's status, duration and output, and nothing else
— no job ID, no clock reading, no storage write.  It is given the cell's
run ID, reserved up front, so executors see the ``SP_RUN_ID`` of the run
they end up in.  :meth:`ValidationRunner.run` then *stamps* the computed
cell: it allocates the job IDs, advances the simulated clock exactly as
executing the jobs one after the other would, stores outputs and artifacts
and records the run.  The campaign scheduler builds every cell of a round
first, lets its execution backend map :meth:`~ValidationRunner.compute`
over the round, and stamps the cells in matrix order; a
:meth:`~ValidationRunner.run` call without a computed cell does all three
in line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Dict, FrozenSet, List, Optional

from repro._common import ValidationError
from repro.buildsys.builder import BuildCampaign, PackageBuilder
from repro.core.jobs import JobStatus, ValidationJob, ValidationRun
from repro.core.testspec import (
    ExecutionContext,
    ExperimentDefinition,
    OutputKind,
    TestKind,
    TestOutput,
    ValidationTestSpec,
)
from repro.environment.compatibility import CompatibilityChecker
from repro.environment.configuration import EnvironmentConfiguration
from repro.hepdata.numerics import NumericContext, context_for_environment
from repro.storage.artifacts import ArtifactStore
from repro.storage.bookkeeping import JobIdAllocator, SimulatedClock, TagRegistry
from repro.storage.catalog import RunCatalog, RunRecord
from repro.storage.common_storage import CommonStorage
from repro.storage.shellvars import ShellVariableInterface


#: Signature of the hook deriving numeric behaviour from an environment.
NumericContextFactory = Callable[[EnvironmentConfiguration], NumericContext]


def default_numeric_context(configuration: EnvironmentConfiguration) -> NumericContext:
    """Benign numeric behaviour: recompilation-level rounding differences only."""
    return context_for_environment(
        label=configuration.key,
        word_size=configuration.word_size,
        compiler_strictness=configuration.compiler.strictness,
        libm_generation=configuration.operating_system.abi_level,
    )


@dataclass
class RunnerSettings:
    """Tunable behaviour of the validation runner."""

    simulated_seconds_per_test: float = 120.0
    seed: int = 20131029
    stop_chain_on_failure: bool = True
    record_in_catalog: bool = True


@dataclass
class ComputedJob:
    """One test or chain step as :meth:`ValidationRunner.compute` left it.

    The job's ``job_id``, ``started_at`` and ``output_key`` are placeholders
    until :meth:`ValidationRunner.run` stamps them.
    """

    job: ValidationJob
    #: Simulated seconds the job advances the clock by.
    clock_seconds: int
    #: A skipped chain step reads its start time after advancing the clock.
    started_after_advance: bool = False


@dataclass
class CellComputation:
    """One cell's builds and computed jobs, ready to be stamped."""

    run_id: str
    builds: BuildCampaign
    jobs: List[ComputedJob]


def unusable_packages(builds: BuildCampaign) -> FrozenSet[str]:
    """Names of the packages of *builds* that produced no usable artifact."""
    return frozenset(
        name for name, result in builds.results.items() if not result.succeeded
    )


class ValidationRunner:
    """Builds and validates one experiment on one environment configuration."""

    def __init__(
        self,
        storage: Optional[CommonStorage] = None,
        catalog: Optional[RunCatalog] = None,
        artifact_store: Optional[ArtifactStore] = None,
        clock: Optional[SimulatedClock] = None,
        id_allocator: Optional[JobIdAllocator] = None,
        tag_registry: Optional[TagRegistry] = None,
        builder: Optional[PackageBuilder] = None,
        checker: Optional[CompatibilityChecker] = None,
        shell_interface: Optional[ShellVariableInterface] = None,
        numeric_context_factory: NumericContextFactory = default_numeric_context,
        settings: Optional[RunnerSettings] = None,
    ) -> None:
        # "x if x is not None else default" (not "or"): several of these
        # collaborators define __len__ and an empty instance must not be
        # silently replaced by a fresh private one.
        self.storage = storage if storage is not None else CommonStorage()
        self.catalog = catalog if catalog is not None else RunCatalog(self.storage)
        self.artifact_store = (
            artifact_store if artifact_store is not None else ArtifactStore()
        )
        self.clock = clock if clock is not None else SimulatedClock()
        self.id_allocator = id_allocator if id_allocator is not None else JobIdAllocator()
        self.tag_registry = tag_registry if tag_registry is not None else TagRegistry()
        self.builder = builder if builder is not None else PackageBuilder()
        self.checker = checker if checker is not None else CompatibilityChecker()
        self.shell_interface = (
            shell_interface if shell_interface is not None else ShellVariableInterface()
        )
        self.numeric_context_factory = numeric_context_factory
        self.settings = settings or RunnerSettings()

    # -- public API ----------------------------------------------------------
    def run(
        self,
        experiment: ExperimentDefinition,
        configuration: EnvironmentConfiguration,
        description: Optional[str] = None,
        computed: Optional[CellComputation] = None,
    ) -> ValidationRun:
        """Run the full suite of *experiment* on *configuration*.

        With *computed* (a campaign cell whose builds and tests already ran),
        only the stamping step runs; its run ID must be the next one the
        allocator hands out.
        """
        if computed is None:
            run_id = self.id_allocator.peek()
            builds = self.builder.build_inventory(experiment.inventory, configuration)
            computed = CellComputation(
                run_id,
                builds,
                self.compute(experiment, configuration, run_id, unusable_packages(builds)),
            )
        run_id = self.id_allocator.allocate()
        if run_id != computed.run_id:
            raise ValidationError(
                f"cell computed for run {computed.run_id} was stamped as run {run_id}"
            )
        description = description or f"{experiment.name}-{configuration.key}"
        software_versions = dict(configuration.external_map())
        software_versions["operating_system"] = configuration.operating_system.name
        software_versions["compiler"] = configuration.compiler.name
        run = ValidationRun(
            run_id=run_id,
            experiment=experiment.name,
            configuration_key=configuration.key,
            description=description,
            started_at=self.clock.now,
            software_versions=software_versions,
        )
        self._stamp_compilation_phase(run, experiment, configuration, computed.builds)
        for entry in computed.jobs:
            job = entry.job
            job.job_id = self.id_allocator.allocate()
            if entry.started_after_advance:
                self.clock.advance(entry.clock_seconds)
                job.started_at = self.clock.now
            else:
                job.started_at = self.clock.now
                self.clock.advance(entry.clock_seconds)
            if job.output is not None:
                job.output_key = self._store_output(run_id, job.test_name, job.output)
            run.add_job(job)
        self._record(run)
        return run

    def compute(
        self,
        experiment: ExperimentDefinition,
        configuration: EnvironmentConfiguration,
        run_id: str,
        unusable: Collection[str],
    ) -> List[ComputedJob]:
        """Run the standalone tests and the chains of one cell (phases 2, 3).

        *unusable* names the packages that did not build.  Allocates no ID,
        reads no clock and writes no storage, so cells can be computed in
        any order, on threads or in other processes.
        """
        numeric_context = self.numeric_context_factory(configuration)
        jobs = [
            self._execute_test(
                run_id, test, configuration, unusable, numeric_context, chain_state=None
            )
            for test in experiment.standalone_tests
        ]
        for chain in experiment.chains:
            chain_state: Dict[str, object] = {}
            chain_broken = False
            for step in chain.steps:
                if chain_broken and self.settings.stop_chain_on_failure:
                    computed = self._skipped_job(
                        step, configuration,
                        reason=f"previous step of chain {chain.name!r} failed",
                    )
                else:
                    computed = self._execute_test(
                        run_id, step, configuration, unusable, numeric_context, chain_state
                    )
                if computed.job.status is not JobStatus.PASSED:
                    chain_broken = True
                jobs.append(computed)
        return jobs

    # -- phase 1: compilation -------------------------------------------------
    def _stamp_compilation_phase(
        self,
        run: ValidationRun,
        experiment: ExperimentDefinition,
        configuration: EnvironmentConfiguration,
        campaign: BuildCampaign,
    ) -> None:
        for package in experiment.inventory.all():
            result = campaign.result_for(package.name)
            job_id = self.id_allocator.allocate()
            if result.succeeded:
                status = JobStatus.PASSED
            elif result.status.value == "skipped":
                status = JobStatus.SKIPPED
            else:
                status = JobStatus.FAILED
            messages = [str(diagnostic) for diagnostic in result.diagnostics]
            if result.tarball is not None:
                self.artifact_store.store(result.tarball, label=run.run_id)
            output = TestOutput(
                kind=OutputKind.YES_NO,
                passed=status is JobStatus.PASSED,
                yes_no=status is JobStatus.PASSED,
                messages=messages,
            )
            job = ValidationJob(
                job_id=job_id,
                test_name=f"compile-{package.name}",
                experiment=experiment.name,
                configuration_key=configuration.key,
                kind=TestKind.COMPILATION,
                status=status,
                started_at=self.clock.now,
                duration_seconds=result.build_seconds,
                output=output,
                output_key=self._store_output(run.run_id, f"compile-{package.name}", output),
                messages=messages,
                process="compilation",
            )
            run.add_job(job)
            self.clock.advance(int(result.build_seconds) + 1)

    # -- phases 2 and 3: tests and chain steps ---------------------------------
    def _execute_test(
        self,
        run_id: str,
        test: ValidationTestSpec,
        configuration: EnvironmentConfiguration,
        unusable: Collection[str],
        numeric_context: NumericContext,
        chain_state: Optional[Dict[str, object]],
    ) -> ComputedJob:
        duration = self.settings.simulated_seconds_per_test
        # A test cannot run if a package it needs did not build.
        missing_packages = [
            name for name in test.required_packages if name in unusable
        ]
        if missing_packages:
            return ComputedJob(
                self._job(
                    test, configuration, JobStatus.SKIPPED, 0.0,
                    messages=[
                        "required package(s) failed to build: "
                        + ", ".join(missing_packages)
                    ],
                ),
                clock_seconds=1,
            )
        # Environment incompatibilities declared by the test itself.
        issues = self.checker.check(test.requirements, configuration)
        errors = [issue for issue in issues if issue.is_error()]
        messages = [str(issue) for issue in issues]
        if errors:
            output = TestOutput(
                kind=OutputKind.YES_NO, passed=False, yes_no=False, messages=messages
            )
            return ComputedJob(
                self._job(
                    test, configuration, JobStatus.FAILED, duration * 0.1,
                    messages=messages, output=output,
                ),
                clock_seconds=int(duration * 0.1) + 1,
            )
        # Run the experiment-provided executor through the thin shell interface.
        shell_environment = self.shell_interface.environment_for(
            run_id=run_id,
            test_name=test.name,
            experiment=test.experiment,
            configuration_key=configuration.key,
        )
        context = ExecutionContext(
            configuration=configuration,
            numeric_context=numeric_context,
            seed=self.settings.seed,
            chain_state=chain_state if chain_state is not None else {},
            shell_variables=dict(shell_environment.variables),
        )
        try:
            output = test.executor(context)
            output.validate()
        except ValidationError as error:
            output = TestOutput(
                kind=OutputKind.YES_NO,
                passed=False,
                yes_no=False,
                messages=[f"test execution error: {error}"],
            )
        except Exception as error:  # noqa: BLE001 - a broken experiment test
            # script must never take down the validation framework itself; the
            # crash is recorded as a failed job with the exception as evidence.
            output = TestOutput(
                kind=OutputKind.YES_NO,
                passed=False,
                yes_no=False,
                messages=[f"test crashed: {type(error).__name__}: {error}"],
            )
        output.messages.extend(messages)
        status = JobStatus.PASSED if output.passed else JobStatus.FAILED
        return ComputedJob(
            self._job(
                test, configuration, status, duration,
                messages=list(output.messages), output=output,
            ),
            clock_seconds=int(duration) + 1,
        )

    def _skipped_job(
        self,
        test: ValidationTestSpec,
        configuration: EnvironmentConfiguration,
        reason: str,
    ) -> ComputedJob:
        return ComputedJob(
            self._job(test, configuration, JobStatus.SKIPPED, 0.0, messages=[reason]),
            clock_seconds=1,
            started_after_advance=True,
        )

    @staticmethod
    def _job(
        test: ValidationTestSpec,
        configuration: EnvironmentConfiguration,
        status: JobStatus,
        duration_seconds: float,
        messages: List[str],
        output: Optional[TestOutput] = None,
    ) -> ValidationJob:
        """A computed job; ID, start time and output key are stamped later."""
        return ValidationJob(
            job_id="",
            test_name=test.name,
            experiment=test.experiment,
            configuration_key=configuration.key,
            kind=test.kind,
            status=status,
            started_at=0,
            duration_seconds=duration_seconds,
            output=output,
            messages=messages,
            chain=test.chain,
            process=test.process,
        )

    # -- persistence ------------------------------------------------------------
    def _store_output(self, run_id: str, test_name: str, output: TestOutput) -> str:
        key = f"{run_id}_{test_name}"
        self.storage.put("results", key, output.to_document())
        return key

    def _record(self, run: ValidationRun) -> None:
        self.storage.put("results", f"runmeta_{run.run_id}", run.to_document())
        self.tag_registry.record(run.description, run.run_id)
        if self.settings.record_in_catalog:
            self.catalog.record(
                RunRecord(
                    run_id=run.run_id,
                    experiment=run.experiment,
                    configuration_key=run.configuration_key,
                    description=run.description,
                    timestamp=run.started_at,
                    software_versions=dict(run.software_versions),
                    test_statuses=run.statuses_by_test(),
                    overall_status=run.overall_status,
                )
            )

    # -- convenience -------------------------------------------------------------
    def load_output(self, output_key: str) -> TestOutput:
        """Re-load a stored test output (used for run-against-run comparison)."""
        document = self.storage.get("results", output_key)
        return TestOutput.from_document(document)  # type: ignore[arg-type]


__all__ = [
    "ValidationRunner",
    "ComputedJob",
    "CellComputation",
    "unusable_packages",
    "RunnerSettings",
    "default_numeric_context",
    "NumericContextFactory",
]
