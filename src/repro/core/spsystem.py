"""The sp-system facade: the validation framework as a single object.

:class:`SPSystem` wires the substrates together the way the DESY installation
does: a hypervisor hosting the standard virtual machine images, the common
storage every client mounts, the run catalogue and bookkeeping, the builder
and validation runner, regression detection, failure diagnosis, intervention
tickets, recipes and the freeze manager.  It is the main entry point of the
library; the examples and the figure benchmarks drive everything through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro._common import ReproError, SchedulingError, StorageError, ValidationError
from repro.buildsys.builder import PackageBuilder
from repro.core.diagnosis import DiagnosisReport, FailureDiagnosisEngine
from repro.core.freeze import FreezeManager, FreezeReason, FrozenSystem
from repro.core.intervention import InterventionTicket
from repro.core.jobs import ValidationRun
from repro.core.recipe import RecipeBook, ValidatedRecipe
from repro.core.regression import RegressionDetector, RegressionReport
from repro.core.runner import (
    CellComputation,
    NumericContextFactory,
    RunnerSettings,
    ValidationRunner,
    default_numeric_context,
)
from repro.core.testspec import ExperimentDefinition
from repro.core.workflow import PreservationWorkflow, WorkflowPhase
from repro.environment.configuration import (
    EnvironmentConfiguration,
    sp_system_configurations,
)
from repro.environment.evolution import EnvironmentEvent
from repro.history.ledger import ValidationHistoryLedger
from repro.plugins import campaign_plugin
from repro.plugins.history_recorder import HistoryRecorderPlugin
from repro.plugins.interventions import InterventionStore, new_intervention_tracker
from repro.scheduler.cache import BuildCache, CachingPackageBuilder
from repro.scheduler.campaign import CampaignCell, CampaignResult, CampaignScheduler
from repro.scheduler.lifecycle import (
    EVENT_CAMPAIGN_FINISHED,
    EVENT_EVOLUTION_RECORDED,
    DeadlineAbortPolicy,
    EarlyStopPolicy,
    FileEventSink,
    LifecycleObserver,
    PluginRegistry,
)
from repro.scheduler.pool import SchedulingPolicy
from repro.scheduler.spec import CampaignSpec
from repro.storage.artifacts import ArtifactStore
from repro.storage.bookkeeping import JobIdAllocator, SimulatedClock, TagRegistry
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.storage.catalog import RunCatalog
from repro.storage.common_storage import CommonStorage
from repro.virtualization.hypervisor import Hypervisor
from repro.virtualization.provisioning import ProvisioningService
from repro.virtualization.resources import VALIDATION_VM_PROFILE, ResourceProfile


@dataclass
class ValidationCycleResult:
    """Everything one validation cycle of an experiment produced."""

    run: ValidationRun
    regression_report: RegressionReport
    diagnosis: Optional[DiagnosisReport] = None
    tickets: List[InterventionTicket] = field(default_factory=list)

    @property
    def successful(self) -> bool:
        """True when the run passed completely."""
        return self.run.all_passed

    def summary(self) -> str:
        """One-line summary for logs."""
        verdict = "PASSED" if self.successful else "FAILED"
        return (
            f"{self.run.experiment} on {self.run.configuration_key}: {verdict} "
            f"({self.run.n_passed}/{self.run.n_jobs} tests, "
            f"{len(self.tickets)} ticket(s) opened)"
        )


@dataclass
class CampaignHandle:
    """The submission record of one campaign: status, progress and result.

    :meth:`SPSystem.submit` executes synchronously (the library is fully
    deterministic), so a returned handle is normally ``completed``; the
    progress counters tick cell by cell during execution and can be observed
    through the submission's ``on_cell_complete`` callback.  The handle's
    spec is what was persisted into the ``campaigns`` storage namespace —
    loading it back and resubmitting replays the identical campaign.
    """

    campaign_id: str
    spec: CampaignSpec
    status: str = "pending"
    cells_total: int = 0
    cells_completed: int = 0
    error: Optional[str] = None
    _campaign: Optional[CampaignResult] = field(default=None, repr=False)

    @property
    def progress(self) -> float:
        """Fraction of matrix cells executed so far (1.0 for an empty spec)."""
        if self.cells_total <= 0:
            return 1.0
        return self.cells_completed / self.cells_total

    def result(self) -> CampaignResult:
        """The campaign result; raises unless the campaign completed."""
        if self.status != "completed" or self._campaign is None:
            detail = f": {self.error}" if self.error else ""
            raise SchedulingError(
                f"campaign {self.campaign_id} has not completed "
                f"(status {self.status}){detail}"
            )
        return self._campaign

    def describe(self) -> Dict[str, object]:
        """The JSON document persisted for this submission."""
        return {
            "campaign_id": self.campaign_id,
            "status": self.status,
            "cells_total": self.cells_total,
            "cells_completed": self.cells_completed,
            "error": self.error,
            "spec": self.spec.to_dict(),
        }


def _resume_id_allocator(storage: CommonStorage) -> JobIdAllocator:
    """A job-ID allocator that continues past every ID already in *storage*.

    A fresh installation mounted on a loaded common storage must not re-issue
    IDs of the runs and jobs it inherited — the catalogue would reject the
    colliding run records.  The run documents carry every allocated ID, so
    the allocator resumes one past the highest of them.
    """
    allocator = JobIdAllocator()
    prefix = f"{allocator.prefix}-"
    highest = 0
    if RunCatalog.NAMESPACE in storage.namespaces():
        namespace = storage.namespace(RunCatalog.NAMESPACE)
        for key in namespace.keys(prefix="runmeta_"):
            document = namespace.get(key)
            identifiers = [document.get("run_id", "")]  # type: ignore[union-attr]
            identifiers.extend(
                job.get("job_id", "")
                for job in document.get("jobs", [])  # type: ignore[union-attr]
            )
            for identifier in identifiers:
                if str(identifier).startswith(prefix):
                    suffix = str(identifier)[len(prefix):]
                    if suffix.isdigit():
                        highest = max(highest, int(suffix))
    return JobIdAllocator(start=highest + 1)


class SPSystem:
    """The software preservation validation system."""

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        numeric_context_factory: NumericContextFactory = default_numeric_context,
        runner_settings: Optional[RunnerSettings] = None,
        storage: Optional[CommonStorage] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.clock = clock or SimulatedClock()
        # Telemetry defaults to the no-op bundle: uninstrumented runs pay
        # one method dispatch per probe point, and science output is
        # byte-identical either way (pinned by TestBackendParity).
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # A pre-populated storage (e.g. CommonStorage.load of a previous
        # installation's persisted state) is mounted as-is: the catalogue
        # re-hydrates its run records from it and submit warm-starts the
        # build cache from its `buildcache` namespace.
        self.storage = storage if storage is not None else CommonStorage()
        self.catalog = RunCatalog(self.storage)
        self.artifact_store = ArtifactStore()
        self.id_allocator = _resume_id_allocator(self.storage)
        self.tag_registry = TagRegistry()
        self.hypervisor = Hypervisor(clock=self.clock, storage=self.storage)
        self.provisioning = ProvisioningService(self.hypervisor, self.storage)
        self.builder = PackageBuilder()
        self.runner = ValidationRunner(
            storage=self.storage,
            catalog=self.catalog,
            artifact_store=self.artifact_store,
            clock=self.clock,
            id_allocator=self.id_allocator,
            tag_registry=self.tag_registry,
            builder=self.builder,
            numeric_context_factory=numeric_context_factory,
            settings=runner_settings,
        )
        self.regression_detector = RegressionDetector(self.storage, self.catalog)
        self.diagnosis_engine = FailureDiagnosisEngine()
        self.interventions = new_intervention_tracker()
        self.recipe_book = RecipeBook(self.storage)
        self.freeze_manager = FreezeManager(self.hypervisor, self.recipe_book, self.storage)
        self.workflow = PreservationWorkflow()
        self.build_cache = BuildCache(self.artifact_store)
        self.last_campaign: Optional[CampaignResult] = None
        self._campaign_counter = 0
        self._experiments: Dict[str, ExperimentDefinition] = {}
        self._configurations: Dict[str, EnvironmentConfiguration] = {}
        # A storage that already carries a history ledger (e.g. the loaded
        # state of a previous installation) mounts it immediately: the
        # journal is replayed and the secondary indexes rebuilt, so
        # longitudinal queries and the record_history=None auto mode see
        # the inherited history from the first submission on.
        self.history: Optional[ValidationHistoryLedger] = (
            ValidationHistoryLedger(self.storage)
            if ValidationHistoryLedger.exists_in(self.storage)
            else None
        )
        if self.history is not None:
            self._resume_ids_past_history()
        # The lifecycle bus.  The system-level history recorder registers
        # first; per-submission plugins (spec.plugins, event sinks, abort
        # policies) are scoped onto the registry around each submit() and
        # therefore always observe a campaign *after* its cells have landed
        # on the ledger.
        self.lifecycle = PluginRegistry()
        self.lifecycle.add_observer(HistoryRecorderPlugin(self))

    # -- setup ----------------------------------------------------------------
    def provision_standard_images(self) -> List[str]:
        """Build the five standard sp-system virtual machine images."""
        report = self.provisioning.provision_standard_images()
        for configuration in sp_system_configurations():
            self._configurations[configuration.key] = configuration
        return report.images_built

    def add_configuration(self, configuration: EnvironmentConfiguration) -> str:
        """Add an additional environment configuration (and build its image)."""
        if configuration.key not in self._configurations:
            self._configurations[configuration.key] = configuration
            if self.hypervisor.image_for_configuration(configuration) is None:
                self.hypervisor.build_image(configuration)
        return configuration.key

    def replace_configuration(
        self,
        configuration: EnvironmentConfiguration,
        event: Optional[EnvironmentEvent] = None,
    ) -> str:
        """Swap a known configuration in place (an environment evolution).

        This models "new OS and software versions will then be integrated
        into the system": the configuration keeps its key (same OS, word
        size, compiler label) while its content — typically an upgraded
        external such as ROOT 6 — changes, so subsequent validations of the
        same matrix cell run against the evolved environment.  The build
        cache keys on the configuration's content fingerprint, so entries
        of the previous state simply stop matching; the history ledger
        records the new fingerprint per cell, which is how longitudinal
        queries see the flip.  Unknown keys are added like
        :meth:`add_configuration`.

        The swap is announced on the lifecycle bus as
        ``evolution_recorded``.  With *event* (the
        :class:`~repro.environment.evolution.EnvironmentEvent` that drove
        the swap), the history recorder also stamps the event onto a
        mounted ledger's time axis — replacing the manual
        ``system.history.record_evolution(event, ...)`` call.
        """
        self._configurations[configuration.key] = configuration
        if self.hypervisor.image_for_configuration(configuration) is None:
            self.hypervisor.build_image(configuration)
        payload: Dict[str, object] = {"configuration_key": configuration.key}
        if event is not None:
            payload.update(
                year=event.year, kind=event.kind, subject=event.subject
            )
        self.lifecycle.emit(
            EVENT_EVOLUTION_RECORDED,
            payload=payload,
            subjects={"event": event, "configuration": configuration},
        )
        return configuration.key

    def configurations(self) -> List[EnvironmentConfiguration]:
        """All configurations known to the system, sorted by key."""
        return [self._configurations[key] for key in sorted(self._configurations)]

    def configuration(self, key: str) -> EnvironmentConfiguration:
        """Return the configuration with the given key."""
        try:
            return self._configurations[key]
        except KeyError:
            known = ", ".join(sorted(self._configurations))
            raise ValidationError(
                f"unknown configuration {key!r} (known: {known})"
            ) from None

    def register_experiment(
        self,
        experiment: ExperimentDefinition,
        baseline_configuration: Optional[EnvironmentConfiguration] = None,
    ) -> None:
        """Register an experiment and complete its preparation phase."""
        if experiment.name in self._experiments:
            raise ValidationError(f"experiment {experiment.name!r} already registered")
        self._experiments[experiment.name] = experiment
        self.workflow.register(experiment.name)
        if baseline_configuration is not None:
            self.workflow.complete_preparation(
                experiment, baseline_configuration, self.clock.now
            )

    def experiment(self, name: str) -> ExperimentDefinition:
        """Return the registered experiment called *name*."""
        try:
            return self._experiments[name]
        except KeyError:
            raise ValidationError(f"experiment {name!r} is not registered") from None

    def experiments(self) -> List[ExperimentDefinition]:
        """All registered experiments sorted by name."""
        return [self._experiments[name] for name in sorted(self._experiments)]

    # -- validation cycles ------------------------------------------------------
    def validate(
        self,
        experiment_name: str,
        configuration_key: str,
        description: Optional[str] = None,
        reference_configuration_key: Optional[str] = None,
        computed: Optional[CellComputation] = None,
    ) -> ValidationCycleResult:
        """Run one full validation cycle (work-flow steps ii and iii).

        The experiment suite is built and run on the named configuration, the
        result is compared against the last successful run, failures are
        diagnosed and intervention tickets opened.  A campaign passes the
        cell it already built and *computed*; the runner then only stamps
        and records it.
        """
        experiment = self.experiment(experiment_name)
        configuration = self.configuration(configuration_key)
        phase = self.workflow.phase_of(experiment_name)
        if phase is WorkflowPhase.FROZEN:
            raise ValidationError(
                f"experiment {experiment_name} is frozen; no further validation runs"
            )
        if phase is WorkflowPhase.PREPARATION:
            self.workflow.complete_preparation(experiment, configuration, self.clock.now)
        run = self.runner.run(experiment, configuration, description, computed)
        regression_report = self.regression_detector.compare_to_reference(run)
        diagnosis: Optional[DiagnosisReport] = None
        tickets: List[InterventionTicket] = []
        if not run.all_passed:
            reference_configuration = None
            if reference_configuration_key is not None:
                reference_configuration = self.configuration(reference_configuration_key)
            elif regression_report.reference_configuration_key in self._configurations:
                reference_configuration = self._configurations[
                    regression_report.reference_configuration_key
                ]
            diagnosis = self.diagnosis_engine.diagnose_run(
                run,
                reference_configuration=reference_configuration,
                current_configuration=configuration,
                regression_report=regression_report,
            )
            tickets = self.interventions.open_from_diagnosis(diagnosis, self.clock.now)
            if self.workflow.phase_of(experiment_name) is WorkflowPhase.REGULAR_VALIDATION:
                self.workflow.transition(
                    experiment_name,
                    WorkflowPhase.INTERVENTION,
                    self.clock.now,
                    reason=f"run {run.run_id} failed {run.n_failed} test(s)",
                )
        else:
            if self.workflow.phase_of(experiment_name) is WorkflowPhase.INTERVENTION:
                self.workflow.transition(
                    experiment_name,
                    WorkflowPhase.REGULAR_VALIDATION,
                    self.clock.now,
                    reason=f"run {run.run_id} passed; problems resolved",
                )
        return ValidationCycleResult(
            run=run,
            regression_report=regression_report,
            diagnosis=diagnosis,
            tickets=tickets,
        )

    # -- campaign submission (the unified execution API) -----------------------
    def submit(
        self,
        spec: CampaignSpec,
        on_cell_complete: Optional[Callable[[CampaignCell], None]] = None,
        policy: Optional[SchedulingPolicy] = None,
    ) -> CampaignHandle:
        """Run the validation campaign described by *spec*.

        *policy* optionally supplies a :class:`SchedulingPolicy` *instance*
        to schedule with instead of resolving ``spec.policy`` from the
        registry — instances (e.g. custom or stateful policies) cannot
        travel inside a serialised spec, so a replayed spec falls back to
        its registry name.

        This is the single execution entrypoint: the spec names the matrix
        (cross product or explicit request list), the pool geometry, the
        scheduling policy and the execution backend; the campaign DAG is
        dispatched accordingly and the system-wide build cache de-duplicates
        identical package builds.  The produced runs and catalogue records
        are bit-identical to calling :meth:`validate` cell by cell, for any
        worker count, any policy and any backend — and, thanks to replayed
        cache entries, for any warm-start state.

        With ``spec.warm_start`` (the default), a build-cache journal
        persisted in the common storage's ``buildcache`` namespace is
        replayed before the first campaign of this installation, so a fresh
        ``SPSystem`` mounted on a loaded storage starts with the previous
        installation's cache; ``spec.use_cache=False`` disables the cache
        layer entirely (the cold-path debugging mode).  With
        ``spec.persist_spec`` (the default), the
        submission is recorded in the ``campaigns`` namespace, so the spec
        travels with the persisted storage and replays the identical
        campaign on a fresh installation.
        """
        with self.telemetry.tracer.span("spec_validation", category="cell"):
            spec.validate()
        if spec.use_cache and spec.warm_start and len(self.build_cache) == 0:
            # Installs the restored cache as self.build_cache (no-op probe
            # when the storage carries no journal).  Must precede scheduler
            # construction: the scheduler binds the cache by reference.
            with self.telemetry.tracer.span("cache_warm_start", category="journal"):
                self.restore_build_cache(missing_ok=True)
        profile = VALIDATION_VM_PROFILE
        if spec.slots_per_worker is not None:
            profile = ResourceProfile(
                cpu_cores=spec.slots_per_worker,
                memory_gb=VALIDATION_VM_PROFILE.memory_gb,
                disk_gb=VALIDATION_VM_PROFILE.disk_gb,
            )
        scheduler = CampaignScheduler(
            self,
            workers=spec.workers,
            batch_size=spec.batch_size,
            worker_profile=profile,
            failures=spec.failures,
            cache=self.build_cache,
            policy=policy if policy is not None else spec.policy,
            deadline_seconds=spec.deadline_seconds,
            backend=spec.backend,
            cache_budget_bytes=spec.cache_budget_bytes,
            use_cache=spec.use_cache,
            lifecycle=self.lifecycle,
        )
        requests = (
            list(spec.requests)
            if spec.requests is not None
            else scheduler.expand_matrix(spec.experiments, spec.configuration_keys)
        )
        handle = CampaignHandle(
            campaign_id=self._allocate_campaign_id(),
            spec=spec,
            cells_total=len(requests) * spec.rounds,
        )
        scheduler.campaign_id = handle.campaign_id
        if spec.persist_spec:
            self._persist_campaign_record(handle)
        handle.status = "running"

        def record_cell(cell: CampaignCell) -> None:
            handle.cells_completed += 1
            if on_cell_complete is not None:
                on_cell_complete(cell)

        # Per-submission plugins ride the registry only for this campaign;
        # scoped() removes them again even when the campaign fails.
        with self.lifecycle.scoped(
            observers=self._spec_observers(spec),
            policies=self._spec_policies(spec),
        ):
            try:
                campaign = scheduler.run_requests(
                    requests,
                    description=spec.description,
                    rounds=spec.rounds,
                    on_cell_complete=record_cell,
                )
            except ReproError as error:
                handle.status = "failed"
                handle.error = str(error)
                if spec.persist_spec:
                    self._persist_campaign_record(handle)
                raise
            campaign.spec = spec
            handle._campaign = campaign
            handle.status = "completed"
            self.last_campaign = campaign
            if spec.persist_spec:
                self._persist_campaign_record(handle)
            # History ingestion (the system-level recorder) and any spec
            # plugins run off this event, in registration order.
            self.lifecycle.emit(
                EVENT_CAMPAIGN_FINISHED,
                campaign_id=handle.campaign_id,
                payload={
                    "cells": len(campaign.cells),
                    "backend": campaign.backend,
                    "all_passed": campaign.all_passed,
                },
                subjects={"handle": handle, "campaign": campaign},
            )
        return handle

    def _spec_observers(self, spec: CampaignSpec) -> List[LifecycleObserver]:
        """The observers one spec requests for the duration of its campaign."""
        observers: List[LifecycleObserver] = [
            campaign_plugin(name, self) for name in spec.plugins
        ]
        if spec.event_log is not None:
            observers.append(FileEventSink(spec.event_log))
        return observers

    def _spec_policies(self, spec: CampaignSpec) -> List[EarlyStopPolicy]:
        """The early-stop policies one spec requests for its campaign."""
        if spec.on_deadline == "abort":
            return [DeadlineAbortPolicy()]
        return []

    #: Common-storage namespace recording submitted campaign specs.
    CAMPAIGNS_NAMESPACE = "campaigns"

    def _allocate_campaign_id(self) -> str:
        """A campaign ID unique within this installation and its storage."""
        inherited_history = (
            set(self.history.campaign_ids()) if self.history is not None else set()
        )
        while True:
            self._campaign_counter += 1
            campaign_id = f"campaign-{self._campaign_counter:04d}"
            # Skip over IDs inherited from a mounted storage's past
            # submissions — recorded spec documents and history-ledger
            # campaigns alike — so a resumed installation never overwrites
            # or merges into them.
            if campaign_id in inherited_history:
                continue
            if self.CAMPAIGNS_NAMESPACE not in self.storage.namespaces():
                return campaign_id
            if not self.storage.exists(
                self.CAMPAIGNS_NAMESPACE, f"spec_{campaign_id}"
            ):
                return campaign_id

    def _persist_campaign_record(self, handle: CampaignHandle) -> None:
        self.storage.create_namespace(self.CAMPAIGNS_NAMESPACE)
        self.storage.put(
            self.CAMPAIGNS_NAMESPACE,
            f"spec_{handle.campaign_id}",
            handle.describe(),
        )

    # -- validation history ----------------------------------------------------
    def enable_history(self) -> ValidationHistoryLedger:
        """The installation's history ledger, creating it on first use."""
        if self.history is None:
            self.history = ValidationHistoryLedger(self.storage)
        return self.history

    def restore_history(
        self,
        storage: Optional[CommonStorage] = None,
        missing_ok: bool = False,
    ) -> Optional[ValidationHistoryLedger]:
        """Mount a persisted history ledger, copying a foreign journal in.

        Mirrors :meth:`restore_build_cache`: reading from a *foreign*
        storage copies its ``history`` namespace into this installation's
        own storage first (the source is never modified), then rebuilds the
        ledger indexes from the journal.  Without a ledger, raises
        :class:`~repro._common.StorageError` — or returns None when
        *missing_ok* is set.
        """
        source = storage if storage is not None else self.storage
        if not ValidationHistoryLedger.exists_in(source):
            if missing_ok:
                return None
            raise StorageError(
                "no persisted validation history: the storage has no "
                f"{ValidationHistoryLedger.NAMESPACE!r} namespace"
            )
        if source is not self.storage:
            self._mount_namespace_from(source, ValidationHistoryLedger.NAMESPACE)
        self.history = ValidationHistoryLedger(self.storage)
        self._resume_ids_past_history()
        return self.history

    def _resume_ids_past_history(self) -> None:
        """Never re-issue a run ID the mounted ledger already recorded.

        A ledger mounted without the full run history (e.g. the CLI loads
        only the ``history`` namespace) proves which run IDs a previous
        installation handed out; re-issuing one would make a genuinely new
        run look like a duplicate to the ledger's idempotence check.
        """
        if self.history is None:
            return
        prefix = f"{self.id_allocator.prefix}-"
        highest = 0
        for event in self.history.events():
            if event.run_id.startswith(prefix):
                suffix = event.run_id[len(prefix):]
                if suffix.isdigit():
                    highest = max(highest, int(suffix))
        self.id_allocator.ensure_past(highest)

    # -- intervention tickets --------------------------------------------------
    def restore_interventions(
        self,
        storage: Optional[CommonStorage] = None,
        missing_ok: bool = False,
    ) -> Optional[InterventionStore]:
        """Mount persisted intervention tickets, copying a foreign namespace in.

        Mirrors :meth:`restore_history`: reading from a *foreign* storage
        copies its ``interventions`` namespace into this installation's own
        storage first (the source is never modified), then rebuilds the
        ticket store from the persisted documents.  Without tickets, raises
        :class:`~repro._common.StorageError` — or returns None when
        *missing_ok* is set.
        """
        source = storage if storage is not None else self.storage
        if not InterventionStore.exists_in(source):
            if missing_ok:
                return None
            raise StorageError(
                "no persisted interventions: the storage has no "
                f"{InterventionStore.NAMESPACE!r} namespace"
            )
        if source is not self.storage:
            self._mount_namespace_from(source, InterventionStore.NAMESPACE)
        return InterventionStore(self.storage)

    # -- recipes and freezing ------------------------------------------------------
    def publish_recipe(self, result: ValidationCycleResult) -> ValidatedRecipe:
        """Publish the validated recipe proven by a successful cycle."""
        configuration = self.configuration(result.run.configuration_key)
        return self.recipe_book.publish_from_run(result.run, configuration)

    def freeze_experiment(
        self, experiment_name: str, result: ValidationCycleResult, reason: FreezeReason
    ) -> FrozenSystem:
        """Enter the final phase: conserve the last working image."""
        frozen = self.freeze_manager.freeze(experiment_name, result.run, reason)
        self.workflow.transition(
            experiment_name,
            WorkflowPhase.FROZEN,
            self.clock.now,
            reason=reason.value,
        )
        return frozen

    # -- build-cache persistence ---------------------------------------------------
    def persist_build_cache(self, max_bytes: Optional[int] = None) -> int:
        """Append the build cache's changes to its journal in the common storage.

        The journal lives in the ``buildcache`` namespace, so a subsequent
        ``storage.persist(directory)`` carries it to disk alongside the run
        documents, and a fresh installation mounting the loaded storage (or
        calling :meth:`restore_build_cache`) warm-starts by replaying it.
        Persistence is incremental: only entries new since the last persist
        are appended (plus one tombstone per eviction), so repeated
        campaigns write O(new entries) documents.  With *max_bytes*,
        least-recently-hit entries are evicted first so the live cache (and
        therefore the journal's live state) stays within the size budget.
        Returns the number of newly journalled entries.
        """
        cache = self.effective_build_cache()
        with self.telemetry.tracer.span("journal_persist", category="journal"):
            appended = cache.persist_to(self.storage, max_bytes=max_bytes)
        self.telemetry.metrics.increment(
            "journal_entries_persisted_total", amount=appended
        )
        self.telemetry.metrics.set_gauge(
            "journal_bytes", BuildCache.journal_status(self.storage).get("bytes", 0)
        )
        return appended

    def compact_build_cache(self, max_bytes: Optional[int] = None) -> int:
        """Rewrite the build-cache journal from the live cache state.

        Drops accumulated tombstones, superseded records and orphaned
        artifact payloads; with *max_bytes* the live cache is brought under
        the budget first.  Returns the number of entry records written.
        """
        cache = self.effective_build_cache()
        with self.telemetry.tracer.span("journal_compact", category="journal"):
            written = cache.compact(self.storage, max_bytes=max_bytes)
        self.telemetry.metrics.increment("journal_compactions_total")
        self.telemetry.metrics.set_gauge(
            "journal_bytes", BuildCache.journal_status(self.storage).get("bytes", 0)
        )
        return written

    def restore_build_cache(
        self,
        storage: Optional[CommonStorage] = None,
        missing_ok: bool = False,
    ) -> Optional[BuildCache]:
        """Restore the build cache by replaying a persisted ``buildcache`` journal.

        Reads from *storage* (default: this installation's own common
        storage), re-materialises the journal's tarballs into this
        installation's :class:`ArtifactStore` and installs the restored
        cache as :attr:`build_cache`.  When restoring from a *foreign*
        storage, the journal is also mounted (copied) into this
        installation's own storage, so a subsequent
        :meth:`persist_build_cache` appends to the inherited journal
        instead of rewriting it from scratch — the source itself is never
        modified.  Entries whose artifact digest cannot be materialised are
        evicted on restore, and a corrupted trailing journal record is
        dropped (everything before it is recovered).  Without a journal,
        raises :class:`~repro._common.StorageError` — or returns None when
        *missing_ok* is set (the warm-start probe).
        """
        source = storage if storage is not None else self.storage
        if BuildCache.NAMESPACE not in source.namespaces():
            if missing_ok:
                return None
            raise StorageError(
                "no persisted build cache: the storage has no "
                f"{BuildCache.NAMESPACE!r} namespace"
            )
        self.build_cache = BuildCache.restore_from(source, self.artifact_store)
        if source is not self.storage:
            self._mount_namespace_from(source, BuildCache.NAMESPACE)
        return self.build_cache

    def _mount_namespace_from(self, source: CommonStorage, name: str) -> None:
        """Mirror-copy one namespace of *source* into this storage.

        Existing documents of the local namespace are dropped first, so the
        mounted copy exactly matches the source (a merge of two unrelated
        journals would corrupt both).  The source is never modified.
        """
        namespace = self.storage.create_namespace(name)
        for key in namespace.keys():
            namespace.delete(key)
        for key, document in source.namespace(name).items():
            namespace.put(key, document)

    # -- bookkeeping -----------------------------------------------------------------
    def effective_build_cache(self) -> BuildCache:
        """The build cache campaigns actually account against.

        Normally :attr:`build_cache`; if a caching builder was installed
        directly on the runner, its cache is the one that sees the traffic.
        """
        builder = self.runner.builder
        if isinstance(builder, CachingPackageBuilder):
            return builder.cache
        return self.build_cache

    def total_runs(self) -> int:
        """Total number of validation runs recorded so far."""
        return self.catalog.total_runs()

    def describe(self) -> Dict[str, object]:
        """Structured description of the installation (used by figure 1)."""
        return {
            "configurations": [
                configuration.describe() for configuration in self.configurations()
            ],
            "images": [image.describe() for image in self.hypervisor.images()],
            "experiments": {
                experiment.name: {
                    "full_name": experiment.full_name,
                    "preservation_level": int(experiment.preservation_level),
                    "packages": len(experiment.inventory),
                    "tests": experiment.total_test_count(),
                    "phase": self.workflow.phase_of(experiment.name).value,
                }
                for experiment in self.experiments()
            },
            "total_runs": self.total_runs(),
            "storage_documents": self.storage.total_documents(),
            "artifacts": len(self.artifact_store),
            "build_cache": self.effective_build_cache().statistics.as_dict(),
        }


__all__ = ["CampaignHandle", "SPSystem", "ValidationCycleResult"]
