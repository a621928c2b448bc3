"""The campaign scheduler: a validation matrix run as one planned campaign.

:meth:`SPSystem.submit <repro.core.spsystem.SPSystem.submit>` is the one
way to run a campaign: it expands its
:class:`~repro.scheduler.spec.CampaignSpec` into the ordered list of matrix
cells (the experiments x configurations cross product through
:meth:`CampaignScheduler.expand_matrix`, or the spec's explicit
:class:`~repro.scheduler.spec.ValidationRequest` cells), and
:meth:`CampaignScheduler.run_requests` works them round by round, in three
passes over the round's cells:

1. build every cell, serially in matrix order, through the content-hash
   build cache layered over the package builder, so cache lookups and
   statistics are those of the sequential path;
2. let the :class:`~repro.scheduler.backends.ExecutionBackend` map
   :meth:`~repro.core.runner.ValidationRunner.compute` over the round
   (inline or in forked processes), each cell with the run ID it will be
   stamped with reserved up front;
3. stamp every cell, serially in matrix order, through
   :meth:`SPSystem.validate <repro.core.spsystem.SPSystem.validate>` (job
   IDs, clock, storage, compare, diagnosis, tickets, workflow), then emit
   its ``cell_completed`` event.

So the :class:`~repro.core.jobs.ValidationRun` documents and
:class:`~repro.storage.catalog.RunCatalog` records are bit-identical to
calling :meth:`SPSystem.validate` cell by cell, whatever the worker count
and whichever backend.  After the last round the campaign DAG is derived
from the recorded runs and the backend reports its simulated timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from repro._common import SchedulingError, chunked
from repro.buildsys.builder import BuildCampaign, PackageBuilder
from repro.buildsys.graph import DependencyGraph
from repro.core.jobs import ValidationRun
from repro.core.runner import CellComputation, unusable_packages
from repro.core.testspec import ExperimentDefinition
from repro.reporting.summary import render_campaign_report
from repro.scheduler.backends import (
    CellMap,
    CellWork,
    ExecutionBackend,
    ExecutionRequest,
    execution_backend,
)
from repro.scheduler.cache import BuildCache, CacheStatistics, CachingPackageBuilder
from repro.scheduler.dag import CampaignDAG, CampaignTask, TaskKind
from repro.scheduler.lifecycle import (
    EVENT_BUDGET_EXCEEDED,
    EVENT_CELL_COMPLETED,
    PluginRegistry,
)
from repro.scheduler.pool import (
    PoolSchedule,
    SchedulingPolicy,
    WorkerFailure,
    scheduling_policy,
)
from repro.scheduler.spec import DEFAULT_BATCH_SIZE, CampaignSpec, ValidationRequest
from repro.telemetry import NULL_TELEMETRY
from repro.virtualization.resources import VALIDATION_VM_PROFILE, ResourceProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.spsystem import SPSystem, ValidationCycleResult

#: Callback fired after each executed matrix cell (progress reporting).
CellCallback = Callable[["CampaignCell"], None]


@dataclass
class CampaignCell:
    """One executed (experiment, configuration) cell of the matrix."""

    index: int
    experiment: str
    configuration_key: str
    result: "ValidationCycleResult"

    @property
    def run(self) -> ValidationRun:
        """The validation run the cell produced."""
        return self.result.run


@dataclass
class CampaignResult:
    """Everything one scheduled validation campaign produced."""

    cells: List[CampaignCell]
    dag: CampaignDAG
    schedule: PoolSchedule
    cache_statistics: CacheStatistics
    workers: int
    batch_size: int
    rounds: int
    description: Optional[str] = None
    policy: str = "fifo"
    backend: str = "simulated"
    #: The spec the campaign was submitted with (None for direct scheduler use).
    spec: Optional[CampaignSpec] = None

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def runs(self) -> List[ValidationRun]:
        """All validation runs, in execution order."""
        return [cell.run for cell in self.cells]

    def cycles_for(self, experiment_name: str) -> List["ValidationCycleResult"]:
        """The cycle results of one experiment, in execution order."""
        return [
            cell.result for cell in self.cells if cell.experiment == experiment_name
        ]

    def by_experiment(self) -> Dict[str, List["ValidationCycleResult"]]:
        """Cycle results grouped by experiment, in first-execution order."""
        grouped: Dict[str, List["ValidationCycleResult"]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.experiment, []).append(cell.result)
        return grouped

    @property
    def all_passed(self) -> bool:
        """True when every cell of the campaign passed completely.

        Like :attr:`ValidationRun.all_passed`, an empty campaign does not
        count as successful — nothing was validated.
        """
        return bool(self.cells) and all(cell.result.successful for cell in self.cells)

    def render_text(self) -> str:
        """Human-readable campaign report (pool timeline plus cache numbers)."""
        return render_campaign_report(self)


class CampaignScheduler:
    """Plans and executes validation campaigns for one sp-system."""

    def __init__(
        self,
        system: "SPSystem",
        workers: int = 1,
        batch_size: int = DEFAULT_BATCH_SIZE,
        worker_profile: ResourceProfile = VALIDATION_VM_PROFILE,
        failures: Sequence[WorkerFailure] = (),
        cache: Optional[BuildCache] = None,
        policy: Union[str, SchedulingPolicy, None] = None,
        deadline_seconds: Optional[float] = None,
        backend: Union[str, ExecutionBackend, None] = None,
        cache_budget_bytes: Optional[int] = None,
        use_cache: bool = True,
        lifecycle: Optional[PluginRegistry] = None,
        campaign_id: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise SchedulingError("a campaign needs at least one worker")
        if batch_size < 1:
            raise SchedulingError("standalone test batches need at least one slot")
        if cache_budget_bytes is not None and cache_budget_bytes < 0:
            raise SchedulingError("a cache size budget cannot be negative")
        if cache_budget_bytes is not None and not use_cache:
            raise SchedulingError(
                "a cache size budget needs the cache (use_cache is False)"
            )
        self.system = system
        self.workers = workers
        self.batch_size = batch_size
        self.worker_profile = worker_profile
        self.failures = tuple(failures)
        self.cache = cache if cache is not None else BuildCache(system.artifact_store)
        self.policy = scheduling_policy(policy)
        self.deadline_seconds = deadline_seconds
        self.backend = execution_backend(backend)
        #: Live in-memory budget, enforced after every campaign round (the
        #: same budget the persisted journal is compacted under).
        self.cache_budget_bytes = cache_budget_bytes
        #: ``False`` runs the cold path: no cache layered over the builder.
        self.use_cache = use_cache
        #: Lifecycle event bus (None = no events emitted, the direct
        #: scheduler-use path) and the campaign ID events are tagged with.
        self.lifecycle = lifecycle
        self.campaign_id = campaign_id
        #: The system's telemetry bundle (the no-op bundle when the system
        #: predates it or was built without one).  Spans of the serial build
        #: and stamping passes carry category "cell" (their sequence is part
        #: of the cross-backend parity contract); backend spans "dispatch".
        self.telemetry = getattr(system, "telemetry", None) or NULL_TELEMETRY

    # -- campaign execution ----------------------------------------------------
    def expand_matrix(
        self,
        experiment_names: Optional[Iterable[str]] = None,
        configuration_keys: Optional[Iterable[str]] = None,
    ) -> List[ValidationRequest]:
        """One round of cross-product requests, in sequential-path order.

        Either side being None means "all registered" — this is the single
        home of that rule; :meth:`SPSystem.submit` expands cross-product
        specs through it.
        """
        names = (
            list(experiment_names)
            if experiment_names is not None
            else [experiment.name for experiment in self.system.experiments()]
        )
        keys = (
            list(configuration_keys)
            if configuration_keys is not None
            else [configuration.key for configuration in self.system.configurations()]
        )
        return [
            ValidationRequest(experiment=name, configuration_key=key)
            for name in names
            for key in keys
        ]

    def run_requests(
        self,
        requests: Sequence[ValidationRequest],
        description: Optional[str] = None,
        rounds: int = 1,
        on_cell_complete: Optional[CellCallback] = None,
    ) -> CampaignResult:
        """Execute an explicit list of validation requests, *rounds* times.

        With a ``cache_budget_bytes``, the live cache is brought back under
        the budget after every round — not just at persist time — so a
        long-running multi-round campaign's memory footprint is bounded by
        the same knob as its persisted journal.
        """
        if rounds < 1:
            raise SchedulingError("a campaign needs at least one round")
        builder = self._campaign_builder()
        # Account against the cache that will actually serve the campaign: a
        # caching builder already installed on the runner keeps its own cache.
        effective_cache = (
            builder.cache if self.use_cache else self.cache  # type: ignore[attr-defined]
        )
        statistics_before = effective_cache.statistics.snapshot()
        request = ExecutionRequest(
            dag=CampaignDAG(),
            workers=self.workers,
            worker_profile=self.worker_profile,
            failures=self.failures,
            policy=self.policy,
            deadline_seconds=self.deadline_seconds,
            lifecycle=self.lifecycle,
            campaign_id=self.campaign_id,
            telemetry=self.telemetry,
        )
        cells: List[CampaignCell] = []
        try:
            with self.backend.cell_map(self.system, request) as compute:
                for round_number in range(1, rounds + 1):
                    self._run_round(
                        requests, description, builder, compute, cells, on_cell_complete
                    )
                    if self.use_cache and self.cache_budget_bytes is not None:
                        evicted = effective_cache.enforce_budget(
                            self.cache_budget_bytes
                        )
                        if evicted and self.lifecycle is not None:
                            self.lifecycle.emit(
                                EVENT_BUDGET_EXCEEDED,
                                campaign_id=self.campaign_id,
                                payload={
                                    "budget_bytes": self.cache_budget_bytes,
                                    "evicted_entries": evicted,
                                    "round": round_number,
                                },
                            )
            with self.telemetry.tracer.span("dag_construction", category="cell"):
                request.dag = self._build_dag(cells)
            schedule = self.backend.execute(request)
        except SchedulingError as error:
            # Every stamped cell is recorded; say so instead of implying the
            # campaign produced nothing.
            raise SchedulingError(
                f"{error} (the {len(cells)} validation run(s) of the campaign "
                "remain recorded in the catalogue)"
            ) from error
        return CampaignResult(
            cells=cells,
            dag=request.dag,
            schedule=schedule,
            cache_statistics=effective_cache.statistics - statistics_before,
            workers=self.workers,
            batch_size=self.batch_size,
            rounds=rounds,
            description=description,
            policy=self.policy.name,
            backend=self.backend.name,
        )

    def _campaign_builder(self) -> PackageBuilder:
        """The builder the campaign's build pass runs.

        The caching wrapper over the runner's builder, or on the cold path
        the runner's builder with any installed caching wrapper peeled off,
        so "no cache" genuinely compiles instead of serving warm replays.
        """
        original = self.system.runner.builder
        if self.use_cache:
            if isinstance(original, CachingPackageBuilder):
                original.telemetry = self.telemetry
                return original
            return CachingPackageBuilder(
                self.cache, base=original, telemetry=self.telemetry
            )
        if not isinstance(original, CachingPackageBuilder):
            return original
        if original.base is not None:
            return original.base
        return PackageBuilder(checker=original.checker)

    def _run_round(
        self,
        requests: Sequence[ValidationRequest],
        description: Optional[str],
        builder: PackageBuilder,
        compute: CellMap,
        cells: List[CampaignCell],
        on_cell_complete: Optional[CellCallback] = None,
    ) -> None:
        """Build, compute and stamp one round of cells, appending to *cells*."""
        allocator = self.system.runner.id_allocator
        works: List[CellWork] = []
        builds: List[BuildCampaign] = []
        reserved = 0
        for index, request in enumerate(requests, start=len(cells)):
            experiment = self.system.experiment(request.experiment)
            configuration = self.system.configuration(request.configuration_key)
            with self.telemetry.tracer.span(
                "cell_build",
                category="cell",
                experiment=request.experiment,
                configuration=request.configuration_key,
            ):
                built = builder.build_inventory(experiment.inventory, configuration)
            builds.append(built)
            works.append(
                CellWork(
                    index, request.experiment, configuration,
                    allocator.peek(reserved), unusable_packages(built),
                )
            )
            # The run ID, then one job ID per compilation, test and step.
            reserved += 1 + experiment.total_test_count()
        with self.telemetry.tracer.span(
            "cell_map", category="dispatch", backend=self.backend.name
        ):
            computed = compute(works)
        for request, work, built, jobs in zip(requests, works, builds, computed):
            # The span attributes are pure matrix coordinates, so the
            # cell-pass span sequence is identical on every backend.
            with self.telemetry.tracer.span(
                "cell_validate",
                category="cell",
                experiment=request.experiment,
                configuration=request.configuration_key,
            ):
                result = self.system.validate(
                    request.experiment,
                    request.configuration_key,
                    description=request.description or description,
                    reference_configuration_key=request.reference_configuration_key,
                    computed=CellComputation(work.run_id, built, jobs),
                )
            self.telemetry.metrics.increment(
                "scheduler_cells_total", backend=self.backend.name
            )
            cell = CampaignCell(
                index=work.index,
                experiment=request.experiment,
                configuration_key=request.configuration_key,
                result=result,
            )
            cells.append(cell)
            if on_cell_complete is not None:
                on_cell_complete(cell)
            # Emitted from the serial stamping pass, so the per-cell event
            # order is identical on every backend (the parity-tested contract).
            if self.lifecycle is not None:
                self.lifecycle.emit(
                    EVENT_CELL_COMPLETED,
                    campaign_id=self.campaign_id,
                    payload={
                        "cell_index": cell.index,
                        "experiment": cell.experiment,
                        "configuration_key": cell.configuration_key,
                        "run_id": cell.run.run_id,
                        "passed": cell.result.successful,
                    },
                    subjects={"cell": cell},
                )

    # -- DAG derivation --------------------------------------------------------
    def _build_dag(self, cells: Sequence[CampaignCell]) -> CampaignDAG:
        """Derive the campaign DAG, with task durations from the recorded runs."""
        dag = CampaignDAG()
        # The build order depends on the experiment only; compute it once
        # instead of once per matrix cell.
        build_orders: Dict[str, List[str]] = {}
        for cell in cells:
            experiment = self.system.experiment(cell.experiment)
            if cell.experiment not in build_orders:
                graph = DependencyGraph(experiment.inventory)
                build_orders[cell.experiment] = graph.build_order()
            self._add_cell_tasks(dag, cell, experiment, build_orders[cell.experiment])
        return dag

    def _add_cell_tasks(
        self,
        dag: CampaignDAG,
        cell: CampaignCell,
        experiment: ExperimentDefinition,
        build_order: Sequence[str],
    ) -> None:
        run = cell.run

        def add(suffix, kind, duration, dependencies, **extra) -> str:
            task_id = f"c{cell.index:04d}:{suffix}"
            dag.add(
                CampaignTask(
                    task_id=task_id,
                    kind=kind,
                    cell_index=cell.index,
                    experiment=cell.experiment,
                    configuration_key=cell.configuration_key,
                    duration_seconds=duration,
                    dependencies=tuple(dependencies),
                    **extra,
                )
            )
            return task_id

        build_ids: Dict[str, str] = {}
        for name in build_order:
            duration = run.job_for(f"compile-{name}").duration_seconds
            dependencies = [
                build_ids[dependency]
                for dependency in experiment.inventory.get(name).dependencies
            ]
            build_ids[name] = add(f"build:{name}", TaskKind.BUILD, duration, dependencies)
        # Tests start once the cell's compilation phase is complete, exactly
        # as the validation runner sequences its phases.
        all_builds = tuple(build_ids.values())
        for index, batch in enumerate(chunked(experiment.standalone_tests, self.batch_size)):
            duration = sum(run.job_for(test.name).duration_seconds for test in batch)
            add(
                f"standalone-batch:{index:03d}", TaskKind.TEST_BATCH, duration,
                all_builds, n_tests=len(batch),
            )
        for chain in experiment.chains:
            previous = all_builds
            for step in chain.steps:
                duration = run.job_for(step.name).duration_seconds
                previous = (
                    add(f"chain:{step.name}", TaskKind.CHAIN_STEP, duration, previous),
                )


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "CellCallback",
    "CampaignCell",
    "CampaignResult",
    "CampaignScheduler",
]
