"""Execution backends: where a campaign computes its cells.

The campaign scheduler works a round of (experiment, configuration) cells
in three passes: it builds every cell in matrix order, lets the backend
map :meth:`~repro.core.runner.ValidationRunner.compute` (checker,
executors and chain skips: nearly all of a cell's time) over the round,
and stamps the computed cells in matrix order.  Only the map differs
between backends, and the computation is a pure function of its cell, so
both backends record byte-identical science:

* :class:`SimulatedBackend` computes the cells inline, one after another;
* :class:`ProcessPoolBackend` in ``workers x slots_per_worker`` processes,
  forked once per campaign, one task per cell: executors are closures that
  do not pickle, so the children inherit the system, and only a
  :class:`CellWork` goes out and its computed jobs come back.

Both backends report the same timeline: the deterministic
:class:`~repro.scheduler.pool.SimulatedWorkerPool` dispatch of the DAG
derived from the recorded runs.  A deadline therefore counts timeline
seconds, and injected worker failures act on that timeline, on either
backend.  A map that cannot finish (a child process dies, a computed job
does not pickle) raises a :class:`~repro._common.SchedulingError` naming
the backend and the first unfinished cell, after cancelling the round's
queued cells.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro._common import SchedulingError
from repro.scheduler.dag import CampaignDAG
from repro.scheduler.lifecycle import PluginRegistry
from repro.scheduler.pool import (
    PoolSchedule,
    SchedulingPolicy,
    SimulatedWorkerPool,
    WorkerFailure,
    effective_slots_per_worker,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.virtualization.resources import VALIDATION_VM_PROFILE, ResourceProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.runner import ComputedJob
    from repro.core.spsystem import SPSystem
    from repro.environment.configuration import EnvironmentConfiguration


@dataclass(frozen=True)
class CellWork:
    """One cell of a round, as a backend hands it to the computation."""

    index: int
    experiment: str
    #: The configuration the cell was built on (travels by value, so a
    #: forked child computes on exactly it).
    configuration: "EnvironmentConfiguration"
    #: The run ID the cell will be stamped with; executors see it.
    run_id: str
    #: The cell's packages that did not build.
    unusable: FrozenSet[str]


#: Maps the cell computation over a round's cells; results in cell order.
CellMap = Callable[[Sequence[CellWork]], List[List["ComputedJob"]]]


def compute_cells(
    system: "SPSystem", cells: Sequence[CellWork]
) -> List[List["ComputedJob"]]:
    """The cell computation of *cells*, one after another."""
    return [
        system.runner.compute(
            system.experiment(cell.experiment), cell.configuration, cell.run_id, cell.unusable
        )
        for cell in cells
    ]


@dataclass
class ExecutionRequest:
    """One campaign as a backend sees it: the pool geometry and the DAG."""

    dag: CampaignDAG
    workers: int = 1
    worker_profile: ResourceProfile = VALIDATION_VM_PROFILE
    failures: Tuple[WorkerFailure, ...] = ()
    policy: Union[str, SchedulingPolicy, None] = None
    deadline_seconds: Optional[float] = None
    # Always empty; kept because perfbench/layers.py counts its BuildTasks.
    payloads: Mapping[str, object] = field(default_factory=dict)
    #: Bus the timeline emits ``deadline_exceeded`` through (None = silent).
    lifecycle: Optional[PluginRegistry] = None
    #: Campaign ID the emitted events are tagged with.
    campaign_id: Optional[str] = None
    #: Telemetry bundle (None = the no-op bundle).  Backend spans carry
    #: category "dispatch", outside the cross-backend parity contract.
    telemetry: Optional[Telemetry] = None

    @property
    def slots(self) -> int:
        """Cells the pool geometry computes at once (at least one)."""
        return max(self.workers * effective_slots_per_worker(self.worker_profile), 1)


class ExecutionBackend:
    """Maps the cell computation and reports the campaign timeline."""

    #: Registry name, also used by the CLI ``--backend`` flag.
    name = "base"

    @contextmanager
    def cell_map(self, system: "SPSystem", request: ExecutionRequest) -> Iterator[CellMap]:
        """Open the map of the cell computation for one campaign (inline)."""
        yield lambda cells: compute_cells(system, cells)

    def execute(self, request: ExecutionRequest) -> PoolSchedule:
        """The simulated timeline of the request's campaign DAG."""
        telemetry = request.telemetry or NULL_TELEMETRY
        pool = SimulatedWorkerPool(
            request.workers,
            profile=request.worker_profile,
            failures=request.failures,
            policy=request.policy,
            deadline_seconds=request.deadline_seconds,
            lifecycle=request.lifecycle,
            campaign_id=request.campaign_id,
        )
        pool.backend = self.name
        with telemetry.tracer.span(
            "backend_dispatch", category="dispatch", backend=self.name
        ):
            schedule = pool.execute(request.dag)
        telemetry.metrics.increment(
            "tasks_executed_total", amount=len(schedule.assignments), backend=self.name
        )
        return schedule


#: The system a forked pool child computes cells for.
_child_system: Optional["SPSystem"] = None


def _adopt_system(system: "SPSystem") -> None:
    """Pool initializer, run in each child right after the fork."""
    global _child_system
    _child_system = system


def _compute_in_child(cell: CellWork) -> List["ComputedJob"]:
    return compute_cells(_child_system, [cell])[0]


class SimulatedBackend(ExecutionBackend):
    """Computes a round's cells inline, one after another (the default)."""

    name = "simulated"

    # Defined here because perfbench/layers.py wraps each class's own execute.
    def execute(self, request: ExecutionRequest) -> PoolSchedule:
        return super().execute(request)


class ProcessPoolBackend(ExecutionBackend):
    """Computes a round's cells in forked processes, one task per cell."""

    name = "processes"

    @contextmanager
    def cell_map(
        self, system: "SPSystem", request: ExecutionRequest
    ) -> Iterator[CellMap]:
        """A map over ``request.slots`` children forked at its first submission.

        Under the fork start method ``initargs`` are inherited, not pickled,
        so the children get the system with its executor closures as it was
        then.
        """
        with ProcessPoolExecutor(
            max_workers=request.slots,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt_system,
            initargs=(system,),
        ) as pool:

            def map_cells(cells: Sequence[CellWork]) -> List[List["ComputedJob"]]:
                futures: List[Future] = []
                for cell in cells:
                    try:
                        futures.append(pool.submit(_compute_in_child, cell))
                    except BrokenProcessPool as error:
                        # A child died while the round was being submitted:
                        # this cell fails in matrix order, after the cells
                        # already submitted.
                        futures.append(Future())
                        futures[-1].set_exception(error)
                computed: List[List["ComputedJob"]] = []
                for cell, future in zip(cells, futures):
                    try:
                        computed.append(future.result())
                    except Exception as error:
                        for queued in futures:
                            queued.cancel()
                        raise SchedulingError(
                            f"cell {cell.index} ({cell.experiment} on "
                            f"{cell.configuration.key}) failed on the "
                            f"{self.name} backend: {type(error).__name__}: "
                            f"{error} (the round's queued cells were cancelled)"
                        ) from error
                return computed

            yield map_cells

    # Defined here because perfbench/layers.py wraps each class's own execute.
    def execute(self, request: ExecutionRequest) -> PoolSchedule:
        return super().execute(request)


#: The execution backends selectable by name (CLI ``--backend``).
EXECUTION_BACKENDS = {
    backend.name: backend
    for backend in (SimulatedBackend, ProcessPoolBackend)
}


def execution_backend(
    backend: Union[str, ExecutionBackend, None]
) -> ExecutionBackend:
    """Resolve a backend instance from a name, an instance, or None."""
    if backend is None:
        return SimulatedBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        return EXECUTION_BACKENDS[backend]()
    except KeyError:
        known = ", ".join(sorted(EXECUTION_BACKENDS))
        raise SchedulingError(
            f"unknown execution backend {backend!r} (known: {known})"
        ) from None


__all__ = [
    "CellWork",
    "CellMap",
    "compute_cells",
    "ExecutionRequest",
    "ExecutionBackend",
    "SimulatedBackend",
    "ProcessPoolBackend",
    "EXECUTION_BACKENDS",
    "execution_backend",
]
