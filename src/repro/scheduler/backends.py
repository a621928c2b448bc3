"""Execution backends: where a campaign computes its cells.

The campaign scheduler works a round of (experiment, configuration) cells
in three passes: it builds every cell in matrix order, lets the backend
map :meth:`~repro.core.runner.ValidationRunner.compute` (checker,
executors and chain skips: nearly all of a cell's time) over the round,
and stamps the computed cells in matrix order.  Only the map differs
between backends, and the computation is a pure function of its cell, so
every backend records byte-identical science:

* :class:`SimulatedBackend` computes the cells inline, one after another;
* :class:`ThreadPoolBackend` on ``workers x slots_per_worker`` threads;
* :class:`ProcessPoolBackend` in as many processes, forked once per
  campaign: executors are closures that do not pickle, so the children
  inherit the system, and only a :class:`CellWork` goes out and its
  computed jobs come back;
* :class:`ShardedBackend` round-robins a round's cells over ``shards``
  forked processes, one task per shard.

Every backend reports the same kind of timeline: the deterministic
:class:`~repro.scheduler.pool.SimulatedWorkerPool` dispatch of the DAG
derived from the recorded runs (one single-slot worker per shard on the
sharded backend).  A deadline therefore counts timeline seconds
everywhere.  Worker failure injection belongs to that simulation and only
the simulated backend accepts it.  A map that cannot finish (a child
process dies, a computed job does not pickle) raises a
:class:`~repro._common.SchedulingError` naming the backend and the first
unfinished cell, after cancelling the round's queued cells.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    ContextManager,
    Dict,
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
    #: Shard count for the sharded backend (None lets the backend default to
    #: the worker count); ignored by every other backend.
    shards: Optional[int] = None
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


def _reject_failure_injection(backend: ExecutionBackend, request: ExecutionRequest) -> None:
    if request.failures:
        raise SchedulingError(
            "worker failure injection requires the simulated backend; "
            f"the {backend.name} backend executes for real"
        )


def _pooled_map(
    backend: ExecutionBackend,
    submit: Callable[[Sequence[CellWork]], Future],
    shards: Optional[int] = None,
) -> CellMap:
    """A map submitting one task per cell, or one per shard of the round."""

    def map_cells(cells: Sequence[CellWork]) -> List[List["ComputedJob"]]:
        # Round-robin groups: one per shard, or one per cell when unsharded.
        size = shards or len(cells)
        groups = [cells[start::size] for start in range(min(size, len(cells)))]
        futures = [submit(group) for group in groups]
        computed: Dict[int, List["ComputedJob"]] = {}
        for group, future in zip(groups, futures):
            try:
                computed.update(zip((cell.index for cell in group), future.result()))
            except Exception as error:
                for queued in futures:
                    queued.cancel()
                cell = group[0]
                raise SchedulingError(
                    f"cell {cell.index} ({cell.experiment} on "
                    f"{cell.configuration.key}) failed on the {backend.name} "
                    f"backend: {type(error).__name__}: {error} "
                    "(the round's queued cells were cancelled)"
                ) from error
        return [computed[index] for index in sorted(computed)]

    return map_cells


#: The system a forked pool child computes cells for.
_child_system: Optional["SPSystem"] = None


def _adopt_system(system: "SPSystem") -> None:
    """Pool initializer, run in each child right after the fork."""
    global _child_system
    _child_system = system


def _compute_in_child(cells: Sequence[CellWork]) -> List[List["ComputedJob"]]:
    return compute_cells(_child_system, cells)


@contextmanager
def _forked_map(
    backend: ExecutionBackend, system: "SPSystem", processes: int, shards=None
) -> Iterator[CellMap]:
    """A pooled map over *processes* children forked at its first submission.

    Under the fork start method ``initargs`` are inherited, not pickled, so
    the children get the system with its executor closures as it was then.
    """
    with ProcessPoolExecutor(
        max_workers=processes,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_system,
        initargs=(system,),
    ) as pool:
        yield _pooled_map(
            backend, lambda cells: pool.submit(_compute_in_child, cells), shards
        )


class SimulatedBackend(ExecutionBackend):
    """Computes a round's cells inline, one after another (the default)."""

    name = "simulated"

    # Defined here because perfbench/layers.py wraps each class's own execute.
    def execute(self, request: ExecutionRequest) -> PoolSchedule:
        return super().execute(request)


class ThreadPoolBackend(ExecutionBackend):
    """Computes a round's cells on ``workers x slots_per_worker`` threads."""

    name = "threads"

    @contextmanager
    def cell_map(
        self, system: "SPSystem", request: ExecutionRequest
    ) -> Iterator[CellMap]:
        with ThreadPoolExecutor(request.slots, "sp-campaign") as pool:
            yield _pooled_map(
                self, lambda cells: pool.submit(compute_cells, system, cells)
            )

    # Defined here because perfbench/layers.py wraps each class's own execute.
    def execute(self, request: ExecutionRequest) -> PoolSchedule:
        _reject_failure_injection(self, request)
        return super().execute(request)


class ProcessPoolBackend(ExecutionBackend):
    """Computes a round's cells in forked processes, one task per cell."""

    name = "processes"

    def cell_map(
        self, system: "SPSystem", request: ExecutionRequest
    ) -> ContextManager[CellMap]:
        return _forked_map(self, system, request.slots)

    # Defined here because perfbench/layers.py wraps each class's own execute.
    def execute(self, request: ExecutionRequest) -> PoolSchedule:
        _reject_failure_injection(self, request)
        return super().execute(request)


class ShardedBackend(ExecutionBackend):
    """Round-robins a round's cells over N forked processes, a task per shard.

    Its timeline has one single-slot worker per shard and carries the shard
    count in ``PoolSchedule.shards``.
    """

    name = "sharded"

    def __init__(self, shards: Optional[int] = None) -> None:
        self.shards = shards

    def _shard_count(self, request: ExecutionRequest) -> int:
        shards = self.shards if self.shards is not None else request.shards
        shards = request.workers if shards is None else shards
        if shards < 1:
            raise SchedulingError("a sharded campaign needs at least one shard")
        return shards

    def cell_map(
        self, system: "SPSystem", request: ExecutionRequest
    ) -> ContextManager[CellMap]:
        shards = self._shard_count(request)
        return _forked_map(self, system, shards, shards)

    # Defined here because perfbench/layers.py wraps each class's own execute.
    def execute(self, request: ExecutionRequest) -> PoolSchedule:
        _reject_failure_injection(self, request)
        shards = self._shard_count(request)
        profile = dataclasses.replace(request.worker_profile, cpu_cores=1)
        schedule = super().execute(
            dataclasses.replace(request, workers=shards, worker_profile=profile)
        )
        schedule.shards = shards
        return schedule


#: The execution backends selectable by name (CLI ``--backend``).
EXECUTION_BACKENDS = {
    backend.name: backend
    for backend in (
        SimulatedBackend,
        ThreadPoolBackend,
        ProcessPoolBackend,
        ShardedBackend,
    )
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
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "ShardedBackend",
    "EXECUTION_BACKENDS",
    "execution_backend",
]
