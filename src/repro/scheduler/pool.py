"""A simulated worker pool dispatching the campaign DAG onto client slots.

The sp-system clients are small virtual machines; their
:class:`~repro.virtualization.resources.ResourceProfile` supplies the slots
(one task per CPU core).  The pool runs a deterministic event-driven
simulation: ready tasks are assigned by the selected
:class:`SchedulingPolicy` to the lowest-indexed worker with a free core,
time jumps to the next task completion or injected worker failure, and the
makespan is compared against the one-slot sequential execution.

Three policies ship with the pool: FIFO (today's DAG insertion order),
longest-task-first, and critical-path priority (tasks heading the longest
remaining dependency chain go first).  A policy only reorders the *ready*
queue — dependencies always gate dispatch — so it changes the timeline, never
the scientific output.  An optional deadline turns the schedule into a
deadline report: :meth:`PoolSchedule.late_cells` names the matrix cells that
finished after it.

Failure injection is first class: a :class:`WorkerFailure` kills a worker at
a simulated time, its in-flight tasks are requeued and retried on the
survivors, and a campaign with no surviving workers raises
:class:`~repro._common.SchedulingError` instead of deadlocking.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro._common import SchedulingError
from repro.scheduler.dag import CampaignDAG, CampaignTask
from repro.scheduler.lifecycle import (
    EVENT_DEADLINE_EXCEEDED,
    EarlyStopRequested,
    PluginRegistry,
)
from repro.virtualization.resources import (
    VALIDATION_VM_PROFILE,
    ResourceAccountant,
    ResourceProfile,
)

#: Resources one campaign task reserves on its worker: one core, and small
#: enough memory/disk demands that the core count is the binding constraint.
TASK_CPU_CORES = 1
TASK_MEMORY_GB = 1.0
TASK_DISK_GB = 5.0


def effective_slots_per_worker(profile: ResourceProfile) -> int:
    """Concurrent campaign tasks one worker of *profile* really runs.

    One slot per CPU core, unless memory or disk is the binding constraint
    — the same arithmetic the dispatch paths use via
    :meth:`~repro.virtualization.resources.ResourceAccountant.can_accommodate`,
    so reported ``slots_per_worker`` (and therefore ``total_slots`` and
    ``utilisation``) always describes the capacity that actually dispatched.
    """
    return min(
        profile.cpu_cores // TASK_CPU_CORES,
        int(profile.memory_gb // TASK_MEMORY_GB),
        int(profile.disk_gb // TASK_DISK_GB),
    )


@dataclass(frozen=True)
class WorkerFailure:
    """An injected failure: worker *worker_index* dies at *at_seconds*."""

    worker_index: int
    at_seconds: float

    def __post_init__(self) -> None:
        if self.at_seconds < 0:
            raise SchedulingError("a worker cannot fail before the campaign starts")


class SchedulingPolicy:
    """Decides which ready task a free worker slot picks up next.

    A policy maps each task to a priority tuple; the pool keeps the ready
    queue as a min-heap of ``(priority, dag_order, task_id)``, so every
    policy is deterministic — ties always fall back to DAG insertion order.
    Policies only see *ready* tasks (dependencies already satisfied), which
    is why they can never change what gets executed, only when.
    """

    #: Registry name, also used by the CLI ``--policy`` flag.
    name = "base"

    def prepare(self, dag: CampaignDAG) -> None:
        """Precompute any per-DAG state; called once per pool execution."""

    def priority(self, task: CampaignTask) -> Tuple:
        """Priority tuple of *task*; smaller sorts (and so dispatches) first."""
        raise NotImplementedError


class FifoPolicy(SchedulingPolicy):
    """DAG insertion order — the sequential path's order, today's default."""

    name = "fifo"

    def priority(self, task: CampaignTask) -> Tuple:
        return ()


class LongestTaskFirstPolicy(SchedulingPolicy):
    """Longest ready task first — classic LPT to even out worker finish times."""

    name = "longest-first"

    def priority(self, task: CampaignTask) -> Tuple:
        return (-task.duration_seconds,)


class CriticalPathPolicy(SchedulingPolicy):
    """Tasks heading the longest remaining dependency chain go first.

    The priority of a task is the length of the longest chain from the task
    (inclusive) to any sink of the DAG — its *downstream* critical path.
    Dispatching chain heads early keeps the pool from discovering late that
    the makespan is gated by an analysis chain it left for last.
    """

    name = "critical-path"

    def __init__(self) -> None:
        self._downstream: Dict[str, float] = {}

    def prepare(self, dag: CampaignDAG) -> None:
        # Tasks are stored dependencies-first, so a reverse sweep sees every
        # dependent before the tasks it depends on.
        self._downstream = {}
        dependents = dag.dependents()
        for task in reversed(dag.tasks()):
            self._downstream[task.task_id] = task.duration_seconds + max(
                (self._downstream[dependent] for dependent in dependents[task.task_id]),
                default=0.0,
            )

    def priority(self, task: CampaignTask) -> Tuple:
        return (-self._downstream.get(task.task_id, task.duration_seconds),)


#: The scheduling policies selectable by name (CLI ``--policy``).
SCHEDULING_POLICIES = {
    policy.name: policy
    for policy in (FifoPolicy, LongestTaskFirstPolicy, CriticalPathPolicy)
}


def scheduling_policy(policy: Union[str, SchedulingPolicy, None]) -> SchedulingPolicy:
    """Resolve a policy instance from a name, an instance, or None (FIFO)."""
    if policy is None:
        return FifoPolicy()
    if isinstance(policy, SchedulingPolicy):
        return policy
    try:
        return SCHEDULING_POLICIES[policy]()
    except KeyError:
        known = ", ".join(sorted(SCHEDULING_POLICIES))
        raise SchedulingError(
            f"unknown scheduling policy {policy!r} (known: {known})"
        ) from None


@dataclass(frozen=True)
class TaskAssignment:
    """One completed placement of a task on a worker."""

    task_id: str
    worker_index: int
    start_seconds: float
    end_seconds: float
    attempt: int


@dataclass
class PoolSchedule:
    """The simulated timeline the pool produced for one campaign DAG."""

    n_workers: int
    slots_per_worker: int
    makespan_seconds: float
    sequential_seconds: float
    critical_path_seconds: float
    assignments: List[TaskAssignment] = field(default_factory=list)
    n_retries: int = 0
    failed_workers: Tuple[int, ...] = ()
    busy_seconds_per_worker: Dict[int, float] = field(default_factory=dict)
    peak_concurrent_tasks: int = 0
    available_slot_seconds: float = 0.0
    policy: str = FifoPolicy.name
    deadline_seconds: Optional[float] = None
    cell_end_seconds: Dict[int, float] = field(default_factory=dict)
    #: Execution backend the campaign ran on.  Every backend reports this
    #: simulated timeline; only the cells' computation ran differently.
    backend: str = "simulated"

    @property
    def total_slots(self) -> int:
        """Concurrent task capacity of the healthy pool."""
        return self.n_workers * self.slots_per_worker

    @property
    def speedup(self) -> float:
        """Sequential makespan over pooled makespan."""
        if self.makespan_seconds <= 0:
            return 1.0
        return self.sequential_seconds / self.makespan_seconds

    @property
    def utilisation(self) -> float:
        """Busy slot-seconds over available slot-seconds.

        A worker that died mid-campaign only counts as available until its
        failure time, so the metric stays meaningful for failure-injection
        campaigns.
        """
        if self.available_slot_seconds <= 0:
            return 0.0
        return sum(self.busy_seconds_per_worker.values()) / self.available_slot_seconds

    def assignments_for_worker(self, worker_index: int) -> List[TaskAssignment]:
        """Completed assignments of one worker, in completion order."""
        return [
            assignment for assignment in self.assignments
            if assignment.worker_index == worker_index
        ]

    # -- deadline reporting -------------------------------------------------
    @property
    def met_deadline(self) -> bool:
        """True when the whole campaign finished by the deadline (or none set)."""
        return self.deadline_seconds is None or (
            self.makespan_seconds <= self.deadline_seconds
        )

    def late_cells(self, deadline_seconds: Optional[float] = None) -> List[int]:
        """Indices of matrix cells whose last task finished after the deadline.

        Uses the schedule's own deadline when *deadline_seconds* is omitted;
        without either, no cell is late.
        """
        deadline = (
            deadline_seconds if deadline_seconds is not None else self.deadline_seconds
        )
        if deadline is None:
            return []
        return sorted(
            cell_index
            for cell_index, end_seconds in self.cell_end_seconds.items()
            if end_seconds > deadline
        )


class SimulatedWorkerPool:
    """Executes a campaign DAG over N simulated sp-system client workers."""

    #: Backend named on the timeline, in the deadline event and in an abort
    #: error; an execution backend relabels the pool it reports with.
    backend = "simulated"

    def __init__(
        self,
        n_workers: int = 1,
        profile: ResourceProfile = VALIDATION_VM_PROFILE,
        failures: Sequence[WorkerFailure] = (),
        policy: Union[str, SchedulingPolicy, None] = None,
        deadline_seconds: Optional[float] = None,
        lifecycle: Optional[PluginRegistry] = None,
        campaign_id: Optional[str] = None,
    ) -> None:
        if n_workers < 1:
            raise SchedulingError("a worker pool needs at least one worker")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise SchedulingError("a campaign deadline must be positive")
        self.n_workers = n_workers
        self.profile = profile
        self.policy = scheduling_policy(policy)
        self.deadline_seconds = deadline_seconds
        #: Lifecycle bus notified once when simulated time passes the
        #: deadline; an abort policy's EarlyStopRequested propagates out of
        #: :meth:`execute` as a SchedulingError.
        self.lifecycle = lifecycle
        self.campaign_id = campaign_id
        for failure in failures:
            if not 0 <= failure.worker_index < n_workers:
                raise SchedulingError(
                    f"failure targets unknown worker {failure.worker_index}"
                )
        self.failures = sorted(
            failures, key=lambda f: (f.at_seconds, f.worker_index)
        )
        self.accountants: List[ResourceAccountant] = []

    def execute(self, dag: CampaignDAG) -> PoolSchedule:
        """Simulate dispatching *dag* and return the resulting timeline."""
        # Fresh accountants per execution: cumulative CPU-seconds from one
        # run must not leak into the next schedule's busy/utilisation numbers.
        self.accountants = [
            ResourceAccountant(self.profile) for _ in range(self.n_workers)
        ]
        tasks = dag.tasks()
        order_index = {task.task_id: index for index, task in enumerate(tasks)}
        dependents = dag.dependents()
        remaining_deps = {
            task.task_id: set(task.dependencies) for task in tasks
        }
        # Ready-queue entries are (policy priority, DAG order, task id): the
        # policy decides, DAG insertion order breaks every tie, so any policy
        # yields one deterministic timeline.
        self.policy.prepare(dag)

        def ready_entry(task_id: str) -> Tuple[Tuple, int, str]:
            return (
                self.policy.priority(dag.get(task_id)),
                order_index[task_id],
                task_id,
            )

        ready: List[Tuple[Tuple, int, str]] = [
            ready_entry(task.task_id) for task in tasks if not task.dependencies
        ]
        heapq.heapify(ready)
        pending_failures = list(self.failures)
        alive = [True] * self.n_workers
        # task_id -> (worker, start, attempt); end time kept in a heap.
        running: Dict[str, Tuple[int, float, int]] = {}
        end_heap: List[Tuple[float, int, str]] = []
        attempts: Dict[str, int] = {}
        assignments: List[TaskAssignment] = []
        death_times: Dict[int, float] = {}
        completed = 0
        retries = 0
        peak = 0
        now = 0.0
        deadline_notified = False

        def try_assign() -> None:
            nonlocal peak
            while ready:
                worker = next(
                    (
                        index for index in range(self.n_workers)
                        if alive[index] and self.accountants[index].can_accommodate(
                            TASK_CPU_CORES, TASK_MEMORY_GB, TASK_DISK_GB
                        )
                    ),
                    None,
                )
                if worker is None:
                    return
                task_id = heapq.heappop(ready)[2]
                task = dag.get(task_id)
                attempts[task_id] = attempts.get(task_id, 0) + 1
                self.accountants[worker].reserve(
                    task_id, TASK_CPU_CORES, TASK_MEMORY_GB, TASK_DISK_GB
                )
                running[task_id] = (worker, now, attempts[task_id])
                heapq.heappush(
                    end_heap, (now + task.duration_seconds, order_index[task_id], task_id)
                )
                peak = max(peak, len(running))

        while completed < len(tasks):
            # Kill workers whose failure time has arrived BEFORE handing out
            # new work: a worker must never receive a task at (or after) the
            # instant it dies, and a completion at exactly the failure time
            # has already been processed by the branch below.
            while pending_failures and pending_failures[0].at_seconds <= now:
                failure = pending_failures.pop(0)
                victim = failure.worker_index
                if not alive[victim]:
                    continue
                alive[victim] = False
                death_times[victim] = failure.at_seconds
                for task_id, (worker, start, _attempt) in sorted(
                    running.items(), key=lambda item: order_index[item[0]]
                ):
                    if worker != victim:
                        continue
                    # The partial execution is lost; the task is retried from
                    # scratch on a surviving worker.
                    self.accountants[worker].release(
                        task_id, cpu_seconds_used=max(0.0, now - start)
                    )
                    del running[task_id]
                    retries += 1
                    heapq.heappush(ready, ready_entry(task_id))
                end_heap = [
                    entry for entry in end_heap if entry[2] in running
                ]
                heapq.heapify(end_heap)
            try_assign()
            if not running:
                if not any(alive):
                    raise SchedulingError(
                        "every worker of the pool has failed; "
                        f"{len(tasks) - completed} task(s) cannot be scheduled"
                    )
                # Alive workers but nothing running and nothing assignable:
                # the DAG references work that can never become ready.
                raise SchedulingError(
                    "scheduler stalled with "
                    f"{len(tasks) - completed} unfinished task(s)"
                )
            next_end = end_heap[0][0]
            if pending_failures and pending_failures[0].at_seconds < next_end:
                # Advance to the failure; the sweep at the top of the loop
                # performs the kill before any reassignment.
                now = pending_failures[0].at_seconds
                continue
            # Drain every completion due at this instant in one go, so a
            # worker failure at the same timestamp cannot requeue a task
            # that had in fact finished.
            now = next_end
            due: List[str] = []
            while end_heap and end_heap[0][0] == now:
                due.append(heapq.heappop(end_heap)[2])
            for task_id in due:
                worker, start, attempt = running.pop(task_id)
                self.accountants[worker].release(task_id, cpu_seconds_used=now - start)
                assignments.append(
                    TaskAssignment(
                        task_id=task_id,
                        worker_index=worker,
                        start_seconds=start,
                        end_seconds=now,
                        attempt=attempt,
                    )
                )
                completed += 1
                for dependent in dependents[task_id]:
                    remaining = remaining_deps[dependent]
                    remaining.discard(task_id)
                    if not remaining and dependent not in running:
                        heapq.heappush(ready, ready_entry(dependent))
            # One deadline notification per execution, at the first drained
            # instant past the deadline — simulated clock, so the emission
            # point (and therefore any abort) is fully deterministic.
            if (
                self.deadline_seconds is not None
                and self.lifecycle is not None
                and not deadline_notified
                and now > self.deadline_seconds
            ):
                deadline_notified = True
                try:
                    self.lifecycle.emit(
                        EVENT_DEADLINE_EXCEEDED,
                        campaign_id=self.campaign_id,
                        payload={
                            "backend": self.backend,
                            "deadline_seconds": self.deadline_seconds,
                            "elapsed_seconds": now,
                        },
                    )
                except EarlyStopRequested as stop:
                    raise SchedulingError(
                        f"campaign aborted on the {self.backend} backend: {stop} "
                        f"({len(tasks) - completed} unfinished task(s) "
                        "cancelled)"
                    ) from stop

        cell_end_seconds: Dict[int, float] = {}
        for assignment in assignments:
            cell_index = dag.get(assignment.task_id).cell_index
            cell_end_seconds[cell_index] = max(
                cell_end_seconds.get(cell_index, 0.0), assignment.end_seconds
            )
        # Report the slot count the dispatch loop really used: one per core
        # unless memory or disk is the binding constraint (the accountants
        # enforce all three).  Reporting raw cpu_cores here used to inflate
        # total_slots and available_slot_seconds — and so deflate utilisation
        # — whenever memory or disk bound the worker.
        slots_per_worker = effective_slots_per_worker(self.profile)
        return PoolSchedule(
            n_workers=self.n_workers,
            slots_per_worker=slots_per_worker,
            makespan_seconds=now,
            sequential_seconds=dag.total_seconds(),
            critical_path_seconds=dag.critical_path_seconds(),
            assignments=assignments,
            n_retries=retries,
            failed_workers=tuple(
                index for index, ok in enumerate(alive) if not ok
            ),
            busy_seconds_per_worker={
                index: accountant.total_cpu_seconds
                for index, accountant in enumerate(self.accountants)
            },
            peak_concurrent_tasks=peak,
            available_slot_seconds=sum(
                min(death_times.get(index, now), now) * slots_per_worker
                for index in range(self.n_workers)
            ),
            policy=self.policy.name,
            deadline_seconds=self.deadline_seconds,
            cell_end_seconds=cell_end_seconds,
            backend=self.backend,
        )


__all__ = [
    "effective_slots_per_worker",
    "WorkerFailure",
    "SchedulingPolicy",
    "FifoPolicy",
    "LongestTaskFirstPolicy",
    "CriticalPathPolicy",
    "SCHEDULING_POLICIES",
    "scheduling_policy",
    "TaskAssignment",
    "PoolSchedule",
    "SimulatedWorkerPool",
]
