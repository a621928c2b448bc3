"""The campaign job DAG: what a validation campaign has to execute.

Expanding a validation matrix produces, per (experiment, configuration) cell:
one build task per package (edges follow the package dependency graph),
standalone tests grouped into batches that wait for the builds, and analysis
chain steps linked sequentially.  Cells are independent of each other, which
is exactly the parallelism the worker pool exploits.

Tasks must be added dependencies-first, so the insertion order of a valid DAG
is already a topological order — the pool relies on that for deterministic
dispatch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro._common import SchedulingError


class TaskKind(enum.Enum):
    """What a campaign task does on its worker slot."""

    BUILD = "build"
    TEST_BATCH = "test-batch"
    CHAIN_STEP = "chain-step"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class CampaignTask:
    """One schedulable unit of campaign work."""

    task_id: str
    kind: TaskKind
    cell_index: int
    experiment: str
    configuration_key: str
    duration_seconds: float
    dependencies: Tuple[str, ...] = ()
    n_tests: int = 1

    def __post_init__(self) -> None:
        if self.duration_seconds < 0:
            raise SchedulingError(f"task {self.task_id!r} has negative duration")


class CampaignDAG:
    """Directed acyclic graph of campaign tasks, insertion-ordered."""

    def __init__(self) -> None:
        self._tasks: Dict[str, CampaignTask] = {}

    def add(self, task: CampaignTask) -> None:
        """Add a task; its dependencies must already be present."""
        if task.task_id in self._tasks:
            raise SchedulingError(f"task {task.task_id!r} already in the DAG")
        for dependency in task.dependencies:
            if dependency not in self._tasks:
                raise SchedulingError(
                    f"task {task.task_id!r} depends on unknown task {dependency!r}"
                )
        self._tasks[task.task_id] = task

    def get(self, task_id: str) -> CampaignTask:
        """Return the task with the given ID."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise SchedulingError(f"no task {task_id!r} in the DAG") from None

    def tasks(self) -> List[CampaignTask]:
        """All tasks in insertion (= topological) order."""
        return list(self._tasks.values())

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def dependents(self) -> Dict[str, List[str]]:
        """Mapping task ID -> IDs of tasks that depend on it."""
        result: Dict[str, List[str]] = {task_id: [] for task_id in self._tasks}
        for task in self._tasks.values():
            for dependency in task.dependencies:
                result[dependency].append(task.task_id)
        return result

    def total_seconds(self) -> float:
        """Summed duration of every task: the one-slot sequential makespan."""
        return sum(task.duration_seconds for task in self._tasks.values())

    def critical_path_seconds(self) -> float:
        """Length of the longest dependency chain: the parallel lower bound."""
        finish: Dict[str, float] = {}
        longest = 0.0
        for task in self._tasks.values():
            start = max((finish[d] for d in task.dependencies), default=0.0)
            finish[task.task_id] = start + task.duration_seconds
            longest = max(longest, finish[task.task_id])
        return longest

    def tasks_for_cell(self, cell_index: int) -> List[CampaignTask]:
        """All tasks of one matrix cell, in order."""
        return [task for task in self._tasks.values() if task.cell_index == cell_index]

    def counts_by_kind(self) -> Dict[str, int]:
        """How many tasks of each kind the DAG holds."""
        counts: Dict[str, int] = {}
        for task in self._tasks.values():
            counts[task.kind.value] = counts.get(task.kind.value, 0) + 1
        return counts


__all__ = ["TaskKind", "CampaignTask", "CampaignDAG"]
