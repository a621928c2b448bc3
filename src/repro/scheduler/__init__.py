"""Campaign scheduling: parallel validation campaigns over a worker pool.

The sp-system validates "as a regular, automated operation" every preserved
experiment on every preserved environment.  This package turns that matrix of
(experiment, configuration) cells into a job DAG, executes it over a
configurable simulated worker pool, and layers a content-hash keyed build
cache over the package builder so identical builds are compiled once and
reused — while guaranteeing bit-identical :class:`~repro.core.jobs.ValidationRun`
output versus the plain sequential path.
"""

from repro.scheduler.backends import (
    EXECUTION_BACKENDS,
    ExecutionBackend,
    ExecutionRequest,
    SimulatedBackend,
    execution_backend,
)
from repro.scheduler.cache import (
    BuildCache,
    CacheStatistics,
    CachingPackageBuilder,
    package_identity_digest,
)
from repro.scheduler.campaign import CampaignCell, CampaignResult, CampaignScheduler
from repro.scheduler.dag import CampaignDAG, CampaignTask, TaskKind
from repro.scheduler.spec import DEFAULT_BATCH_SIZE, CampaignSpec, ValidationRequest
from repro.scheduler.pool import (
    SCHEDULING_POLICIES,
    CriticalPathPolicy,
    FifoPolicy,
    LongestTaskFirstPolicy,
    PoolSchedule,
    SchedulingPolicy,
    SimulatedWorkerPool,
    TaskAssignment,
    WorkerFailure,
    scheduling_policy,
)

__all__ = [
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "ExecutionRequest",
    "SimulatedBackend",
    "execution_backend",
    "DEFAULT_BATCH_SIZE",
    "CampaignSpec",
    "ValidationRequest",
    "BuildCache",
    "CacheStatistics",
    "CachingPackageBuilder",
    "package_identity_digest",
    "CampaignCell",
    "CampaignResult",
    "CampaignScheduler",
    "CampaignDAG",
    "CampaignTask",
    "TaskKind",
    "PoolSchedule",
    "SchedulingPolicy",
    "FifoPolicy",
    "LongestTaskFirstPolicy",
    "CriticalPathPolicy",
    "SCHEDULING_POLICIES",
    "scheduling_policy",
    "SimulatedWorkerPool",
    "TaskAssignment",
    "WorkerFailure",
]
