"""The validation-as-a-service daemon: queue in, campaigns out.

:class:`ValidationService` is the long-running front door of an
installation: many tenants submit :class:`~repro.scheduler.spec.CampaignSpec`
documents concurrently, the daemon queues them under fair-share scheduling
(:mod:`repro.service.queue`), enforces per-tenant token-bucket rate limits
and bills usage (:mod:`repro.service.tenants`), and dispatches **one
campaign at a time** through the one sanctioned execution entrypoint,
:meth:`SPSystem.submit`.  Serialised dispatch is a feature, not a
limitation: it is what keeps a hundred interleaved multi-tenant campaigns
byte-identical to a serial replay of the same specs — concurrency lives at
the queue, determinism lives at the executor.

Durability: accepted submissions are persisted as ``queued_<id>``
documents in the mirrored ``service`` namespace the moment they are
accepted, and rewritten as ``submission_<id>`` records when they finish.
A daemon constructed over a reloaded storage replays the queued documents
(and the tenant ledger) and resumes exactly where its predecessor stopped
— a crash between acceptance and dispatch loses nothing.

Telemetry: every accepted/started/cancelled submission and every rate
limiting decision is a lifecycle event on the system's plugin bus, and
:meth:`beat` publishes full service snapshots as ``heartbeat`` events plus
a live dashboard page.  The bus is not thread-safe, so the daemon holds
its own lock around *every* emission — including the campaign's own
events, by executing :meth:`SPSystem.submit` under the lock.

This module is deliberately execution-free: it never constructs an
execution backend or a campaign scheduler (the service-purity audit in
``scripts/ci.sh`` enforces that), so every queued campaign flows through
exactly the same code path as a directly-submitted one.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Dict, Iterable, List, Optional

from repro._common import ReproError, SchedulingError
from repro.core.spsystem import SPSystem
from repro.scheduler.spec import CampaignSpec
from repro.scheduler.lifecycle import (
    EVENT_HEARTBEAT,
    EVENT_SUBMISSION_CANCELLED,
    EVENT_SUBMISSION_QUEUED,
    EVENT_SUBMISSION_STARTED,
    EVENT_TENANT_THROTTLED,
)
from repro.service.queue import (
    STATUS_CANCELLED,
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_RUNNING,
    Submission,
    SubmissionQueue,
)
from repro.service.tenants import (
    SERVICE_NAMESPACE,
    ServiceRateLimited,
    TenantLedger,
    TenantPolicy,
    TokenBucket,
    monotonic_clock,
)
from repro.service.telemetry import (
    HeartbeatWorker,
    snapshot_rows,
    submission_rows,
    tenant_rows,
)
from repro.storage.common_storage import CommonStorage


#: Tenants that submit without a registered policy get this template
#: (re-targeted at their name): weight 1, no rate limit.
DEFAULT_POLICY = TenantPolicy(name="default", weight=1, rate_per_second=0.0)


class ValidationService:
    """A multi-tenant submission daemon over one :class:`SPSystem`."""

    QUEUED_PREFIX = "queued_"
    RECORD_PREFIX = "submission_"
    WORKER_STATUS_KEY = "heartbeat_worker"

    def __init__(
        self,
        system: SPSystem,
        tenants: Iterable[TenantPolicy] = (),
        clock: Optional[Callable[[], float]] = None,
        default_policy: Optional[TenantPolicy] = DEFAULT_POLICY,
        heartbeat_every: int = 1,
        heartbeat_interval: float = 1.0,
        dashboard: bool = True,
        warm_start: bool = True,
    ) -> None:
        self.system = system
        self.clock = clock or monotonic_clock
        self.default_policy = default_policy
        self.heartbeat_every = heartbeat_every
        self.dashboard = dashboard
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._namespace = system.storage.create_namespace(SERVICE_NAMESPACE)
        self.ledger = TenantLedger(system.storage)
        for policy in tenants:
            self.ledger.register(policy)
        self.queue = SubmissionQueue()
        self._buckets: Dict[str, Optional[TokenBucket]] = {}
        self._submissions: Dict[str, Submission] = {}
        #: Enqueue clock times for still-queued submissions, so dispatch can
        #: report the queue wait -> dispatch latency per tenant.
        self._enqueued_at: Dict[str, float] = {}
        self._counter = 0
        self._running: Optional[Submission] = None
        self._dispatched = 0
        self._beats = 0
        self._utilisation_sum = 0.0
        self._utilisation_count = 0
        #: Dispatch order (submission IDs) — the serial-replay recipe that
        #: reproduces this daemon's output byte-for-byte.
        self.dispatch_order: List[str] = []
        # A proxy, not self: the worker's back-reference would otherwise make
        # a cycle that only a full garbage collection frees, keeping the
        # system's storage alive until then.
        self.heartbeat = HeartbeatWorker(
            weakref.proxy(self), interval=heartbeat_interval
        )
        if warm_start:
            # Baseline the shared cache before any accounting delta is
            # taken: a mid-campaign warm-start probe swapping the cache
            # underneath the ledger would mis-bill inherited entries.
            system.restore_build_cache(missing_ok=True)
        self._resume_persisted()

    # -- durability ------------------------------------------------------------
    def _resume_persisted(self) -> None:
        """Replay persisted queue + records left by a previous daemon."""
        for key in self._namespace.keys(prefix=self.RECORD_PREFIX):
            submission = Submission.from_dict(self._namespace.get(key))  # type: ignore[arg-type]
            self._submissions[submission.submission_id] = submission
            self._counter = max(self._counter, submission.sequence)
        queued = [
            Submission.from_dict(self._namespace.get(key))  # type: ignore[arg-type]
            for key in self._namespace.keys(prefix=self.QUEUED_PREFIX)
        ]
        for submission in sorted(queued, key=lambda item: item.sequence):
            submission._service = weakref.ref(self)
            self._counter = max(self._counter, submission.sequence)
            self._submissions[submission.submission_id] = submission
            self._ensure_tenant(submission.tenant)
            self.queue.enqueue(submission)

    def _persist_queued(self, submission: Submission) -> None:
        self._namespace.put(
            f"{self.QUEUED_PREFIX}{submission.submission_id}",
            submission.to_dict(),
        )

    def _retire_queued(self, submission: Submission) -> None:
        key = f"{self.QUEUED_PREFIX}{submission.submission_id}"
        if self._namespace.exists(key):
            self._namespace.delete(key)
        self._namespace.put(
            f"{self.RECORD_PREFIX}{submission.submission_id}",
            submission.to_dict(),
        )

    # -- tenants ---------------------------------------------------------------
    def register_tenant(self, policy: TenantPolicy) -> TenantPolicy:
        """Register (or update) a tenant's policy; resets its rate bucket."""
        with self._lock:
            registered = self.ledger.register(policy)
            self._buckets[policy.name] = policy.bucket()
            return registered

    def _ensure_tenant(self, tenant: str) -> TenantPolicy:
        if not self.ledger.knows(tenant):
            if self.default_policy is None:
                raise SchedulingError(
                    f"unknown tenant {tenant!r}; register a TenantPolicy first"
                )
            self.register_tenant(self.default_policy.for_tenant(tenant))
        if tenant not in self._buckets:
            self._buckets[tenant] = self.ledger.policy(tenant).bucket()
        return self.ledger.policy(tenant)

    # -- intake ----------------------------------------------------------------
    def submit(
        self, tenant: str, spec: CampaignSpec, priority: str = "normal"
    ) -> Submission:
        """Accept one campaign submission from *tenant* (or rate-limit it).

        Thread-safe.  On acceptance the submission is queued, persisted and
        announced as a ``submission_queued`` event; on rejection a
        ``tenant_throttled`` event fires and :class:`ServiceRateLimited`
        (carrying ``retry_after``) is raised.
        """
        with self._lock:
            self._ensure_tenant(tenant)
            bucket = self._buckets.get(tenant)
            if bucket is not None:
                granted, retry_after = bucket.try_take(self.clock())
                if not granted:
                    self.ledger.record_rejected(tenant)
                    self.system.lifecycle.emit(
                        EVENT_TENANT_THROTTLED,
                        payload={
                            "tenant": tenant,
                            "retry_after_seconds": (
                                -1.0
                                if retry_after == float("inf")
                                else round(retry_after, 6)
                            ),
                            "queue_depth": self.queue.depth(),
                        },
                    )
                    raise ServiceRateLimited(tenant, retry_after)
            self._counter += 1
            submission = Submission(
                submission_id=f"sub-{self._counter:06d}",
                tenant=tenant,
                spec=spec,
                priority=priority,
                sequence=self._counter,
                _service=weakref.ref(self),
            )
            self._submissions[submission.submission_id] = submission
            self.queue.enqueue(submission)
            self._enqueued_at[submission.submission_id] = self.clock()
            self._persist_queued(submission)
            self.ledger.record_queued(tenant)
            self.system.lifecycle.emit(
                EVENT_SUBMISSION_QUEUED,
                payload={
                    "submission": submission.submission_id,
                    "tenant": tenant,
                    "priority": priority,
                    "queue_depth": self.queue.depth(),
                },
            )
            return submission

    def cancel(self, submission_id: str) -> Submission:
        """Cancel a still-queued submission (raises once it dispatched)."""
        with self._lock:
            submission = self.queue.cancel(submission_id)
            self._enqueued_at.pop(submission_id, None)
            submission.status = STATUS_CANCELLED
            self._retire_queued(submission)
            self.ledger.record_cancelled(submission.tenant)
            self.system.lifecycle.emit(
                EVENT_SUBMISSION_CANCELLED,
                payload={
                    "submission": submission.submission_id,
                    "tenant": submission.tenant,
                    "queue_depth": self.queue.depth(),
                },
            )
            return submission

    def submission(self, submission_id: str) -> Submission:
        """Look up a submission by ID (queued, running or finished)."""
        with self._lock:
            try:
                return self._submissions[submission_id]
            except KeyError:
                raise SchedulingError(
                    f"unknown submission {submission_id!r}"
                ) from None

    def submissions(self) -> List[Submission]:
        """Every known submission, in arrival order."""
        with self._lock:
            return sorted(
                self._submissions.values(), key=lambda item: item.sequence
            )

    # -- dispatch --------------------------------------------------------------
    def run_next(self) -> Optional[Submission]:
        """Dispatch the next fair-share submission; ``None`` on empty queue.

        The campaign executes under the service lock (the lifecycle bus is
        not thread-safe), so concurrent ``submit`` calls block for the
        duration of one campaign, then interleave between campaigns.
        """
        with self._lock:
            submission = self.queue.next_submission(self.ledger.weights())
            if submission is None:
                return None
            submission.status = STATUS_RUNNING
            self._running = submission
            self.dispatch_order.append(submission.submission_id)
            telemetry = self.system.telemetry
            enqueued_at = self._enqueued_at.pop(submission.submission_id, None)
            if enqueued_at is not None:
                telemetry.metrics.observe(
                    "service_queue_wait_seconds",
                    max(0.0, self.clock() - enqueued_at),
                    tenant=submission.tenant,
                )
            self.system.lifecycle.emit(
                EVENT_SUBMISSION_STARTED,
                payload={
                    "submission": submission.submission_id,
                    "tenant": submission.tenant,
                    "priority": submission.priority,
                    "queue_depth": self.queue.depth(),
                },
            )
            try:
                with telemetry.tracer.span(
                    "service_dispatch",
                    category="service",
                    submission=submission.submission_id,
                    tenant=submission.tenant,
                ):
                    self._execute(submission)
            finally:
                self._running = None
                self._dispatched += 1
                self._retire_queued(submission)
                if (
                    self.heartbeat_every > 0
                    and self._dispatched % self.heartbeat_every == 0
                ):
                    self.beat(source="dispatch")
            return submission

    def _execute(self, submission: Submission) -> None:
        cache = self.system.effective_build_cache()
        bytes_before = cache.total_size_bytes()
        hits_before = cache.statistics.hits
        shared_before = cache.statistics.shared_hits
        donated_before = dict(cache.statistics.donated_by_experiment)
        try:
            handle = self.system.submit(submission.spec)
            campaign = handle.result()
        except ReproError as error:
            submission.status = STATUS_FAILED
            submission.error = str(error)
            self.ledger.record_failed(submission.tenant)
            return
        submission.status = STATUS_COMPLETED
        submission.campaign_id = handle.campaign_id
        submission.cells = len(campaign.cells)
        # Re-read the cache: the warm-start probe inside SPSystem.submit
        # may have swapped the instance on the first dispatch.
        cache = self.system.effective_build_cache()
        self._utilisation_sum += campaign.schedule.utilisation
        self._utilisation_count += 1
        experiments = sorted({cell.experiment for cell in campaign.cells})
        self.ledger.record_completed(
            submission.tenant,
            cells=len(campaign.cells),
            build_seconds=sum(
                campaign.schedule.busy_seconds_per_worker.values()
            ),
            cache_bytes=max(0, cache.total_size_bytes() - bytes_before),
            cache_hits=max(0, cache.statistics.hits - hits_before),
            shared_hits=max(0, cache.statistics.shared_hits - shared_before),
            experiments=experiments,
        )
        for experiment, count in sorted(
            cache.statistics.donated_by_experiment.items()
        ):
            self.ledger.credit_donation(
                experiment, count - donated_before.get(experiment, 0)
            )

    def run_pending(
        self, max_submissions: Optional[int] = None
    ) -> List[Submission]:
        """Drain the queue (up to *max_submissions*); returns what ran."""
        processed: List[Submission] = []
        while max_submissions is None or len(processed) < max_submissions:
            submission = self.run_next()
            if submission is None:
                break
            processed.append(submission)
        return processed

    def serve_forever(self, poll_seconds: float = 0.1) -> int:
        """Serve until :meth:`stop` is called; returns submissions run.

        Supervises the heartbeat worker on every idle poll, so a dead
        telemetry thread restarts without operator action.
        """
        served = 0
        self._stop.clear()
        while not self._stop.is_set():
            submission = self.run_next()
            if submission is not None:
                served += 1
                continue
            self.heartbeat.supervise()
            self.queue.wait_for_work(timeout=poll_seconds)
        return served

    def stop(self) -> None:
        """Ask :meth:`serve_forever` to exit after the current campaign."""
        self._stop.set()

    # -- telemetry -------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The full telemetry snapshot published by every heartbeat."""
        with self._lock:
            cache = self.system.effective_build_cache()
            running = self._running
            return {
                "queue_depth": self.queue.depth(),
                "backlog": self.queue.backlog(),
                "running": running.submission_id if running else "",
                "tenants": len(self.ledger.tenants()),
                "dispatched": self._dispatched,
                "completed": sum(
                    1
                    for item in self._submissions.values()
                    if item.status == STATUS_COMPLETED
                ),
                "failed": sum(
                    1
                    for item in self._submissions.values()
                    if item.status == STATUS_FAILED
                ),
                "cancelled": sum(
                    1
                    for item in self._submissions.values()
                    if item.status == STATUS_CANCELLED
                ),
                "beats": self._beats,
                "worker_utilisation": (
                    self._utilisation_sum / self._utilisation_count
                    if self._utilisation_count
                    else 0.0
                ),
                "cache_entries": len(cache),
                "cache_hit_rate": cache.statistics.hit_rate,
                "cache_bytes": cache.total_size_bytes(),
            }

    def beat(self, source: str = "manual") -> Dict[str, object]:
        """Publish one heartbeat: lifecycle event + dashboard refresh."""
        with self._lock:
            snapshot = self.snapshot()
            snapshot["source"] = source
            self._beats += 1
            snapshot["beats"] = self._beats
            telemetry = self.system.telemetry
            if telemetry.enabled:
                # Fold the live metric series into the heartbeat payload so
                # a FileEventSink stream doubles as a coarse metrics scrape.
                snapshot["metrics"] = {
                    series: value
                    for _, series, value in telemetry.metrics.summary_rows()
                }
            self.system.lifecycle.emit(EVENT_HEARTBEAT, payload=snapshot)
            # Persist the worker's self-reported health alongside the queue
            # documents, so an offline `repro queue status` can show the
            # last beat failure of a daemon that is no longer running.
            self._namespace.put(self.WORKER_STATUS_KEY, self.heartbeat.status())
            if self.dashboard:
                self.publish_dashboard()
            return snapshot

    def publish_dashboard(self) -> str:
        """Render the live service page into the ``reports`` namespace."""
        from repro.reporting.webpages import StatusPageGenerator

        with self._lock:
            pages = StatusPageGenerator(self.system.storage)
            telemetry = self.system.telemetry
            return pages.service_page(
                snapshot=snapshot_rows(self.snapshot()),
                tenants=tenant_rows(self.ledger, backlog=self.queue.backlog()),
                submissions=submission_rows(self.submissions()),
                worker=self.heartbeat.status(),
                metrics=(
                    telemetry.metrics.summary_rows()
                    if telemetry.enabled
                    else None
                ),
            )

    def status_rows(self) -> List[Dict[str, object]]:
        """``metric``/``value`` rows for ``repro queue status``."""
        return snapshot_rows(self.snapshot())


# -- storage-level queue inspection (no live system required) ------------------
def load_submissions(storage: CommonStorage) -> List[Submission]:
    """Every persisted submission (queued + finished), in arrival order.

    Reads the ``service`` namespace only — ``repro queue status`` inspects
    a daemon's storage without provisioning a system.
    """
    if SERVICE_NAMESPACE not in storage.namespaces():
        return []
    submissions = []
    for prefix in (ValidationService.QUEUED_PREFIX, ValidationService.RECORD_PREFIX):
        for key in storage.keys(SERVICE_NAMESPACE, prefix=prefix):
            submissions.append(
                Submission.from_dict(storage.get(SERVICE_NAMESPACE, key))  # type: ignore[arg-type]
            )
    return sorted(submissions, key=lambda item: item.sequence)


def cancel_persisted(storage: CommonStorage, submission_id: str) -> Submission:
    """Cancel a persisted *queued* submission directly in storage.

    The offline counterpart of :meth:`ValidationService.cancel` for
    ``repro queue cancel``: flips the queued document into a cancelled
    record so the next daemon never dispatches it.  (No lifecycle event —
    there is no live bus; the record itself is the audit trail.)
    """
    key = f"{ValidationService.QUEUED_PREFIX}{submission_id}"
    if (
        SERVICE_NAMESPACE not in storage.namespaces()
        or not storage.exists(SERVICE_NAMESPACE, key)
    ):
        raise SchedulingError(
            f"submission {submission_id!r} is not queued in this storage"
        )
    namespace = storage.namespace(SERVICE_NAMESPACE)
    submission = Submission.from_dict(namespace.get(key))  # type: ignore[arg-type]
    submission.status = STATUS_CANCELLED
    namespace.delete(key)
    namespace.put(
        f"{ValidationService.RECORD_PREFIX}{submission_id}",
        submission.to_dict(),
    )
    ledger = TenantLedger(storage)
    if ledger.knows(submission.tenant):
        ledger.record_cancelled(submission.tenant)
    return submission


__all__ = [
    "DEFAULT_POLICY",
    "ValidationService",
    "load_submissions",
    "cancel_persisted",
]
