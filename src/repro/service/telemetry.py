"""Live service telemetry: the supervised heartbeat worker and report rows.

The daemon's telemetry is event-first: every beat is a ``heartbeat``
lifecycle event whose payload is the full service snapshot (queue depth,
per-tenant backlog, worker utilisation, cache hit rate), published on the
same bus the campaigns report through — a ``FileEventSink`` or any other
observer sees scheduling and telemetry in one interleaved stream.

:class:`HeartbeatWorker` drives the beats from a background thread.  It is
*supervised* in the classic sense: the loop tolerates a bounded number of
consecutive beat failures (self-reporting each one), exits when the bound
is exceeded, and :meth:`HeartbeatWorker.supervise` restarts a dead worker
— so a single poisoned snapshot cannot silently kill telemetry forever.

The row helpers at the bottom shape ledger/queue/snapshot state for
``format_table`` and the status dashboard; the CLI and
:meth:`~repro.reporting.webpages.StatusPageGenerator.service_page` share
them so the terminal and the HTML never disagree.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.daemon import ValidationService
    from repro.service.queue import Submission
    from repro.service.tenants import TenantLedger


class HeartbeatWorker:
    """Background thread beating a :class:`ValidationService`'s telemetry.

    Each beat calls ``service.beat(source="worker")`` which emits one
    ``heartbeat`` lifecycle event.  *service* may be a ``weakref.proxy``
    (the daemon passes one to itself, so the two make no reference cycle);
    the thread exits once such a service is released.  Failures are counted
    and self-reported through :meth:`status`; after
    *max_consecutive_failures* in a row the thread exits and waits for
    :meth:`supervise` to restart it.
    """

    def __init__(
        self,
        service: "ValidationService",
        interval: float = 1.0,
        max_consecutive_failures: int = 3,
    ) -> None:
        self.service = service
        self.interval = interval
        self.max_consecutive_failures = max_consecutive_failures
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self.beats = 0
        self.failures = 0
        self.restarts = 0
        self.last_error: Optional[str] = None

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Start the worker thread (idempotent while it is alive)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-heartbeat", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Signal the worker to exit and wait for it."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)

    def _run(self) -> None:
        consecutive = 0
        while not self._stop.wait(self.interval):
            try:
                self.service.beat(source="worker")
            except ReferenceError:
                # A weak proxy to a service that was released: there is
                # nothing left to beat.
                return
            except Exception as error:  # noqa: BLE001 - self-reporting worker
                with self._lock:
                    self.failures += 1
                    # Keep the exception *type* alongside the message: a bare
                    # str(KeyError("x")) renders as just "'x'", which is
                    # useless on the dashboard.
                    self.last_error = f"{type(error).__name__}: {error}"
                consecutive += 1
                if consecutive >= self.max_consecutive_failures:
                    # Too many poisoned beats in a row: die visibly and
                    # let supervise() decide whether to restart.
                    return
            else:
                with self._lock:
                    self.beats += 1
                consecutive = 0

    @property
    def alive(self) -> bool:
        """True while the worker thread is running."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def supervise(self) -> bool:
        """Restart the worker if it died without being stopped.

        Returns True when a restart happened.  A worker that was never
        started, is still alive, or was deliberately stopped is left alone.
        """
        with self._lock:
            thread = self._thread
            if thread is None or thread.is_alive() or self._stop.is_set():
                return False
            self.restarts += 1
            self._thread = threading.Thread(
                target=self._run, name="repro-heartbeat", daemon=True
            )
            self._thread.start()
            return True

    def status(self) -> Dict[str, object]:
        """Self-reported worker health (shown on the dashboard)."""
        with self._lock:
            return {
                "alive": self.alive,
                "interval_seconds": self.interval,
                "beats": self.beats,
                "failures": self.failures,
                "restarts": self.restarts,
                "last_error": self.last_error or "",
            }


# -- report rows ---------------------------------------------------------------
def tenant_rows(
    ledger: "TenantLedger", backlog: Optional[Mapping[str, int]] = None
) -> List[Dict[str, object]]:
    """One row per registered tenant: policy + backlog + usage accounting."""
    backlog = backlog or {}
    rows = []
    for tenant in ledger.tenants():
        policy = ledger.policy(tenant)
        usage = ledger.usage(tenant)
        rows.append(
            {
                "tenant": tenant,
                "weight": policy.weight,
                "rate/s": policy.rate_per_second,
                "queued": backlog.get(tenant, 0),
                "submitted": usage.submissions,
                "completed": usage.completed,
                "failed": usage.failed,
                "cancelled": usage.cancelled,
                "rejected": usage.rejected,
                "cells": usage.cells,
                "build s": round(usage.build_seconds, 2),
                "cache hits": usage.cache_hits,
                "shared hits": usage.shared_hits,
                "donated": usage.donated_builds,
                "cache bytes": usage.cache_bytes,
            }
        )
    return rows


def submission_rows(
    submissions: Iterable["Submission"],
) -> List[Dict[str, object]]:
    """One row per submission, in arrival order."""
    rows = []
    for submission in sorted(submissions, key=lambda item: item.sequence):
        rows.append(
            {
                "submission": submission.submission_id,
                "tenant": submission.tenant,
                "priority": submission.priority,
                "status": submission.status,
                "campaign": submission.campaign_id or "-",
                "cells": submission.cells,
                "error": submission.error or "",
            }
        )
    return rows


def snapshot_rows(snapshot: Mapping[str, object]) -> List[Dict[str, object]]:
    """``metric`` / ``value`` rows for a service heartbeat snapshot."""
    rows = []
    for metric, value in snapshot.items():
        if metric == "backlog":
            value = ", ".join(
                f"{tenant}={count}"
                for tenant, count in sorted(value.items())  # type: ignore[union-attr]
            ) or "-"
        if isinstance(value, float):
            value = round(value, 4)
        rows.append({"metric": metric, "value": value})
    return rows


__all__ = [
    "HeartbeatWorker",
    "tenant_rows",
    "submission_rows",
    "snapshot_rows",
]
