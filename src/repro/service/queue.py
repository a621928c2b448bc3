"""The multi-tenant submission queue: priority lanes + weighted fair share.

A :class:`Submission` is one tenant's request to run a
:class:`~repro.scheduler.spec.CampaignSpec`; the :class:`SubmissionQueue`
holds submissions from many tenants and decides dispatch order:

* **Priority lanes** (``high`` / ``normal`` / ``low``): a higher lane is
  always drained before a lower one — the queue-level form of campaign
  preemption (an urgent validation jumps every queued bulk sweep).
* **Weighted round-robin fair share** within a lane: tenants take turns in
  lexicographic order, each taking up to ``weight`` consecutive
  submissions per turn — a tenant with weight 2 gets two dispatches for
  every one of a weight-1 tenant, and a single tenant can never starve
  the others by queueing first.
* **Per-tenant FIFO**: within one tenant (and lane) submissions dispatch
  in arrival order, always.

The scheduling state is deliberately a pure function of the queue content
and the dispatch history — never of wall-clock arrival timing across
tenants — so a drain of the same per-tenant FIFO content produces the
same dispatch order no matter how the submitting threads interleaved.
That determinism is what makes the daemon's output byte-identical to a
serial replay of the same specs.

This module is storage-free and system-free: persistence of queued
submissions is the daemon's concern (:mod:`repro.service.daemon`).
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional

from repro._common import SchedulingError
from repro.scheduler.spec import CampaignSpec

#: Dispatch lanes, drained strictly in this order.
PRIORITY_LANES = ("high", "normal", "low")

#: Submission lifecycle states.
STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"
STATUS_CANCELLED = "cancelled"


@dataclass
class Submission:
    """One tenant's queued campaign: the daemon's unit of work.

    The dataclass round-trips through :meth:`to_dict` / :meth:`from_dict`
    (the spec nests as its own exact-round-trip document), which is how a
    queued submission survives a daemon restart in the ``service`` storage
    namespace.
    """

    submission_id: str
    tenant: str
    spec: CampaignSpec
    priority: str = "normal"
    #: Daemon-wide arrival counter; FIFO order within a tenant.
    sequence: int = 0
    status: str = STATUS_QUEUED
    campaign_id: Optional[str] = None
    error: Optional[str] = None
    #: Matrix cells the completed campaign executed.
    cells: int = 0
    #: A weak reference to the owning daemon, when this ticket came from a
    #: live one (never serialised); lets callers cancel on the handle.  Weak,
    #: because the daemon holds its submissions: a strong one would make a
    #: cycle that only a full garbage collection frees.
    _service: Optional["weakref.ReferenceType"] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.priority not in PRIORITY_LANES:
            raise SchedulingError(
                f"unknown priority {self.priority!r} "
                f"(known lanes: {', '.join(PRIORITY_LANES)})"
            )

    def cancel(self) -> "Submission":
        """Cancel this submission on the daemon that issued it."""
        service = self._service() if self._service is not None else None
        if service is None:
            raise SchedulingError(
                f"submission {self.submission_id} is detached from its "
                "daemon; cancel through the service instead"
            )
        return service.cancel(self.submission_id)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view; :meth:`from_dict` round-trips it."""
        return {
            "submission_id": self.submission_id,
            "tenant": self.tenant,
            "spec": self.spec.to_dict(),
            "priority": self.priority,
            "sequence": self.sequence,
            "status": self.status,
            "campaign_id": self.campaign_id,
            "error": self.error,
            "cells": self.cells,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Submission":
        """Reconstruct a submission serialised by :meth:`to_dict`."""
        try:
            return cls(
                submission_id=str(payload["submission_id"]),
                tenant=str(payload["tenant"]),
                spec=CampaignSpec.from_dict(dict(payload["spec"])),  # type: ignore[arg-type]
                priority=str(payload.get("priority", "normal")),
                sequence=int(payload.get("sequence", 0)),  # type: ignore[arg-type]
                status=str(payload.get("status", STATUS_QUEUED)),
                campaign_id=(
                    None
                    if payload.get("campaign_id") is None
                    else str(payload["campaign_id"])
                ),
                error=(
                    None if payload.get("error") is None else str(payload["error"])
                ),
                cells=int(payload.get("cells", 0)),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SchedulingError(
                f"invalid submission document: {error}"
            ) from error


class SubmissionQueue:
    """Thread-safe priority + weighted-fair-share submission queue."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        #: lane -> tenant -> FIFO of queued submissions.
        self._lanes: Dict[str, Dict[str, Deque[Submission]]] = {
            lane: {} for lane in PRIORITY_LANES
        }
        #: Per-lane fair-share cursor: the tenant currently taking its turn
        #: and how many submissions it has taken this turn.
        self._cursor: Dict[str, Optional[str]] = {lane: None for lane in PRIORITY_LANES}
        self._taken: Dict[str, int] = {lane: 0 for lane in PRIORITY_LANES}

    # -- producers -------------------------------------------------------------
    def enqueue(self, submission: Submission) -> None:
        """Append a submission to its tenant's FIFO in its priority lane."""
        with self._work:
            tenants = self._lanes[submission.priority]
            tenants.setdefault(submission.tenant, deque()).append(submission)
            self._work.notify_all()

    def cancel(self, submission_id: str) -> Submission:
        """Remove a still-queued submission; raises when it is not queued."""
        with self._lock:
            for lane in PRIORITY_LANES:
                for tenant, fifo in self._lanes[lane].items():
                    for submission in fifo:
                        if submission.submission_id == submission_id:
                            fifo.remove(submission)
                            return submission
        raise SchedulingError(
            f"submission {submission_id!r} is not queued (already "
            "dispatched, cancelled or unknown)"
        )

    # -- consumer --------------------------------------------------------------
    def next_submission(
        self, weights: Optional[Mapping[str, int]] = None
    ) -> Optional[Submission]:
        """Pop the next submission under fair-share scheduling, or ``None``.

        *weights* maps tenant names to fair-share weights (default 1): the
        cursor tenant takes up to ``weight`` consecutive submissions
        before the turn passes to the lexicographically next tenant with
        queued work in the same lane.
        """
        weights = weights or {}
        with self._lock:
            for lane in PRIORITY_LANES:
                submission = self._next_in_lane(lane, weights)
                if submission is not None:
                    return submission
            return None

    def _next_in_lane(
        self, lane: str, weights: Mapping[str, int]
    ) -> Optional[Submission]:
        tenants = sorted(
            tenant for tenant, fifo in self._lanes[lane].items() if fifo
        )
        if not tenants:
            return None
        cursor = self._cursor[lane]
        if cursor not in tenants:
            # The cursor tenant drained (or never existed): the turn passes
            # to its lexicographic successor, wrapping around.
            successors = [tenant for tenant in tenants if cursor is None or tenant > cursor]
            cursor = successors[0] if successors else tenants[0]
            self._taken[lane] = 0
        submission = self._lanes[lane][cursor].popleft()
        self._taken[lane] += 1
        if self._taken[lane] >= max(1, int(weights.get(cursor, 1))):
            remaining = sorted(
                tenant for tenant, fifo in self._lanes[lane].items() if fifo
            )
            if remaining:
                successors = [tenant for tenant in remaining if tenant > cursor]
                cursor = successors[0] if successors else remaining[0]
            self._taken[lane] = 0
        self._cursor[lane] = cursor
        return submission

    def wait_for_work(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is non-empty (or the timeout passes)."""
        with self._work:
            if self._depth_locked() > 0:
                return True
            self._work.wait(timeout)
            return self._depth_locked() > 0

    # -- inspection ------------------------------------------------------------
    def _depth_locked(self) -> int:
        return sum(
            len(fifo)
            for tenants in self._lanes.values()
            for fifo in tenants.values()
        )

    def depth(self) -> int:
        """How many submissions are queued across all lanes and tenants."""
        with self._lock:
            return self._depth_locked()

    def backlog(self) -> Dict[str, int]:
        """Queued submissions per tenant (tenants with work only)."""
        with self._lock:
            counts: Dict[str, int] = {}
            for tenants in self._lanes.values():
                for tenant, fifo in tenants.items():
                    if fifo:
                        counts[tenant] = counts.get(tenant, 0) + len(fifo)
            return dict(sorted(counts.items()))

    def pending(self) -> List[Submission]:
        """Every queued submission, in arrival order."""
        with self._lock:
            queued = [
                submission
                for tenants in self._lanes.values()
                for fifo in tenants.values()
                for submission in fifo
            ]
            return sorted(queued, key=lambda submission: submission.sequence)


__all__ = [
    "PRIORITY_LANES",
    "STATUS_QUEUED",
    "STATUS_RUNNING",
    "STATUS_COMPLETED",
    "STATUS_FAILED",
    "STATUS_CANCELLED",
    "Submission",
    "SubmissionQueue",
]
