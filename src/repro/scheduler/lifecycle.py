"""Campaign lifecycle event bus: observers, early-stop policies, sinks.

The scheduler, history ledger, reporting and intervention tracking used to
be hard-wired to each other; this module decouples them behind a typed
event stream.  The scheduler emits :class:`LifecycleEvent`s — one of
the names in :data:`LIFECYCLE_EVENTS` — through a :class:`PluginRegistry`,
and everything that *reacts* to a campaign (history ingestion, regression
alerting, JSONL event logs, deadline aborts) plugs into the registry
instead of into the scheduler's code.

The observer-vs-policy contract
-------------------------------

Two kinds of plugins exist, with sharply different powers:

* **Observers** (:class:`LifecycleObserver`) are read-only sinks.  They
  are notified of every event whose name is in their ``events`` set, in
  registration order, and must never change the science: run documents,
  catalogue records and cache statistics stay byte-identical whether zero
  or twenty observers are attached (pinned by the backend-parity suite).
  An observer may *emit follow-up events* through ``context.registry``
  (the regression alerter turns one ``campaign_finished`` into N
  ``regression_detected`` events) and may write to storage namespaces it
  owns (the intervention store) or to external files (the JSONL sink) —
  but never to the catalogue, the build cache or the history journal
  except through the owning API.

* **Early-stop policies** (:class:`EarlyStopPolicy`) may cancel queued
  work.  After the observers have seen an event, every registered policy
  is asked :meth:`~EarlyStopPolicy.should_stop`; the first non-``None``
  reason raises :class:`EarlyStopRequested` out of ``emit``.  The
  simulated timeline that emitted the event stops there and re-raises a
  :class:`~repro._common.SchedulingError`.  Policies therefore abort
  *pending* work only — the timeline is reported after every cell is
  recorded, so an abort never loses science.

Event ordering is pinned: within one campaign the per-cell
``cell_completed`` sequence is identical on every backend (it is emitted
from the serial stamping pass), and ``campaign_finished`` always comes
last.  ``deadline_exceeded`` fires against the simulated timeline, which
every backend reports, exactly like the late-cell report it generalises.

This module is deliberately free of core/history imports — the registry
knows nothing about the system it observes.  System-coupled plugins live
in :mod:`repro.plugins`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro._common import SchedulingError

#: The typed event stream.  Every name a registry will emit is here; an
#: ``emit`` with an unknown name is a programming error and raises.
EVENT_CELL_COMPLETED = "cell_completed"
EVENT_CAMPAIGN_FINISHED = "campaign_finished"
EVENT_REGRESSION_DETECTED = "regression_detected"
EVENT_DEADLINE_EXCEEDED = "deadline_exceeded"
EVENT_BUDGET_EXCEEDED = "budget_exceeded"
EVENT_EVOLUTION_RECORDED = "evolution_recorded"
# Service-daemon events (repro.service): the submission queue and its
# telemetry worker report through the same bus the campaigns use, so one
# JSONL sink or webhook observes a whole installation — campaigns and the
# daemon that dispatches them alike.
EVENT_SUBMISSION_QUEUED = "submission_queued"
EVENT_SUBMISSION_STARTED = "submission_started"
EVENT_SUBMISSION_CANCELLED = "submission_cancelled"
EVENT_TENANT_THROTTLED = "tenant_throttled"
EVENT_HEARTBEAT = "heartbeat"

LIFECYCLE_EVENTS: FrozenSet[str] = frozenset(
    {
        EVENT_CELL_COMPLETED,
        EVENT_CAMPAIGN_FINISHED,
        EVENT_REGRESSION_DETECTED,
        EVENT_DEADLINE_EXCEEDED,
        EVENT_BUDGET_EXCEEDED,
        EVENT_EVOLUTION_RECORDED,
        EVENT_SUBMISSION_QUEUED,
        EVENT_SUBMISSION_STARTED,
        EVENT_SUBMISSION_CANCELLED,
        EVENT_TENANT_THROTTLED,
        EVENT_HEARTBEAT,
    }
)


@dataclass(frozen=True)
class LifecycleEvent:
    """One campaign lifecycle event.

    ``payload`` carries JSON-safe scalars only — it is what the JSONL sink
    writes and the status pages render.  Live objects (the campaign handle,
    the completed cell) travel separately in the :class:`EventContext`
    handed to observers, and never serialise.
    """

    name: str
    sequence: int
    campaign_id: Optional[str] = None
    payload: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (the JSONL event-log line)."""
        return {
            "sequence": self.sequence,
            "event": self.name,
            "campaign_id": self.campaign_id,
            "payload": dict(self.payload),
        }


@dataclass(frozen=True)
class EventContext:
    """What an observer receives beside the event itself.

    ``subjects`` holds the live objects behind the event (e.g. ``cell``,
    ``handle``, ``campaign``, ``event`` for evolutions); ``registry`` lets
    an observer emit follow-up events.
    """

    registry: "PluginRegistry"
    subjects: Mapping[str, object] = field(default_factory=dict)


class LifecycleObserver:
    """Base class for read-only event sinks (see the module docstring).

    Subclasses set ``events`` to the names they want (the default — the
    full :data:`LIFECYCLE_EVENTS` set — subscribes to everything) and
    override :meth:`handle`.
    """

    #: Short name used in diagnostics and the plugin registry listing.
    name: str = "observer"
    #: Event names this observer is notified of.
    events: FrozenSet[str] = LIFECYCLE_EVENTS

    def handle(self, event: LifecycleEvent, context: EventContext) -> None:
        """React to one event.  Must not mutate campaign science."""
        raise NotImplementedError


class EarlyStopPolicy:
    """Base class for policies that may cancel queued campaign work."""

    name: str = "early-stop"

    def should_stop(
        self, event: LifecycleEvent, context: EventContext
    ) -> Optional[str]:
        """Return a human-readable reason to stop, or ``None`` to continue."""
        raise NotImplementedError


class EarlyStopRequested(SchedulingError):
    """Raised out of ``emit`` when an early-stop policy fires.

    A :class:`~repro._common.SchedulingError` subclass so that emitters
    which do not special-case it still fail with the established contract
    (the campaign submission fails while completed run documents stay
    recorded in the catalogue).
    """

    def __init__(self, reason: str, event: LifecycleEvent, policy: EarlyStopPolicy) -> None:
        super().__init__(reason)
        self.reason = reason
        self.event = event
        self.policy = policy


class PluginRegistry:
    """Ordered registry of observers and early-stop policies.

    Observers are notified in registration order; system-level plugins
    (the history recorder) register first, per-submission plugins added
    via :meth:`scoped` run after them — so e.g. the regression alerter
    always sees the campaign *after* it has been ingested into the ledger.
    Every emitted event is also recorded on :attr:`events` for reporting.
    """

    def __init__(self) -> None:
        self._observers: List[LifecycleObserver] = []
        self._policies: List[EarlyStopPolicy] = []
        self._sequence = 0
        #: Every event ever emitted through this registry, in order.
        self.events: List[LifecycleEvent] = []

    # -- membership -----------------------------------------------------------
    def add_observer(self, observer: LifecycleObserver) -> LifecycleObserver:
        """Append an observer (notified after all earlier ones)."""
        self._observers.append(observer)
        return observer

    def add_policy(self, policy: EarlyStopPolicy) -> EarlyStopPolicy:
        """Append an early-stop policy."""
        self._policies.append(policy)
        return policy

    def observers(self) -> Tuple[LifecycleObserver, ...]:
        return tuple(self._observers)

    def policies(self) -> Tuple[EarlyStopPolicy, ...]:
        return tuple(self._policies)

    @contextmanager
    def scoped(
        self,
        observers: Sequence[LifecycleObserver] = (),
        policies: Sequence[EarlyStopPolicy] = (),
    ) -> Iterator["PluginRegistry"]:
        """Temporarily extend the registry for one campaign submission.

        The added plugins run *after* the permanently registered ones and
        are removed on exit, also when the submission fails.
        """
        added_observers = list(observers)
        added_policies = list(policies)
        self._observers.extend(added_observers)
        self._policies.extend(added_policies)
        try:
            yield self
        finally:
            for observer in added_observers:
                self._observers.remove(observer)
            for policy in added_policies:
                self._policies.remove(policy)

    # -- emission -------------------------------------------------------------
    def emit(
        self,
        name: str,
        campaign_id: Optional[str] = None,
        payload: Optional[Mapping[str, object]] = None,
        subjects: Optional[Mapping[str, object]] = None,
    ) -> LifecycleEvent:
        """Emit one event: record it, notify observers, consult policies.

        Raises :class:`EarlyStopRequested` when a policy returns a stop
        reason — the emitter is responsible for stopping its pending work
        and converting the request into the established ``SchedulingError``
        failure contract.
        """
        if name not in LIFECYCLE_EVENTS:
            raise SchedulingError(
                f"unknown lifecycle event {name!r} "
                f"(known: {', '.join(sorted(LIFECYCLE_EVENTS))})"
            )
        self._sequence += 1
        event = LifecycleEvent(
            name=name,
            sequence=self._sequence,
            campaign_id=campaign_id,
            payload=dict(payload or {}),
        )
        self.events.append(event)
        context = EventContext(registry=self, subjects=dict(subjects or {}))
        for observer in list(self._observers):
            if event.name in observer.events:
                observer.handle(event, context)
        for policy in list(self._policies):
            reason = policy.should_stop(event, context)
            if reason is not None:
                raise EarlyStopRequested(reason, event, policy)
        return event

    def recent(self, limit: Optional[int] = None) -> List[LifecycleEvent]:
        """The most recent events (all of them when *limit* is ``None``)."""
        if limit is None:
            return list(self.events)
        return self.events[-limit:]


class DeadlineAbortPolicy(EarlyStopPolicy):
    """Turn ``deadline_seconds`` from a report into an enforceable abort.

    When a backend's timeline emits ``deadline_exceeded``, this policy
    requests the stop; the timeline stops and the campaign submission fails
    with a :class:`~repro._common.SchedulingError` naming the deadline.  The
    cells keep their (already recorded) bit-identical run documents.
    """

    name = "deadline-abort"

    def should_stop(
        self, event: LifecycleEvent, context: EventContext
    ) -> Optional[str]:
        if event.name != EVENT_DEADLINE_EXCEEDED:
            return None
        deadline = event.payload.get("deadline_seconds")
        elapsed = event.payload.get("elapsed_seconds")
        return (
            f"deadline of {deadline}s exceeded after {elapsed}s "
            f"on the {event.payload.get('backend', '?')} backend"
        )


class FileEventSink(LifecycleObserver):
    """Observer appending every event as one JSON line to a log file.

    The log is an external monitoring artefact, not campaign science: it
    lives outside the common storage (any filesystem path) and appends
    across submissions, so an operator can ``tail -f`` a whole service's
    lifetime.

    Every record is flushed *and* fsynced before the handler returns: the
    sink is the crash-window audit trail of a long-running daemon, and an
    OS-buffered line that dies with a killed process would silently lose
    the very events an operator needs to reconstruct the crash.  A reader
    should use :func:`read_event_log`, which tolerates the one partial
    line a mid-``write`` kill can still leave behind.
    """

    name = "event-log"

    def __init__(self, path: str) -> None:
        self.path = path

    def handle(self, event: LifecycleEvent, context: EventContext) -> None:
        try:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as error:
            raise SchedulingError(
                f"cannot append to the event log {self.path!r}: {error}"
            ) from error


def read_event_log(path: str) -> List[dict]:
    """Read a :class:`FileEventSink` log back as a list of event documents.

    Tolerates a truncated final line (the partial record a kill can leave
    mid-``write``); a corrupted record anywhere *before* the tail is a
    real error and raises :class:`~repro._common.SchedulingError`.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except FileNotFoundError:
        return []
    except OSError as error:
        raise SchedulingError(
            f"cannot read the event log {path!r}: {error}"
        ) from error
    events: List[dict] = []
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            document = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break  # torn tail record from a crash mid-append
            raise SchedulingError(
                f"corrupted event log record at {path}:{index + 1}"
            ) from None
        if isinstance(document, dict):
            events.append(document)
    return events


class WebhookEventSink(LifecycleObserver):
    """Observer POSTing each event's JSON document to a webhook URL.

    The transport is injectable (``transport(url, body_bytes)``) so tests
    and offline deployments never open sockets; the default uses urllib.
    """

    name = "webhook"

    def __init__(
        self,
        url: str,
        transport: Optional[Callable[[str, bytes], None]] = None,
    ) -> None:
        self.url = url
        self.transport = transport if transport is not None else self._post

    @staticmethod
    def _post(url: str, body: bytes) -> None:  # pragma: no cover - network
        import urllib.request

        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"}
        )
        urllib.request.urlopen(request, timeout=10).read()

    def handle(self, event: LifecycleEvent, context: EventContext) -> None:
        body = json.dumps(event.to_dict(), sort_keys=True).encode("utf-8")
        try:
            self.transport(self.url, body)
        except Exception as error:
            raise SchedulingError(
                f"webhook delivery to {self.url!r} failed: {error}"
            ) from error


__all__ = [
    "EVENT_CELL_COMPLETED",
    "EVENT_CAMPAIGN_FINISHED",
    "EVENT_REGRESSION_DETECTED",
    "EVENT_DEADLINE_EXCEEDED",
    "EVENT_BUDGET_EXCEEDED",
    "EVENT_EVOLUTION_RECORDED",
    "EVENT_SUBMISSION_QUEUED",
    "EVENT_SUBMISSION_STARTED",
    "EVENT_SUBMISSION_CANCELLED",
    "EVENT_TENANT_THROTTLED",
    "EVENT_HEARTBEAT",
    "LIFECYCLE_EVENTS",
    "LifecycleEvent",
    "EventContext",
    "LifecycleObserver",
    "EarlyStopPolicy",
    "EarlyStopRequested",
    "PluginRegistry",
    "DeadlineAbortPolicy",
    "FileEventSink",
    "WebhookEventSink",
    "read_event_log",
]
