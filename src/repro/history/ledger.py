"""The validation history ledger: an append-only record of every cell.

Every completed validation cell becomes one immutable
:class:`ValidationEvent` — experiment, configuration key *and* content
fingerprint, outcome counts, a digest of the failure diagnostics, the cache
provenance and execution backend of the campaign that produced it, and the
logical (simulated-clock) timestamp.  Environment changes are recorded
alongside as :class:`EvolutionRecord` entries, so regression queries can
correlate a cell's first-bad timestamp with the OS/compiler/external-release
event that most plausibly caused it.

Both kinds of record live in an
:class:`~repro.storage.common_storage.AppendOnlyJournal` inside the
``history`` namespace of the common sp-system storage — the namespace is
registered as journal-backed, so ``CommonStorage.persist`` batches the
records into on-disk segment files and mirrors deletions.  Mounting a
:class:`ValidationHistoryLedger` on a restored storage replays the journal
and rebuilds the secondary indexes (by run, by campaign, by cell); ingestion
is idempotent by record identity (run ID for validations, year/kind/subject
for evolution events), so a warm-started installation re-ingesting the same
cells never duplicates history.

All writes into the ``history`` namespace MUST go through this ledger —
``scripts/ci.sh`` audits that no other module issues a raw ``put`` into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro._common import StorageError, stable_digest
from repro.core.jobs import JobStatus
from repro.environment.configuration import (
    EnvironmentConfiguration,
    configuration_fingerprint,
)
from repro.environment.evolution import EnvironmentEvent
from repro.storage.common_storage import (
    AppendOnlyJournal,
    CommonStorage,
    register_journal_namespace,
)


@dataclass(frozen=True)
class ValidationEvent:
    """One validated (or failed) matrix cell, as the ledger remembers it."""

    run_id: str
    campaign_id: str
    experiment: str
    configuration_key: str
    #: Content fingerprint of the configuration at validation time; an
    #: in-place environment change (same key, new compiler/external) shows
    #: up as a fingerprint flip between two events of the same cell.
    configuration_fingerprint: str
    status: str
    n_passed: int
    n_failed: int
    n_skipped: int
    failed_tests: Tuple[str, ...]
    #: Content digest of the failure evidence (failing jobs, their messages
    #: and the diagnosis categories) — two events with equal digests broke
    #: the same way.
    diagnostics_digest: str
    #: How the producing campaign's build phase was served: ``uncached``
    #: (cache layer disabled), ``cold`` (no hits) or ``warm`` (cache hits).
    cache_provenance: str
    backend: str
    #: Simulated-clock timestamp of the run (the ledger's time axis).
    logical_timestamp: int
    description: str = ""

    @property
    def passed(self) -> bool:
        """True when the cell validated completely."""
        return self.status == "passed"

    @property
    def cell(self) -> Tuple[str, str]:
        """The matrix coordinates the event belongs to."""
        return (self.experiment, self.configuration_key)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view; :meth:`from_dict` round-trips it."""
        return {
            "run_id": self.run_id,
            "campaign_id": self.campaign_id,
            "experiment": self.experiment,
            "configuration_key": self.configuration_key,
            "configuration_fingerprint": self.configuration_fingerprint,
            "status": self.status,
            "n_passed": self.n_passed,
            "n_failed": self.n_failed,
            "n_skipped": self.n_skipped,
            "failed_tests": list(self.failed_tests),
            "diagnostics_digest": self.diagnostics_digest,
            "cache_provenance": self.cache_provenance,
            "backend": self.backend,
            "logical_timestamp": self.logical_timestamp,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ValidationEvent":
        """Reconstruct an event serialised by :meth:`to_dict`."""
        return cls(
            run_id=str(payload["run_id"]),
            campaign_id=str(payload["campaign_id"]),
            experiment=str(payload["experiment"]),
            configuration_key=str(payload["configuration_key"]),
            configuration_fingerprint=str(payload["configuration_fingerprint"]),
            status=str(payload["status"]),
            n_passed=int(payload["n_passed"]),  # type: ignore[arg-type]
            n_failed=int(payload["n_failed"]),  # type: ignore[arg-type]
            n_skipped=int(payload["n_skipped"]),  # type: ignore[arg-type]
            failed_tests=tuple(
                str(name) for name in payload.get("failed_tests", [])  # type: ignore[union-attr]
            ),
            diagnostics_digest=str(payload.get("diagnostics_digest", "")),
            cache_provenance=str(payload.get("cache_provenance", "")),
            backend=str(payload.get("backend", "")),
            logical_timestamp=int(payload["logical_timestamp"]),  # type: ignore[arg-type]
            description=str(payload.get("description", "")),
        )


@dataclass(frozen=True)
class EvolutionRecord:
    """An environment evolution event stamped onto the ledger's time axis."""

    year: int
    kind: str
    subject: str
    detail: str
    logical_timestamp: int

    @property
    def identity(self) -> Tuple[int, str, str]:
        """The dedup identity: re-recording the same event is a no-op."""
        return (self.year, self.kind, self.subject)

    @property
    def label(self) -> str:
        """Short human-readable name used in regression attributions."""
        return f"[{self.kind}] {self.subject} ({self.year})"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view; :meth:`from_dict` round-trips it."""
        return {
            "year": self.year,
            "kind": self.kind,
            "subject": self.subject,
            "detail": self.detail,
            "logical_timestamp": self.logical_timestamp,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EvolutionRecord":
        """Reconstruct a record serialised by :meth:`to_dict`."""
        return cls(
            year=int(payload["year"]),  # type: ignore[arg-type]
            kind=str(payload["kind"]),
            subject=str(payload["subject"]),
            detail=str(payload.get("detail", "")),
            logical_timestamp=int(payload["logical_timestamp"]),  # type: ignore[arg-type]
        )


def diagnostics_digest(run, diagnosis=None) -> str:
    """Content digest of a run's failure evidence.

    Combines every non-passing job (name, status, messages) with the
    diagnosis category counts, so two events with equal digests failed the
    same way — the flake-triage signal.  A fully passing run digests to the
    empty string.
    """
    evidence = [
        [job.test_name, job.status.value, list(job.messages)]
        for job in run.jobs
        if job.status is not JobStatus.PASSED
    ]
    if not evidence:
        return ""
    categories = sorted(diagnosis.by_category().items()) if diagnosis else []
    return stable_digest("diagnostics", evidence, categories)


class ValidationHistoryLedger:
    """Append-only, idempotent history of validation cells and evolutions."""

    #: Record keys inside the namespace are ``journal_<sequence>``.
    JOURNAL_PREFIX = "journal_"

    #: Common-storage namespace holding the ledger journal.  Registered as
    #: journal-backed: persisted as batched segment files, with mirror
    #: semantics on disk.
    NAMESPACE = register_journal_namespace("history", JOURNAL_PREFIX)

    def __init__(self, storage: CommonStorage) -> None:
        self.storage = storage
        self._namespace = storage.create_namespace(self.NAMESPACE)
        self._journal = AppendOnlyJournal(self._namespace, self.JOURNAL_PREFIX)
        self._events: List[ValidationEvent] = []
        self._evolutions: List[EvolutionRecord] = []
        self._by_run: Dict[str, ValidationEvent] = {}
        self._evolution_identities: Set[Tuple[int, str, str]] = set()
        #: Journal records that could not be decoded on the last rebuild.
        self.corrupted_records = 0
        self._rebuild()

    # -- mounting --------------------------------------------------------------
    @classmethod
    def exists_in(cls, storage: CommonStorage) -> bool:
        """True when *storage* carries a history ledger namespace."""
        return cls.NAMESPACE in storage.namespaces()

    @classmethod
    def open(cls, storage: CommonStorage) -> "ValidationHistoryLedger":
        """Mount the ledger of *storage*; fail clearly when there is none.

        This is the read-path entry (the ``history`` CLI commands): unlike
        the constructor it never creates the namespace, so querying a
        storage that never recorded history is a
        :class:`~repro._common.StorageError`, not an empty answer.
        """
        if not cls.exists_in(storage):
            raise StorageError(
                "no validation history ledger: the storage has no "
                f"{cls.NAMESPACE!r} namespace (run campaigns with "
                "record_history enabled to start one)"
            )
        return cls(storage)

    def _rebuild(self) -> None:
        """Replay the journal and rebuild every secondary index.

        Corrupted records are skipped and counted — losing one event must
        not take the rest of the history with it.  Duplicate identities
        (possible only through a hand-edited journal) keep the first
        occurrence, matching the ingest-time idempotence rule.
        """
        self._events = []
        self._evolutions = []
        self._by_run = {}
        self._evolution_identities = set()
        self.corrupted_records = 0
        for _sequence, document in self._journal.records():
            record = self._parse_record(document)
            if record is None:
                self.corrupted_records += 1
                continue
            if isinstance(record, ValidationEvent):
                if record.run_id in self._by_run:
                    continue
                self._events.append(record)
                self._by_run[record.run_id] = record
            else:
                if record.identity in self._evolution_identities:
                    continue
                self._evolutions.append(record)
                self._evolution_identities.add(record.identity)

    @staticmethod
    def _parse_record(document: object):
        """Decode one journal record, or None if it is corrupted."""
        if not isinstance(document, dict):
            return None
        try:
            kind = document["type"]
            if kind == "validation":
                return ValidationEvent.from_dict(document["event"])
            if kind == "evolution":
                return EvolutionRecord.from_dict(document["event"])
        except (KeyError, TypeError, ValueError, AttributeError):
            return None
        return None

    # -- ingestion -------------------------------------------------------------
    def record_validation(self, event: ValidationEvent) -> bool:
        """Append *event* unless its run is already on the ledger.

        Returns True when the event was appended — idempotence is keyed on
        the run ID, which is unique across installations (the job-ID
        allocator resumes past inherited runs), so re-submitting a restored
        storage's cells on warm-start never duplicates history.
        """
        if event.run_id in self._by_run:
            return False
        self._journal.append({"type": "validation", "event": event.to_dict()})
        self._events.append(event)
        self._by_run[event.run_id] = event
        return True

    def ingest_cycle(
        self,
        cycle,
        configuration: EnvironmentConfiguration,
        campaign_id: str,
        backend: str,
        cache_provenance: str,
    ) -> Optional[ValidationEvent]:
        """Ingest one completed validation cycle as a :class:`ValidationEvent`.

        *cycle* is duck-typed (the system's ``ValidationCycleResult``): it
        needs ``run`` and optionally ``diagnosis``.  Returns the appended
        event, or None when the run was already on the ledger.
        """
        run = cycle.run
        event = ValidationEvent(
            run_id=run.run_id,
            campaign_id=campaign_id,
            experiment=run.experiment,
            configuration_key=run.configuration_key,
            configuration_fingerprint=configuration_fingerprint(configuration),
            status=run.overall_status,
            n_passed=run.n_passed,
            n_failed=run.n_failed,
            n_skipped=run.n_skipped,
            failed_tests=tuple(
                sorted(job.test_name for job in run.failed_jobs())
            ),
            diagnostics_digest=diagnostics_digest(
                run, getattr(cycle, "diagnosis", None)
            ),
            cache_provenance=cache_provenance,
            backend=backend,
            logical_timestamp=run.started_at,
            description=run.description,
        )
        return event if self.record_validation(event) else None

    def record_evolution(
        self, event: EnvironmentEvent, logical_timestamp: int
    ) -> Optional[EvolutionRecord]:
        """Stamp an environment evolution event onto the ledger's time axis.

        Returns the appended :class:`EvolutionRecord`, or None when the
        same (year, kind, subject) was already recorded.
        """
        record = EvolutionRecord(
            year=event.year,
            kind=event.kind,
            subject=event.subject,
            detail=event.detail,
            logical_timestamp=int(logical_timestamp),
        )
        if record.identity in self._evolution_identities:
            return None
        self._journal.append({"type": "evolution", "event": record.to_dict()})
        self._evolutions.append(record)
        self._evolution_identities.add(record.identity)
        return record

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[ValidationEvent]:
        """Every validation event, ordered by (timestamp, run ID)."""
        return sorted(
            self._events, key=lambda event: (event.logical_timestamp, event.run_id)
        )

    def evolution_records(self) -> List[EvolutionRecord]:
        """Every evolution record, ordered by timestamp then identity."""
        return sorted(
            self._evolutions,
            key=lambda record: (record.logical_timestamp, record.identity),
        )

    def has_run(self, run_id: str) -> bool:
        """True when the run is already on the ledger."""
        return run_id in self._by_run

    def campaign_ids(self) -> List[str]:
        """Campaign IDs in order of their earliest event."""
        first_seen: Dict[str, Tuple[int, str]] = {}
        for event in self._events:
            marker = (event.logical_timestamp, event.run_id)
            if event.campaign_id not in first_seen or marker < first_seen[event.campaign_id]:
                first_seen[event.campaign_id] = marker
        return sorted(first_seen, key=lambda campaign_id: first_seen[campaign_id])

    def events_for_campaign(self, campaign_id: str) -> List[ValidationEvent]:
        """The events one campaign ingested, in (timestamp, run) order."""
        return [
            event for event in self.events() if event.campaign_id == campaign_id
        ]

    def events_for_experiment(self, experiment: str) -> List[ValidationEvent]:
        """One experiment's events across all campaigns, oldest first."""
        return [event for event in self.events() if event.experiment == experiment]

    def cells(self) -> List[Tuple[str, str]]:
        """Every (experiment, configuration key) cell ever recorded, sorted."""
        return sorted({event.cell for event in self._events})

    def cell_timeline(
        self, experiment: str, configuration_key: str
    ) -> List[ValidationEvent]:
        """One cell's events across the whole history, oldest first."""
        return [
            event
            for event in self.events()
            if event.cell == (experiment, configuration_key)
        ]

    def journal_records(self) -> int:
        """Number of records in the underlying journal (events + evolutions)."""
        return len(self._journal)

    def status(self) -> Dict[str, int]:
        """Headline counts for reports and the ``history`` CLI."""
        return {
            "events": len(self._events),
            "evolutions": len(self._evolutions),
            "campaigns": len(self.campaign_ids()),
            "cells": len(self.cells()),
            "corrupted_records": self.corrupted_records,
        }


__all__ = [
    "EvolutionRecord",
    "ValidationEvent",
    "ValidationHistoryLedger",
    "diagnostics_digest",
]
