"""Bookkeeping: unique job IDs, description tags and simulated time.

"Each test-job started in the sp-system is typically assigned a unique ID ...
validation jobs may be tagged with a description, indicating which software
versions were used, and the Unix time stamp of the execution to aid the
bookkeeping."  This module provides exactly those three ingredients: a
monotonic unique-ID allocator, a tag registry and a deterministic simulated
clock (so test runs are reproducible without touching the wall clock).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro._common import ReproError, ensure_identifier


#: 1 January 2013 00:00 UTC — the era of the paper, used as the clock origin.
EPOCH_2013 = 1356998400


class SimulatedClock:
    """A deterministic Unix-time clock advanced explicitly by the framework."""

    def __init__(self, start_timestamp: int = EPOCH_2013) -> None:
        if start_timestamp < 0:
            raise ReproError("clock cannot start before the Unix epoch")
        self._now = int(start_timestamp)

    @property
    def now(self) -> int:
        """Current simulated Unix timestamp."""
        return self._now

    def advance(self, seconds: int) -> int:
        """Advance the clock by *seconds* and return the new timestamp."""
        if seconds < 0:
            raise ReproError("the clock cannot run backwards")
        self._now += int(seconds)
        return self._now

    def advance_days(self, days: float) -> int:
        """Advance the clock by a number of days."""
        return self.advance(int(days * 86400))

    def isoformat(self) -> str:
        """Current time as a compact UTC string (YYYY-MM-DD HH:MM:SS)."""
        return format_timestamp(self._now)


def format_timestamp(timestamp: int) -> str:
    """Render a Unix timestamp as ``YYYY-MM-DD HH:MM:SS`` (UTC), no wall clock."""
    days_since_epoch, seconds_in_day = divmod(int(timestamp), 86400)
    hours, remainder = divmod(seconds_in_day, 3600)
    minutes, seconds = divmod(remainder, 60)
    year, month, day = _civil_from_days(days_since_epoch)
    return f"{year:04d}-{month:02d}-{day:02d} {hours:02d}:{minutes:02d}:{seconds:02d}"


def _civil_from_days(days: int) -> tuple:
    """Convert days since 1970-01-01 to (year, month, day); Howard Hinnant's algorithm."""
    days += 719468
    era = (days if days >= 0 else days - 146096) // 146097
    day_of_era = days - era * 146097
    year_of_era = (
        day_of_era - day_of_era // 1460 + day_of_era // 36524 - day_of_era // 146096
    ) // 365
    year = year_of_era + era * 400
    day_of_year = day_of_era - (365 * year_of_era + year_of_era // 4 - year_of_era // 100)
    month_prime = (5 * day_of_year + 2) // 153
    day = day_of_year - (153 * month_prime + 2) // 5 + 1
    month = month_prime + 3 if month_prime < 10 else month_prime - 9
    year = year + (1 if month <= 2 else 0)
    return year, month, day


class JobIdAllocator:
    """Allocates the unique IDs assigned to every test job."""

    def __init__(self, prefix: str = "sp", start: int = 1) -> None:
        self.prefix = ensure_identifier(prefix, "job id prefix")
        if start < 0:
            raise ReproError("job id counter cannot start below zero")
        self._next = start

    def allocate(self) -> str:
        """Return the next unique job ID, e.g. ``"sp-000042"``."""
        job_id = self.peek()
        self._next += 1
        return job_id

    def peek(self, ahead: int = 0) -> str:
        """The ID :meth:`allocate` returns after *ahead* further allocations."""
        return f"{self.prefix}-{self._next + ahead:06d}"

    def ensure_past(self, sequence: int) -> None:
        """Advance the counter so no ID at or below *sequence* is re-issued.

        Used when inherited state (e.g. a mounted validation history
        ledger) proves that IDs up to *sequence* were already handed out by
        a previous installation; a no-op when the counter is further along.
        """
        if sequence + 1 > self._next:
            self._next = sequence + 1

    @property
    def allocated_count(self) -> int:
        """How many IDs have been handed out so far."""
        return self._next - 1


@dataclass
class RunTag:
    """A description tag attached to a validation run."""

    description: str
    software_versions: Dict[str, str] = field(default_factory=dict)
    timestamp: int = EPOCH_2013

    def render(self) -> str:
        """Human readable rendering used in the web pages."""
        versions = ", ".join(
            f"{name}={version}" for name, version in sorted(self.software_versions.items())
        )
        stamp = format_timestamp(self.timestamp)
        if versions:
            return f"{self.description} [{versions}] @ {stamp}"
        return f"{self.description} @ {stamp}"


class TagRegistry:
    """Registry of description tags, grouping runs for the web reports."""

    def __init__(self) -> None:
        self._tags: Dict[str, List[str]] = {}

    def record(self, description: str, run_id: str) -> None:
        """Associate *run_id* with the description tag."""
        self._tags.setdefault(description, []).append(run_id)

    def descriptions(self) -> List[str]:
        """All known descriptions, sorted."""
        return sorted(self._tags)

    def runs_for(self, description: str) -> List[str]:
        """Run IDs recorded under *description*, oldest first."""
        return list(self._tags.get(description, []))

    def __len__(self) -> int:
        return len(self._tags)


__all__ = [
    "SimulatedClock",
    "JobIdAllocator",
    "RunTag",
    "TagRegistry",
    "format_timestamp",
    "EPOCH_2013",
]
