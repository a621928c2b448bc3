"""Shared helpers used across the :mod:`repro` packages.

The sp-system reproduction is deterministic by construction: every simulated
outcome (a build, a test, a numeric perturbation induced by an environment
change) is derived from stable content hashes rather than Python's per-process
``hash`` or wall-clock randomness.  This module collects the small utilities
that make that possible, together with the exception hierarchy shared by all
subsystems.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from typing import Iterable, Iterator, Sequence


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An environment or system configuration is invalid or unknown."""


class StorageError(ReproError):
    """The common sp-system storage rejected an operation."""


class BuildError(ReproError):
    """A software build could not be carried out (as opposed to failing)."""


class ValidationError(ReproError):
    """A validation job or comparison was mis-specified."""


class SchedulingError(ReproError):
    """A cron expression or scheduling request is invalid."""


_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")


def ensure_identifier(value: str, what: str = "identifier") -> str:
    """Validate that *value* is a safe identifier and return it.

    Identifiers are used for package names, experiment names, storage
    namespaces and similar keys.  Restricting the character set keeps the
    storage layer and the generated web pages simple and predictable.
    """
    if not isinstance(value, str) or not value:
        raise ReproError(f"{what} must be a non-empty string, got {value!r}")
    if not _IDENTIFIER_RE.match(value):
        raise ReproError(
            f"{what} {value!r} contains characters outside [A-Za-z0-9_.-]"
        )
    return value


def stable_hash(*parts: object) -> int:
    """Return a deterministic 64-bit integer hash of *parts*.

    The hash is stable across processes and Python versions, unlike the
    built-in ``hash``.  It is used to derive reproducible pseudo-random
    outcomes, e.g. which synthetic package fails under which compiler.
    It is the first 8 bytes of the sha256 digest, read big-endian.
    """
    payload = "\x1f".join(map(str, parts)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def stable_fraction(*parts: object) -> float:
    """Return a deterministic pseudo-random float in ``[0, 1)`` from *parts*."""
    return stable_hash(*parts) / float(1 << 64)


def stable_digest(*parts: object) -> str:
    """Return a deterministic hex digest of *parts* (40 characters)."""
    payload = "\x1f".join(str(part) for part in parts).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:40]


def parse_version(version: str) -> tuple:
    """Parse a dotted version string into a tuple of integers.

    Non-numeric components are kept as strings so that versions such as
    ``"6.02/05"`` or ``"5.34.36"`` still order sensibly.
    """
    if not version:
        raise ReproError("version string must be non-empty")
    normalised = version.replace("/", ".")
    components: list = []
    for token in normalised.split("."):
        token = token.strip()
        if not token:
            continue
        if token.isdigit():
            components.append(int(token))
        else:
            components.append(token)
    if not components:
        raise ReproError(f"could not parse version string {version!r}")
    return tuple(components)


def version_at_least(version: str, minimum: str) -> bool:
    """Return True if *version* is greater than or equal to *minimum*."""
    return _comparable(parse_version(version)) >= _comparable(parse_version(minimum))


def version_less_than(version: str, maximum: str) -> bool:
    """Return True if *version* is strictly smaller than *maximum*."""
    return _comparable(parse_version(version)) < _comparable(parse_version(maximum))


def _comparable(parsed: tuple) -> tuple:
    """Make a parsed version comparable even when it mixes ints and strings."""
    return tuple(
        (0, component) if isinstance(component, int) else (1, str(component))
        for component in parsed
    )


def chunked(items: Sequence, size: int) -> Iterator[Sequence]:
    """Yield successive chunks of *items* with at most *size* elements."""
    if size <= 0:
        raise ReproError("chunk size must be positive")
    for start in range(0, len(items), size):
        yield items[start:start + size]


def unique_preserving_order(items: Iterable) -> list:
    """Return *items* with duplicates removed, keeping first occurrences."""
    seen = set()
    result = []
    for item in items:
        if item not in seen:
            seen.add(item)
            result.append(item)
    return result


_COUNTERS = itertools.count(1)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple aligned text table used by reports and benchmarks."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    lines = []
    header_line = "  ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line.rstrip())
    lines.append("  ".join("-" * width for width in widths))
    for row in materialised:
        lines.append(
            "  ".join(
                cell.ljust(widths[index]) for index, cell in enumerate(row)
            ).rstrip()
        )
    return "\n".join(lines)
