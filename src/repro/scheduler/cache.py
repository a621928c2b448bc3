"""Content-addressed build cache layered over the package builder.

A campaign rebuilds the same package inventories again and again: every
validation round compiles every package of every experiment on every
configuration.  The simulated builds are pure functions of the package
content and the environment configuration, so the :class:`BuildCache` keys
each :class:`~repro.buildsys.builder.BuildResult` by
:func:`package_identity_digest` — a content hash of exactly the inputs that
determine the build: package name and version, the source digest, the
requirements fingerprint and the target-configuration fingerprint.  The
digest is deliberately **experiment-agnostic**: two experiments pinning the
same external package (a compiler, a ROOT-like toolkit, an OS library —
byte-identical content, different owning collaboration) share one cache
entry, so the shared validation infrastructure builds it once.  A hit
replays the recorded result rebound to the *requesting* package, which keeps
the cached path bit-identical to a fresh build while skipping the work; the
:class:`CacheStatistics` attribute cross-experiment hits to the donating
experiment so reports can show who warm-starts whom.

Cached tarballs live in the :class:`~repro.storage.artifacts.ArtifactStore`;
an entry whose artifact has been removed or overwritten there is evicted on
the next lookup instead of serving a dangling digest.

The cache is also a resident of the common sp-system storage.  Its
``buildcache`` namespace holds the live cache and nothing else: one
``cached_<key>`` document per entry, one ``artifact_<digest>`` document per
tarball and the cumulative ``statistics``.  :meth:`BuildCache.persist_to`
deletes every other document and puts only the documents whose content
changed; ``CommonStorage.persist`` then writes only the files whose bytes
changed, so repeated campaigns write O(changed entries), not O(cache).
:meth:`BuildCache.restore_from` reads the documents back, skipping a
corrupted one.  It also replays a namespace still in the earlier
append-only journal layout, which the next persist rewrites in this one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro._common import StorageError, stable_digest
from repro.buildsys.builder import BuildResult, PackageBuilder
from repro.buildsys.package import SoftwarePackage
from repro.buildsys.tarball import Tarball
from repro.environment.compatibility import SoftwareRequirements
from repro.environment.configuration import (
    EnvironmentConfiguration,
    configuration_fingerprint,
)
from repro.storage.artifacts import ArtifactStore
from repro.storage.common_storage import (
    AppendOnlyJournal,
    CommonStorage,
    StorageNamespace,
    register_mirrored_namespace,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry


def _requirements_fingerprint(requirements: SoftwareRequirements) -> str:
    """Stable fingerprint of a requirement set (quirky variants differ)."""
    return stable_digest(
        requirements.min_compiler,
        requirements.max_compiler,
        requirements.max_strictness,
        sorted(requirements.word_sizes),
        requirements.cxx_standard,
        requirements.min_os_abi,
        requirements.max_os_abi,
        sorted(
            (
                external.product,
                external.min_api_level,
                external.max_api_level,
                sorted(external.used_apis),
            )
            for external in requirements.externals
        ),
    )


def _target_fingerprint(configuration: EnvironmentConfiguration) -> str:
    """Stable fingerprint of the build-relevant configuration state.

    Deliberately finer-grained than ``configuration.key``: two
    configurations sharing an OS/word-size/compiler label but differing in
    installed externals (or a configuration whose compiler or OS release was
    swapped in place) must not share cache entries.  The digest is the
    shared :func:`~repro.environment.configuration.configuration_fingerprint`
    — the same fingerprint the validation history ledger records per cell.
    """
    return configuration_fingerprint(configuration)


def package_identity_digest(
    package: SoftwarePackage, configuration: EnvironmentConfiguration
) -> str:
    """Experiment-agnostic content hash of everything that determines a build.

    The digest combines the package identity (name, version, source digest,
    requirements fingerprint) with the target-configuration fingerprint.
    Ownership attributes — ``experiment``, ``category``, ``description``,
    ``dependencies`` — never influence the produced
    :class:`~repro.buildsys.builder.BuildResult` and are excluded, so two
    experiments pinning a byte-identical external package address the same
    cache entry.

    The digest is memoised on its frozen inputs: every cache lookup and
    store of a 10k-cell campaign re-derives the same digests, and both
    dataclasses hash by value, so the pair is a sound
    cache key.  An unhashable input (a hand-built package carrying a list)
    falls back to direct computation.
    """
    try:
        cached = _IDENTITY_DIGESTS.get((package, configuration))
    except TypeError:
        return _package_identity_digest(package, configuration)
    if cached is None:
        if len(_IDENTITY_DIGESTS) >= _IDENTITY_DIGESTS_MAX:
            _IDENTITY_DIGESTS.clear()
        cached = _package_identity_digest(package, configuration)
        _IDENTITY_DIGESTS[(package, configuration)] = cached
    return cached


def _package_identity_digest(
    package: SoftwarePackage, configuration: EnvironmentConfiguration
) -> str:
    return stable_digest(
        "package-identity",
        package.name,
        package.version,
        package.source_digest,
        _requirements_fingerprint(package.requirements),
        _target_fingerprint(configuration),
    )


#: Memo table of :func:`package_identity_digest`, keyed by the frozen
#: (package, configuration) pair; bounded so synthetic-fleet sweeps over
#: millions of distinct packages cannot grow it without limit.
_IDENTITY_DIGESTS: Dict[
    Tuple[SoftwarePackage, EnvironmentConfiguration], str
] = {}
_IDENTITY_DIGESTS_MAX = 65536


@dataclass
class CacheStatistics:
    """Hit/miss accounting of one build cache (or one campaign's slice of it).

    ``shared_hits`` counts the hits served to a *different* experiment than
    the one that stored the entry — the cross-experiment sharing the
    content-addressed keys enable — and ``donated_by_experiment`` breaks
    those donations down by the storing (donor) experiment.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    shared_hits: int = 0
    donated_by_experiment: Dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        """Total number of cache lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def shared_hit_rate(self) -> float:
        """Fraction of hits donated across experiments."""
        return self.shared_hits / self.hits if self.hits else 0.0

    def __sub__(self, other: "CacheStatistics") -> "CacheStatistics":
        donated = {
            experiment: count - other.donated_by_experiment.get(experiment, 0)
            for experiment, count in self.donated_by_experiment.items()
        }
        return CacheStatistics(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            stores=self.stores - other.stores,
            evictions=self.evictions - other.evictions,
            shared_hits=self.shared_hits - other.shared_hits,
            donated_by_experiment={
                experiment: count for experiment, count in donated.items() if count
            },
        )

    def snapshot(self) -> "CacheStatistics":
        """A frozen copy (for before/after deltas around a campaign)."""
        return CacheStatistics(
            self.hits,
            self.misses,
            self.stores,
            self.evictions,
            self.shared_hits,
            dict(self.donated_by_experiment),
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable view, including the derived hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "shared_hits": self.shared_hits,
            "donated_by_experiment": {
                experiment: self.donated_by_experiment[experiment]
                for experiment in sorted(self.donated_by_experiment)
            },
            "hit_rate": self.hit_rate,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CacheStatistics":
        """Reconstruct statistics serialised by :meth:`as_dict`.

        Missing or malformed fields (pre-journal snapshots, foreign tools,
        hand-edited files) degrade to zero/empty instead of failing the
        whole cache restore — statistics are bookkeeping, never worth
        losing the cached entries over.
        """
        def as_count(value: object) -> int:
            try:
                return int(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return 0

        if not isinstance(payload, dict):
            return cls()
        donated = payload.get("donated_by_experiment", {})
        if not isinstance(donated, dict):
            donated = {}
        return cls(
            hits=as_count(payload.get("hits", 0)),
            misses=as_count(payload.get("misses", 0)),
            stores=as_count(payload.get("stores", 0)),
            evictions=as_count(payload.get("evictions", 0)),
            shared_hits=as_count(payload.get("shared_hits", 0)),
            donated_by_experiment={
                str(experiment): count
                for experiment, count in (
                    (experiment, as_count(raw))
                    for experiment, raw in donated.items()
                )
                if count
            },
        )


class BuildCache:
    """Caches build results by content digest, backed by the artifact store."""

    #: Label under which cached tarballs are referenced in the artifact store.
    ARTIFACT_LABEL = "build-cache"

    #: Common-storage namespace holding the persisted cache.  Registered as
    #: mirrored, so ``CommonStorage.persist`` deletes the files of documents
    #: a persist dropped (evicted entries, orphaned tarballs) and a later
    #: load cannot resurrect them.
    NAMESPACE = register_mirrored_namespace("buildcache")
    #: Key prefixes inside the namespace (storage keys must start with a
    #: letter, so the hex digests get a prefix).  ``artifact_`` sorts before
    #: ``cached_``, so a persist writes an entry's tarball before the entry
    #: and one cut short never leaves an entry without its tarball.
    ENTRY_PREFIX = "cached_"
    ARTIFACT_PREFIX = "artifact_"
    STATISTICS_KEY = "statistics"
    #: Record prefix of the earlier append-only journal layout.  Restore
    #: replays such records; the next persist deletes them.
    JOURNAL_PREFIX = "journal_"
    #: Entry prefix of the pre-journal wholesale-snapshot format.  Its keys
    #: predate the experiment-agnostic content digest and can never be hit
    #: again, so restore drops such documents (counted as evictions) and the
    #: next persist deletes them.
    LEGACY_ENTRY_PREFIX = "entry_"

    def __init__(self, artifact_store: Optional[ArtifactStore] = None) -> None:
        self.artifact_store = artifact_store
        self._entries: Dict[str, BuildResult] = {}
        #: Experiment that first stored each entry (the donor of shared hits).
        self._owners: Dict[str, str] = {}
        #: Per-entry count of hits served to a different experiment than the
        #: storing one.  Eviction under a size budget spares proven donors:
        #: entries no other experiment ever reused go first.
        self._shared_counts: Dict[str, int] = {}
        self.statistics = CacheStatistics()
        # Least-recently-hit bookkeeping for the persistence size budget:
        # every hit (and every store) stamps the entry with a monotonically
        # increasing tick, so eviction order is deterministic.
        self._recency: Dict[str, int] = {}
        self._tick = 0
        #: :meth:`entry_size_bytes` of each entry, computed on first use and
        #: dropped when the entry is stored again, evicted or cleared.
        self._sizes: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _touch(self, key: str) -> None:
        self._tick += 1
        self._recency[key] = self._tick

    def lookup(
        self, package: SoftwarePackage, configuration: EnvironmentConfiguration
    ) -> Optional[BuildResult]:
        """Return a replay of the cached build result, or None on a miss.

        An entry whose tarball no longer exists in the artifact store (it was
        removed or overwritten) is evicted and counts as a miss.  A hit
        served to a different experiment than the one that stored the entry
        is additionally counted as a shared hit, attributed to the donor.
        """
        key = package_identity_digest(package, configuration)
        entry = self._entries.get(key)
        if entry is not None and self._artifact_gone(entry):
            self._evict(key)
            entry = None
        if entry is None:
            self.statistics.misses += 1
            return None
        self.statistics.hits += 1
        owner = self._owners.get(key)
        if owner and owner != package.experiment:
            self.statistics.shared_hits += 1
            self.statistics.donated_by_experiment[owner] = (
                self.statistics.donated_by_experiment.get(owner, 0) + 1
            )
            self._shared_counts[key] = self._shared_counts.get(key, 0) + 1
        self._touch(key)
        return self._replay(entry, package)

    def store(
        self,
        package: SoftwarePackage,
        configuration: EnvironmentConfiguration,
        result: BuildResult,
    ) -> str:
        """Record *result* under its content-digest key and return the key."""
        key = package_identity_digest(package, configuration)
        self._entries[key] = self._replay(result, package)
        self._sizes.pop(key, None)
        # The first storing experiment stays the donor even if the entry is
        # later re-stored (the content is identical by construction).
        self._owners.setdefault(key, package.experiment)
        self.statistics.stores += 1
        self._touch(key)
        if result.tarball is not None and self.artifact_store is not None:
            self.artifact_store.store(result.tarball, label=self.ARTIFACT_LABEL)
        return key

    def contains(
        self, package: SoftwarePackage, configuration: EnvironmentConfiguration
    ) -> bool:
        """True when a (still valid) entry exists; does not touch the counters."""
        entry = self._entries.get(package_identity_digest(package, configuration))
        return entry is not None and not self._artifact_gone(entry)

    def clear(self) -> None:
        """Drop every entry (the statistics are kept).

        The next :meth:`persist_to` deletes the dropped entries' documents.
        """
        self._entries.clear()
        self._sizes.clear()
        self._recency.clear()
        self._owners.clear()
        self._shared_counts.clear()

    def _evict(self, key: str) -> None:
        del self._entries[key]
        self._sizes.pop(key, None)
        self._recency.pop(key, None)
        self._owners.pop(key, None)
        self._shared_counts.pop(key, None)
        self.statistics.evictions += 1

    # -- size accounting -----------------------------------------------------
    @staticmethod
    def entry_size_bytes(entry: BuildResult) -> int:
        """Persisted footprint of one entry: its document plus its tarball."""
        document_bytes = len(
            json.dumps(entry.to_dict(), sort_keys=True).encode("utf-8")
        )
        tarball_bytes = 0 if entry.tarball is None else entry.tarball.size_bytes
        return document_bytes + tarball_bytes

    def _entry_size(self, key: str) -> int:
        """:meth:`entry_size_bytes` of entry *key*, serialised once per store."""
        size = self._sizes.get(key)
        if size is None:
            size = self._sizes[key] = self.entry_size_bytes(self._entries[key])
        return size

    def total_size_bytes(self) -> int:
        """Persisted footprint of the whole cache (documents plus tarballs)."""
        return sum(self._entry_size(key) for key in self._entries)

    def enforce_budget(self, max_bytes: int) -> int:
        """Evict entries until the cache fits *max_bytes*, sparing donors.

        Eviction is donor-aware: entries no *other* experiment ever reused
        go first (lowest per-entry shared-hit count), and among equally
        shared entries the least-recently-hit one goes first — so the
        cross-experiment donors that warm-start other installations survive
        the budget longest.  Ties in the recency stamps (possible only for
        entries never touched since a restore) fall back to the entry key,
        so eviction order is deterministic.  Returns the number of evicted
        entries; evictions are counted in :attr:`statistics`, and the next
        :meth:`persist_to` deletes the evicted entries' documents.
        """
        if max_bytes < 0:
            raise StorageError("a cache size budget cannot be negative")
        evicted = 0
        total = self.total_size_bytes()
        for key in sorted(
            self._entries,
            key=lambda key: (
                self._shared_counts.get(key, 0),
                self._recency.get(key, 0),
                key,
            ),
        ):
            if total <= max_bytes:
                break
            total -= self._entry_size(key)
            self._evict(key)
            evicted += 1
        return evicted

    # -- cross-campaign persistence -------------------------------------------
    def persist_to(
        self, storage: CommonStorage, max_bytes: Optional[int] = None
    ) -> int:
        """Make the ``buildcache`` namespace of *storage* hold the live cache.

        The namespace gets one ``cached_<key>`` document per live entry (its
        build result, donor experiment and shared-hit count, so a restored
        cache keeps its donor-aware eviction order), one
        ``artifact_<digest>`` document per tarball and the cumulative
        ``statistics``, so cross-campaign accounting survives a restart.
        Every other document is deleted, and only documents whose content
        changed are put: a persist with nothing new puts nothing.

        With *max_bytes*, the live cache is first brought under the size
        budget (see :meth:`enforce_budget`).  Returns the number of entries
        that were not yet in the namespace.
        """
        if max_bytes is not None:
            self.enforce_budget(max_bytes)
        self._evict_dangling()
        namespace = storage.create_namespace(self.NAMESPACE)
        documents: Dict[str, object] = {
            self.STATISTICS_KEY: self.statistics.as_dict()
        }
        for key, entry in self._entries.items():
            documents[f"{self.ENTRY_PREFIX}{key}"] = self._entry_record(key, entry)
            if entry.tarball is not None:
                documents[f"{self.ARTIFACT_PREFIX}{entry.tarball.digest}"] = (
                    entry.tarball.to_dict()
                )
        for key in namespace.keys():
            if key not in documents:
                namespace.delete(key)
        added = 0
        for key, document in documents.items():
            if not namespace.exists(key):
                added += key.startswith(self.ENTRY_PREFIX)
            elif namespace.get(key) == document:
                continue
            namespace.put(key, document)
        return added

    def _evict_dangling(self) -> None:
        """Evict entries whose artifact vanished from the store.

        Persisting them would store dangling digests.
        """
        for key in [
            key
            for key, entry in self._entries.items()
            if self._artifact_gone(entry)
        ]:
            self._evict(key)

    def _entry_record(self, key: str, entry: BuildResult) -> Dict[str, object]:
        return {
            "cache_key": key,
            "stored_by": self._owners.get(key, ""),
            "shared_hits": self._shared_counts.get(key, 0),
            "result": entry.to_dict(),
        }

    @classmethod
    def restore_from(
        cls, storage: CommonStorage, artifact_store: Optional[ArtifactStore] = None
    ) -> "BuildCache":
        """Warm-start a cache from the documents :meth:`persist_to` wrote.

        Each ``cached_<key>`` document installs one entry.  A corrupted one
        is skipped — safe for a content-addressed cache, where an entry can
        at worst be lost (a rebuild), never be wrong.  A namespace in the
        earlier append-only layout is replayed first: its ``journal_*``
        records in append order, where an entry record installs (or
        supersedes) an entry and a tombstone removes it.

        Tarballs travelling with the cache are re-materialised into
        *artifact_store*.  An entry whose tarball is neither already in the
        store nor a readable ``artifact_<digest>`` document is evicted on
        restore (and counted in ``statistics.evictions``).  Entries of a
        pre-journal snapshot (the retired wholesale format) are dropped as
        evictions too: their keys predate the experiment-agnostic digest
        and could never be hit again.  The source *storage* is never
        modified — it may belong to another live installation.  A storage
        without a ``buildcache`` namespace restores to an empty cache.
        """
        cache = cls(artifact_store)
        if cls.NAMESPACE not in storage.namespaces():
            return cache
        namespace = storage.namespace(cls.NAMESPACE)
        if namespace.exists(cls.STATISTICS_KEY):
            cache.statistics = CacheStatistics.from_dict(
                namespace.get(cls.STATISTICS_KEY)  # type: ignore[arg-type]
            )
        cache.statistics.evictions += len(
            namespace.keys(prefix=cls.LEGACY_ENTRY_PREFIX)
        )
        live = cls._live_records(namespace)
        for key in sorted(live):
            stored_by, shared_hits, result = live[key]
            if not cache._materialise_artifact(result, namespace):
                cache.statistics.evictions += 1
                continue
            cache._entries[key] = result
            if stored_by:
                cache._owners[key] = stored_by
            if shared_hits:
                cache._shared_counts[key] = shared_hits
        return cache

    @classmethod
    def _live_records(
        cls, namespace: StorageNamespace
    ) -> Dict[str, Tuple[str, int, BuildResult]]:
        """``{cache key: (stored_by, shared_hits, result)}`` of *namespace*.

        The earlier journal layout is replayed in append order; documents of
        the live layout (written by a later, possibly interrupted, persist)
        take precedence.
        """
        live: Dict[str, Tuple[str, int, BuildResult]] = {}
        journal = AppendOnlyJournal(namespace, cls.JOURNAL_PREFIX)
        for _sequence, document in journal.records():
            kind = document.get("type") if isinstance(document, dict) else None
            if kind == "tombstone":
                live.pop(str(document.get("cache_key")), None)  # type: ignore[union-attr]
            elif kind == "entry":
                cls._install_record(live, document)
        for key in namespace.keys(prefix=cls.ENTRY_PREFIX):
            cls._install_record(live, namespace.get(key))
        return live

    @staticmethod
    def _install_record(
        live: Dict[str, Tuple[str, int, BuildResult]], document: object
    ) -> None:
        """Decode one entry record into *live*; skip it if it is corrupted."""
        if not isinstance(document, dict):
            return
        try:
            key = str(document["cache_key"])
            result = BuildResult.from_dict(document["result"])
        except (KeyError, TypeError, ValueError, AttributeError):
            return
        try:
            # Pre-donor-aware records lack the count; degrade to zero.
            shared_hits = int(document.get("shared_hits", 0))
        except (TypeError, ValueError):
            shared_hits = 0
        live[key] = (str(document.get("stored_by", "")), shared_hits, result)

    @classmethod
    def journal_status(cls, storage: CommonStorage) -> Dict[str, int]:
        """Size of the build cache persisted in *storage*.

        Returns the number of entry documents, the number of artifact
        payload documents and the summed JSON footprint in bytes of every
        document in the namespace — the numbers the status pages and the
        ``cache-stats`` CLI report.  A namespace still in the earlier
        journal layout counts the entries its replay leaves live.  The byte
        accounting re-serialises every document, so the call is O(cache);
        the CLI invokes it once per run, right before ``storage.persist``
        does strictly more serialisation work anyway.
        """
        status = {"entries": 0, "artifacts": 0, "bytes": 0}
        if cls.NAMESPACE not in storage.namespaces():
            return status
        namespace = storage.namespace(cls.NAMESPACE)
        for key, document in namespace.items():
            if key.startswith(cls.ENTRY_PREFIX):
                status["entries"] += 1
            elif key.startswith(cls.ARTIFACT_PREFIX):
                status["artifacts"] += 1
            status["bytes"] += len(
                json.dumps(document, sort_keys=True).encode("utf-8")
            )
        if namespace.keys(prefix=cls.JOURNAL_PREFIX):
            status["entries"] = len(cls._live_records(namespace))
        return status

    def _materialise_artifact(self, entry: BuildResult, namespace) -> bool:
        """Ensure the entry's tarball exists in the artifact store.

        Returns False when the digest can no longer be materialised — no
        ``artifact_<digest>`` document, or one that does not hold that
        tarball — the restore-time equivalent of the lookup-time eviction.
        """
        if entry.tarball is None:
            return True
        if self.artifact_store is None:
            # No backing store to check against; mirror the lookup-time
            # semantics, where a store-less cache never evicts.
            return True
        if self.artifact_store.exists(entry.tarball.digest):
            return True
        artifact_key = f"{self.ARTIFACT_PREFIX}{entry.tarball.digest}"
        if not namespace.exists(artifact_key):
            return False
        try:
            tarball = Tarball.from_dict(namespace.get(artifact_key))
        except (KeyError, TypeError, ValueError, AttributeError):
            return False
        if tarball.digest != entry.tarball.digest:
            return False
        self.artifact_store.store(tarball, label=self.ARTIFACT_LABEL)
        return True

    # -- internals -----------------------------------------------------------
    def _artifact_gone(self, entry: BuildResult) -> bool:
        return (
            entry.tarball is not None
            and self.artifact_store is not None
            and not self.artifact_store.exists(entry.tarball.digest)
        )

    @staticmethod
    def _replay(entry: BuildResult, package: SoftwarePackage) -> BuildResult:
        # Fresh list containers so a caller mutating its copy cannot corrupt
        # the cached entry; the tarball is immutable and shared.  The result
        # is rebound to the *requesting* package: a cross-experiment hit
        # must carry the requester's own package (same content identity,
        # different owning experiment), or the replay would leak the donor's
        # attribution into the requester's run documents.
        return BuildResult(
            package=package,
            configuration_key=entry.configuration_key,
            status=entry.status,
            diagnostics=list(entry.diagnostics),
            issues=list(entry.issues),
            tarball=entry.tarball,
            build_seconds=entry.build_seconds,
        )


class CachingPackageBuilder(PackageBuilder):
    """A :class:`PackageBuilder` that consults a :class:`BuildCache` first.

    ``build_inventory`` is inherited: it orders the packages and handles
    dependency skips, while every actual compilation goes through the cached
    :meth:`build_package` here (delegated to the wrapped *base* builder on a
    miss).  Skipped results are not cached — they cost nothing to recompute
    and depend on campaign-local dependency state.

    Limitations: the wrapper assumes the builds it caches are deterministic
    pure functions of (package content, configuration), like every builder in
    this code base.  A base builder with a *stateful* ``build_package`` (e.g.
    a fail-once fault injector) would have its first answer replayed forever,
    and a base overriding ``build_inventory`` itself keeps that override only
    when called directly, not through this wrapper — do not layer the cache
    over such builders.
    """

    def __init__(
        self,
        cache: BuildCache,
        base: Optional[PackageBuilder] = None,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        super().__init__(checker=base.checker if base is not None else None)
        self.cache = cache
        # Misses are delegated to the wrapped builder, so a PackageBuilder
        # subclass with its own build_package keeps its behaviour when the
        # campaign layers the cache over it.
        self.base = base
        # Telemetry is observation only: the probe/hit/miss sequence (and
        # therefore every CacheStatistics counter) is identical with or
        # without it.  Probes run in the deterministic cell pass, so their
        # spans carry category "cell" and join the parity-pinned sequence.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def build_package(
        self,
        package: SoftwarePackage,
        configuration: EnvironmentConfiguration,
    ) -> BuildResult:
        with self.telemetry.tracer.span(
            "cache_probe", category="cell", package=package.name
        ):
            cached = self.cache.lookup(package, configuration)
        if cached is not None:
            self.telemetry.metrics.increment("cache_hits_total")
            return cached
        self.telemetry.metrics.increment("cache_misses_total")
        with self.telemetry.tracer.span(
            "cache_miss_build", category="cell", package=package.name
        ):
            if self.base is not None:
                result = self.base.build_package(package, configuration)
            else:
                result = super().build_package(package, configuration)
        self.cache.store(package, configuration, result)
        return result


__all__ = [
    "package_identity_digest",
    "CacheStatistics",
    "BuildCache",
    "CachingPackageBuilder",
]
