"""Tests for cross-campaign persistence of the build cache.

The cache is a resident of the common sp-system storage, persisted as an
append-only journal in the ``buildcache`` namespace: ``persist_to`` appends
one record per new entry and one tombstone per eviction (repeated campaigns
write O(new entries), not O(cache)), ``restore_from`` replays the journal —
recovering cleanly from a corrupted trailing record — and ``compact``
rewrites the log from the live state under an optional size budget.  A fresh
:class:`SPSystem` mounted on the persisted state warm-starts its first
campaign with cache hits while producing bit-identical run documents.
"""

import pytest

from repro._common import StorageError
from repro.buildsys.builder import BuildResult, PackageBuilder
from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.experiments import build_hermes_experiment
from repro.experiments.inventories import InventoryQuirks, build_inventory
from repro.scheduler.cache import BuildCache, CacheStatistics
from repro.scheduler.spec import CampaignSpec
from repro.storage.artifacts import ArtifactStore
from repro.storage.common_storage import CommonStorage


CAMPAIGN_KEYS = ["SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4"]


@pytest.fixture()
def inventory():
    return build_inventory(
        "PERSISTEXP",
        6,
        quirks=InventoryQuirks(
            n_not_ported_to_newest_abi=0,
            n_legacy_root_api=0,
            n_strictness_limited=0,
            n_32bit_only=0,
        ),
    )


def _fresh_system():
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.2))
    return system


def _hermes_spec(keys=CAMPAIGN_KEYS, **options):
    return CampaignSpec(
        experiments=("HERMES",),
        configuration_keys=tuple(keys),
        persist_spec=False,
        **options,
    )


def _populated_cache(inventory, configuration):
    store = ArtifactStore()
    cache = BuildCache(store)
    builder = PackageBuilder()
    for package in inventory.all():
        cache.store(package, configuration, builder.build_package(package, configuration))
    return cache, store


class TestBuildResultRoundTrip:
    def test_result_with_tarball_round_trips(self, inventory, sl5_64_gcc44):
        result = PackageBuilder().build_package(inventory.all()[0], sl5_64_gcc44)
        restored = BuildResult.from_dict(result.to_dict())
        assert restored.package == result.package
        assert restored.status is result.status
        assert restored.diagnostics == result.diagnostics
        assert restored.issues == result.issues
        assert restored.tarball == result.tarball
        assert restored.build_seconds == result.build_seconds

    def test_failed_result_without_tarball_round_trips(self, inventory, sl5_64_gcc44):
        from repro.environment.compatibility import SoftwareRequirements

        package = inventory.all()[0].with_requirements(
            SoftwareRequirements(max_strictness=0)
        )
        result = PackageBuilder().build_package(package, sl5_64_gcc44)
        assert not result.succeeded
        restored = BuildResult.from_dict(result.to_dict())
        assert restored.status is result.status
        assert restored.tarball is None
        assert restored.issues == result.issues

    def test_result_document_is_json_serialisable(self, inventory, sl5_64_gcc44):
        import json

        result = PackageBuilder().build_package(inventory.all()[0], sl5_64_gcc44)
        payload = json.loads(json.dumps(result.to_dict()))
        assert BuildResult.from_dict(payload).package == result.package


class TestPersistRestore:
    def test_in_memory_round_trip(self, inventory, sl5_64_gcc44):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        assert cache.persist_to(storage) == len(cache)
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == len(cache)
        for package in inventory.all():
            replay = restored.lookup(package, sl5_64_gcc44)
            fresh = PackageBuilder().build_package(package, sl5_64_gcc44)
            assert replay.status is fresh.status
            assert replay.diagnostics == fresh.diagnostics
            assert replay.tarball == fresh.tarball
            assert replay.build_seconds == fresh.build_seconds

    def test_restore_rematerialises_tarballs(self, inventory, sl5_64_gcc44):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        target_store = ArtifactStore()
        restored = BuildCache.restore_from(storage, target_store)
        assert restored.statistics.evictions == 0
        for package in inventory.all():
            entry = restored.lookup(package, sl5_64_gcc44)
            assert target_store.exists(entry.tarball.digest)
            assert BuildCache.ARTIFACT_LABEL in target_store.labels_for(
                entry.tarball.digest
            )

    def test_disk_round_trip(self, inventory, sl5_64_gcc44, tmp_path):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        storage.persist(str(tmp_path))
        loaded = CommonStorage.load(str(tmp_path))
        restored = BuildCache.restore_from(loaded, ArtifactStore())
        assert len(restored) == len(cache)
        replay = restored.lookup(inventory.all()[0], sl5_64_gcc44)
        fresh = PackageBuilder().build_package(inventory.all()[0], sl5_64_gcc44)
        assert replay.tarball == fresh.tarball
        assert replay.build_seconds == fresh.build_seconds

    def test_namespace_filtered_load(self, inventory, sl5_64_gcc44, tmp_path):
        """Warm-start reads only buildcache/, not the full run history."""
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        storage.put("results", "runmeta_sp-000001", {"run_id": "sp-000001"})
        cache.persist_to(storage)
        storage.persist(str(tmp_path))
        loaded = CommonStorage.load(
            str(tmp_path), namespaces=[BuildCache.NAMESPACE]
        )
        assert loaded.namespaces() == [BuildCache.NAMESPACE]
        restored = BuildCache.restore_from(loaded, ArtifactStore())
        assert len(restored) == len(cache)

    def test_statistics_survive_persistence(self, inventory, sl5_64_gcc44):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        cache.lookup(inventory.all()[0], sl5_64_gcc44)  # one hit
        storage = CommonStorage()
        cache.persist_to(storage)
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert restored.statistics.hits == cache.statistics.hits
        assert restored.statistics.stores == cache.statistics.stores

    def test_restore_from_storage_without_namespace(self):
        restored = BuildCache.restore_from(CommonStorage(), ArtifactStore())
        assert len(restored) == 0
        assert restored.statistics == CacheStatistics()

    def test_statistics_round_trip(self):
        statistics = CacheStatistics(
            hits=3, misses=2, stores=2, evictions=1,
            shared_hits=1, donated_by_experiment={"ZEUS": 1},
        )
        assert CacheStatistics.from_dict(statistics.as_dict()) == statistics

    def test_statistics_from_pre_journal_snapshot_defaults(self):
        """Old snapshots without the sharing fields restore to zeros."""
        statistics = CacheStatistics.from_dict(
            {"hits": 3, "misses": 2, "stores": 2, "evictions": 1}
        )
        assert statistics.shared_hits == 0
        assert statistics.donated_by_experiment == {}

    def test_statistics_tolerates_malformed_donations(self):
        """A null/garbage donations field degrades to empty, not a crash."""
        for garbage in (None, "broken", 7):
            statistics = CacheStatistics.from_dict(
                {"hits": 1, "donated_by_experiment": garbage}
            )
            assert statistics.donated_by_experiment == {}
        # Garbage values inside an otherwise well-formed mapping too.
        statistics = CacheStatistics.from_dict(
            {
                "hits": 1,
                "shared_hits": "broken",
                "donated_by_experiment": {"ZEUS": "garbage", "H1": 2},
            }
        )
        assert statistics.shared_hits == 0
        assert statistics.donated_by_experiment == {"H1": 2}

    def test_corrupted_statistics_document_does_not_abort_restore(
        self, inventory, sl5_64_gcc44
    ):
        """Statistics are bookkeeping; a damaged document must not lose the
        journal's intact entries."""
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        namespace = storage.namespace(BuildCache.NAMESPACE)
        for garbage in ({"hits": "3x"}, ["not", "a", "dict"], None):
            namespace.put(BuildCache.STATISTICS_KEY, garbage)
            restored = BuildCache.restore_from(storage, ArtifactStore())
            assert len(restored) == len(cache)
            assert restored.statistics.hits == 0


def _journal_keys(storage):
    return storage.keys(BuildCache.NAMESPACE, prefix=BuildCache.JOURNAL_PREFIX)


def _journal_documents(storage):
    namespace = storage.namespace(BuildCache.NAMESPACE)
    return [namespace.get(key) for key in _journal_keys(storage)]


class TestJournalAppendOnly:
    """persist_to appends deltas; existing records are never rewritten."""

    def test_first_persist_appends_one_record_per_entry(
        self, inventory, sl5_64_gcc44
    ):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        assert cache.persist_to(storage) == len(cache)
        documents = _journal_documents(storage)
        assert len(documents) == len(cache)
        assert all(document["type"] == "entry" for document in documents)

    def test_repersist_without_changes_appends_nothing(
        self, inventory, sl5_64_gcc44
    ):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        before = storage.total_documents()
        keys_before = _journal_keys(storage)
        assert cache.persist_to(storage) == 0
        assert storage.total_documents() == before
        assert _journal_keys(storage) == keys_before

    def test_incremental_persist_appends_only_new_entries(
        self, inventory, sl5_64_gcc44, sl6_64_gcc44
    ):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        keys_before = _journal_keys(storage)
        documents_before = storage.total_documents()
        # A second campaign's worth of builds on another configuration.
        builder = PackageBuilder()
        new_packages = inventory.all()[:2]
        for package in new_packages:
            cache.store(
                package, sl6_64_gcc44,
                builder.build_package(package, sl6_64_gcc44),
            )
        assert cache.persist_to(storage) == len(new_packages)
        keys_after = _journal_keys(storage)
        # Strictly appended: the old records are byte-for-byte untouched.
        assert keys_after[:len(keys_before)] == keys_before
        assert len(keys_after) == len(keys_before) + len(new_packages)
        # Only the new entries, their artifacts and the statistics changed.
        assert (
            storage.total_documents()
            == documents_before + 2 * len(new_packages)
        )

    def test_eviction_appends_tombstone(self, inventory, sl5_64_gcc44):
        cache, store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        records_before = len(_journal_keys(storage))
        victim = PackageBuilder().build_package(inventory.all()[0], sl5_64_gcc44)
        store.remove(victim.tarball.digest)
        assert cache.lookup(inventory.all()[0], sl5_64_gcc44) is None  # evicts
        assert cache.persist_to(storage) == 0
        documents = _journal_documents(storage)
        assert len(documents) == records_before + 1
        victim_key = next(
            document["cache_key"]
            for document in documents
            if document["type"] == "entry"
            and document["result"]["package"]["name"] == inventory.all()[0].name
        )
        assert documents[-1] == {"type": "tombstone", "cache_key": victim_key}
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == len(cache)
        assert restored.lookup(inventory.all()[0], sl5_64_gcc44) is None

    def test_clear_then_persist_auto_compacts_to_empty(
        self, inventory, sl5_64_gcc44
    ):
        """Tombstoning everything trips auto-compaction: no dead journal."""
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        cache.clear()
        assert cache.persist_to(storage) == 0
        assert _journal_documents(storage) == []
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == 0

    def test_persist_auto_compacts_once_tombstones_outnumber_entries(
        self, inventory, sl5_64_gcc44
    ):
        cache, store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        builder = PackageBuilder()
        # Evict all but one entry: more tombstones pending than live entries.
        for package in inventory.all()[1:]:
            result = builder.build_package(package, sl5_64_gcc44)
            store.remove(result.tarball.digest)
            assert cache.lookup(package, sl5_64_gcc44) is None
        assert cache.persist_to(storage) == len(cache)
        status = BuildCache.journal_status(storage)
        assert status["tombstones"] == 0
        assert status["records"] == len(cache) == 1

    def test_tombstoned_key_can_be_rejournalled(self, inventory, sl5_64_gcc44):
        cache, store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        package = inventory.all()[0]
        result = PackageBuilder().build_package(package, sl5_64_gcc44)
        store.remove(result.tarball.digest)
        assert cache.lookup(package, sl5_64_gcc44) is None
        cache.persist_to(storage)  # tombstone
        cache.store(package, sl5_64_gcc44, result)  # re-stored (new artifact)
        assert cache.persist_to(storage) == 1
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert restored.lookup(package, sl5_64_gcc44) is not None

    def test_journal_status_counts(self, inventory, sl5_64_gcc44):
        cache, store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        victim = PackageBuilder().build_package(inventory.all()[0], sl5_64_gcc44)
        store.remove(victim.tarball.digest)
        cache.lookup(inventory.all()[0], sl5_64_gcc44)
        cache.persist_to(storage)
        status = BuildCache.journal_status(storage)
        assert status["entries"] == len(inventory.all())
        assert status["tombstones"] == 1
        assert status["records"] == len(inventory.all()) + 1
        assert status["artifacts"] == len(inventory.all())
        assert status["bytes"] > 0
        assert BuildCache.journal_status(CommonStorage()) == {
            "records": 0, "entries": 0, "tombstones": 0, "artifacts": 0,
            "bytes": 0,
        }


class TestJournalCompaction:
    def test_compact_drops_tombstones_and_orphans(self, inventory, sl5_64_gcc44):
        cache, store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        victim = PackageBuilder().build_package(inventory.all()[0], sl5_64_gcc44)
        store.remove(victim.tarball.digest)
        cache.lookup(inventory.all()[0], sl5_64_gcc44)
        cache.persist_to(storage)
        assert BuildCache.journal_status(storage)["tombstones"] == 1
        written = cache.compact(storage)
        assert written == len(cache)
        status = BuildCache.journal_status(storage)
        assert status["records"] == len(cache)
        assert status["tombstones"] == 0
        # The evicted entry's artifact payload was orphaned and dropped.
        assert status["artifacts"] == len(cache)
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == len(cache)

    def test_compact_under_budget(self, inventory, sl5_64_gcc44):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        budget = cache.total_size_bytes() // 2
        written = cache.compact(storage, max_bytes=budget)
        assert 0 < written < len(inventory.all())
        assert written == len(cache)
        assert cache.total_size_bytes() <= budget
        status = BuildCache.journal_status(storage)
        assert status["records"] == written
        assert status["tombstones"] == 0
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == written

    def test_compaction_bounds_journal_growth(self, inventory, sl5_64_gcc44):
        """Churn grows the journal without bound; compaction resets it."""
        cache, store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        builder = PackageBuilder()
        package = inventory.all()[0]
        for _churn in range(3):
            result = builder.build_package(package, sl5_64_gcc44)
            store.remove(result.tarball.digest)
            assert cache.lookup(package, sl5_64_gcc44) is None
            cache.persist_to(storage)
            cache.store(package, sl5_64_gcc44, result)
            cache.persist_to(storage)
        churned = BuildCache.journal_status(storage)
        assert churned["records"] > len(cache)
        cache.compact(storage)
        assert BuildCache.journal_status(storage)["records"] == len(cache)

    def test_compaction_reaches_disk(self, inventory, sl5_64_gcc44, tmp_path):
        """storage.persist mirrors the namespace: compacted-away journal
        files are removed on disk, so a reload cannot resurrect evicted
        entries from a stale tail."""
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        storage.persist(str(tmp_path))
        budget = cache.total_size_bytes() // 2
        survivors = cache.compact(storage, max_bytes=budget)
        assert 0 < survivors < len(inventory.all())
        storage.persist(str(tmp_path))
        reloaded = CommonStorage.load(str(tmp_path))
        assert BuildCache.journal_status(reloaded)["records"] == survivors
        restored = BuildCache.restore_from(reloaded, ArtifactStore())
        assert len(restored) == survivors
        # Appends after the reload continue cleanly past the compacted log.
        builder = PackageBuilder()
        evicted = [
            package for package in inventory.all()
            if not cache.contains(package, sl5_64_gcc44)
        ]
        restored.store(
            evicted[0], sl5_64_gcc44,
            builder.build_package(evicted[0], sl5_64_gcc44),
        )
        assert restored.persist_to(reloaded) == 1
        assert BuildCache.journal_status(reloaded)["records"] == survivors + 1

    def test_fresh_cache_rewrites_foreign_journal(self, inventory, sl5_64_gcc44):
        """A never-synced cache persisting over an existing journal replaces it."""
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        other = BuildCache(ArtifactStore())
        builder = PackageBuilder()
        package = inventory.all()[0]
        other.store(package, sl5_64_gcc44, builder.build_package(package, sl5_64_gcc44))
        assert other.persist_to(storage) == 1
        status = BuildCache.journal_status(storage)
        assert status["records"] == 1
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == 1

    def test_second_writer_rewrite_is_detected_by_the_first(
        self, inventory, sl5_64_gcc44
    ):
        """Two caches persisting into one storage cannot corrupt each other.

        Cache B's wholesale rewrite bumps the journal epoch, so cache A's
        next persist must notice (despite its same-namespace fast path),
        fall back to the lineage scan and rewrite from its own live state
        instead of appending onto B's journal.
        """
        storage = CommonStorage()
        builder = PackageBuilder()
        packages = inventory.all()

        cache_a = BuildCache(ArtifactStore())
        for package in packages[:2]:
            cache_a.store(
                package, sl5_64_gcc44,
                builder.build_package(package, sl5_64_gcc44),
            )
        cache_a.persist_to(storage)

        cache_b = BuildCache(ArtifactStore())
        cache_b.store(
            packages[2], sl5_64_gcc44,
            builder.build_package(packages[2], sl5_64_gcc44),
        )
        cache_b.persist_to(storage)  # never-synced writer: rewrites

        cache_a.store(
            packages[3], sl5_64_gcc44,
            builder.build_package(packages[3], sl5_64_gcc44),
        )
        cache_a.persist_to(storage)
        restored = BuildCache.restore_from(storage, ArtifactStore())
        # The last writer's live state won wholesale; nothing was merged.
        assert len(restored) == len(cache_a) == 3
        for package in packages[:2] + [packages[3]]:
            assert restored.lookup(package, sl5_64_gcc44) is not None

    def test_restored_cache_rewrites_a_foreign_overlapping_journal(
        self, inventory, sl5_64_gcc44
    ):
        """Sequence overlap with a foreign journal does not fake 'in sync'.

        A cache restored from storage A must not silently merge into
        storage B's journal just because B happens to hold records at the
        same sequence numbers: the persisted state must equal the live
        cache, so the lineage check compares record content, not key
        existence.
        """
        big_cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage_b = CommonStorage()
        big_cache.persist_to(storage_b)  # sequences 1..N

        from dataclasses import replace

        donor = CommonStorage()
        small_cache = BuildCache(ArtifactStore())
        # A version bump guarantees a cache key disjoint from storage B's.
        package = replace(inventory.all()[0], version="99.9")
        small_cache.store(
            package, sl5_64_gcc44,
            PackageBuilder().build_package(package, sl5_64_gcc44),
        )
        small_cache.persist_to(donor)  # sequence 1 — overlaps storage B's
        restored = BuildCache.restore_from(donor, ArtifactStore())

        restored.persist_to(storage_b)
        merged = BuildCache.restore_from(storage_b, ArtifactStore())
        assert len(merged) == len(restored) == 1


class TestLegacySnapshotCleanup:
    """Pre-journal `entry_*` snapshots are dropped (their retired key format
    could never be hit again) and cleaned out by the next persist."""

    def _legacy_snapshot(self, inventory, configuration):
        storage = CommonStorage()
        namespace = storage.create_namespace(BuildCache.NAMESPACE)
        for package in inventory.all():
            result = PackageBuilder().build_package(package, configuration)
            key = f"legacyformat{package.name.replace('-', '')}"
            namespace.put(
                f"{BuildCache.LEGACY_ENTRY_PREFIX}{key}",
                {"cache_key": key, "result": result.to_dict()},
            )
            namespace.put(
                f"{BuildCache.ARTIFACT_PREFIX}{result.tarball.digest}",
                result.tarball.to_dict(),
            )
        namespace.put(
            BuildCache.STATISTICS_KEY,
            {"hits": 7, "misses": 3, "stores": 3, "evictions": 0},
        )
        return storage

    def test_legacy_snapshot_restores_empty_with_evictions(
        self, inventory, sl5_64_gcc44
    ):
        storage = self._legacy_snapshot(inventory, sl5_64_gcc44)
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == 0
        assert restored.statistics.evictions == len(inventory.all())
        # The cumulative counters still travel.
        assert restored.statistics.hits == 7

    def test_next_persist_deletes_the_dead_snapshot(
        self, inventory, sl5_64_gcc44
    ):
        storage = self._legacy_snapshot(inventory, sl5_64_gcc44)
        restored = BuildCache.restore_from(storage, ArtifactStore())
        # New builds journal normally; the dead documents disappear.
        package = inventory.all()[0]
        restored.store(
            package, sl5_64_gcc44,
            PackageBuilder().build_package(package, sl5_64_gcc44),
        )
        assert restored.persist_to(storage) == 1
        assert storage.keys(
            BuildCache.NAMESPACE, prefix=BuildCache.LEGACY_ENTRY_PREFIX
        ) == []
        assert BuildCache.journal_status(storage)["entries"] == 1
        assert len(BuildCache.restore_from(storage, ArtifactStore())) == 1


class TestJournalCorruptionRecovery:
    def _persisted(self, inventory, configuration):
        cache, _store = _populated_cache(inventory, configuration)
        storage = CommonStorage()
        cache.persist_to(storage)
        return cache, storage

    def test_corrupted_trailing_record_is_dropped(self, inventory, sl5_64_gcc44):
        cache, storage = self._persisted(inventory, sl5_64_gcc44)
        namespace = storage.namespace(BuildCache.NAMESPACE)
        last_key = _journal_keys(storage)[-1]
        namespace.put(last_key, {"type": "entry", "cache_key": "x"})  # truncated
        restored = BuildCache.restore_from(storage, ArtifactStore())
        # Everything before the corrupted tail is recovered.
        assert len(restored) == len(cache) - 1

    def test_mid_journal_corruption_skips_only_the_broken_record(
        self, inventory, sl5_64_gcc44
    ):
        """One bad record must not discard the valid tail behind it.

        Skipping is safe for a content-addressed cache: a lost entry costs
        a rebuild, a resurrected one is still correct by construction.
        """
        cache, storage = self._persisted(inventory, sl5_64_gcc44)
        namespace = storage.namespace(BuildCache.NAMESPACE)
        keys = _journal_keys(storage)
        namespace.put(keys[1], "garbage")
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == len(cache) - 1

    def test_next_persist_repairs_a_recovered_journal(
        self, inventory, sl5_64_gcc44
    ):
        cache, storage = self._persisted(inventory, sl5_64_gcc44)
        namespace = storage.namespace(BuildCache.NAMESPACE)
        last_key = _journal_keys(storage)[-1]
        namespace.put(last_key, {"type": "entry", "cache_key": "x"})
        restored = BuildCache.restore_from(storage, ArtifactStore())
        written = restored.persist_to(storage)
        # The repair is a full rewrite of the journal from the live state.
        assert written == len(restored)
        status = BuildCache.journal_status(storage)
        assert status["records"] == len(restored)
        rerestored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(rerestored) == len(restored)


class TestRestoreTimeEviction:
    def test_dangling_artifact_document_evicts_entry(self, inventory, sl5_64_gcc44):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        victim = PackageBuilder().build_package(inventory.all()[0], sl5_64_gcc44)
        storage.namespace(BuildCache.NAMESPACE).delete(
            f"{BuildCache.ARTIFACT_PREFIX}{victim.tarball.digest}"
        )
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == len(cache) - 1
        assert restored.statistics.evictions == cache.statistics.evictions + 1
        assert restored.lookup(inventory.all()[0], sl5_64_gcc44) is None

    def test_restore_never_mutates_the_source_storage(self, inventory, sl5_64_gcc44):
        """Restore is read-only: the snapshot may belong to a live installation."""
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        victim = PackageBuilder().build_package(inventory.all()[0], sl5_64_gcc44)
        storage.namespace(BuildCache.NAMESPACE).delete(
            f"{BuildCache.ARTIFACT_PREFIX}{victim.tarball.digest}"
        )
        keys_before = storage.keys(BuildCache.NAMESPACE)
        BuildCache.restore_from(storage, ArtifactStore())
        assert storage.keys(BuildCache.NAMESPACE) == keys_before
        # The restored cache's next persist drops the dangling entry instead.
        restored = BuildCache.restore_from(storage, ArtifactStore())
        clean = CommonStorage()
        assert restored.persist_to(clean) == len(cache) - 1

    def test_artifact_already_in_store_needs_no_payload(self, inventory, sl5_64_gcc44):
        cache, source_store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        for key in storage.keys(
            BuildCache.NAMESPACE, prefix=BuildCache.ARTIFACT_PREFIX
        ):
            storage.namespace(BuildCache.NAMESPACE).delete(key)
        # Restoring against the store that still holds the artifacts works.
        restored = BuildCache.restore_from(storage, source_store)
        assert len(restored) == len(cache)
        assert restored.statistics.evictions == cache.statistics.evictions


class TestSizeBudget:
    """persist_to(max_bytes=...) keeps the snapshot within a size budget."""

    def test_budget_evicts_least_recently_hit_first(self, inventory, sl5_64_gcc44):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        packages = inventory.all()
        # Touch every entry but the first: the untouched one must go first.
        for package in packages[1:]:
            assert cache.lookup(package, sl5_64_gcc44) is not None
        size_of_one = cache.entry_size_bytes(
            PackageBuilder().build_package(packages[0], sl5_64_gcc44)
        )
        storage = CommonStorage()
        persisted = cache.persist_to(
            storage, max_bytes=cache.total_size_bytes() - size_of_one
        )
        assert persisted == len(packages) - 1
        assert cache.lookup(packages[0], sl5_64_gcc44) is None  # evicted
        assert cache.lookup(packages[1], sl5_64_gcc44) is not None

    def test_zero_budget_persists_nothing(self, inventory, sl5_64_gcc44):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        assert cache.persist_to(storage, max_bytes=0) == 0
        assert len(cache) == 0
        assert cache.statistics.evictions == len(inventory.all())
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == 0

    def test_generous_budget_evicts_nothing(self, inventory, sl5_64_gcc44):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        assert cache.persist_to(
            storage, max_bytes=cache.total_size_bytes()
        ) == len(inventory.all())
        assert cache.statistics.evictions == 0

    def test_negative_budget_rejected(self, inventory, sl5_64_gcc44):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        with pytest.raises(StorageError):
            cache.persist_to(CommonStorage(), max_bytes=-1)

    def test_budgeted_snapshot_still_round_trips(self, inventory, sl5_64_gcc44):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        budget = cache.total_size_bytes() // 2
        storage = CommonStorage()
        persisted = cache.persist_to(storage, max_bytes=budget)
        assert 0 < persisted < len(inventory.all())
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == persisted
        # The surviving (most recently stored) entries replay as hits.
        survivors = [
            package for package in inventory.all()
            if cache.contains(package, sl5_64_gcc44)
        ]
        assert survivors
        for package in survivors:
            assert restored.lookup(package, sl5_64_gcc44) is not None


class TestWarmStartCampaigns:
    def test_second_installation_warm_starts_with_hits(self):
        cold = _fresh_system()
        first = cold.submit(_hermes_spec(workers=2)).result()
        assert first.cache_statistics.hits == 0
        assert cold.persist_build_cache() > 0

        warm = _fresh_system()
        assert warm.restore_build_cache(cold.storage) is not None
        second = warm.submit(_hermes_spec(workers=2)).result()
        assert second.cache_statistics.hits > 0
        assert second.cache_statistics.misses == 0

    def test_warm_campaign_output_is_bit_identical(self):
        # Cold sequential baseline: one validate() call per cell.
        baseline = _fresh_system()
        expected = [
            baseline.validate("HERMES", key).run.to_document()
            for key in CAMPAIGN_KEYS
        ]

        cold = _fresh_system()
        cold.submit(_hermes_spec())
        cold.persist_build_cache()

        warm = _fresh_system()
        warm.restore_build_cache(cold.storage)
        campaign = warm.submit(_hermes_spec(workers=3)).result()
        assert campaign.cache_statistics.hits > 0
        assert [run.to_document() for run in campaign.runs()] == expected
        # Catalogue records are identical too.
        assert [record.to_dict() for record in warm.catalog.all()] == [
            record.to_dict() for record in baseline.catalog.all()
        ]

    def test_run_campaign_warm_starts_from_mounted_storage(self, tmp_path):
        cold = _fresh_system()
        cold.submit(_hermes_spec())
        cold.persist_build_cache()
        cold.storage.persist(str(tmp_path))

        # A fresh installation mounted on the loaded storage warm-starts
        # automatically — no explicit restore call.
        warm = SPSystem(
            runner_settings=RunnerSettings(simulated_seconds_per_test=30.0),
            storage=CommonStorage.load(str(tmp_path)),
        )
        warm.provision_standard_images()
        warm.register_experiment(build_hermes_experiment(scale=0.2))
        campaign = warm.submit(_hermes_spec(description="warm rerun")).result()
        assert campaign.cache_statistics.hits > 0
        assert campaign.cache_statistics.misses == 0

    def test_warm_start_can_be_disabled(self, tmp_path):
        cold = _fresh_system()
        cold.submit(_hermes_spec())
        cold.persist_build_cache()
        cold.storage.persist(str(tmp_path))

        warm = SPSystem(
            runner_settings=RunnerSettings(simulated_seconds_per_test=30.0),
            storage=CommonStorage.load(str(tmp_path)),
        )
        warm.provision_standard_images()
        warm.register_experiment(build_hermes_experiment(scale=0.2))
        campaign = warm.submit(
            _hermes_spec(description="cold rerun", warm_start=False)
        ).result()
        assert campaign.cache_statistics.hits == 0

    def test_restore_without_snapshot_raises(self):
        system = _fresh_system()
        with pytest.raises(StorageError):
            system.restore_build_cache(CommonStorage())
        assert system.restore_build_cache(CommonStorage(), missing_ok=True) is None

    def test_restore_mounts_the_journal_for_incremental_persists(self):
        """A warm installation appends to the inherited journal, not rewrites.

        This is the CLI round trip: restore from a loaded storage, run a
        campaign, persist into the installation's own storage — without new
        builds, zero journal records are appended.
        """
        cold = _fresh_system()
        cold.submit(_hermes_spec())
        entries = cold.persist_build_cache()
        assert entries > 0
        source_keys = cold.storage.keys(BuildCache.NAMESPACE)

        warm = _fresh_system()
        warm.restore_build_cache(cold.storage)
        # The journal travelled into the warm installation's own storage...
        assert warm.storage.keys(BuildCache.NAMESPACE) == source_keys
        warm.submit(_hermes_spec())
        # ...and a fully warm campaign appends nothing to it.
        assert warm.persist_build_cache() == 0
        assert warm.storage.keys(BuildCache.NAMESPACE) == source_keys
        # The source installation's storage was never modified.
        assert cold.storage.keys(BuildCache.NAMESPACE) == source_keys


class TestForkedCampaignJournal:
    """System level: a forked campaign never disturbs a mounted journal."""

    def test_forked_campaign_keeps_the_mounted_journal_consistent(self):
        system = _fresh_system()
        system.submit(_hermes_spec(CAMPAIGN_KEYS[:1]))
        assert system.persist_build_cache() > 0
        before = len(BuildCache.restore_from(system.storage, ArtifactStore()))
        system.submit(
            _hermes_spec(workers=2, slots_per_worker=1, backend="processes")
        ).result()
        # The parent's build pass stored the second configuration's builds
        # in the live cache only; the forked workers compute tests and
        # write nothing, so the synced journal is untouched.  The next
        # persist appends exactly the new entries, after which restore
        # equals the live cache.
        assert len(
            BuildCache.restore_from(system.storage, ArtifactStore())
        ) == before
        live = system.effective_build_cache()
        assert system.persist_build_cache() == len(live) - before
        restored = BuildCache.restore_from(system.storage, ArtifactStore())
        assert len(restored) == len(live)

    def test_unsynced_forked_run_leaves_storage_untouched(self):
        system = _fresh_system()
        system.submit(
            _hermes_spec(workers=2, slots_per_worker=1, backend="processes")
        ).result()
        # Never persisted, so no journal exists.
        assert BuildCache.NAMESPACE not in system.storage.namespaces()
