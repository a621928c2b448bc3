"""Tests for cross-campaign persistence of the build cache.

The cache is a resident of the common sp-system storage: ``persist_to``
makes the ``buildcache`` namespace hold the live cache and nothing else
(one document per entry, one per tarball, the statistics) and puts only the
documents whose content changed, so repeated campaigns write O(new entries),
not O(cache).  ``restore_from`` reads the documents back, skipping a
corrupted one, and still replays a namespace in the earlier append-only
journal layout.  A fresh :class:`SPSystem` mounted on the persisted state
warm-starts its first campaign with cache hits while producing
bit-identical run documents.
"""

import json
import os
from dataclasses import replace

import pytest

from repro._common import StorageError
from repro.buildsys.builder import BuildResult, PackageBuilder
from repro.cli import main as cli_main
from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.experiments import build_hermes_experiment
from repro.experiments.inventories import InventoryQuirks, build_inventory
from repro.scheduler.cache import (
    BuildCache,
    CacheStatistics,
    package_identity_digest,
)
from repro.scheduler.spec import CampaignSpec
from repro.storage import common_storage
from repro.storage.artifacts import ArtifactStore
from repro.storage.common_storage import CommonStorage
from repro.telemetry import Telemetry


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


def _fresh_system(**options):
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0), **options
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
        cache's intact entries."""
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        namespace = storage.namespace(BuildCache.NAMESPACE)
        for garbage in ({"hits": "3x"}, ["not", "a", "dict"], None):
            namespace.put(BuildCache.STATISTICS_KEY, garbage)
            restored = BuildCache.restore_from(storage, ArtifactStore())
            assert len(restored) == len(cache)
            assert restored.statistics.hits == 0


def _entry_keys(storage):
    return storage.keys(BuildCache.NAMESPACE, prefix=BuildCache.ENTRY_PREFIX)


def _artifact_keys(storage):
    return storage.keys(BuildCache.NAMESPACE, prefix=BuildCache.ARTIFACT_PREFIX)


def _live_documents(cache):
    """The documents *cache* persists into an empty storage: one per entry
    (result, donor, shared-hit count), one per tarball, the statistics."""
    storage = CommonStorage()
    cache.persist_to(storage)
    return storage.namespace(BuildCache.NAMESPACE).items()


def _assert_restores_the_live_cache(cache, storage):
    restored = BuildCache.restore_from(storage, ArtifactStore())
    assert len(restored) == len(cache)
    assert _live_documents(restored) == _live_documents(cache)
    assert storage.namespace(BuildCache.NAMESPACE).items() == _live_documents(cache)


class TestLiveLayout:
    """persist_to makes the namespace hold the live cache and nothing else."""

    def test_first_persist_writes_one_document_per_entry_and_tarball(
        self, inventory, sl5_64_gcc44
    ):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        assert cache.persist_to(storage) == len(cache)
        assert len(_entry_keys(storage)) == len(_artifact_keys(storage)) == len(cache)
        assert storage.keys(BuildCache.NAMESPACE) == sorted(
            _entry_keys(storage) + _artifact_keys(storage)
            + [BuildCache.STATISTICS_KEY]
        )
        document = storage.get(BuildCache.NAMESPACE, _entry_keys(storage)[0])
        assert sorted(document) == ["cache_key", "result", "shared_hits", "stored_by"]

    def test_an_unchanged_persist_puts_nothing(self, inventory, sl5_64_gcc44, puts):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        keys_before = storage.keys(BuildCache.NAMESPACE)
        puts.clear()
        assert cache.persist_to(storage) == 0
        assert puts == []
        assert storage.keys(BuildCache.NAMESPACE) == keys_before

    def test_incremental_persist_puts_only_new_entries(
        self, inventory, sl5_64_gcc44, sl6_64_gcc44, puts
    ):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        keys_before = _entry_keys(storage)
        # A second campaign's worth of builds on another configuration.
        builder = PackageBuilder()
        new_packages = inventory.all()[:2]
        for package in new_packages:
            cache.store(
                package, sl6_64_gcc44,
                builder.build_package(package, sl6_64_gcc44),
            )
        puts.clear()
        assert cache.persist_to(storage) == len(new_packages)
        new_keys = sorted(set(_entry_keys(storage)) - set(keys_before))
        assert len(new_keys) == len(new_packages)
        # Only the new entries, their artifacts and the statistics changed.
        assert len(puts) == 2 * len(new_packages) + 1
        assert {put.split("/")[1] for put in puts} >= set(new_keys) | {
            BuildCache.STATISTICS_KEY
        }
        _assert_restores_the_live_cache(cache, storage)

    def test_eviction_deletes_the_entry_and_its_tarball(
        self, inventory, sl5_64_gcc44
    ):
        cache, store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        victim = PackageBuilder().build_package(inventory.all()[0], sl5_64_gcc44)
        store.remove(victim.tarball.digest)
        assert cache.lookup(inventory.all()[0], sl5_64_gcc44) is None  # evicts
        assert cache.persist_to(storage) == 0
        assert len(_entry_keys(storage)) == len(cache) == len(inventory.all()) - 1
        assert (
            f"{BuildCache.ARTIFACT_PREFIX}{victim.tarball.digest}"
            not in _artifact_keys(storage)
        )
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == len(cache)
        assert restored.lookup(inventory.all()[0], sl5_64_gcc44) is None

    def test_clear_then_persist_leaves_only_the_statistics(
        self, inventory, sl5_64_gcc44
    ):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        cache.clear()
        assert cache.persist_to(storage) == 0
        assert storage.keys(BuildCache.NAMESPACE) == [BuildCache.STATISTICS_KEY]
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == 0

    def test_churn_keeps_the_namespace_the_size_of_the_cache(
        self, inventory, sl5_64_gcc44
    ):
        cache, store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        size = len(storage.namespace(BuildCache.NAMESPACE))
        builder = PackageBuilder()
        package = inventory.all()[0]
        for _churn in range(3):
            result = builder.build_package(package, sl5_64_gcc44)
            store.remove(result.tarball.digest)
            assert cache.lookup(package, sl5_64_gcc44) is None
            cache.persist_to(storage)
            cache.store(package, sl5_64_gcc44, result)
            assert cache.persist_to(storage) == 1
        assert len(storage.namespace(BuildCache.NAMESPACE)) == size
        _assert_restores_the_live_cache(cache, storage)

    def test_evicted_key_can_be_persisted_again(self, inventory, sl5_64_gcc44):
        cache, store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        package = inventory.all()[0]
        result = PackageBuilder().build_package(package, sl5_64_gcc44)
        store.remove(result.tarball.digest)
        assert cache.lookup(package, sl5_64_gcc44) is None
        cache.persist_to(storage)  # deletes its document
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
        assert status["entries"] == len(inventory.all()) - 1
        assert status["artifacts"] == len(inventory.all()) - 1
        assert status["bytes"] > 0
        assert BuildCache.journal_status(CommonStorage()) == {
            "entries": 0, "artifacts": 0, "bytes": 0,
        }

    @pytest.mark.parametrize(
        "change", ["new_entry", "eviction", "shared_hit", "budget", "clear", "none"]
    )
    def test_restore_equals_the_live_cache_after_any_persist(
        self, inventory, sl5_64_gcc44, change
    ):
        packages = inventory.all()
        cache = BuildCache(ArtifactStore())
        builder = PackageBuilder()
        for package in packages[1:]:
            cache.store(
                package, sl5_64_gcc44, builder.build_package(package, sl5_64_gcc44)
            )
        storage = CommonStorage()
        cache.persist_to(storage)
        if change == "new_entry":
            cache.store(
                packages[0], sl5_64_gcc44,
                builder.build_package(packages[0], sl5_64_gcc44),
            )
        elif change == "eviction":
            assert cache.enforce_budget(cache.total_size_bytes() - 1) == 1
        elif change == "shared_hit":
            borrower = replace(packages[1], experiment="OTHEREXP")
            assert cache.lookup(borrower, sl5_64_gcc44) is not None
        elif change == "budget":
            cache.persist_to(storage, max_bytes=cache.total_size_bytes() // 2)
        elif change == "clear":
            cache.clear()
        cache.persist_to(storage)
        _assert_restores_the_live_cache(cache, storage)


class TestTwoWriters:
    """Two caches persisting into one storage: the last writer's live state
    wins wholesale, and nothing is merged."""

    @staticmethod
    def _cache(packages, configuration):
        cache = BuildCache(ArtifactStore())
        for package in packages:
            cache.store(
                package, configuration,
                PackageBuilder().build_package(package, configuration),
            )
        return cache

    def test_a_fresh_cache_replaces_another_caches_entries(
        self, inventory, sl5_64_gcc44
    ):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        other = self._cache(inventory.all()[:1], sl5_64_gcc44)
        assert other.persist_to(storage) == 0  # its entry was already there
        assert BuildCache.journal_status(storage)["entries"] == 1
        _assert_restores_the_live_cache(other, storage)

    def test_the_first_writer_wins_back_with_its_next_persist(
        self, inventory, sl5_64_gcc44
    ):
        packages = inventory.all()
        storage = CommonStorage()
        cache_a = self._cache(packages[:2], sl5_64_gcc44)
        cache_a.persist_to(storage)
        cache_a.persist_to(storage)  # nothing new
        self._cache(packages[2:3], sl5_64_gcc44).persist_to(storage)
        # A has nothing new, yet its persist restores its own live state
        # instead of leaving the other cache's entries in place.
        assert cache_a.persist_to(storage) == 2
        _assert_restores_the_live_cache(cache_a, storage)
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert [restored.contains(package, sl5_64_gcc44)
                for package in packages[:3]] == [True, True, False]

    def test_second_writer_rewrite_is_detected_by_the_first(
        self, inventory, sl5_64_gcc44
    ):
        """Cache B replaces A's entries; A's next persist replaces B's."""
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
        cache_b.persist_to(storage)

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

    def test_restored_cache_replaces_a_foreign_storages_entries(
        self, inventory, sl5_64_gcc44
    ):
        """A cache restored from storage A and persisted into storage B
        leaves B holding exactly its own entries."""
        big_cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage_b = CommonStorage()
        big_cache.persist_to(storage_b)

        donor = CommonStorage()
        small_cache = BuildCache(ArtifactStore())
        # A version bump guarantees a cache key disjoint from storage B's.
        package = replace(inventory.all()[0], version="99.9")
        small_cache.store(
            package, sl5_64_gcc44,
            PackageBuilder().build_package(package, sl5_64_gcc44),
        )
        small_cache.persist_to(donor)
        restored = BuildCache.restore_from(donor, ArtifactStore())

        restored.persist_to(storage_b)
        merged = BuildCache.restore_from(storage_b, ArtifactStore())
        assert len(merged) == len(restored) == 1


class TestEvictionsReachDisk:
    def test_budgeted_persist_removes_the_evicted_files(
        self, inventory, sl5_64_gcc44, tmp_path
    ):
        """storage.persist mirrors the namespace: the files of evicted
        entries are removed on disk, so a reload cannot resurrect them."""
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        storage.persist(str(tmp_path))
        budget = cache.total_size_bytes() // 2
        assert cache.persist_to(storage, max_bytes=budget) == 0
        survivors = len(cache)
        assert 0 < survivors < len(inventory.all())
        storage.persist(str(tmp_path))
        assert len(os.listdir(tmp_path / BuildCache.NAMESPACE)) == 2 * survivors + 1
        reloaded = CommonStorage.load(str(tmp_path))
        restored = BuildCache.restore_from(reloaded, ArtifactStore())
        assert len(restored) == survivors
        # Stores after the reload persist cleanly next to the survivors.
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
        assert BuildCache.journal_status(reloaded)["entries"] == survivors + 1


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
        # New builds persist normally; the dead documents disappear.
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


class TestParentJournalLayout:
    """A ``buildcache`` persisted in the earlier append-only journal layout
    (entry records, tombstones and superseding records batched into
    ``journal_segment_*`` files, a ``lineage`` epoch) still warm-starts,
    and its first persist rewrites it in the live layout."""

    STATISTICS = {
        "hits": 5, "misses": 4, "stores": 4, "evictions": 1, "shared_hits": 3,
        "donated_by_experiment": {"ZEUS": 3}, "hit_rate": 5 / 9,
    }

    def _parent_directory(self, directory, packages, configuration):
        builder = PackageBuilder()
        results = [builder.build_package(package, configuration)
                   for package in packages]
        keys = [package_identity_digest(package, configuration)
                for package in packages]

        def entry(index, stored_by="PERSISTEXP", shared_hits=0):
            return {"type": "entry", "cache_key": keys[index],
                    "stored_by": stored_by, "shared_hits": shared_hits,
                    "result": results[index].to_dict()}

        records = [
            entry(0, stored_by="ZEUS"), entry(1), entry(2),
            {"type": "tombstone", "cache_key": keys[1]},
            # Superseding record: a donation after the first was journalled.
            entry(0, stored_by="ZEUS", shared_hits=3),
            entry(3),
        ]
        target = directory / BuildCache.NAMESPACE
        target.mkdir(parents=True)
        documents = {
            "journal_segment_00000001": {"sp-journal-segment": {
                f"journal_{sequence:08d}": records[sequence - 1]
                for sequence in range(1, 5)}},
            "journal_segment_00000005": {"sp-journal-segment": {
                f"journal_{sequence:08d}": records[sequence - 1]
                for sequence in range(5, 7)}},
            "lineage": {"epoch": 3},
            "statistics": self.STATISTICS,
        }
        for result in results:
            documents[f"artifact_{result.tarball.digest}"] = result.tarball.to_dict()
        for name, document in documents.items():
            (target / f"{name}.json").write_text(
                json.dumps(document, indent=2, sort_keys=True)
            )
        return keys

    def test_parent_journal_restores_and_is_rewritten_once(
        self, inventory, sl5_64_gcc44, tmp_path
    ):
        packages = inventory.all()[:4]
        keys = self._parent_directory(tmp_path, packages, sl5_64_gcc44)
        loaded = CommonStorage.load(str(tmp_path))
        restored = BuildCache.restore_from(loaded, ArtifactStore())
        # The tombstoned entry is gone, the rest restored.
        assert [restored.contains(package, sl5_64_gcc44)
                for package in packages] == [True, False, True, True]
        assert restored.statistics == CacheStatistics.from_dict(self.STATISTICS)

        assert restored.persist_to(loaded) == 3
        entries = {
            document["cache_key"]: document
            for key, document in loaded.namespace(BuildCache.NAMESPACE).items()
            if key.startswith(BuildCache.ENTRY_PREFIX)
        }
        assert sorted(entries) == sorted([keys[0], keys[2], keys[3]])
        # The superseding record's donor count, and the donor, survived.
        assert entries[keys[0]]["stored_by"] == "ZEUS"
        assert entries[keys[0]]["shared_hits"] == 3
        assert entries[keys[2]]["stored_by"] == "PERSISTEXP"
        assert entries[keys[2]]["shared_hits"] == 0
        borrower = replace(packages[0], experiment="H1")
        assert restored.lookup(borrower, sl5_64_gcc44) is not None
        assert restored.statistics.donated_by_experiment == {"ZEUS": 4}

        loaded.persist(str(tmp_path))
        files = sorted(os.listdir(tmp_path / BuildCache.NAMESPACE))
        assert not [name for name in files
                    if name.startswith("journal_") or name == "lineage.json"]
        assert len(files) == 2 * 3 + 1
        reloaded = CommonStorage.load(str(tmp_path))
        again = BuildCache.restore_from(reloaded, ArtifactStore())
        assert again.persist_to(reloaded) == 0
        assert reloaded.persist(str(tmp_path)) == []

    def test_journal_status_counts_the_entries_the_replay_leaves_live(
        self, inventory, sl5_64_gcc44, tmp_path, capsys
    ):
        """Before its first persist, a journal-layout namespace reports the
        entries its replay restores (tombstones applied, superseded records
        counted once), not zero."""
        self._parent_directory(tmp_path, inventory.all()[:4], sl5_64_gcc44)
        loaded = CommonStorage.load(str(tmp_path))
        restored = BuildCache.restore_from(loaded, ArtifactStore())
        assert restored.statistics.evictions == self.STATISTICS["evictions"]
        assert BuildCache.journal_status(loaded)["entries"] == len(restored) == 3

        assert cli_main(["cache-stats", "--cache-dir", str(tmp_path)]) == 0
        rows = dict(
            line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines()
            if line.startswith(("live cache entries", "persisted cache entries"))
        )
        assert rows == {
            "live cache entries": "3", "persisted cache entries": "3",
        }


class TestCorruptionRecovery:
    def _persisted(self, inventory, configuration):
        cache, _store = _populated_cache(inventory, configuration)
        storage = CommonStorage()
        cache.persist_to(storage)
        return cache, storage

    def test_a_truncated_entry_document_is_dropped(self, inventory, sl5_64_gcc44):
        cache, storage = self._persisted(inventory, sl5_64_gcc44)
        namespace = storage.namespace(BuildCache.NAMESPACE)
        last_key = _entry_keys(storage)[-1]
        namespace.put(last_key, {"cache_key": "x"})  # truncated
        restored = BuildCache.restore_from(storage, ArtifactStore())
        # Every other entry is recovered.
        assert len(restored) == len(cache) - 1

    def test_a_garbage_entry_document_skips_only_that_entry(
        self, inventory, sl5_64_gcc44
    ):
        """Skipping is safe for a content-addressed cache: a lost entry
        costs a rebuild, and nothing wrong is ever served."""
        cache, storage = self._persisted(inventory, sl5_64_gcc44)
        namespace = storage.namespace(BuildCache.NAMESPACE)
        namespace.put(_entry_keys(storage)[1], "garbage")
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == len(cache) - 1

    def test_next_persist_repairs_a_recovered_cache(
        self, inventory, sl5_64_gcc44
    ):
        cache, storage = self._persisted(inventory, sl5_64_gcc44)
        namespace = storage.namespace(BuildCache.NAMESPACE)
        last_key = _entry_keys(storage)[-1]
        namespace.put(last_key, {"cache_key": "x"})
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert restored.persist_to(storage) == 0
        # The broken document is gone; the namespace holds the live cache.
        assert last_key not in _entry_keys(storage)
        _assert_restores_the_live_cache(restored, storage)


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

    @pytest.mark.parametrize("malformed", ["partial", "list", "other_tarball"])
    def test_malformed_artifact_document_evicts_entry(
        self, inventory, sl5_64_gcc44, malformed
    ):
        """An artifact document that is JSON but not the entry's tarball
        counts as a missing artifact, not as a reason to abort."""
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        builder = PackageBuilder()
        victim = builder.build_package(inventory.all()[0], sl5_64_gcc44)
        document = {
            "partial": {"digest": "x"},
            "list": ["not", "a", "tarball"],
            "other_tarball": builder.build_package(
                inventory.all()[1], sl5_64_gcc44
            ).tarball.to_dict(),
        }[malformed]
        storage.put(
            BuildCache.NAMESPACE,
            f"{BuildCache.ARTIFACT_PREFIX}{victim.tarball.digest}",
            document,
        )
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert len(restored) == len(cache) - 1
        assert restored.statistics.evictions == cache.statistics.evictions + 1
        assert restored.lookup(inventory.all()[0], sl5_64_gcc44) is None
        assert restored.lookup(inventory.all()[1], sl5_64_gcc44) is not None

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


class TestInterruptedPersist:
    """A persist killed after k file writes loses at most what it had not
    yet written: the directory restores a subset of the live cache, every
    entry with its tarball, and the next persist completes it."""

    @pytest.mark.parametrize("writes", [0, 1, 3, 5, 8, 9, 12, 16])
    def test_a_persist_cut_short_restores_a_subset_of_the_live_cache(
        self, inventory, sl5_64_gcc44, sl6_64_gcc44, tmp_path, monkeypatch, writes
    ):
        cache, _store = _populated_cache(inventory, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        storage.persist(str(tmp_path))
        builder = PackageBuilder()
        for package in inventory.all():
            cache.store(
                package, sl6_64_gcc44, builder.build_package(package, sl6_64_gcc44)
            )
        cache.persist_to(storage)
        replace_file = common_storage._replace_file
        written = []

        def killed_after_k_writes(path, data):
            if len(written) == writes:
                raise OSError("persist killed")
            written.append(path)
            replace_file(path, data)

        monkeypatch.setattr(common_storage, "_replace_file", killed_after_k_writes)
        with pytest.raises(OSError, match="persist killed"):
            storage.persist(str(tmp_path))
        monkeypatch.undo()

        store = ArtifactStore()
        restored = BuildCache.restore_from(CommonStorage.load(str(tmp_path)), store)
        live = [
            (package, configuration)
            for configuration in (sl5_64_gcc44, sl6_64_gcc44)
            for package in inventory.all()
        ]
        kept = [cell for cell in live if restored.contains(*cell)]
        # Nothing outside the live cache, nothing persisted earlier lost,
        # and no entry restored without its tarball.
        assert len(restored) == len(kept)
        assert all(restored.contains(package, sl5_64_gcc44)
                   for package in inventory.all())
        assert restored.statistics.evictions == 0
        for cell in kept:
            assert store.exists(restored.lookup(*cell).tarball.digest)

        storage.persist(str(tmp_path))
        _assert_restores_the_live_cache(cache, CommonStorage.load(str(tmp_path)))


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

    def test_restore_mounts_the_cache_for_incremental_persists(self):
        """A warm installation persists into the inherited namespace.

        This is the CLI round trip: restore from a loaded storage, run a
        campaign, persist into the installation's own storage — without new
        builds, no entry is added.
        """
        cold = _fresh_system()
        cold.submit(_hermes_spec())
        entries = cold.persist_build_cache()
        assert entries > 0
        source_keys = cold.storage.keys(BuildCache.NAMESPACE)

        warm = _fresh_system()
        warm.restore_build_cache(cold.storage)
        # The cache travelled into the warm installation's own storage...
        assert warm.storage.keys(BuildCache.NAMESPACE) == source_keys
        warm.submit(_hermes_spec())
        # ...and a fully warm campaign adds no entry to it.
        assert warm.persist_build_cache() == 0
        assert warm.storage.keys(BuildCache.NAMESPACE) == source_keys
        # The source installation's storage was never modified.
        assert cold.storage.keys(BuildCache.NAMESPACE) == source_keys


class TestJournalBytesGauge:
    """The journal_bytes gauge re-serialises every buildcache document, so
    persist_build_cache computes it only for a live telemetry bundle."""

    def test_disabled_telemetry_skips_the_status(self, journal_status_calls):
        system = _fresh_system()
        system.submit(_hermes_spec(CAMPAIGN_KEYS[:1]))
        assert system.persist_build_cache() > 0
        assert journal_status_calls == []

    def test_live_telemetry_sets_the_gauge(self, journal_status_calls):
        telemetry = Telemetry.create()
        system = _fresh_system(telemetry=telemetry)
        system.submit(_hermes_spec(CAMPAIGN_KEYS[:1]))
        assert system.persist_build_cache() > 0
        assert journal_status_calls == [system.storage]
        assert telemetry.metrics.gauge_value("journal_bytes") == (
            BuildCache.journal_status(system.storage)["bytes"]
        )


class TestForkedCampaignJournal:
    """System level: a forked campaign never disturbs a persisted cache."""

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
        # write nothing, so the persisted cache is untouched.  The next
        # persist adds exactly the new entries, after which restore equals
        # the live cache.
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
        # Never persisted, so no buildcache namespace exists.
        assert BuildCache.NAMESPACE not in system.storage.namespaces()
