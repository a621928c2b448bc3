"""Tests for the content-hash keyed build cache.

Covers hit/miss accounting, sensitivity of the cache key to compiler, OS and
external-software changes in the environment configuration (including changes
that do NOT alter ``configuration.key``), and eviction when a cached artifact
is removed or overwritten in the :class:`ArtifactStore`.
"""

import pytest

from repro._common import StorageError
from repro.buildsys.builder import PackageBuilder
from repro.core.spsystem import SPSystem
from repro.environment.external import ExternalSoftwareCatalog
from repro.experiments.inventories import InventoryQuirks, build_inventory
from repro.scheduler.cache import (
    BuildCache,
    CachingPackageBuilder,
    package_identity_digest,
)
from repro.scheduler.spec import CampaignSpec
from repro.storage.artifacts import ArtifactStore


@pytest.fixture()
def inventory():
    return build_inventory(
        "CACHEEXP",
        8,
        quirks=InventoryQuirks(
            n_not_ported_to_newest_abi=0,
            n_legacy_root_api=0,
            n_strictness_limited=0,
            n_32bit_only=0,
        ),
    )


@pytest.fixture()
def package(inventory):
    return inventory.all()[0]


class TestCacheKey:
    def test_key_is_stable(self, package, sl5_64_gcc44):
        assert package_identity_digest(
            package, sl5_64_gcc44
        ) == package_identity_digest(package, sl5_64_gcc44)

    def test_key_sensitive_to_compiler(self, package, standard_configurations):
        sl5_gcc41 = next(
            c for c in standard_configurations if c.key == "SL5_64bit_gcc4.1"
        )
        sl5_gcc44 = next(
            c for c in standard_configurations if c.key == "SL5_64bit_gcc4.4"
        )
        assert package_identity_digest(
            package, sl5_gcc41
        ) != package_identity_digest(package, sl5_gcc44)

    def test_key_sensitive_to_operating_system(
        self, package, sl5_64_gcc44, sl6_64_gcc44
    ):
        assert package_identity_digest(
            package, sl5_64_gcc44
        ) != package_identity_digest(package, sl6_64_gcc44)

    def test_key_sensitive_to_externals_with_same_configuration_key(
        self, package, sl5_64_gcc44
    ):
        """An external upgrade leaves configuration.key unchanged; the cache
        key must still change — it hashes the build inputs, not the label."""
        upgraded = sl5_64_gcc44.with_external(
            ExternalSoftwareCatalog().get("ROOT", "5.32")
        )
        assert upgraded.key == sl5_64_gcc44.key
        assert package_identity_digest(
            package, upgraded
        ) != package_identity_digest(package, sl5_64_gcc44)

    def test_key_sensitive_to_package_requirements(self, package, sl5_64_gcc44):
        from repro.environment.compatibility import SoftwareRequirements

        patched = package.with_requirements(SoftwareRequirements(max_strictness=3))
        assert package_identity_digest(
            patched, sl5_64_gcc44
        ) != package_identity_digest(package, sl5_64_gcc44)


class TestHitMissAccounting:
    def test_miss_then_hit(self, package, sl5_64_gcc44):
        cache = BuildCache(ArtifactStore())
        assert cache.lookup(package, sl5_64_gcc44) is None
        result = PackageBuilder().build_package(package, sl5_64_gcc44)
        cache.store(package, sl5_64_gcc44, result)
        cached = cache.lookup(package, sl5_64_gcc44)
        assert cached is not None
        assert cache.statistics.hits == 1
        assert cache.statistics.misses == 1
        assert cache.statistics.stores == 1
        assert cache.statistics.hit_rate == 0.5

    def test_replay_is_equal_but_not_aliased(self, package, sl5_64_gcc44):
        cache = BuildCache(ArtifactStore())
        result = PackageBuilder().build_package(package, sl5_64_gcc44)
        cache.store(package, sl5_64_gcc44, result)
        replay = cache.lookup(package, sl5_64_gcc44)
        assert replay.status is result.status
        assert replay.diagnostics == result.diagnostics
        assert replay.build_seconds == result.build_seconds
        assert replay.tarball == result.tarball
        # Mutating the replay must not corrupt the cached entry.
        replay.diagnostics.clear()
        assert cache.lookup(package, sl5_64_gcc44).diagnostics == result.diagnostics

    def test_statistics_delta_and_snapshot(self, package, sl5_64_gcc44):
        cache = BuildCache(ArtifactStore())
        before = cache.statistics.snapshot()
        cache.lookup(package, sl5_64_gcc44)
        delta = cache.statistics - before
        assert delta.misses == 1 and delta.hits == 0
        assert cache.statistics.snapshot() is not cache.statistics

    def test_caching_builder_counts_inventory_builds(self, inventory, sl5_64_gcc44):
        cache = BuildCache(ArtifactStore())
        builder = CachingPackageBuilder(cache)
        first = builder.build_inventory(inventory, sl5_64_gcc44)
        assert cache.statistics.hits == 0
        assert cache.statistics.misses == len(first)
        second = builder.build_inventory(inventory, sl5_64_gcc44)
        assert cache.statistics.hits == len(second)
        assert cache.statistics.misses == len(first)

    def test_caching_builder_matches_plain_builder(self, inventory, sl5_64_gcc44):
        plain = PackageBuilder().build_inventory(inventory, sl5_64_gcc44)
        builder = CachingPackageBuilder(BuildCache(ArtifactStore()))
        builder.build_inventory(inventory, sl5_64_gcc44)  # warm the cache
        cached = builder.build_inventory(inventory, sl5_64_gcc44)  # replayed
        for name, expected in plain.results.items():
            replayed = cached.result_for(name)
            assert replayed.status is expected.status
            assert replayed.diagnostics == expected.diagnostics
            assert replayed.tarball == expected.tarball
            assert replayed.build_seconds == expected.build_seconds


class TestArtifactEviction:
    def test_removed_artifact_evicts_entry(self, package, sl5_64_gcc44):
        store = ArtifactStore()
        cache = BuildCache(store)
        result = PackageBuilder().build_package(package, sl5_64_gcc44)
        cache.store(package, sl5_64_gcc44, result)
        assert cache.contains(package, sl5_64_gcc44)
        # The artifact is overwritten/retired in the store.
        removed = store.remove(result.tarball.digest)
        assert removed == result.tarball
        assert not cache.contains(package, sl5_64_gcc44)
        assert cache.lookup(package, sl5_64_gcc44) is None
        assert cache.statistics.evictions == 1
        assert cache.statistics.misses == 1

    def test_remove_unknown_digest_raises(self):
        with pytest.raises(StorageError):
            ArtifactStore().remove("no-such-digest")

    def test_cached_artifacts_survive_pruning(self, package, sl5_64_gcc44):
        """Cache-held tarballs carry a label, so prune_unlabelled keeps them."""
        store = ArtifactStore()
        cache = BuildCache(store)
        result = PackageBuilder().build_package(package, sl5_64_gcc44)
        cache.store(package, sl5_64_gcc44, result)
        assert store.prune_unlabelled() == 0
        assert cache.lookup(package, sl5_64_gcc44) is not None
        assert store.labels_for(result.tarball.digest) == [BuildCache.ARTIFACT_LABEL]

    def test_failed_build_without_tarball_is_cacheable(self, sl5_64_gcc44):
        """A FAILED result has no tarball; it caches and replays fine."""
        from repro.environment.compatibility import SoftwareRequirements

        inventory = build_inventory("CACHEEXP", 8)
        package = inventory.all()[0].with_requirements(
            SoftwareRequirements(max_strictness=0)
        )
        cache = BuildCache(ArtifactStore())
        result = PackageBuilder().build_package(package, sl5_64_gcc44)
        assert not result.succeeded
        cache.store(package, sl5_64_gcc44, result)
        replay = cache.lookup(package, sl5_64_gcc44)
        assert replay is not None and not replay.succeeded
        assert replay.tarball is None


class TestSystemLevelCache:
    def test_campaign_hit_rate_across_rounds(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        campaign = sp_system.submit(
            CampaignSpec(
                experiments=("HERMES",),
                configuration_keys=("SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4"),
                rounds=2,
                persist_spec=False,
            )
        ).result()
        statistics = campaign.cache_statistics
        # Round 1 misses everything, round 2 hits everything.
        assert statistics.hits == statistics.misses
        assert statistics.hit_rate == 0.5
        assert statistics.evictions == 0

    def test_cache_persists_across_campaigns(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        spec = CampaignSpec(
            experiments=("HERMES",),
            configuration_keys=("SL5_64bit_gcc4.4",),
            persist_spec=False,
        )
        first = sp_system.submit(spec).result()
        assert first.cache_statistics.hits == 0
        second = sp_system.submit(spec).result()
        assert second.cache_statistics.misses == 0
        assert second.cache_statistics.hits == first.cache_statistics.misses

    def test_single_cell_validate_bypasses_cache(self, sp_system, tiny_hermes):
        """The untouched single-cell path never touches the campaign cache."""
        sp_system.register_experiment(tiny_hermes)
        sp_system.validate("HERMES", "SL5_64bit_gcc4.4")
        assert sp_system.build_cache.statistics.lookups == 0

    def test_cache_budget_enforced_on_live_cache_per_round(
        self, sp_system, tiny_hermes
    ):
        """The budget bounds the in-memory cache during the campaign.

        Previously ``cache_budget_bytes`` only capped the persisted
        snapshot; the live cache could grow unboundedly across rounds.
        """
        from repro.scheduler.spec import CampaignSpec

        sp_system.register_experiment(tiny_hermes)
        unbounded = SPSystem()
        unbounded.provision_standard_images()
        unbounded.register_experiment(tiny_hermes)
        unbounded.submit(CampaignSpec(
            configuration_keys=("SL5_64bit_gcc4.4",), rounds=2,
            persist_spec=False,
        ))
        budget = unbounded.build_cache.total_size_bytes() // 2
        assert budget > 0

        campaign = sp_system.submit(CampaignSpec(
            configuration_keys=("SL5_64bit_gcc4.4",), rounds=2,
            cache_budget_bytes=budget, persist_spec=False,
        )).result()
        cache = sp_system.effective_build_cache()
        assert cache.total_size_bytes() <= budget
        assert campaign.cache_statistics.evictions > 0
        # The budgeted campaign still produced identical run documents.
        assert [run.to_document() for run in campaign.runs()] == [
            run.to_document() for run in unbounded.last_campaign.runs()
        ]
