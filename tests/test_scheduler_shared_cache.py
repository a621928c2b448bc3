"""Tests for cross-experiment sharing of the content-addressed build cache.

The cache key is :func:`~repro.scheduler.cache.package_identity_digest` — a
content hash of the package identity (name, version, sources, requirements)
and the target configuration that deliberately ignores the owning
experiment.  Two experiments pinning the same external package therefore
share one cache entry: a campaign over both builds each shared package
exactly once, reports the donated hits in :class:`CacheStatistics`, and the
replayed results stay bit-identical to the sequential cold path because the
replay is rebound to the requesting experiment's package.
"""

from dataclasses import replace

import pytest

from repro.buildsys.builder import PackageBuilder
from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.experiments import (
    build_hermes_experiment,
    build_zeus_experiment,
    shared_external_packages,
)
from repro.reporting.summary import build_cache_rows
from repro.scheduler.cache import BuildCache, package_identity_digest
from repro.scheduler.spec import CampaignSpec
from repro.storage.artifacts import ArtifactStore


KEYS = ["SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4"]


class RecordingBuilder(PackageBuilder):
    """A builder that records every real compilation it performs."""

    def __init__(self):
        super().__init__()
        self.built = []

    def build_package(self, package, configuration):
        self.built.append((package.experiment, package.name, configuration.key))
        return super().build_package(package, configuration)


def _fresh_system(experiments=("ZEUS", "HERMES")):
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
    )
    system.provision_standard_images()
    builders = {
        "ZEUS": lambda: build_zeus_experiment(scale=0.15, shared_externals=True),
        "HERMES": lambda: build_hermes_experiment(scale=0.2, shared_externals=True),
    }
    for name in experiments:
        system.register_experiment(builders[name]())
    return system


class TestIdentityDigest:
    def test_digest_ignores_the_owning_experiment(self, sl5_64_gcc44):
        zeus, hermes = (
            shared_external_packages("ZEUS")[0],
            shared_external_packages("HERMES")[0],
        )
        assert zeus.experiment != hermes.experiment
        assert zeus.source_digest == hermes.source_digest
        assert package_identity_digest(
            zeus, sl5_64_gcc44
        ) == package_identity_digest(hermes, sl5_64_gcc44)

    def test_digest_ignores_category_description_and_dependencies(
        self, small_inventory, sl5_64_gcc44
    ):
        from repro.buildsys.package import PackageCategory

        package = small_inventory.all()[0]
        relabelled = replace(
            package,
            category=PackageCategory.MONITORING,
            description="relabelled",
            dependencies=(),
        )
        assert package_identity_digest(
            package, sl5_64_gcc44
        ) == package_identity_digest(relabelled, sl5_64_gcc44)

    def test_digest_sensitive_to_content(self, small_inventory, sl5_64_gcc44):
        package = small_inventory.all()[0]
        for changed in (
            replace(package, version="99.9"),
            replace(package, lines_of_code=package.lines_of_code + 1),
            replace(package, fragility=min(package.fragility + 0.1, 1.0)),
        ):
            assert package_identity_digest(
                changed, sl5_64_gcc44
            ) != package_identity_digest(package, sl5_64_gcc44)


class TestSharedHitAccounting:
    def test_cross_experiment_hit_is_counted_and_attributed(self, sl5_64_gcc44):
        cache = BuildCache(ArtifactStore())
        donor = shared_external_packages("ZEUS")[0]
        taker = shared_external_packages("HERMES")[0]
        builder = PackageBuilder()
        cache.store(donor, sl5_64_gcc44, builder.build_package(donor, sl5_64_gcc44))
        replay = cache.lookup(taker, sl5_64_gcc44)
        assert replay is not None
        # The replay is rebound to the requesting experiment's package.
        assert replay.package == taker
        assert cache.statistics.shared_hits == 1
        assert cache.statistics.donated_by_experiment == {"ZEUS": 1}
        # A same-experiment hit is not a shared one.
        assert cache.lookup(donor, sl5_64_gcc44) is not None
        assert cache.statistics.hits == 2
        assert cache.statistics.shared_hits == 1

    def test_shared_statistics_survive_persistence(self, sl5_64_gcc44):
        from repro.storage.common_storage import CommonStorage

        cache = BuildCache(ArtifactStore())
        donor = shared_external_packages("ZEUS")[0]
        taker = shared_external_packages("HERMES")[0]
        cache.store(
            donor, sl5_64_gcc44,
            PackageBuilder().build_package(donor, sl5_64_gcc44),
        )
        cache.lookup(taker, sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        restored = BuildCache.restore_from(storage, ArtifactStore())
        assert restored.statistics.shared_hits == 1
        assert restored.statistics.donated_by_experiment == {"ZEUS": 1}
        # The donor attribution travels with the journal: a hit from a third
        # experiment is still credited to the original storing experiment.
        third = replace(taker, experiment="H1")
        restored.lookup(third, sl5_64_gcc44)
        assert restored.statistics.donated_by_experiment == {"ZEUS": 2}

    def test_statistics_delta_subtracts_donations(self):
        from repro.scheduler.cache import CacheStatistics

        after = CacheStatistics(
            hits=5, shared_hits=3, donated_by_experiment={"ZEUS": 2, "H1": 1}
        )
        before = CacheStatistics(
            hits=2, shared_hits=1, donated_by_experiment={"ZEUS": 1}
        )
        delta = after - before
        assert delta.shared_hits == 2
        assert delta.donated_by_experiment == {"ZEUS": 1, "H1": 1}


class TestSharedPackageCampaign:
    """The acceptance scenario: two experiments pinning the same externals."""

    def test_campaign_builds_each_shared_package_exactly_once(self):
        system = _fresh_system()
        recorder = RecordingBuilder()
        system.runner.builder = recorder
        campaign = system.submit(
            CampaignSpec(configuration_keys=tuple(KEYS), persist_spec=False)
        ).result()
        shared_names = {
            package.name for package in shared_external_packages("ZEUS")
        }
        assert shared_names
        for key in KEYS:
            for name in sorted(shared_names):
                compiled = [
                    record for record in recorder.built
                    if record[1] == name and record[2] == key
                ]
                # Compiled once — by the first experiment of the matrix
                # (HERMES sorts first) — and served to ZEUS from the cache.
                assert compiled == [("HERMES", name, key)]
        statistics = campaign.cache_statistics
        assert statistics.shared_hits == len(shared_names) * len(KEYS)
        assert statistics.donated_by_experiment == {
            "HERMES": len(shared_names) * len(KEYS)
        }

    def test_campaign_output_is_bit_identical_to_the_cold_path(self):
        baseline = _fresh_system()
        expected = [
            baseline.validate(experiment, key).run.to_document()
            for experiment in ("HERMES", "ZEUS")
            for key in KEYS
        ]
        shared = _fresh_system()
        campaign = shared.submit(
            CampaignSpec(
                experiments=("HERMES", "ZEUS"),
                configuration_keys=tuple(KEYS),
                workers=3,
                persist_spec=False,
            )
        ).result()
        assert campaign.cache_statistics.shared_hits > 0
        assert [run.to_document() for run in campaign.runs()] == expected
        assert [record.to_dict() for record in shared.catalog.all()] == [
            record.to_dict() for record in baseline.catalog.all()
        ]

    def test_persisted_journal_donates_across_installations(self):
        donor = _fresh_system(("ZEUS",))
        donor.submit(
            CampaignSpec(configuration_keys=tuple(KEYS), persist_spec=False)
        )
        assert donor.persist_build_cache() > 0

        taker = _fresh_system(("HERMES",))
        taker.restore_build_cache(donor.storage)
        campaign = taker.submit(
            CampaignSpec(configuration_keys=tuple(KEYS), persist_spec=False)
        ).result()
        shared_count = len(shared_external_packages("HERMES")) * len(KEYS)
        statistics = campaign.cache_statistics
        assert statistics.shared_hits == shared_count
        assert statistics.donated_by_experiment == {"ZEUS": shared_count}
        # HERMES's own packages still had to be compiled.
        assert statistics.misses > 0

    def test_report_rows_show_the_donations(self):
        system = _fresh_system()
        campaign = system.submit(
            CampaignSpec(configuration_keys=(KEYS[0],), persist_spec=False)
        ).result()
        rows = {row["quantity"]: row["value"] for row in build_cache_rows(
            campaign.cache_statistics
        )}
        shared_count = len(shared_external_packages("ZEUS"))
        assert rows["build cache shared hits (cross-experiment)"] == shared_count
        assert rows["  hits donated by HERMES"] == shared_count
        assert "shared hits (cross-experiment)" in campaign.render_text()

    def test_no_cache_bypasses_an_installed_caching_builder(self):
        """The cold path really compiles even with a caching builder mounted."""
        from repro.scheduler.cache import BuildCache, CachingPackageBuilder
        from repro.storage.artifacts import ArtifactStore

        system = _fresh_system(("HERMES",))
        recorder = RecordingBuilder()
        mounted_cache = BuildCache(ArtifactStore())
        system.runner.builder = CachingPackageBuilder(
            mounted_cache, base=recorder
        )
        spec = CampaignSpec(
            configuration_keys=(KEYS[0],), use_cache=False, persist_spec=False
        )
        system.submit(spec)
        first_builds = len(recorder.built)
        assert first_builds > 0
        assert mounted_cache.statistics.lookups == 0
        # A second cold campaign compiles everything again — nothing warm.
        system.submit(spec)
        assert len(recorder.built) == 2 * first_builds

    def test_spec_rejects_budget_without_cache(self):
        from repro._common import SchedulingError

        spec = CampaignSpec(use_cache=False, cache_budget_bytes=1024)
        with pytest.raises(SchedulingError):
            spec.validate()

    def test_no_cache_campaign_compiles_everything(self):
        system = _fresh_system()
        recorder = RecordingBuilder()
        system.runner.builder = recorder
        campaign = system.submit(
            CampaignSpec(
                configuration_keys=(KEYS[0],),
                use_cache=False,
                persist_spec=False,
            )
        ).result()
        statistics = campaign.cache_statistics
        assert statistics.lookups == 0 and statistics.stores == 0
        # Every shared external really compiled once per experiment.
        shared_names = {p.name for p in shared_external_packages("ZEUS")}
        for name in sorted(shared_names):
            experiments = sorted(
                record[0] for record in recorder.built if record[1] == name
            )
            assert experiments == ["HERMES", "ZEUS"]


class TestDonorAwareEviction:
    """Size-budget eviction spares proven cross-experiment donors.

    Entries no *other* experiment ever reused are evicted first (lowest
    per-entry shared-hit count), then least-recently-hit — so the shared
    externals that warm-start other installations survive the budget.
    """

    def _cache_with_one_donor(self, configuration):
        """Five private entries plus one entry HERMES reused from ZEUS."""
        cache = BuildCache(ArtifactStore())
        builder = PackageBuilder()
        privates = []
        from repro.experiments.inventories import InventoryQuirks, build_inventory

        inventory = build_inventory(
            "ZEUS", 5,
            quirks=InventoryQuirks(
                n_not_ported_to_newest_abi=0, n_legacy_root_api=0,
                n_strictness_limited=0, n_32bit_only=0,
            ),
        )
        for package in inventory.all():
            cache.store(
                package, configuration,
                builder.build_package(package, configuration),
            )
            privates.append(package)
        donor = shared_external_packages("ZEUS")[0]
        taker = shared_external_packages("HERMES")[0]
        cache.store(donor, configuration, builder.build_package(donor, configuration))
        assert cache.lookup(taker, configuration) is not None  # the donation
        return cache, privates, donor

    def test_unshared_entries_are_evicted_first(self, sl5_64_gcc44):
        cache, privates, donor = self._cache_with_one_donor(sl5_64_gcc44)
        # Touch every private entry AFTER the donation: under pure
        # least-recently-hit ordering the donor entry would go first.
        for package in privates:
            assert cache.lookup(package, sl5_64_gcc44) is not None
        donor_size = cache.entry_size_bytes(
            PackageBuilder().build_package(donor, sl5_64_gcc44)
        )
        cache.enforce_budget(cache.total_size_bytes() - donor_size)
        # The donor survived; at least one never-shared entry was evicted.
        assert cache.contains(donor, sl5_64_gcc44)
        assert cache.statistics.evictions >= 1
        assert any(
            not cache.contains(package, sl5_64_gcc44) for package in privates
        )

    def test_recency_breaks_ties_between_unshared_entries(self, sl5_64_gcc44):
        cache, privates, _donor = self._cache_with_one_donor(sl5_64_gcc44)
        # Touch every private entry except the first: among the equally
        # unshared entries the untouched one goes first.
        for package in privates[1:]:
            assert cache.lookup(package, sl5_64_gcc44) is not None
        victim_size = cache.entry_size_bytes(
            PackageBuilder().build_package(privates[0], sl5_64_gcc44)
        )
        cache.enforce_budget(cache.total_size_bytes() - victim_size)
        assert not cache.contains(privates[0], sl5_64_gcc44)
        assert all(
            cache.contains(package, sl5_64_gcc44) for package in privates[1:]
        )

    def test_shared_counts_survive_persistence(self, sl5_64_gcc44):
        from repro.storage.common_storage import CommonStorage

        cache, privates, donor = self._cache_with_one_donor(sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        restored = BuildCache.restore_from(storage, ArtifactStore())
        for package in privates:
            assert restored.lookup(package, sl5_64_gcc44) is not None
        donor_size = restored.entry_size_bytes(
            PackageBuilder().build_package(donor, sl5_64_gcc44)
        )
        restored.enforce_budget(restored.total_size_bytes() - donor_size)
        # The restored cache still knows the donor was shared and spares it.
        assert restored.contains(donor, sl5_64_gcc44)

    def test_donation_after_persist_is_rejournalled(self, sl5_64_gcc44):
        """A shared hit AFTER the entry was journalled must survive restore.

        The entry's original record carries shared_hits=0; the next persist
        appends a superseding record with the moved count, so the restored
        cache's donor-aware eviction still spares the proven donor.
        """
        from repro.storage.common_storage import CommonStorage

        cache, privates, donor = self._cache_with_one_donor(sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        # The donation happens only now — after the journal was written.
        fresh = BuildCache(cache.artifact_store)
        builder = PackageBuilder()
        for package in privates + [donor]:
            fresh.store(
                package, sl5_64_gcc44,
                builder.build_package(package, sl5_64_gcc44),
            )
        clean = CommonStorage()
        fresh.persist_to(clean)
        taker = shared_external_packages("HERMES")[0]
        assert fresh.lookup(taker, sl5_64_gcc44) is not None  # post-persist hit
        assert fresh.persist_to(clean) == 0  # no new entries...
        restored = BuildCache.restore_from(clean, ArtifactStore())
        # ...but the superseding record carried the donor count across.
        for package in privates:
            assert restored.lookup(package, sl5_64_gcc44) is not None
        donor_size = restored.entry_size_bytes(
            builder.build_package(donor, sl5_64_gcc44)
        )
        restored.enforce_budget(restored.total_size_bytes() - donor_size)
        assert restored.contains(donor, sl5_64_gcc44)

    def test_repersist_without_donations_appends_nothing(self, sl5_64_gcc44):
        """The superseding-record path fires only when a count moved."""
        from repro.storage.common_storage import CommonStorage

        cache, privates, _donor = self._cache_with_one_donor(sl5_64_gcc44)
        storage = CommonStorage()
        cache.persist_to(storage)
        records = len(storage.keys(BuildCache.NAMESPACE, prefix=BuildCache.JOURNAL_PREFIX))
        # Same-experiment traffic moves recency, not shared counts.
        for package in privates:
            assert cache.lookup(package, sl5_64_gcc44) is not None
        assert cache.persist_to(storage) == 0
        assert len(
            storage.keys(BuildCache.NAMESPACE, prefix=BuildCache.JOURNAL_PREFIX)
        ) == records
