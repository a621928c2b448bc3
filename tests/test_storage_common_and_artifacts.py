"""Tests for the common storage, namespaces and the artifact store."""

import json
import os
import re

import pytest

from repro._common import StorageError
from repro.buildsys.builder import PackageBuilder
from repro.buildsys.package import Language, PackageCategory, SoftwarePackage
from repro.storage.artifacts import ArtifactStore
from repro.storage.common_storage import (
    AppendOnlyJournal,
    CommonStorage,
    DEFAULT_NAMESPACES,
    JOURNAL_SEGMENT_RECORDS,
    StorageNamespace,
)


class TestStorageNamespace:
    def test_put_get_exists(self):
        namespace = StorageNamespace("tests")
        namespace.put("doc1", {"value": 1})
        assert namespace.exists("doc1")
        assert namespace.get("doc1") == {"value": 1}

    def test_missing_key_raises(self):
        with pytest.raises(StorageError):
            StorageNamespace("tests").get("ghost")

    def test_overwrite_control(self):
        namespace = StorageNamespace("tests")
        namespace.put("doc", 1)
        namespace.put("doc", 2)
        assert namespace.get("doc") == 2
        with pytest.raises(StorageError):
            namespace.put("doc", 3, overwrite=False)

    def test_non_json_document_rejected(self):
        namespace = StorageNamespace("tests")
        with pytest.raises(StorageError):
            namespace.put("doc", object())

    def test_delete(self):
        namespace = StorageNamespace("tests")
        namespace.put("doc", 1)
        namespace.delete("doc")
        assert not namespace.exists("doc")
        with pytest.raises(StorageError):
            namespace.delete("doc")

    def test_keys_with_prefix(self):
        namespace = StorageNamespace("tests")
        namespace.put("run_001", 1)
        namespace.put("run_002", 2)
        namespace.put("other", 3)
        assert namespace.keys("run_") == ["run_001", "run_002"]
        assert len(namespace) == 3


class TestCommonStorage:
    def test_default_namespaces_exist(self):
        storage = CommonStorage()
        for name in DEFAULT_NAMESPACES:
            assert name in storage.namespaces()

    def test_unknown_namespace_raises(self):
        with pytest.raises(StorageError):
            CommonStorage().namespace("ghost")

    def test_put_and_get_via_facade(self):
        storage = CommonStorage()
        storage.put("results", "doc", {"passed": True})
        assert storage.get("results", "doc") == {"passed": True}
        assert storage.exists("results", "doc")
        assert not storage.exists("results", "other")
        assert not storage.exists("ghost-namespace", "doc")

    def test_total_documents(self):
        storage = CommonStorage()
        storage.put("results", "a", 1)
        storage.put("tests", "b", 2)
        assert storage.total_documents() == 2

    def test_create_namespace_idempotent(self):
        storage = CommonStorage()
        first = storage.create_namespace("extra")
        second = storage.create_namespace("extra")
        assert first is second

    def test_persist_and_load_round_trip(self, tmp_path):
        storage = CommonStorage()
        storage.put("results", "run_001", {"status": "passed"})
        storage.put("recipes", "recipe_a", {"os": "SL6"})
        written = storage.persist(str(tmp_path))
        assert len(written) == 2
        loaded = CommonStorage.load(str(tmp_path))
        assert loaded.get("results", "run_001") == {"status": "passed"}
        assert loaded.get("recipes", "recipe_a") == {"os": "SL6"}

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(StorageError):
            CommonStorage.load(str(tmp_path / "does-not-exist"))

    def test_persist_accumulates_regular_namespaces(self, tmp_path):
        """Run documents of earlier persists survive a smaller re-persist."""
        first = CommonStorage()
        first.put("results", "run_001", {"status": "passed"})
        first.put("results", "run_002", {"status": "passed"})
        first.persist(str(tmp_path))
        second = CommonStorage()
        second.put("results", "run_003", {"status": "failed"})
        second.persist(str(tmp_path))
        loaded = CommonStorage.load(str(tmp_path))
        assert loaded.keys("results") == ["run_001", "run_002", "run_003"]

    def test_persist_mirrors_journal_namespaces(self, tmp_path):
        """Mirrored namespaces drop deleted documents.

        Without the mirror, the document of an evicted build-cache entry
        would linger on disk and be resurrected by the next load.
        """
        # The build cache registers its namespace as mirrored on import.
        from repro.scheduler.cache import BuildCache
        from repro.storage.common_storage import MIRRORED_NAMESPACES

        assert BuildCache.NAMESPACE in MIRRORED_NAMESPACES
        storage = CommonStorage()
        namespace = storage.create_namespace("buildcache")
        namespace.put("journal_00000001", {"type": "entry"})
        namespace.put("journal_00000002", {"type": "entry"})
        storage.persist(str(tmp_path))
        namespace.delete("journal_00000002")  # a persist dropped it
        storage.persist(str(tmp_path))
        loaded = CommonStorage.load(str(tmp_path))
        assert loaded.keys("buildcache") == ["journal_00000001"]


class TestJournalSegmentFiles:
    """Journal namespaces persist as batched segment files, not per-record.

    ``register_journal_namespace`` owners (the history ledger's
    ``history``) get their ``journal_<seq>`` records
    batched into ``journal_segment_<first-seq>.json`` files of
    ``JOURNAL_SEGMENT_RECORDS`` records each; ``load`` explodes them back,
    so the in-memory journal representation never changes.
    """

    def _journal_storage(self, n_records, namespace_name="history"):
        storage = CommonStorage()
        namespace = storage.create_namespace(namespace_name)
        for sequence in range(1, n_records + 1):
            namespace.put(
                f"journal_{sequence:08d}", {"type": "entry", "n": sequence}
            )
        return storage, namespace

    def test_records_round_trip_through_segments(self, tmp_path):
        storage, namespace = self._journal_storage(5)
        namespace.put("statistics", {"hits": 3})  # non-record document
        storage.persist(str(tmp_path))
        loaded = CommonStorage.load(str(tmp_path))
        assert loaded.keys("history") == storage.keys("history")
        for key in storage.keys("history"):
            assert loaded.get("history", key) == storage.get("history", key)

    def test_persist_writes_o_segments_files(self, tmp_path):
        from repro.storage.common_storage import JOURNAL_SEGMENT_RECORDS

        n_records = JOURNAL_SEGMENT_RECORDS + 3  # two segments
        storage, _namespace = self._journal_storage(n_records)
        storage.persist(str(tmp_path))
        files = sorted(os.listdir(tmp_path / "history"))
        assert files == [
            "journal_segment_00000001.json",
            f"journal_segment_{JOURNAL_SEGMENT_RECORDS + 1:08d}.json",
        ]
        loaded = CommonStorage.load(str(tmp_path))
        assert len(loaded.keys("history")) == n_records

    def test_non_record_documents_keep_their_own_files(self, tmp_path):
        storage, namespace = self._journal_storage(2)
        namespace.put("statistics", {"hits": 1})
        namespace.put("lineage", {"epoch": 4})
        storage.persist(str(tmp_path))
        files = sorted(os.listdir(tmp_path / "history"))
        assert files == [
            "journal_segment_00000001.json", "lineage.json", "statistics.json",
        ]

    def test_mirror_removes_stale_segment_files(self, tmp_path):
        """A compaction that shrinks the journal also shrinks the disk."""
        from repro.storage.common_storage import JOURNAL_SEGMENT_RECORDS

        storage, namespace = self._journal_storage(JOURNAL_SEGMENT_RECORDS + 1)
        storage.persist(str(tmp_path))
        assert len(os.listdir(tmp_path / "history")) == 2
        # Compaction: everything collapses into one record.
        for key in namespace.keys(prefix="journal_"):
            namespace.delete(key)
        namespace.put("journal_00000001", {"type": "entry", "n": 1})
        storage.persist(str(tmp_path))
        files = sorted(os.listdir(tmp_path / "history"))
        assert files == ["journal_segment_00000001.json"]
        loaded = CommonStorage.load(str(tmp_path))
        assert loaded.keys("history") == ["journal_00000001"]

    def test_legacy_per_record_files_still_load(self, tmp_path):
        """Pre-segment storages (one file per record) remain readable."""
        target = tmp_path / "history"
        target.mkdir()
        with open(target / "journal_00000001.json", "w") as handle:
            json.dump({"type": "entry", "n": 1}, handle)
        loaded = CommonStorage.load(str(tmp_path))
        assert loaded.get("history", "journal_00000001") == {
            "type": "entry", "n": 1,
        }

    def test_mixed_padding_records_replay_in_append_order(self, tmp_path):
        """Legacy unpadded record keys must not reorder the journal.

        A journal written before the zero-padded key layout carries keys
        like ``journal_2`` and ``journal_10``; lexicographically ``_10``
        sorts before ``_2``, which used to replay (and persist into
        segments) out of append order.  Both the journal view and the
        persisted segment batching must order records numerically.
        """
        from repro.storage.common_storage import AppendOnlyJournal

        storage = CommonStorage()
        namespace = storage.create_namespace("history")
        # A legacy journal with unpadded keys, written out of lexicographic
        # order on purpose, plus one modern padded record.
        namespace.put("journal_10", {"type": "entry", "n": 10})
        namespace.put("journal_2", {"type": "entry", "n": 2})
        namespace.put("journal_9", {"type": "entry", "n": 9})
        namespace.put("journal_00000011", {"type": "entry", "n": 11})
        namespace.put("statistics", {"hits": 0})  # non-record: ignored
        journal = AppendOnlyJournal(namespace)
        assert journal.keys() == [
            "journal_2", "journal_9", "journal_10", "journal_00000011",
        ]
        assert [
            (sequence, record["n"]) for sequence, record in journal.records()
        ] == [(2, 2), (9, 9), (10, 10), (11, 11)]
        # New appends continue after the highest sequence seen, whatever
        # the padding of the key that carried it.
        assert journal.append({"type": "entry", "n": 12}) == 12
        assert journal.keys()[-1] == "journal_00000012"
        # Segment persistence batches numerically too: the round trip
        # yields the same records in the same append order.
        storage.persist(str(tmp_path))
        loaded = CommonStorage.load(str(tmp_path))
        replayed = AppendOnlyJournal(loaded.namespace("history"))
        assert [record["n"] for _sequence, record in replayed.records()] == [
            2, 9, 10, 11, 12,
        ]

    def test_unregistered_namespaces_do_not_segment(self, tmp_path):
        storage = CommonStorage()
        storage.put("results", "journal_00000001", {"n": 1})
        storage.persist(str(tmp_path))
        assert sorted(os.listdir(tmp_path / "results")) == [
            "journal_00000001.json"
        ]

    def test_history_namespace_is_registered(self):
        from repro.history.ledger import ValidationHistoryLedger
        from repro.storage.common_storage import (
            JOURNAL_NAMESPACE_PREFIXES,
            MIRRORED_NAMESPACES,
        )

        assert ValidationHistoryLedger.NAMESPACE in JOURNAL_NAMESPACE_PREFIXES
        assert ValidationHistoryLedger.NAMESPACE in MIRRORED_NAMESPACES


def _changed(before, after):
    """Relative paths added, removed or touched between two ``file_states``."""
    return {
        path for path in set(before) | set(after)
        if before.get(path) != after.get(path)
    }


class TestIncrementalPersist:
    """``persist`` writes only new or changed files, each by an atomic replace."""

    #: Journal records in :meth:`_storage`: three segment files, the last
    #: one holding three records.
    RECORDS = 2 * JOURNAL_SEGMENT_RECORDS + 3

    def _storage(self):
        storage = CommonStorage()
        storage.put("results", "run_001", {"status": "passed"})
        storage.put("results", "run_002", {"status": "failed"})
        storage.put("reports", "index", {"html": "<p>two runs</p>"})
        namespace = storage.create_namespace("history")
        for sequence in range(1, self.RECORDS + 1):
            namespace.put(f"journal_{sequence:08d}", {"type": "entry", "n": sequence})
        namespace.put("statistics", {"hits": 1})
        return storage

    def test_persisting_an_unchanged_storage_writes_nothing(
        self, tmp_path, file_states
    ):
        storage = self._storage()
        assert len(storage.persist(str(tmp_path))) == 2 + 1 + 3 + 1
        before = file_states(tmp_path, backdate=True)
        assert storage.persist(str(tmp_path)) == []
        # Same bytes, same mtime, same inode: no file was even replaced.
        assert file_states(tmp_path) == before

    def test_changing_one_document_rewrites_only_its_file(
        self, tmp_path, file_states
    ):
        storage = self._storage()
        storage.persist(str(tmp_path))
        before = file_states(tmp_path, backdate=True)
        storage.put("results", "run_002", {"status": "passed"})
        target = os.path.join("results", "run_002.json")
        assert storage.persist(str(tmp_path)) == [os.path.join(str(tmp_path), target)]
        after = file_states(tmp_path)
        assert _changed(before, after) == {target}
        assert json.loads(after[target][2]) == {"status": "passed"}

    def test_appending_one_record_rewrites_only_the_last_segment(
        self, tmp_path, file_states
    ):
        storage = self._storage()
        storage.persist(str(tmp_path))
        before = file_states(tmp_path, backdate=True)
        AppendOnlyJournal(storage.namespace("history")).append({"type": "entry"})
        last = os.path.join(
            "history", f"journal_segment_{2 * JOURNAL_SEGMENT_RECORDS + 1:08d}.json"
        )
        assert storage.persist(str(tmp_path)) == [os.path.join(str(tmp_path), last)]
        assert _changed(before, file_states(tmp_path)) == {last}
        loaded = CommonStorage.load(str(tmp_path))
        assert len(loaded.keys("history", prefix="journal_")) == self.RECORDS + 1

    def test_a_failed_replace_keeps_the_old_bytes_and_no_temp_file(
        self, tmp_path, monkeypatch, file_states
    ):
        storage = self._storage()
        storage.persist(str(tmp_path))
        before = file_states(tmp_path)
        storage.put("results", "run_001", {"status": "failed"})
        storage.put("results", "run_002", {"status": "passed"})
        replace = os.replace
        targets = []

        def replace_then_fail(source, target):
            targets.append(target)
            if len(targets) == 2:
                raise OSError("no space left on device")
            replace(source, target)

        monkeypatch.setattr(os, "replace", replace_then_fail)
        with pytest.raises(OSError, match="no space left"):
            storage.persist(str(tmp_path))
        monkeypatch.undo()
        after = file_states(tmp_path)
        # The first file was replaced whole, the second kept its old bytes,
        # and the second's temp file is gone.
        assert set(after) == set(before)
        assert _changed(before, after) == {os.path.join("results", "run_001.json")}
        loaded = CommonStorage.load(str(tmp_path))
        assert loaded.get("results", "run_001") == {"status": "failed"}
        assert loaded.get("results", "run_002") == {"status": "failed"}

    def test_a_stray_temp_file_is_ignored(self, tmp_path):
        storage = self._storage()
        storage.persist(str(tmp_path))
        # What a persist killed between its write and its rename leaves.
        stray = tmp_path / "history" / ".statistics.json.k3x9q1.tmp"
        stray.write_text('{"hits": ')
        loaded = CommonStorage.load(str(tmp_path))
        assert loaded.keys("history") == storage.keys("history")
        assert loaded.persist(str(tmp_path)) == []

    def test_written_files_get_the_mode_of_a_plain_open(self, tmp_path):
        probe = tmp_path / "probe"
        with open(probe, "w", encoding="utf-8"):
            pass
        storage = self._storage()
        written = storage.persist(str(tmp_path / "storage"))
        storage.put("results", "run_001", {"status": "failed"})
        written += storage.persist(str(tmp_path / "storage"))
        assert {os.stat(path).st_mode for path in written} == {os.stat(probe).st_mode}


class TestUnreadableDocuments:
    """``load`` names the file it cannot read instead of a bare decode error."""

    def test_truncated_json_raises_a_storage_error_naming_the_file(self, tmp_path):
        storage = CommonStorage()
        storage.put("results", "run_001", {"status": "passed"})
        storage.persist(str(tmp_path))
        path = tmp_path / "results" / "run_001.json"
        path.write_text('{"status": "pas')
        with pytest.raises(StorageError, match=re.escape(str(path))):
            CommonStorage.load(str(tmp_path))

    @pytest.mark.parametrize("filename", ["run_001.json", "index.html"])
    def test_invalid_utf8_raises_a_storage_error_naming_the_file(
        self, tmp_path, filename
    ):
        (tmp_path / "results").mkdir()
        path = tmp_path / "results" / filename
        path.write_bytes(b'{"status": "\xff"}')
        with pytest.raises(StorageError, match=re.escape(str(path)) + ".*UTF-8"):
            CommonStorage.load(str(tmp_path))


class TestArtifactStore:
    def _tarball(self, configuration, name="pkg-a"):
        package = SoftwarePackage(
            name=name, version="1.0", experiment="TESTEXP",
            category=PackageCategory.CORE, language=Language.FORTRAN,
            lines_of_code=1000,
        )
        return PackageBuilder().build_package(package, configuration).tarball

    def test_store_and_fetch(self, sl5_64_gcc44):
        store = ArtifactStore()
        tarball = self._tarball(sl5_64_gcc44)
        digest = store.store(tarball, label="run-1")
        assert store.exists(digest)
        assert store.fetch(digest) == tarball
        assert store.labels_for(digest) == ["run-1"]

    def test_deduplication(self, sl5_64_gcc44):
        store = ArtifactStore()
        tarball = self._tarball(sl5_64_gcc44)
        store.store(tarball, label="run-1")
        store.store(tarball, label="run-2")
        assert len(store) == 1
        assert store.labels_for(tarball.digest) == ["run-1", "run-2"]

    def test_missing_digest_raises(self):
        store = ArtifactStore()
        with pytest.raises(StorageError):
            store.fetch("deadbeef")
        with pytest.raises(StorageError):
            store.labels_for("deadbeef")

    def test_queries_by_package_and_configuration(self, sl5_64_gcc44, sl6_64_gcc44):
        store = ArtifactStore()
        store.store(self._tarball(sl5_64_gcc44), label="run-1")
        store.store(self._tarball(sl6_64_gcc44), label="run-2")
        store.store(self._tarball(sl5_64_gcc44, name="pkg-b"), label="run-1")
        assert len(store.artifacts_for_package("pkg-a")) == 2
        assert len(store.artifacts_for_configuration(sl5_64_gcc44.key)) == 2
        assert store.total_size_bytes() > 0

    def test_prune_unlabelled(self, sl5_64_gcc44):
        store = ArtifactStore()
        store.store(self._tarball(sl5_64_gcc44))
        store.store(self._tarball(sl5_64_gcc44, name="pkg-b"), label="run-1")
        removed = store.prune_unlabelled()
        assert removed == 1
        assert len(store) == 1
