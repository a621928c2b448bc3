"""Persisting only what changed: dirty keys and the bound directory.

A storage is bound to the directory it was loaded from or last persisted
into completely.  A persist back into that directory serialises only the
documents put or deleted since, and those whose file is missing; a persist
into any other directory serialises every document.  Journal segment files
are serialised on every persist, which is what carries a history directory
in the older one-file-per-record layout over into segments.
"""

import json
import os

import pytest

from repro._common import ReproError
from repro.history import ValidationHistoryLedger
from repro.scheduler.cache import BuildCache
from repro.storage import common_storage
from repro.storage.common_storage import (
    JOURNAL_SEGMENT_RECORDS,
    AppendOnlyJournal,
    CommonStorage,
)

HISTORY = ValidationHistoryLedger.NAMESPACE
RECORD_PREFIX = ValidationHistoryLedger.JOURNAL_PREFIX
#: A namespace persisted with mirror semantics.
MIRRORED = BuildCache.NAMESPACE


@pytest.fixture()
def serialised(monkeypatch):
    """The documents ``persist`` serialises to JSON from here on."""
    recorded = []
    json_bytes = common_storage._json_bytes

    def recording_json_bytes(document):
        recorded.append(document)
        return json_bytes(document)

    monkeypatch.setattr(common_storage, "_json_bytes", recording_json_bytes)
    return recorded


def _populated_storage():
    storage = CommonStorage(namespaces=("results", "reports", MIRRORED))
    for index in range(5):
        storage.put("results", f"run_{index}", {"index": index, "ok": True})
    storage.put("reports", "index", {"html": "<html>index</html>"})
    storage.put(MIRRORED, "entry_a", {"value": 1})
    storage.put(MIRRORED, "entry_b", {"value": 2})
    return storage


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


class TestDirtyKeys:
    def test_a_loaded_storage_persisted_back_serialises_nothing(
        self, tmp_path, serialised
    ):
        directory = str(tmp_path)
        _populated_storage().persist(directory)
        loaded = CommonStorage.load(directory)
        serialised.clear()
        assert loaded.persist(directory) == []
        assert serialised == []

    def test_a_completed_persist_binds_the_storage(self, tmp_path, serialised):
        directory = str(tmp_path)
        storage = _populated_storage()
        storage.persist(directory)
        serialised.clear()
        storage.put("results", "run_9", {"index": 9})
        written = storage.persist(directory)
        assert written == [os.path.join(directory, "results", "run_9.json")]
        assert serialised == [{"index": 9}]

    def test_a_persist_into_another_directory_writes_every_file(self, tmp_path):
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        _populated_storage().persist(first)
        loaded = CommonStorage.load(first)
        written = loaded.persist(second)
        assert len(written) == 8
        for path in written:
            relative = os.path.relpath(path, second)
            assert _read(path) == _read(os.path.join(first, relative))
        # Bound to the second directory now: back into it, nothing is due.
        assert loaded.persist(second) == []

    def test_an_unchanged_put_is_compared_but_not_written(
        self, tmp_path, serialised
    ):
        directory = str(tmp_path)
        _populated_storage().persist(directory)
        loaded = CommonStorage.load(directory)
        loaded.put("results", "run_1", {"index": 1, "ok": True})
        serialised.clear()
        assert loaded.persist(directory) == []
        assert serialised == [{"index": 1, "ok": True}]

    def test_a_persist_that_raises_keeps_its_dirty_keys(
        self, tmp_path, monkeypatch
    ):
        directory = str(tmp_path)
        storage = _populated_storage()
        storage.persist(directory)
        storage.put("results", "run_1", {"index": 1, "ok": False})
        storage.put("results", "run_2", {"index": 2, "ok": False})
        replace_file = common_storage._replace_file
        calls = []

        def failing_second_write(path, data):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            replace_file(path, data)

        monkeypatch.setattr(common_storage, "_replace_file", failing_second_write)
        with pytest.raises(OSError):
            storage.persist(directory)
        monkeypatch.setattr(common_storage, "_replace_file", replace_file)
        # The first write landed; the retry compares both dirty keys again
        # and writes the one that did not.
        assert storage.persist(directory) == [
            os.path.join(directory, "results", "run_2.json")
        ]
        reloaded = CommonStorage.load(directory)
        assert reloaded.get("results", "run_1") == {"index": 1, "ok": False}
        assert reloaded.get("results", "run_2") == {"index": 2, "ok": False}

    def test_a_file_deleted_behind_the_storage_is_written_again(self, tmp_path):
        directory = str(tmp_path)
        storage = _populated_storage()
        storage.persist(directory)
        removed = [
            os.path.join(directory, "results", "run_3.json"),
            os.path.join(directory, "reports", "index.html"),
            os.path.join(directory, MIRRORED, "entry_a.json"),
        ]
        for path in removed:
            os.remove(path)
        assert sorted(storage.persist(directory)) == sorted(removed)
        assert CommonStorage.load(directory).get("results", "run_3") == {
            "index": 3, "ok": True,
        }

    def test_a_file_edited_behind_the_storage_stays_until_its_document_is_put(
        self, tmp_path
    ):
        """The one behaviour change: a clean document's file is not compared,
        so an edit made behind the storage's back survives the next persist;
        putting the document again writes it over the edit."""
        directory = str(tmp_path)
        storage = _populated_storage()
        storage.persist(directory)
        path = os.path.join(directory, "results", "run_4.json")
        _write(path, json.dumps({"index": 4, "edited": True}))
        assert storage.persist(directory) == []
        assert json.loads(_read(path)) == {"index": 4, "edited": True}
        storage.put("results", "run_4", storage.get("results", "run_4"))
        assert storage.persist(directory) == [path]
        assert json.loads(_read(path)) == {"index": 4, "ok": True}

    def test_a_delete_in_a_mirrored_namespace_removes_its_file(self, tmp_path):
        directory = str(tmp_path)
        storage = _populated_storage()
        storage.persist(directory)
        storage.namespace(MIRRORED).delete("entry_b")
        storage.namespace("results").delete("run_0")
        assert storage.persist(directory) == []
        assert sorted(os.listdir(os.path.join(directory, MIRRORED))) == [
            "entry_a.json"
        ]
        # Other namespaces accumulate: the deleted run's file stays.
        assert os.path.exists(os.path.join(directory, "results", "run_0.json"))

    def test_load_keeps_the_key_check(self, tmp_path):
        directory = tmp_path / "results"
        directory.mkdir()
        (directory / "bad key.json").write_text("{}")
        with pytest.raises(ReproError):
            CommonStorage.load(str(tmp_path))


def _journal_keys(count):
    return [f"{RECORD_PREFIX}{sequence:08d}" for sequence in range(1, count + 1)]


def _record(key):
    return {"type": "cell", "key": key}


def _assert_every_record_kept(directory, count):
    reloaded = CommonStorage.load(directory)
    journal = AppendOnlyJournal(reloaded.namespace(HISTORY), RECORD_PREFIX)
    assert journal.keys() == _journal_keys(count)
    for key in journal.keys():
        assert reloaded.get(HISTORY, key) == _record(key)
    filenames = sorted(os.listdir(os.path.join(directory, HISTORY)))
    assert filenames == sorted(
        f"{RECORD_PREFIX}segment_{key[len(RECORD_PREFIX):]}.json"
        for key in _journal_keys(count)[::JOURNAL_SEGMENT_RECORDS]
    )


class TestLegacyHistoryLayouts:
    """Journal directories in older layouts load and persist back whole."""

    def test_per_record_files_only(self, tmp_path):
        directory = str(tmp_path)
        history = tmp_path / HISTORY
        history.mkdir()
        count = JOURNAL_SEGMENT_RECORDS + 6
        for key in _journal_keys(count):
            (history / f"{key}.json").write_text(json.dumps(_record(key)))
        loaded = CommonStorage.load(directory)
        written = loaded.persist(directory)
        assert len(written) == 2  # one file per segment
        _assert_every_record_kept(directory, count)

    def test_a_segment_file_plus_a_leftover_per_record_file(self, tmp_path):
        directory = str(tmp_path)
        keys = _journal_keys(JOURNAL_SEGMENT_RECORDS + 1)
        storage = CommonStorage(namespaces=(HISTORY,))
        for key in keys[:-1]:
            storage.put(HISTORY, key, _record(key))
        storage.persist(directory)
        leftover = tmp_path / HISTORY / f"{keys[-1]}.json"
        leftover.write_text(json.dumps(_record(keys[-1])))
        loaded = CommonStorage.load(directory)
        assert len(loaded.keys(HISTORY)) == len(keys)
        written = loaded.persist(directory)
        # The leftover record joins a second segment; the first is unchanged.
        suffix = keys[-1][len(RECORD_PREFIX):]
        assert written == [
            os.path.join(directory, HISTORY, f"{RECORD_PREFIX}segment_{suffix}.json")
        ]
        assert not leftover.exists()
        _assert_every_record_kept(directory, len(keys))
