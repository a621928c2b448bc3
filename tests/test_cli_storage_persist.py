"""The CLI's storage on disk and in memory.

A persist into the directory a storage was loaded from serialises only the
documents put or deleted since.  That is sound only if no caller mutates a
fetched document in place without putting it again, so the parity guard
drives every storage-writing CLI flow and checks, after every persist, that
each in-memory document's full serialisation equals its file.

A CLI command's storage must also be freed by reference counting when
``main`` returns: with far fewer allocations per command, the cyclic
collector runs rarely, and a storage kept alive by a reference cycle would
linger until it does.
"""

import gc
import json
import os
import re
import tempfile
import time
import weakref

import pytest

from repro._common import SchedulingError
from repro.cli import main as cli_main
from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.environment.evolution import EVENT_EXTERNAL_RELEASE, EnvironmentEvent
from repro.environment.external import ExternalSoftwareCatalog
from repro.experiments import build_hermes_experiment
from repro.history import ValidationHistoryLedger
from repro.plugins import InterventionStore
from repro.scheduler.cache import BuildCache
from repro.scheduler.spec import CampaignSpec
from repro.service import ValidationService
from repro.storage import common_storage
from repro.storage.common_storage import CommonStorage

KEYS = ("SL5_64bit_gcc4.4", "SL5_64bit_gcc4.1")


def _files(directory):
    """Relative path -> bytes of every file below *directory*."""
    contents = {}
    for root, _subdirectories, filenames in os.walk(directory):
        for filename in filenames:
            path = os.path.join(root, filename)
            with open(path, "rb") as handle:
                contents[os.path.relpath(path, directory)] = handle.read()
    return contents


def _spec_file(tmp_path):
    spec = CampaignSpec(experiments=("HERMES",), configuration_keys=KEYS)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    return str(path)


@pytest.fixture()
def persist_checks(monkeypatch):
    """Wrap ``CommonStorage.persist``: after each call, every file a full
    persist of the same documents would write must hold those bytes.

    Returns ``(files, mismatches)``: the number of files checked after
    each persist, and each ``(directory, relative path)`` that differed.
    """
    persist = CommonStorage.persist
    files, mismatches = [], []

    def checking_persist(self, directory):
        written = persist(self, directory)
        copy = CommonStorage(namespaces=())
        for name in self.namespaces():
            namespace = copy.create_namespace(name)
            for key, document in self.namespace(name).items():
                namespace.put(key, document)
        on_disk = _files(directory)
        with tempfile.TemporaryDirectory() as scratch:
            persist(copy, scratch)
            expected = _files(scratch)
        mismatches.extend(
            (directory, path)
            for path, data in sorted(expected.items())
            if on_disk.get(path) != data
        )
        files.append(len(expected))
        return written

    monkeypatch.setattr(CommonStorage, "persist", checking_persist)
    return files, mismatches


def _regression_story(directory):
    """Persist a HERMES history with one open regression ticket into
    *directory*; returns the ticket's ID."""
    system = SPSystem(runner_settings=RunnerSettings(simulated_seconds_per_test=30.0))
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.3))
    spec = CampaignSpec(
        experiments=("HERMES",), configuration_keys=KEYS,
        record_history=True, persist_spec=False,
    )
    system.submit(spec)
    root6 = ExternalSoftwareCatalog().get("ROOT", "6.02")
    system.clock.advance_days(1)
    system.replace_configuration(
        system.configuration(KEYS[0]).with_external(root6),
        event=EnvironmentEvent(
            year=2014, kind=EVENT_EXTERNAL_RELEASE, subject="ROOT-6.02",
            detail="removes the CINT interpreter interfaces",
        ),
    )
    system.clock.advance_days(6)
    system.submit(CampaignSpec.from_dict(
        dict(spec.to_dict(), plugins=["regression-alerts"])
    ))
    system.storage.persist(directory)
    [ticket] = InterventionStore(system.storage).open_tickets()
    return ticket.ticket_id


class TestPersistParityOverCliFlows:
    def test_every_persisted_file_holds_its_document(
        self, tmp_path, capsys, persist_checks
    ):
        spec = _spec_file(tmp_path)
        service_dir = str(tmp_path / "service")
        for tenant, priority in (("alice", "normal"), ("bob", "high"),
                                 ("alice", "normal")):
            assert cli_main([
                "submit-async", "--storage-dir", service_dir, "--tenant", tenant,
                "--spec", spec, "--priority", priority,
            ]) == 0
        serve = ["serve", "--storage-dir", service_dir, "--scale", "0.05",
                 "--tenant", "alice:2", "--tenant", "bob:1"]
        assert cli_main(serve) == 0
        assert cli_main([
            "submit-async", "--storage-dir", service_dir, "--tenant", "bob",
            "--spec", spec,
        ]) == 0
        assert cli_main([
            "queue", "cancel", "--storage-dir", service_dir,
            "--submission", "sub-000004",
        ]) == 0
        assert cli_main(serve) == 0

        output = str(tmp_path / "output")
        ticket = _regression_story(output)
        campaign = ["campaign", "--spec", spec, "--output", output, "--scale",
                    "0.1", "--record-history", "--plugin", "regression-alerts"]
        assert cli_main(campaign) == 0
        assert cli_main(campaign) == 0
        assert cli_main([
            "interventions", "resolve", "--storage-dir", output,
            "--ticket", ticket, "--resolution", "ported to ROOT 6",
        ]) == 0
        assert cli_main(["history", "regressions", "--storage-dir", output]) in (0, 1)
        capsys.readouterr()

        files, mismatches = persist_checks
        assert mismatches == []
        # 4 submit-async, 2 serve, queue cancel, the story, 2 campaigns and
        # interventions resolve; none of them persisted an empty storage.
        assert len(files) == 11
        assert min(files) > 0


@pytest.fixture()
def serialised_files(monkeypatch):
    """``namespace/filename`` of every file ``persist`` serialises to
    compare with its file, from here on."""
    recorded = []
    namespace_files = common_storage._namespace_files

    def recording_namespace_files(namespace, present=None):
        expected, candidates = namespace_files(namespace, present)
        recorded.extend(f"{namespace.name}/{filename}" for filename, _ in candidates)
        return expected, candidates

    monkeypatch.setattr(common_storage, "_namespace_files", recording_namespace_files)
    return recorded


class TestCampaignOnItsLoadedStorage:
    """``campaign`` runs on the storage it loads from ``--cache-dir``
    (default ``--output``) instead of copying namespaces out of it."""

    def test_a_second_night_leaves_its_unchanged_cache_documents_alone(
        self, tmp_path, capsys, puts, serialised_files
    ):
        output = tmp_path / "output"
        campaign = ["campaign", "--spec", _spec_file(tmp_path), "--output",
                    str(output), "--scale", "0.1"]
        assert cli_main(campaign) == 0
        cache = output / BuildCache.NAMESPACE
        before = {path.name: path.read_bytes() for path in cache.iterdir()}
        puts.clear()
        serialised_files.clear()
        assert cli_main(campaign) == 0
        assert "warm-started build cache" in capsys.readouterr().out
        unchanged = {
            f"{BuildCache.NAMESPACE}/{path.name}"
            for path in cache.iterdir()
            if before.get(path.name) == path.read_bytes()
        }
        # A warm night only hits: every entry and tarball stays as it was.
        assert len(unchanged) > len(before) // 2
        put_files = {f"{key}.json" for key in puts}
        assert unchanged.isdisjoint(put_files)
        assert unchanged.isdisjoint(serialised_files)

    def test_another_cache_dir_is_read_and_never_written(
        self, tmp_path, capsys, file_states
    ):
        source = str(tmp_path / "source")
        _regression_story(source)
        flags = ["--spec", _spec_file(tmp_path), "--scale", "0.1",
                 "--record-history", "--plugin", "regression-alerts"]
        assert cli_main(["campaign", "--output", source] + flags) == 0
        before = file_states(source, backdate=True)
        target = str(tmp_path / "target")
        capsys.readouterr()
        assert cli_main(
            ["campaign", "--cache-dir", source, "--output", target] + flags
        ) == 0
        [campaign_id] = re.findall(r"^submitted (\S+):", capsys.readouterr().out, re.M)
        assert file_states(source) == before

        old, new = CommonStorage.load(source), CommonStorage.load(target)
        entries = old.keys(BuildCache.NAMESPACE, prefix="cached_")
        assert entries
        assert set(entries) <= set(new.keys(BuildCache.NAMESPACE, prefix="cached_"))
        old_events = [event.to_dict() for event in ValidationHistoryLedger.open(old).events()]
        new_ledger = ValidationHistoryLedger.open(new)
        new_events = [event.to_dict() for event in new_ledger.events()]
        assert old_events and all(event in new_events for event in old_events)
        old_tickets = {ticket.ticket_id for ticket in InterventionStore(old).tickets()}
        assert old_tickets
        assert old_tickets <= {ticket.ticket_id for ticket in InterventionStore(new).tickets()}
        # Plus the new campaign's documents: its spec record, its events and
        # the run documents they name.
        assert new.exists(SPSystem.CAMPAIGNS_NAMESPACE, f"spec_{campaign_id}")
        runs = [event.run_id for event in new_ledger.events_for_campaign(campaign_id)]
        assert runs
        assert all(new.exists("results", f"run_{run_id}") for run_id in runs)


def _main_with_gc_disabled(argv):
    """Run ``main`` with the cyclic collector off; returns the exit code
    and the storages it loaded or persisted that are still alive."""
    refs = []
    load = CommonStorage.load.__func__
    persist = CommonStorage.persist

    def recording_load(cls, directory, namespaces=None):
        storage = load(cls, directory, namespaces)
        refs.append(weakref.ref(storage))
        return storage

    def recording_persist(self, directory):
        refs.append(weakref.ref(self))
        return persist(self, directory)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CommonStorage, "load", classmethod(recording_load))
        patch.setattr(CommonStorage, "persist", recording_persist)
        gc.collect()
        gc.disable()
        try:
            code = cli_main(argv)
            alive = sum(1 for ref in refs if ref() is not None)
        finally:
            gc.enable()
    assert refs, "the command neither loaded nor persisted a storage"
    return code, alive


class TestStorageReleasedOnReturn:
    """Reference counting alone frees each command's storage."""

    def test_submit_async_and_serve(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        directory = str(tmp_path / "service")
        submit = ["submit-async", "--storage-dir", directory, "--tenant",
                  "alice", "--spec", spec]
        assert _main_with_gc_disabled(submit) == (0, 0)
        assert _main_with_gc_disabled(submit) == (0, 0)
        assert _main_with_gc_disabled([
            "serve", "--storage-dir", directory, "--scale", "0.05",
            "--tenant", "alice:2",
        ]) == (0, 0)

    def test_campaign_output(self, tmp_path, capsys):
        campaign = ["campaign", "--spec", _spec_file(tmp_path), "--output",
                    str(tmp_path / "output"), "--scale", "0.1",
                    "--record-history", "--plugin", "regression-alerts"]
        assert _main_with_gc_disabled(campaign) == (0, 0)
        # The second run also loads the first one's cache, history and
        # tickets.
        assert _main_with_gc_disabled(campaign) == (0, 0)

    def test_a_submission_outliving_its_daemon_is_detached(self):
        spec = CampaignSpec(experiments=("HERMES",), configuration_keys=KEYS)
        gc.collect()
        gc.disable()
        try:
            service = ValidationService(SPSystem(), warm_start=False, dashboard=False)
            submission = service.submit("alice", spec)
            released = weakref.ref(service)
            del service
            assert released() is None
            with pytest.raises(SchedulingError, match="detached from its daemon"):
                submission.cancel()
        finally:
            gc.enable()

    def test_the_heartbeat_thread_ends_with_its_service(self):
        service = ValidationService(
            SPSystem(), warm_start=False, dashboard=False, heartbeat_interval=0.01
        )
        worker = service.heartbeat
        worker.start()
        deadline = time.monotonic() + 5.0
        while worker.beats == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert worker.beats > 0
        del service
        worker._thread.join(timeout=5.0)
        assert not worker.alive
        assert worker.failures == 0
