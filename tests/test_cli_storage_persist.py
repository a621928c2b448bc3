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
from repro.plugins import InterventionStore
from repro.scheduler.spec import CampaignSpec
from repro.service import ValidationService
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

    def checking_persist(self, directory, mirror_namespaces=None):
        written = persist(self, directory, mirror_namespaces)
        copy = CommonStorage(namespaces=())
        for name in self.namespaces():
            namespace = copy.create_namespace(name)
            for key, document in self.namespace(name).items():
                namespace.put(key, document)
        on_disk = _files(directory)
        with tempfile.TemporaryDirectory() as scratch:
            persist(copy, scratch, mirror_namespaces)
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

    def recording_persist(self, directory, mirror_namespaces=None):
        refs.append(weakref.ref(self))
        return persist(self, directory, mirror_namespaces)

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
