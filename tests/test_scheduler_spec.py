"""Tests for the unified execution API: specs, backends and the submit facade.

The :class:`CampaignSpec` request object is the single currency of campaign
execution: it round-trips through ``to_dict``/``from_dict``, persists into
the ``campaigns`` namespace of the common storage, and replays the identical
campaign on a fresh installation — documents written while the ``threads``
and ``sharded`` backends existed included.  The :class:`ExecutionBackend`
registry decides where the cells are computed — inline or in forked
processes — without ever touching the scientific output.
"""

import json

import pytest

from repro._common import SchedulingError
from repro.cli import main as cli_main
from repro.core.runner import RunnerSettings
from repro.core.spsystem import CampaignHandle, SPSystem
from repro.experiments import build_hermes_experiment
from repro.scheduler.backends import (
    EXECUTION_BACKENDS,
    ProcessPoolBackend,
    SimulatedBackend,
    execution_backend,
)
from repro.scheduler.pool import WorkerFailure
from repro.scheduler.spec import CampaignSpec, ValidationRequest


def _fresh_system(seed=20131029):
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0, seed=seed)
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.2))
    return system


class TestValidationRequest:
    def test_round_trip(self):
        request = ValidationRequest(
            experiment="HERMES",
            configuration_key="SL5_64bit_gcc4.4",
            description="nightly",
            reference_configuration_key="SL6_64bit_gcc4.4",
        )
        assert ValidationRequest.from_dict(request.to_dict()) == request

    def test_optional_fields_default(self):
        request = ValidationRequest.from_dict(
            {"experiment": "H1", "configuration_key": "SL5_64bit_gcc4.4"}
        )
        assert request.description is None
        assert request.reference_configuration_key is None

    def test_missing_fields_rejected(self):
        with pytest.raises(SchedulingError):
            ValidationRequest.from_dict({"experiment": "H1"})


class TestCampaignSpec:
    def test_round_trip_defaults(self):
        spec = CampaignSpec()
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        # Twice through the serialisation stays byte-identical.
        assert CampaignSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_round_trip_every_field(self):
        spec = CampaignSpec(
            experiments=("HERMES", "ZEUS"),
            configuration_keys=("SL5_64bit_gcc4.4",),
            description="full matrix",
            workers=3,
            slots_per_worker=4,
            rounds=2,
            batch_size=2,
            policy="critical-path",
            deadline_seconds=1000.0,
            backend="simulated",
            failures=(WorkerFailure(worker_index=1, at_seconds=50.0),),
            warm_start=False,
            cache_budget_bytes=1 << 20,
            persist_spec=False,
        )
        restored = CampaignSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.to_dict() == spec.to_dict()

    def test_round_trip_explicit_requests(self):
        spec = CampaignSpec(
            requests=(
                ValidationRequest("HERMES", "SL5_64bit_gcc4.4", description="a"),
                ValidationRequest("HERMES", "SL6_64bit_gcc4.4"),
            )
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_lists_normalise_to_tuples(self):
        assert CampaignSpec(experiments=["HERMES"]) == CampaignSpec(
            experiments=("HERMES",)
        )

    def test_unknown_field_rejected(self):
        with pytest.raises(SchedulingError):
            CampaignSpec.from_dict({"wokers": 4})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"rounds": 0},
            {"batch_size": 0},
            {"slots_per_worker": 0},
            {"deadline_seconds": 0.0},
            {"cache_budget_bytes": -1},
            {"policy": "round-robin"},
            {"backend": "mpi"},
            # The removed backends' names only reach a spec through the
            # translation in from_dict.
            {"backend": "threads"},
            {"backend": "sharded"},
            {
                "requests": (ValidationRequest("H1", "SL5_64bit_gcc4.4"),),
                "experiments": ("H1",),
            },
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(SchedulingError):
            CampaignSpec(**kwargs).validate()

    @pytest.mark.parametrize(
        "payload",
        [
            {"workers": "4"},
            {"rounds": 2.5},
            {"warm_start": "yes"},
            {"persist_spec": 1},
            {"policy": 7},
            {"deadline_seconds": "soon"},
            {"experiments": [1, 2]},
            {"cache_budget_bytes": "big"},
            {"failures": "none"},
            {"failures": [[0]]},
            {"requests": [{"experiment": "H1"}]},
            {"requests": 5},
            {"experiments": "HERMES"},
            {"configuration_keys": "SL5_64bit_gcc4.4"},
        ],
    )
    def test_wrongly_typed_documents_rejected_cleanly(self, payload):
        # A hand-written spec file with the wrong value type must fail with
        # a SchedulingError (CLI exit 2), never a raw TypeError traceback.
        with pytest.raises(SchedulingError):
            CampaignSpec.from_dict(payload).validate()


class TestBackendRegistry:
    def test_registry_names_match_backend_names(self):
        for name, backend_class in EXECUTION_BACKENDS.items():
            assert backend_class.name == name

    def test_resolution(self):
        assert isinstance(execution_backend("simulated"), SimulatedBackend)
        assert isinstance(execution_backend(None), SimulatedBackend)
        backend = ProcessPoolBackend()
        assert execution_backend(backend) is backend

    @pytest.mark.parametrize("name", ["mpi", "threads", "sharded"])
    def test_unknown_backend_rejected(self, name):
        with pytest.raises(SchedulingError, match="known: processes, simulated"):
            execution_backend(name)


class TestSubmitFacade:
    KEYS = ("SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4")

    def test_handle_lifecycle_and_progress(self):
        system = _fresh_system()
        seen = []
        handle = system.submit(
            CampaignSpec(configuration_keys=self.KEYS, workers=2),
            on_cell_complete=lambda cell: seen.append(cell.index),
        )
        assert isinstance(handle, CampaignHandle)
        assert handle.status == "completed"
        assert handle.cells_total == handle.cells_completed == 2
        assert handle.progress == 1.0
        assert seen == [0, 1]
        assert handle.result() is system.last_campaign
        assert handle.result().spec.configuration_keys == self.KEYS

    def test_spec_persisted_and_replayable_from_storage(self):
        system = _fresh_system()
        handle = system.submit(CampaignSpec(configuration_keys=self.KEYS))
        document = system.storage.get("campaigns", f"spec_{handle.campaign_id}")
        assert document["status"] == "completed"
        assert document["cells_total"] == 2
        replayed = _fresh_system().submit(CampaignSpec.from_dict(document["spec"]))
        assert [run.to_document() for run in replayed.result().runs()] == [
            run.to_document() for run in handle.result().runs()
        ]

    def test_persist_spec_false_leaves_storage_untouched(self):
        system = _fresh_system()
        system.submit(
            CampaignSpec(configuration_keys=self.KEYS, persist_spec=False)
        )
        assert "campaigns" not in system.storage.namespaces()

    def test_campaign_ids_resume_past_mounted_submissions(self):
        first = _fresh_system()
        first.submit(CampaignSpec(configuration_keys=self.KEYS))
        second = SPSystem(storage=first.storage)
        assert second._allocate_campaign_id() == "campaign-0002"

    def test_slots_per_worker_overrides_the_vm_profile(self):
        system = _fresh_system()
        handle = system.submit(
            CampaignSpec(
                configuration_keys=("SL5_64bit_gcc4.4",),
                workers=2,
                slots_per_worker=1,
            )
        )
        schedule = handle.result().schedule
        assert schedule.slots_per_worker == 1
        assert schedule.total_slots == 2

    def test_invalid_spec_rejected_before_execution(self):
        system = _fresh_system()
        with pytest.raises(SchedulingError):
            system.submit(CampaignSpec(workers=0))
        assert system.total_runs() == 0

    def test_explicit_requests_carry_descriptions(self):
        system = _fresh_system()
        handle = system.submit(
            CampaignSpec(
                requests=(
                    ValidationRequest(
                        "HERMES", "SL5_64bit_gcc4.4", description="nightly run"
                    ),
                )
            )
        )
        run = handle.result().cells[0].run
        assert run.description == "nightly run"

    def test_empty_matrix_completes_with_no_cells(self):
        system = _fresh_system()
        handle = system.submit(CampaignSpec(configuration_keys=()))
        assert handle.status == "completed"
        assert handle.cells_total == 0
        assert handle.progress == 1.0
        assert handle.result().n_cells == 0

    def test_failed_submission_raises_and_records(self):
        system = _fresh_system()
        spec = CampaignSpec(configuration_keys=("no-such-configuration",))
        with pytest.raises(Exception):
            system.submit(spec)
        keys = system.storage.keys("campaigns")
        assert len(keys) == 1
        assert system.storage.get("campaigns", keys[0])["status"] == "failed"

    def test_result_raises_until_completed(self):
        handle = CampaignHandle(campaign_id="campaign-9999", spec=CampaignSpec())
        with pytest.raises(SchedulingError, match="has not completed"):
            handle.result()

    def test_policy_instances_schedule_without_travelling_in_the_spec(self):
        # A custom (unregistered) policy instance cannot travel in the
        # serialisable spec; submit schedules with it while the spec keeps
        # its registry name.
        from repro.scheduler.pool import FifoPolicy

        class ReversedFifoPolicy(FifoPolicy):
            name = "reversed-fifo"

        system = _fresh_system()
        spec = CampaignSpec(
            experiments=("HERMES",),
            configuration_keys=("SL5_64bit_gcc4.4",),
            persist_spec=False,
        )
        campaign = system.submit(spec, policy=ReversedFifoPolicy()).result()
        assert campaign.policy == "reversed-fifo"
        assert campaign.schedule.policy == "reversed-fifo"
        assert campaign.spec.policy == "fifo"


class TestParentSpecDocuments:
    """Spec documents written while ``threads`` and ``sharded`` existed.

    Every such document carries a ``shards`` field.  ``threads`` reads as
    ``simulated`` and ``sharded`` as ``processes`` on single-slot workers,
    one per shard: both record the science and report the timeline of the
    backend they name.
    """

    KEYS = ("SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4")
    PARENT_FIELDS = [{}, {"backend": "threads"}, {"backend": "sharded", "shards": 2}]
    PARENT_IDS = ["simulated", "threads", "sharded"]

    def _document(self, **fields):
        spec = CampaignSpec(configuration_keys=self.KEYS, workers=4, persist_spec=False)
        return {**spec.to_dict(), "shards": None, **fields}

    @staticmethod
    def _run_documents(spec):
        campaign = _fresh_system().submit(spec).result()
        return [run.to_document() for run in campaign.runs()]

    @staticmethod
    def _parent_submission(number, status="queued", **spec_fields):
        """A submission document exactly as the parent's service wrote it."""
        return {
            "campaign_id": None,
            "cells": 0,
            "error": None,
            "priority": "normal",
            "sequence": number,
            "spec": {
                "backend": "simulated",
                "batch_size": 4,
                "cache_budget_bytes": None,
                "configuration_keys": ["SL5_64bit_gcc4.4"],
                "deadline_seconds": None,
                "description": None,
                "event_log": None,
                "experiments": ["HERMES"],
                "failures": [],
                "on_deadline": "report",
                "persist_spec": True,
                "plugins": [],
                "policy": "fifo",
                "record_history": None,
                "requests": None,
                "rounds": 1,
                "shards": None,
                "slots_per_worker": None,
                "use_cache": True,
                "warm_start": True,
                "workers": 1,
                **spec_fields,
            },
            "status": status,
            "submission_id": f"sub-{number:06d}",
            "tenant": "alice",
        }

    @staticmethod
    def _write_service(directory, documents):
        (directory / "service").mkdir()
        for prefix, document in documents:
            name = f"{prefix}{document['submission_id']}.json"
            (directory / "service" / name).write_text(json.dumps(document))

    @pytest.mark.parametrize("fields", PARENT_FIELDS, ids=PARENT_IDS)
    def test_parent_document_records_the_simulated_science(self, fields):
        reference = CampaignSpec(configuration_keys=self.KEYS, persist_spec=False)
        assert self._run_documents(
            CampaignSpec.from_dict(self._document(**fields))
        ) == self._run_documents(reference)

    def test_sharded_document_keeps_the_sharded_timeline(self):
        spec = CampaignSpec.from_dict(self._document(backend="sharded", shards=2))
        assert spec.backend == "processes"
        assert (spec.workers, spec.slots_per_worker) == (2, 1)
        # Without a shard count the parent sharded over the workers.
        assert CampaignSpec.from_dict(self._document(backend="sharded")).workers == 4
        schedule = _fresh_system().submit(spec).result().schedule
        expected = _fresh_system().submit(
            CampaignSpec(
                configuration_keys=self.KEYS,
                workers=2,
                slots_per_worker=1,
                backend="processes",
                persist_spec=False,
            )
        ).result().schedule
        assert (schedule.n_workers, schedule.slots_per_worker) == (2, 1)
        assert schedule.makespan_seconds == expected.makespan_seconds
        assert schedule.assignments == expected.assignments

    @pytest.mark.parametrize("backend", ["processes", "threads", "simulated", None])
    def test_shards_on_another_backend_stays_unknown(self, backend):
        # The parent rejected a shard count on processes and threads, and
        # persisted a shard count on simulated (or on no backend) only
        # after renaming the backend to sharded.  None of these is a
        # persisted document, so none is silently run without its shards.
        document = self._document(backend=backend, shards=2)
        if backend is None:
            del document["backend"]
        with pytest.raises(SchedulingError, match="unknown campaign spec field"):
            CampaignSpec.from_dict(document)

    @pytest.mark.parametrize("shards", [0, -1, "2", 1.5, True])
    def test_sharded_document_with_a_bad_shard_count_is_rejected(self, shards):
        # The parent refused these shard counts; as worker counts they are
        # refused just the same.
        spec = CampaignSpec.from_dict(self._document(backend="sharded", shards=shards))
        with pytest.raises(SchedulingError):
            spec.validate()

    @pytest.mark.parametrize("fields", PARENT_FIELDS, ids=PARENT_IDS)
    def test_translated_document_persists_in_the_current_shape(self, fields):
        spec = CampaignSpec.from_dict(self._document(**fields))
        document = spec.to_dict()
        assert "shards" not in document
        assert document["backend"] in EXECUTION_BACKENDS
        assert CampaignSpec.from_dict(document) == spec

    @pytest.mark.parametrize("fields", PARENT_FIELDS, ids=PARENT_IDS)
    def test_parent_spec_file_runs_under_the_cli(self, fields, tmp_path, capsys):
        document = {
            **self._document(**fields),
            "experiments": ["HERMES"],
            "configuration_keys": ["SL5_64bit_gcc4.4"],
        }
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(document))
        assert cli_main(["campaign", "--scale", "0.1", "--spec", str(path)]) == 0
        output = capsys.readouterr().out
        assert "submitted campaign-0001: 1/1 cells" in output
        assert f"'{CampaignSpec.from_dict(document).backend}' backend" in output

    def test_parent_queued_submission_resumes_under_serve(self, tmp_path, capsys):
        self._write_service(tmp_path, [("queued_", self._parent_submission(1))])
        directory = str(tmp_path)
        assert cli_main(["serve", "--storage-dir", directory, "--scale", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "1 queued submission(s) resumed" in output
        assert "sub-000001 [alice] completed: campaign-0001" in output
        assert not (tmp_path / "service" / "queued_sub-000001.json").exists()

    def test_parent_submission_record_resumes_under_serve(self, tmp_path, capsys):
        # A sharded submission the parent cancelled, then a queued one:
        # serve reads the record and dispatches only the queued submission.
        self._write_service(
            tmp_path,
            [
                (
                    "submission_",
                    self._parent_submission(
                        1, status="cancelled", backend="sharded", shards=2
                    ),
                ),
                ("queued_", self._parent_submission(2)),
            ],
        )
        directory = str(tmp_path)
        assert cli_main(["serve", "--storage-dir", directory, "--scale", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "1 queued submission(s) resumed" in output
        assert "sub-000002 [alice] completed: campaign-0001" in output
        rows = [
            line.split()[:4]
            for line in output.splitlines()
            if line.startswith("sub-")
        ]
        assert rows == [
            ["sub-000001", "alice", "normal", "cancelled"],
            ["sub-000002", "alice", "normal", "completed"],
        ]

    def test_parent_documents_list_under_queue_status(self, tmp_path, capsys):
        self._write_service(
            tmp_path,
            [
                (
                    "submission_",
                    self._parent_submission(
                        1, status="cancelled", backend="sharded", shards=2
                    ),
                ),
                ("queued_", self._parent_submission(2, backend="threads")),
            ],
        )
        assert cli_main(["queue", "status", "--storage-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "1 queued of 2 recorded submission(s)" in output
        assert "sub-000001" in output and "sub-000002" in output

    def test_parent_queued_submission_cancels_offline(self, tmp_path, capsys):
        self._write_service(
            tmp_path,
            [("queued_", self._parent_submission(1, backend="sharded", shards=2))],
        )
        assert cli_main([
            "queue", "cancel", "--storage-dir", str(tmp_path),
            "--submission", "sub-000001",
        ]) == 0
        assert not (tmp_path / "service" / "queued_sub-000001.json").exists()
        record = json.loads(
            (tmp_path / "service" / "submission_sub-000001.json").read_text()
        )
        assert record["status"] == "cancelled"
        # The record is rewritten in today's shape.
        assert "shards" not in record["spec"]
        spec = record["spec"]
        assert (spec["backend"], spec["workers"], spec["slots_per_worker"]) == (
            "processes", 2, 1,
        )
