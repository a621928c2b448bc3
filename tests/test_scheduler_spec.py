"""Tests for the unified execution API: specs, backends and the submit facade.

The :class:`CampaignSpec` request object is the single currency of campaign
execution: it round-trips through ``to_dict``/``from_dict``, persists into
the ``campaigns`` namespace of the common storage, and replays the identical
campaign on a fresh installation.  The :class:`ExecutionBackend` registry
decides where the cells are computed — inline, on threads or in forked
processes — without ever touching the scientific output.
"""

import pytest

from repro._common import SchedulingError
from repro.core.runner import RunnerSettings
from repro.core.spsystem import CampaignHandle, SPSystem
from repro.experiments import build_hermes_experiment
from repro.scheduler.backends import (
    EXECUTION_BACKENDS,
    ExecutionRequest,
    SimulatedBackend,
    ThreadPoolBackend,
    execution_backend,
)
from repro.scheduler.dag import CampaignDAG, CampaignTask, TaskKind
from repro.scheduler.pool import WorkerFailure
from repro.scheduler.spec import CampaignSpec, ValidationRequest


def _fresh_system(seed=20131029):
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0, seed=seed)
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.2))
    return system


def _task(task_id, duration=5.0, deps=(), cell=0):
    return CampaignTask(
        task_id=task_id,
        kind=TaskKind.BUILD,
        cell_index=cell,
        experiment="TESTEXP",
        configuration_key="SL5_64bit_gcc4.4",
        duration_seconds=duration,
        dependencies=tuple(deps),
    )


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
            {
                "requests": (ValidationRequest("H1", "SL5_64bit_gcc4.4"),),
                "experiments": ("H1",),
            },
            {
                "backend": "threads",
                "failures": (WorkerFailure(worker_index=0, at_seconds=1.0),),
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
        assert isinstance(execution_backend("threads"), ThreadPoolBackend)
        assert isinstance(execution_backend(None), SimulatedBackend)
        backend = ThreadPoolBackend()
        assert execution_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(SchedulingError):
            execution_backend("mpi")


class TestThreadPoolBackend:
    def test_reports_the_simulated_timeline(self):
        dag = CampaignDAG()
        dag.add(_task("build-a", deps=()))
        dag.add(_task("build-b", deps=["build-a"]))
        dag.add(_task("test", deps=["build-b"]))
        request = ExecutionRequest(dag=dag, workers=2)
        schedule = ThreadPoolBackend().execute(request)
        assert schedule.backend == "threads"
        assert schedule.assignments == SimulatedBackend().execute(request).assignments
        by_id = {a.task_id: a for a in schedule.assignments}
        assert by_id["build-b"].start_seconds >= by_id["build-a"].end_seconds
        assert by_id["test"].start_seconds >= by_id["build-b"].end_seconds
        assert schedule.makespan_seconds == 15.0

    def test_empty_dag(self):
        schedule = ThreadPoolBackend().execute(ExecutionRequest(dag=CampaignDAG()))
        assert schedule.assignments == []
        assert schedule.makespan_seconds == 0.0

    def test_failure_injection_rejected(self):
        with pytest.raises(SchedulingError):
            ThreadPoolBackend().execute(
                ExecutionRequest(
                    dag=CampaignDAG(),
                    failures=(WorkerFailure(worker_index=0, at_seconds=1.0),),
                )
            )


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


class TestDeprecatedShims:
    def test_run_campaign_warns_and_matches_submit(self):
        legacy_system = _fresh_system()
        with pytest.warns(DeprecationWarning, match="run_campaign is deprecated"):
            legacy = legacy_system.run_campaign(
                ["HERMES"], list(TestSubmitFacade.KEYS), workers=2
            )
        spec_system = _fresh_system()
        submitted = spec_system.submit(
            CampaignSpec(
                experiments=("HERMES",),
                configuration_keys=TestSubmitFacade.KEYS,
                workers=2,
            )
        ).result()
        assert [run.to_document() for run in legacy.runs()] == [
            run.to_document() for run in submitted.runs()
        ]

    def test_validate_everywhere_warns(self):
        system = _fresh_system()
        with pytest.warns(
            DeprecationWarning, match="validate_everywhere is deprecated"
        ):
            cycles = system.validate_everywhere(
                "HERMES", list(TestSubmitFacade.KEYS)
            )
        assert len(cycles) == 2

    def test_run_campaign_still_accepts_policy_instances(self):
        # A custom (unregistered) policy instance cannot travel in the
        # serialisable spec, but the deprecated path must keep scheduling
        # with it, as it did before the redesign.
        from repro.scheduler.pool import FifoPolicy

        class ReversedFifoPolicy(FifoPolicy):
            name = "reversed-fifo"

        system = _fresh_system()
        with pytest.warns(DeprecationWarning):
            campaign = system.run_campaign(
                ["HERMES"], ["SL5_64bit_gcc4.4"], policy=ReversedFifoPolicy()
            )
        assert campaign.policy == "reversed-fifo"
        assert campaign.schedule.policy == "reversed-fifo"

    def test_validate_all_experiments_warns(self):
        system = _fresh_system()
        with pytest.warns(
            DeprecationWarning, match="validate_all_experiments is deprecated"
        ):
            results = system.validate_all_experiments(["SL5_64bit_gcc4.4"])
        assert sorted(results) == ["HERMES"]
