"""Tests for bookkeeping (IDs, clock, tags), the run catalogue and shell vars."""

import pytest

from repro._common import ReproError, StorageError, ValidationError
from repro.storage.bookkeeping import (
    EPOCH_2013,
    JobIdAllocator,
    RunTag,
    SimulatedClock,
    TagRegistry,
    format_timestamp,
)
from repro.storage.catalog import RunCatalog, RunRecord
from repro.storage.common_storage import CommonStorage
from repro.storage.shellvars import SP_VARIABLES, ShellVariableInterface


class TestSimulatedClock:
    def test_starts_at_2013(self):
        assert SimulatedClock().now == EPOCH_2013

    def test_advance(self):
        clock = SimulatedClock()
        clock.advance(3600)
        assert clock.now == EPOCH_2013 + 3600
        clock.advance_days(1)
        assert clock.now == EPOCH_2013 + 3600 + 86400

    def test_cannot_run_backwards(self):
        with pytest.raises(ReproError):
            SimulatedClock().advance(-1)
        with pytest.raises(ReproError):
            SimulatedClock(start_timestamp=-5)

    def test_isoformat(self):
        assert SimulatedClock().isoformat() == "2013-01-01 00:00:00"

    def test_format_timestamp_known_values(self):
        assert format_timestamp(0) == "1970-01-01 00:00:00"
        assert format_timestamp(EPOCH_2013 + 86400 + 3661) == "2013-01-02 01:01:01"


class TestJobIdAllocator:
    def test_sequential_unique_ids(self):
        allocator = JobIdAllocator()
        first, second = allocator.allocate(), allocator.allocate()
        assert first == "sp-000001"
        assert second == "sp-000002"
        assert allocator.allocated_count == 2

    def test_peek_names_future_ids_without_allocating(self):
        allocator = JobIdAllocator()
        assert allocator.peek() == "sp-000001"
        assert allocator.peek(2) == "sp-000003"
        assert allocator.allocated_count == 0
        assert [allocator.allocate() for _ in range(3)][2] == "sp-000003"

    def test_custom_prefix(self):
        assert JobIdAllocator(prefix="h1").allocate().startswith("h1-")

    def test_invalid_start(self):
        with pytest.raises(ReproError):
            JobIdAllocator(start=-1)


class TestTags:
    def test_run_tag_rendering(self):
        tag = RunTag(
            description="SL6 migration",
            software_versions={"ROOT": "5.34", "os": "SL6"},
            timestamp=EPOCH_2013,
        )
        rendered = tag.render()
        assert "SL6 migration" in rendered
        assert "ROOT=5.34" in rendered
        assert "2013-01-01" in rendered

    def test_tag_registry_groups_runs(self):
        registry = TagRegistry()
        registry.record("desc-a", "run-1")
        registry.record("desc-a", "run-2")
        registry.record("desc-b", "run-3")
        assert registry.descriptions() == ["desc-a", "desc-b"]
        assert registry.runs_for("desc-a") == ["run-1", "run-2"]
        assert registry.runs_for("unknown") == []
        assert len(registry) == 2


def make_record(run_id, experiment="H1", configuration="SL5_64bit_gcc4.4",
                status="passed", timestamp=EPOCH_2013, tests=None):
    return RunRecord(
        run_id=run_id,
        experiment=experiment,
        configuration_key=configuration,
        description=f"{experiment} regular validation",
        timestamp=timestamp,
        software_versions={"ROOT": "5.34"},
        test_statuses=tests or {"test-a": "passed", "test-b": status},
        overall_status=status,
    )


class TestRunCatalog:
    def test_record_and_lookup(self):
        catalog = RunCatalog()
        catalog.record(make_record("run-1"))
        assert "run-1" in catalog
        assert catalog.get("run-1").experiment == "H1"
        assert catalog.total_runs() == 1

    def test_duplicate_record_rejected(self):
        catalog = RunCatalog()
        catalog.record(make_record("run-1"))
        with pytest.raises(StorageError):
            catalog.record(make_record("run-1"))

    def test_update_requires_existing(self):
        catalog = RunCatalog()
        with pytest.raises(StorageError):
            catalog.update(make_record("run-1"))
        catalog.record(make_record("run-1"))
        catalog.update(make_record("run-1", status="failed"))
        assert catalog.get("run-1").overall_status == "failed"

    def test_queries_by_experiment_configuration_description(self):
        catalog = RunCatalog()
        catalog.record(make_record("run-1", experiment="H1"))
        catalog.record(make_record("run-2", experiment="ZEUS"))
        catalog.record(make_record("run-3", experiment="H1", configuration="SL6_64bit_gcc4.4"))
        assert [record.run_id for record in catalog.for_experiment("H1")] == ["run-1", "run-3"]
        assert [record.run_id for record in catalog.for_configuration("SL6_64bit_gcc4.4")] == ["run-3"]
        assert len(catalog.for_description("H1 regular validation")) == 2
        assert catalog.experiments() == ["H1", "ZEUS"]
        assert len(catalog.configurations()) == 2

    def test_last_successful_lookups(self):
        catalog = RunCatalog()
        catalog.record(make_record("run-1", status="passed", timestamp=EPOCH_2013))
        catalog.record(make_record("run-2", status="failed", timestamp=EPOCH_2013 + 10))
        assert catalog.last_successful("H1").run_id == "run-1"
        assert catalog.last_successful("H1", configuration_key="SL6_64bit_gcc4.4") is None
        assert catalog.last_successful("ZEUS") is None
        # Per-test lookup: run-2 failed overall but test-a passed in it.
        assert catalog.last_successful("H1", test_name="test-a").run_id == "run-2"

    def test_rehydration_from_storage(self):
        storage = CommonStorage()
        catalog = RunCatalog(storage)
        catalog.record(make_record("run-1"))
        rebuilt = RunCatalog(storage)
        assert rebuilt.total_runs() == 1
        assert rebuilt.get("run-1").n_passed == 2

    def test_record_counts(self):
        record = make_record("run-1", tests={"a": "passed", "b": "failed", "c": "passed"})
        assert record.n_tests == 3
        assert record.n_passed == 2
        assert record.n_failed == 1

    def test_serialisation_round_trip(self):
        record = make_record("run-1")
        rebuilt = RunRecord.from_dict(record.to_dict())
        assert rebuilt.run_id == record.run_id
        assert rebuilt.test_statuses == record.test_statuses


class TestShellVariableInterface:
    def test_all_documented_variables_exported(self):
        interface = ShellVariableInterface()
        environment = interface.environment_for(
            run_id="sp-000001", test_name="kinematics-nc_dis",
            experiment="H1", configuration_key="SL6_64bit_gcc4.4",
        )
        assert ShellVariableInterface.is_complete(environment)
        for name in SP_VARIABLES:
            assert name in environment

    def test_paths_contain_run_and_test(self):
        interface = ShellVariableInterface(storage_root="/sp")
        environment = interface.environment_for(
            "sp-000002", "test-x", "ZEUS", "SL5_32bit_gcc4.1"
        )
        assert environment.get("SP_OUTPUT_DIR") == "/sp/results/sp-000002/test-x"
        assert "SL5_32bit_gcc4.1" in environment.get("SP_EXTERNAL_DIR")

    def test_reference_dir_uses_reference_run(self):
        interface = ShellVariableInterface()
        environment = interface.environment_for(
            "sp-000003", "test-x", "H1", "SL6_64bit_gcc4.4",
            reference_run_id="sp-000001",
        )
        assert "sp-000001" in environment.get("SP_REFERENCE_DIR")

    def test_invalid_storage_root(self):
        with pytest.raises(ValidationError):
            ShellVariableInterface(storage_root="relative/path")

    def test_unknown_variable_raises(self):
        interface = ShellVariableInterface()
        environment = interface.environment_for("sp-1", "t", "H1", "SL6_64bit_gcc4.4")
        with pytest.raises(ValidationError):
            environment.get("SP_UNKNOWN")

    def test_export_lines_sorted(self):
        interface = ShellVariableInterface()
        environment = interface.environment_for("sp-1", "t", "H1", "SL6_64bit_gcc4.4")
        lines = environment.as_export_lines()
        assert all(line.startswith("export SP_") for line in lines)
        assert lines == sorted(lines)
