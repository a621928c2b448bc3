"""Tests for declarative experiment specs, the regular-operation service and the CLI."""

import json
import os
import re
import shutil

import pytest

from repro._common import SchedulingError, ValidationError
from repro.cli import main as cli_main
from repro.core.levels import PreservationLevel
from repro.core.service import RegularValidationService
from repro.core.spsystem import SPSystem
from repro.core.testspec import TestKind
from repro.environment.configuration import next_generation_configuration
from repro.experiments.declarative import experiment_from_spec, spec_from_experiment
from repro.experiments.hermes import build_hermes_experiment
from repro.history import ValidationHistoryLedger
from repro.plugins import InterventionStore
from repro.scheduler.cache import BuildCache
from repro.scheduler.spec import CampaignSpec
from repro.service import ValidationService
from repro.storage.common_storage import CommonStorage


BASIC_SPEC = {
    "name": "NEWEXP",
    "full_name": "A newly joining experiment",
    "preservation_level": 4,
    "colour": "green",
    "packages": {"count": 20, "quirks": {"not_ported_to_newest_abi": 1}},
    "processes": ["nc_dis", "photoproduction"],
    "events_per_chain": 30,
    "events_per_test": 20,
    "standalone": {"regression_tests_per_package": 1},
}


class TestDeclarativeExperiments:
    def test_spec_builds_complete_experiment(self):
        experiment = experiment_from_spec(BASIC_SPEC)
        assert experiment.name == "NEWEXP"
        assert experiment.preservation_level is PreservationLevel.FULL_SOFTWARE
        assert len(experiment.inventory) == 20
        assert len(experiment.chains) == 2
        # Level 4: full chains including detector simulation.
        assert any(
            name.endswith("detector-simulation")
            for name in experiment.chains[0].step_names()
        )
        assert experiment.display_colour == "green"
        assert experiment.standalone_tests

    def test_level3_spec_uses_analysis_only_chains(self):
        spec = dict(BASIC_SPEC, name="LEVEL3EXP", preservation_level=3)
        experiment = experiment_from_spec(spec)
        for chain in experiment.chains:
            assert not any(
                name.endswith("detector-simulation") for name in chain.step_names()
            )

    def test_spec_validation_errors(self):
        with pytest.raises(ValidationError):
            experiment_from_spec({})
        with pytest.raises(ValidationError):
            experiment_from_spec(dict(BASIC_SPEC, processes=["ttbar"]))
        with pytest.raises(ValidationError):
            experiment_from_spec(dict(BASIC_SPEC, packages={"count": 2}))
        with pytest.raises(ValidationError):
            experiment_from_spec(dict(BASIC_SPEC, events_per_chain=0))

    def test_standalone_options_respected(self):
        spec = dict(
            BASIC_SPEC,
            name="MINIMAL",
            standalone={
                "smoke_tests": False,
                "root_io_tests": False,
                "database_tests": False,
                "calibration_tests": False,
                "kinematics_tests": True,
                "data_export_test": False,
                "regression_tests_per_package": 0,
            },
        )
        experiment = experiment_from_spec(spec)
        names = [test.name for test in experiment.standalone_tests]
        assert all(name.startswith("kinematics-") for name in names)

    def test_declarative_experiment_validates_in_sp_system(self):
        system = SPSystem()
        system.provision_standard_images()
        system.register_experiment(experiment_from_spec(BASIC_SPEC))
        result = system.validate("NEWEXP", "SL5_64bit_gcc4.4")
        assert result.successful

    def test_spec_round_trip_summary(self):
        experiment = experiment_from_spec(BASIC_SPEC)
        summary = spec_from_experiment(experiment)
        assert summary["name"] == "NEWEXP"
        assert summary["packages"]["count"] == 20
        assert summary["test_counts"]["total"] == experiment.total_test_count()
        assert set(summary["chains"]) == {chain.name for chain in experiment.chains}
        # The summary itself is a valid JSON document.
        import json

        json.dumps(summary)


class TestRegularValidationService:
    def _system(self):
        system = SPSystem()
        system.provision_standard_images()
        system.register_experiment(build_hermes_experiment(scale=0.2))
        return system

    def test_schedule_and_entries(self):
        system = self._system()
        service = RegularValidationService(system)
        service.schedule("HERMES", "SL5_64bit_gcc4.4", "30 2 * * *")
        assert len(service.entries()) == 1
        assert service.entry("HERMES", "SL5_64bit_gcc4.4").run_count == 0
        with pytest.raises(SchedulingError):
            service.schedule("HERMES", "SL5_64bit_gcc4.4", "30 2 * * *")
        with pytest.raises(ValidationError):
            service.schedule("GHOST", "SL5_64bit_gcc4.4", "30 2 * * *")

    def test_schedule_everywhere_and_advance(self):
        system = self._system()
        service = RegularValidationService(system)
        entries = service.schedule_experiment_everywhere("HERMES", "30 2 * * *")
        assert len(entries) == 5
        report = service.advance_days(2)
        # Two nights, five configurations each.
        assert report.n_cycles == 10
        assert system.total_runs() == 10
        assert all(entry.run_count == 2 for entry in service.entries())
        # The SL6 entry fails, the SL5 entries pass.
        sl6_entry = service.entry("HERMES", "SL6_64bit_gcc4.4")
        assert sl6_entry.last_result_successful is False
        assert report.n_failed_cycles >= 1

    def test_integrate_new_configuration(self):
        system = self._system()
        service = RegularValidationService(system)
        service.schedule_experiment_everywhere("HERMES", "30 2 * * *")
        added = service.integrate_new_configuration(
            next_generation_configuration(), cron_expression="0 4 * * 0"
        )
        assert len(added) == 1
        assert len(service.entries()) == 6
        report = service.advance_days(7)
        sl7_runs = [
            cycle for cycle in report.cycles_run
            if cycle.run.configuration_key.startswith("SL7")
        ]
        assert len(sl7_runs) == 1
        assert not sl7_runs[0].successful

    def test_unschedule_and_invalid_advance(self):
        system = self._system()
        service = RegularValidationService(system)
        service.schedule("HERMES", "SL5_64bit_gcc4.4", "30 2 * * *")
        service.unschedule("HERMES", "SL5_64bit_gcc4.4")
        assert service.entries() == []
        with pytest.raises(SchedulingError):
            service.unschedule("HERMES", "SL5_64bit_gcc4.4")
        with pytest.raises(SchedulingError):
            service.advance_days(-1)

    def test_status_rows(self):
        system = self._system()
        service = RegularValidationService(system)
        service.schedule("HERMES", "SL5_64bit_gcc4.4", "30 2 * * *")
        service.advance_days(1)
        rows = service.status_rows()
        assert rows[0]["experiment"] == "HERMES"
        assert rows[0]["runs"] == 1
        assert rows[0]["last_result"] == "passed"


class TestCommandLineInterface:
    def test_levels_command(self, capsys):
        assert cli_main(["levels"]) == 0
        output = capsys.readouterr().out
        assert "Provide additional documentation" in output
        assert "Retain the full potential" in output

    def test_describe_command(self, capsys):
        assert cli_main(["describe", "--scale", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "SL6/64bit" in output
        assert "H1" in output and "ZEUS" in output and "HERMES" in output

    def test_validate_command_success_and_failure_exit_codes(self, capsys):
        assert cli_main([
            "validate", "--experiment", "HERMES",
            "--configuration", "SL5_64bit_gcc4.4", "--scale", "0.15",
        ]) == 0
        assert cli_main([
            "validate", "--experiment", "HERMES",
            "--configuration", "SL6_64bit_gcc4.4", "--scale", "0.15",
        ]) == 1
        output = capsys.readouterr().out
        assert "FAILED" in output

    def test_validate_unknown_configuration_reports_error(self, capsys):
        assert cli_main([
            "validate", "--experiment", "HERMES", "--configuration", "SL9", "--scale", "0.1",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_migrate_plan_command(self, capsys):
        assert cli_main([
            "migrate-plan", "--experiment", "HERMES", "--target", "SL7", "--scale", "0.2",
        ]) == 0
        output = capsys.readouterr().out
        assert "person-weeks" in output

    def test_campaign_command_with_output(self, tmp_path, capsys):
        assert cli_main([
            "campaign", "--scale", "0.1", "--output", str(tmp_path / "storage"),
        ]) == 0
        output = capsys.readouterr().out
        assert "total validation runs recorded" in output
        assert (tmp_path / "storage" / "reports").is_dir()

    @pytest.mark.parametrize("flag", ["--workers", "--rounds", "--batch-size"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_campaign_rejects_non_positive_pool_flags(self, flag, value, capsys):
        # argparse rejects the value with a clear error instead of the old
        # silent max(x, 1) clamp.
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["campaign", flag, value])
        assert excinfo.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_campaign_backend_flag(self, capsys):
        assert cli_main([
            "campaign", "--scale", "0.1", "--backend", "processes", "--workers", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert "'processes' backend" in output
        assert "execution backend" in output

    @pytest.mark.parametrize("backend", ["mpi", "threads", "sharded"])
    def test_campaign_rejects_unknown_backend(self, backend, capsys):
        with pytest.raises(SystemExit):
            cli_main(["campaign", "--backend", backend])
        assert "invalid choice" in capsys.readouterr().err

    def test_campaign_spec_file(self, tmp_path, capsys):
        import json

        from repro.scheduler.spec import CampaignSpec

        spec_path = tmp_path / "campaign.json"
        spec = CampaignSpec(
            experiments=("HERMES",),
            configuration_keys=("SL5_64bit_gcc4.4",),
            workers=2,
            rounds=2,
        )
        spec_path.write_text(json.dumps(spec.to_dict()))
        assert cli_main(["campaign", "--scale", "0.1", "--spec", str(spec_path)]) == 0
        output = capsys.readouterr().out
        assert "submitted campaign-0001: 2/2 cells" in output

    def test_campaign_spec_file_errors(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli_main(["campaign", "--spec", str(missing)]) == 2
        assert "cannot read spec file" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["campaign", "--spec", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        unknown = tmp_path / "unknown.json"
        unknown.write_text('{"wokers": 4}')
        assert cli_main(["campaign", "--spec", str(unknown)]) == 2
        assert "unknown campaign spec field" in capsys.readouterr().err

    def test_campaign_cache_budget_flag(self, tmp_path, capsys):
        import json

        output_dir = tmp_path / "storage"
        assert cli_main([
            "campaign", "--scale", "0.1",
            "--cache-budget-mb", "0.0001",
            "--output", str(output_dir),
        ]) == 0
        output = capsys.readouterr().out
        # A ~100-byte budget cannot hold even a tarball-less cache entry.
        assert ("(0 new build-cache journal records for the next campaign)"
                in output)
        # The budget travels in the persisted spec, so replaying it keeps
        # the same cache cap.
        spec_files = list((output_dir / "campaigns").glob("spec_*.json"))
        assert len(spec_files) == 1
        document = json.loads(spec_files[0].read_text())
        assert document["spec"]["cache_budget_bytes"] == 104

    def test_campaign_wrongly_typed_spec_file_exits_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "typed.json"
        bad.write_text('{"workers": "4"}')
        assert cli_main(["campaign", "--spec", str(bad)]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_campaign_cache_budget_requires_output(self, capsys):
        # Without --output nothing is persisted, so the budget would be a
        # silent no-op; refuse it instead.
        assert cli_main(["campaign", "--cache-budget-mb", "1"]) == 2
        assert "--cache-budget-mb requires --output" in capsys.readouterr().err

    def test_campaign_rejects_non_positive_cache_budget(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["campaign", "--cache-budget-mb", "0"])
        assert "must be positive" in capsys.readouterr().err

    def test_campaign_no_cache_runs_cold(self, tmp_path, capsys):
        import json

        output_dir = tmp_path / "storage"
        assert cli_main([
            "campaign", "--scale", "0.1", "--no-cache",
            "--output", str(output_dir),
        ]) == 0
        output = capsys.readouterr().out
        # The cold path journals nothing and persists no buildcache namespace.
        assert ("(0 new build-cache journal records for the next campaign)"
                in output)
        assert not (output_dir / "buildcache").exists()
        # The cold-path flag travels in the persisted spec for replays.
        spec_files = list((output_dir / "campaigns").glob("spec_*.json"))
        document = json.loads(spec_files[0].read_text())
        assert document["spec"]["use_cache"] is False

    def test_campaign_no_cache_conflicts_with_budget(self, capsys):
        assert cli_main([
            "campaign", "--no-cache", "--cache-budget-mb", "1",
        ]) == 2
        assert "conflicts with --no-cache" in capsys.readouterr().err

    def test_spec_file_warm_start_false_is_honoured(self, tmp_path, capsys):
        """A replayed spec with warm_start:false must run cold in the CLI too."""
        import json

        from repro.scheduler.spec import CampaignSpec

        warm_dir = tmp_path / "warm"
        assert cli_main([
            "campaign", "--scale", "0.1", "--output", str(warm_dir),
        ]) == 0
        capsys.readouterr()
        spec_file = tmp_path / "no-warm.json"
        spec_file.write_text(
            json.dumps(CampaignSpec(warm_start=False).to_dict())
        )
        assert cli_main([
            "campaign", "--scale", "0.1", "--spec", str(spec_file),
            "--cache-dir", str(warm_dir),
        ]) == 0
        assert "warm-started" not in capsys.readouterr().out

    def test_campaign_no_cache_conflicts_with_explicit_cache_dir(
        self, tmp_path, capsys
    ):
        """An explicit --cache-dir would be a silent no-op without the cache."""
        assert cli_main([
            "campaign", "--no-cache", "--cache-dir", str(tmp_path),
        ]) == 2
        assert "--cache-dir conflicts" in capsys.readouterr().err

    def test_campaign_budget_conflicts_with_cacheless_spec_file(
        self, tmp_path, capsys
    ):
        """A spec file disabling the cache rejects the budget flag too."""
        import json

        spec_file = tmp_path / "cold.json"
        from repro.scheduler.spec import CampaignSpec

        spec_file.write_text(
            json.dumps(CampaignSpec(use_cache=False).to_dict())
        )
        assert cli_main([
            "campaign", "--spec", str(spec_file),
            "--cache-budget-mb", "1", "--output", str(tmp_path / "out"),
        ]) == 2
        assert "use_cache" in capsys.readouterr().err

    def test_cacheless_spec_file_skips_warm_start(self, tmp_path, capsys):
        """A spec with use_cache:false behaves like --no-cache end to end."""
        import json

        from repro.scheduler.spec import CampaignSpec

        warm_dir = tmp_path / "warm"
        assert cli_main([
            "campaign", "--scale", "0.1", "--output", str(warm_dir),
        ]) == 0
        assert (warm_dir / "buildcache").exists()
        capsys.readouterr()
        spec_file = tmp_path / "cold.json"
        spec_file.write_text(
            json.dumps(CampaignSpec(use_cache=False).to_dict())
        )
        # An explicit --cache-dir is refused — it could only be a no-op.
        assert cli_main([
            "campaign", "--scale", "0.1", "--spec", str(spec_file),
            "--cache-dir", str(warm_dir), "--output", str(tmp_path / "out"),
        ]) == 2
        assert "--cache-dir conflicts" in capsys.readouterr().err
        # The implicit default (cache-dir falls back to --output) is merely
        # skipped: re-running into the warm directory stays cold.
        assert cli_main([
            "campaign", "--scale", "0.1", "--spec", str(spec_file),
            "--output", str(warm_dir),
        ]) == 0
        output = capsys.readouterr().out
        assert "warm-started" not in output

    def test_cache_stats_command(self, tmp_path, capsys):
        output_dir = tmp_path / "storage"
        assert cli_main([
            "campaign", "--scale", "0.1", "--output", str(output_dir),
        ]) == 0
        capsys.readouterr()
        assert cli_main(["cache-stats", "--cache-dir", str(output_dir)]) == 0
        output = capsys.readouterr().out
        assert "live cache entries" in output
        assert "build cache shared hits (cross-experiment)" in output
        assert "persisted cache entries" in output
        assert "cache artifact payloads" in output

    def test_campaign_output_computes_the_cache_status_once(
        self, tmp_path, capsys, journal_status_calls
    ):
        """The campaign page's cache line is the one journal_status call of
        a `campaign --output` run, and it describes the persisted cache."""
        output_dir = tmp_path / "storage"
        assert cli_main([
            "campaign", "--scale", "0.1", "--output", str(output_dir),
        ]) == 0
        assert len(journal_status_calls) == 1
        status = BuildCache.journal_status(CommonStorage.load(str(output_dir)))
        page = (output_dir / "reports" / "campaign.html").read_text()
        assert (
            f"persisted build cache: {status['entries']} entries, "
            f"{status['artifacts']} artifact payload(s), {status['bytes']:,} bytes"
        ) in page

    def test_campaign_output_with_telemetry_computes_the_cache_status_once(
        self, tmp_path, capsys, journal_status_calls, monkeypatch
    ):
        """With --telemetry, the status computed for the journal_bytes gauge
        is the one the campaign page reports: still one call."""
        from repro.telemetry.metrics import MetricsRegistry

        gauges = {}
        set_gauge = MetricsRegistry.set_gauge

        def recording_set_gauge(self, name, value, **labels):
            gauges[name] = value
            set_gauge(self, name, value, **labels)

        monkeypatch.setattr(MetricsRegistry, "set_gauge", recording_set_gauge)
        output_dir = tmp_path / "storage"
        assert cli_main([
            "campaign", "--scale", "0.1", "--output", str(output_dir),
            "--telemetry",
        ]) == 0
        assert len(journal_status_calls) == 1
        status = BuildCache.journal_status(CommonStorage.load(str(output_dir)))
        page = (output_dir / "reports" / "campaign.html").read_text()
        assert (
            f"persisted build cache: {status['entries']} entries, "
            f"{status['artifacts']} artifact payload(s), {status['bytes']:,} bytes"
        ) in page
        assert gauges["journal_bytes"] == status["bytes"]

    @pytest.mark.parametrize("command", [
        ["cache-stats", "--cache-dir"],
        ["history", "trends", "--storage-dir"],
        ["history", "diff", "--from-campaign", "campaign-0001",
         "--to-campaign", "campaign-0002", "--storage-dir"],
        ["history", "regressions", "--storage-dir"],
        ["interventions", "list", "--storage-dir"],
        ["interventions", "resolve", "--ticket", "INT-0001",
         "--resolution", "ported", "--storage-dir"],
        ["queue", "status", "--storage-dir"],
        ["queue", "cancel", "--submission", "sub-000001", "--storage-dir"],
    ], ids=lambda command: "-".join(
        word for word in command[:2] if not word.startswith("--")
    ))
    def test_a_missing_storage_directory_fails_cleanly(
        self, tmp_path, capsys, command
    ):
        """Every command that reads a persisted storage needs it to exist."""
        missing = str(tmp_path / "missing")
        assert cli_main(command + [missing]) == 2
        assert capsys.readouterr().err == (
            f"error: no such storage directory: {missing}\n"
        )
        assert not os.path.exists(missing)

    def test_cache_stats_without_journal_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(["cache-stats", "--cache-dir", str(tmp_path)]) == 2
        assert "no persisted build cache" in capsys.readouterr().err

    def test_a_malformed_artifact_document_costs_only_its_entry(
        self, tmp_path, capsys
    ):
        """An artifact file that is JSON but not a tarball evicts its entry;
        cache-stats and the warm start carry on with the other entries."""
        output_dir = tmp_path / "storage"
        assert cli_main([
            "campaign", "--scale", "0.1", "--output", str(output_dir),
        ]) == 0
        entries = int(re.search(
            r"\((\d+) new build-cache journal records", capsys.readouterr().out
        ).group(1))
        artifact = sorted((output_dir / "buildcache").glob("artifact_*.json"))[0]
        artifact.write_text(json.dumps({"digest": "x"}))
        assert cli_main(["cache-stats", "--cache-dir", str(output_dir)]) == 0
        stats = capsys.readouterr().out
        assert re.search(rf"live cache entries\s+{entries - 1}\b", stats)
        assert cli_main([
            "campaign", "--scale", "0.1", "--output", str(output_dir),
        ]) == 0
        assert (f"warm-started build cache: {entries - 1} entries"
                in capsys.readouterr().out)


class TestHistoryCli:
    """The history subcommand group and the --record-history flag."""

    def _recorded_campaign(self, output_dir):
        return cli_main([
            "campaign", "--scale", "0.1", "--record-history",
            "--output", str(output_dir),
        ])

    def test_record_history_requires_output(self, capsys):
        assert cli_main(["campaign", "--record-history"]) == 2
        assert "--record-history requires --output" in capsys.readouterr().err

    def test_record_history_campaign_persists_ledger(self, tmp_path, capsys):
        import json

        output_dir = tmp_path / "storage"
        assert self._recorded_campaign(output_dir) == 0
        output = capsys.readouterr().out
        assert "validation history:" in output
        assert (output_dir / "history").exists()
        # The flag travels in the persisted spec for replays.
        spec_files = list((output_dir / "campaigns").glob("spec_*.json"))
        document = json.loads(spec_files[0].read_text())
        assert document["spec"]["record_history"] is True
        # The trends page rendered and the campaign page links to it.
        trends = (output_dir / "reports" / "trends.html").read_text()
        assert "Validation history" in trends
        campaign_page = (output_dir / "reports" / "campaign.html").read_text()
        assert "trends.html" in campaign_page

    def test_repeated_campaigns_accumulate_history(self, tmp_path, capsys):
        output_dir = tmp_path / "storage"
        assert self._recorded_campaign(output_dir) == 0
        capsys.readouterr()
        # The second run mounts the ledger (auto mode: no flag needed).
        assert cli_main([
            "campaign", "--scale", "0.1", "--output", str(output_dir),
        ]) == 0
        output = capsys.readouterr().out
        assert "mounted validation history" in output
        assert cli_main([
            "history", "trends", "--storage-dir", str(output_dir),
        ]) == 0
        output = capsys.readouterr().out
        assert "2 campaign(s)" in output
        assert "campaign-0001" in output and "campaign-0002" in output

    def test_history_trends_without_ledger_fails_cleanly(self, tmp_path, capsys):
        assert cli_main([
            "history", "trends", "--storage-dir", str(tmp_path),
        ]) == 2
        error = capsys.readouterr().err
        assert "no validation history ledger" in error
        assert "--record-history" in error

    def test_history_diff_unknown_campaign_fails_cleanly(
        self, tmp_path, capsys
    ):
        output_dir = tmp_path / "storage"
        assert self._recorded_campaign(output_dir) == 0
        capsys.readouterr()
        assert cli_main([
            "history", "diff", "--storage-dir", str(output_dir),
            "--from-campaign", "campaign-0001",
            "--to-campaign", "campaign-9999",
        ]) == 2
        assert "no events for campaign" in capsys.readouterr().err

    def test_history_diff_and_regressions_roundtrip(self, tmp_path, capsys):
        output_dir = tmp_path / "storage"
        assert self._recorded_campaign(output_dir) == 0
        capsys.readouterr()
        assert cli_main([
            "campaign", "--scale", "0.1", "--output", str(output_dir),
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "history", "diff", "--storage-dir", str(output_dir),
            "--from-campaign", "campaign-0001",
            "--to-campaign", "campaign-0002",
        ]) == 0
        assert "campaign-0001 -> campaign-0002" in capsys.readouterr().out
        assert cli_main([
            "history", "regressions", "--storage-dir", str(output_dir),
        ]) == 0
        output = capsys.readouterr().out
        assert "regression(s)" in output
        assert "classification" in output


#: A one-cell campaign, small enough to serve in about a second.
ONE_CELL = CampaignSpec(
    experiments=("HERMES",), configuration_keys=("SL5_64bit_gcc4.4",)
)


@pytest.fixture(scope="module")
def one_cell_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "one_cell.json"
    path.write_text(json.dumps(ONE_CELL.to_dict()))
    return str(path)


@pytest.fixture(scope="module")
def served_directory(tmp_path_factory, one_cell_spec):
    """A service directory holding two served cells: run documents,
    reports, a build-cache journal and the service records."""
    directory = str(tmp_path_factory.mktemp("served") / "storage")
    for tenant in ("alice", "carol"):
        assert cli_main([
            "submit-async", "--storage-dir", directory, "--tenant", tenant,
            "--spec", one_cell_spec,
        ]) == 0
    assert cli_main(["serve", "--storage-dir", directory, "--scale", "0.1"]) == 0
    return directory


class TestServiceStorageCli:
    """``submit-async`` reads and writes only ``service/``; unreadable
    documents fail the commands that read them with a named error."""

    def test_submit_async_changes_only_the_service_namespace(
        self, served_directory, one_cell_spec, tmp_path, file_states
    ):
        cli_copy = str(tmp_path / "cli")
        library_copy = str(tmp_path / "library")
        shutil.copytree(served_directory, cli_copy)
        shutil.copytree(served_directory, library_copy)
        before = file_states(cli_copy, backdate=True)
        assert any(path.startswith("results" + os.sep) for path in before)
        assert cli_main([
            "submit-async", "--storage-dir", cli_copy, "--tenant", "bob",
            "--priority", "high", "--spec", one_cell_spec,
        ]) == 0
        after = file_states(cli_copy)
        changed = {
            path for path in set(before) | set(after)
            if before.get(path) != after.get(path)
        }
        assert changed
        assert all(path.startswith("service" + os.sep) for path in changed)
        # The same submission through a fully loaded storage leaves the
        # same directory.
        storage = CommonStorage.load(library_copy)
        service = ValidationService(
            SPSystem(storage=storage), warm_start=False, dashboard=False
        )
        service.submit("bob", ONE_CELL, "high")
        storage.persist(library_copy)
        library = file_states(library_copy)
        assert {path: state[2] for path, state in after.items()} == {
            path: state[2] for path, state in library.items()
        }

    def test_a_second_serve_with_an_empty_queue_writes_nothing(
        self, served_directory, tmp_path, capsys, file_states
    ):
        directory = str(tmp_path / "storage")
        shutil.copytree(served_directory, directory)
        # The first empty-queue serve still redraws the dashboard (this
        # daemon dispatched nothing); the second has nothing left to change.
        serve = ["serve", "--storage-dir", directory, "--scale", "0.1"]
        assert cli_main(serve) == 0
        before = file_states(directory, backdate=True)
        capsys.readouterr()
        assert cli_main(serve) == 0
        assert (
            f"persisted 0 new or changed files below {directory}"
            in capsys.readouterr().out
        )
        assert file_states(directory) == before

    def test_an_unreadable_run_document_fails_serve_but_not_submit_async(
        self, served_directory, one_cell_spec, tmp_path, capsys
    ):
        directory = str(tmp_path / "storage")
        shutil.copytree(served_directory, directory)
        results = os.path.join(directory, "results")
        truncated = os.path.join(
            results, min(name for name in os.listdir(results) if name.endswith(".json"))
        )
        with open(truncated, "r+b") as handle:
            handle.truncate(os.path.getsize(truncated) // 2)
        capsys.readouterr()
        assert cli_main(["serve", "--storage-dir", directory, "--scale", "0.1"]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ")
        assert truncated in error
        assert cli_main([
            "submit-async", "--storage-dir", directory, "--tenant", "bob",
            "--spec", one_cell_spec,
        ]) == 0
        assert "queued sub-000003" in capsys.readouterr().out


class TestCampaignStorageLoad:
    """A campaign against an existing ``--output`` loads the previous
    storage once, reading only the namespaces whose restore runs."""

    @pytest.mark.parametrize("option, skipped", [
        (None, None),
        ("--no-cache", BuildCache.NAMESPACE),
        ("--spec", ValidationHistoryLedger.NAMESPACE),
    ])
    def test_one_load_of_the_restored_namespaces(
        self, tmp_path, monkeypatch, capsys, option, skipped
    ):
        loads = []
        load = CommonStorage.load.__func__

        def recording_load(cls, directory, namespaces=None):
            loads.append(sorted(namespaces))
            return load(cls, directory, namespaces=namespaces)

        monkeypatch.setattr(CommonStorage, "load", classmethod(recording_load))
        campaign = ["campaign", "--scale", "0.1", "--output", str(tmp_path / "out")]
        assert cli_main(campaign) == 0
        assert loads == []  # nothing persisted yet
        spec = tmp_path / "no_history.json"
        spec.write_text(json.dumps(dict(ONE_CELL.to_dict(), record_history=False)))
        options = {None: [], "--no-cache": [option], "--spec": [option, str(spec)]}
        capsys.readouterr()
        assert cli_main(campaign + options[option]) == 0
        restored = {
            BuildCache.NAMESPACE,
            ValidationHistoryLedger.NAMESPACE,
            InterventionStore.NAMESPACE,
        }
        assert loads == [sorted(restored - {skipped})]
        warm = "warm-started build cache" in capsys.readouterr().out
        assert warm == (skipped != BuildCache.NAMESPACE)
