"""The campaign lifecycle event bus: registry, plugins, policies, ticketing.

The bus decouples everything that *reacts* to a campaign (history
ingestion, regression alerting, JSONL event logs, deadline aborts) from
the scheduler that runs it.  These tests pin the registry semantics
(ordering, scoping, sequence numbering), the observer-vs-policy contract,
the backend-independent event stream, the deadline-abort behaviour on both
backends, and the full alerting story: an environment evolution flips
a cell, the next campaign's ``regression_detected`` event opens a
persisted intervention ticket naming the suspected evolution, and the CLI
lists and resolves it.
"""

import json
import os

import pytest

from repro._common import SchedulingError
from repro.cli import main as cli_main
from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.environment.evolution import EVENT_EXTERNAL_RELEASE, EnvironmentEvent
from repro.environment.external import ExternalSoftwareCatalog
from repro.experiments import build_hermes_experiment
from repro.plugins import CAMPAIGN_PLUGINS, InterventionStore, campaign_plugin
from repro.scheduler.backends import EXECUTION_BACKENDS
from repro.reporting.summary import (
    campaign_schedule_rows,
    intervention_rows,
    lifecycle_event_rows,
)
from repro.scheduler.lifecycle import (
    EVENT_BUDGET_EXCEEDED,
    EVENT_CAMPAIGN_FINISHED,
    EVENT_CELL_COMPLETED,
    EVENT_DEADLINE_EXCEEDED,
    EVENT_EVOLUTION_RECORDED,
    EVENT_REGRESSION_DETECTED,
    LIFECYCLE_EVENTS,
    DeadlineAbortPolicy,
    EarlyStopPolicy,
    EarlyStopRequested,
    FileEventSink,
    LifecycleEvent,
    LifecycleObserver,
    PluginRegistry,
    WebhookEventSink,
)
from repro.scheduler.spec import CampaignSpec

KEYS = ("SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4")
BACKENDS = tuple(EXECUTION_BACKENDS)

#: The two cells of the alerting end-to-end story: ROOT 6.02 lands on the
#: established SL5 platform (flipping the gcc 4.4 cell — HERMES uses the
#: CINT interfaces ROOT 6 removed) while the gcc 4.1 sibling stays green.
ALERT_KEYS = ("SL5_64bit_gcc4.4", "SL5_64bit_gcc4.1")


def _fresh_system(seed=20131029, scale=0.2):
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0, seed=seed)
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=scale))
    return system


class Recorder(LifecycleObserver):
    """Test observer appending ``(label, event_name, sequence)`` tuples."""

    def __init__(self, subscribed=LIFECYCLE_EVENTS, label="recorder", log=None):
        self.name = label
        self.events = frozenset(subscribed)
        self.log = log if log is not None else []

    def handle(self, event, context):
        self.log.append((self.name, event.name, event.sequence))


class StopEverything(EarlyStopPolicy):
    name = "stop-everything"

    def should_stop(self, event, context):
        return f"stopping on {event.name}"


class TestPluginRegistry:
    def test_emit_numbers_and_records_events(self):
        registry = PluginRegistry()
        first = registry.emit(EVENT_CELL_COMPLETED, campaign_id="campaign-0001")
        second = registry.emit(
            EVENT_CAMPAIGN_FINISHED, payload={"cells": 2}
        )
        assert (first.sequence, second.sequence) == (1, 2)
        assert registry.events == [first, second]
        assert second.payload == {"cells": 2}
        assert second.to_dict() == {
            "sequence": 2,
            "event": "campaign_finished",
            "campaign_id": None,
            "payload": {"cells": 2},
        }

    def test_unknown_event_name_raises(self):
        registry = PluginRegistry()
        with pytest.raises(SchedulingError, match="unknown lifecycle event"):
            registry.emit("campaign_started")
        assert registry.events == []

    def test_observers_notified_in_registration_order(self):
        registry = PluginRegistry()
        log = []
        registry.add_observer(Recorder(label="first", log=log))
        registry.add_observer(Recorder(label="second", log=log))
        registry.emit(EVENT_CELL_COMPLETED)
        assert log == [("first", "cell_completed", 1), ("second", "cell_completed", 1)]

    def test_subscription_filter(self):
        registry = PluginRegistry()
        observer = registry.add_observer(
            Recorder(subscribed={EVENT_CAMPAIGN_FINISHED}, label="finisher")
        )
        registry.emit(EVENT_CELL_COMPLETED)
        registry.emit(EVENT_CAMPAIGN_FINISHED)
        assert [name for _label, name, _seq in observer.log] == [
            "campaign_finished"
        ]

    def test_scoped_plugins_are_removed_even_on_failure(self):
        registry = PluginRegistry()
        permanent = registry.add_observer(Recorder(label="permanent"))
        scoped_observer = Recorder(label="scoped")
        scoped_policy = StopEverything()
        with pytest.raises(RuntimeError):
            with registry.scoped(
                observers=[scoped_observer], policies=[scoped_policy]
            ):
                assert registry.observers() == (permanent, scoped_observer)
                assert registry.policies() == (scoped_policy,)
                raise RuntimeError("the campaign failed")
        assert registry.observers() == (permanent,)
        assert registry.policies() == ()

    def test_policy_stops_after_observers_saw_the_event(self):
        registry = PluginRegistry()
        observer = registry.add_observer(Recorder())
        registry.add_policy(StopEverything())
        with pytest.raises(EarlyStopRequested) as excinfo:
            registry.emit(EVENT_DEADLINE_EXCEEDED)
        # The observers were notified before the stop fired ...
        assert [name for _label, name, _seq in observer.log] == [
            "deadline_exceeded"
        ]
        # ... the event is recorded, and the request carries the context.
        assert registry.events[-1].name == "deadline_exceeded"
        assert excinfo.value.reason == "stopping on deadline_exceeded"
        assert excinfo.value.policy.name == "stop-everything"
        # EarlyStopRequested honours the established failure contract.
        assert isinstance(excinfo.value, SchedulingError)

    def test_recent_limits_the_event_tail(self):
        registry = PluginRegistry()
        for _ in range(5):
            registry.emit(EVENT_CELL_COMPLETED)
        assert [event.sequence for event in registry.recent(2)] == [4, 5]
        assert registry.recent() == registry.events


class TestDeadlineAbortPolicy:
    def _deadline_event(self):
        return LifecycleEvent(
            name=EVENT_DEADLINE_EXCEEDED,
            sequence=1,
            payload={
                "backend": "processes",
                "deadline_seconds": 1.5,
                "elapsed_seconds": 2.5,
            },
        )

    def test_ignores_every_other_event(self):
        policy = DeadlineAbortPolicy()
        for name in sorted(LIFECYCLE_EVENTS - {EVENT_DEADLINE_EXCEEDED}):
            event = LifecycleEvent(name=name, sequence=1)
            assert policy.should_stop(event, None) is None

    def test_names_the_deadline_and_backend_in_the_reason(self):
        reason = DeadlineAbortPolicy().should_stop(self._deadline_event(), None)
        assert "1.5" in reason
        assert "2.5" in reason
        assert "processes" in reason


class TestEventSinks:
    def test_file_sink_appends_sorted_jsonl(self, tmp_path):
        path = os.path.join(str(tmp_path), "logs", "events.jsonl")
        registry = PluginRegistry()
        registry.add_observer(FileEventSink(path))
        registry.emit(EVENT_CELL_COMPLETED, campaign_id="campaign-0001",
                      payload={"cell_index": 0, "passed": True})
        registry.emit(EVENT_CAMPAIGN_FINISHED, campaign_id="campaign-0001")
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        assert [line["event"] for line in lines] == [
            "cell_completed", "campaign_finished",
        ]
        assert lines[0]["payload"] == {"cell_index": 0, "passed": True}
        assert [line["sequence"] for line in lines] == [1, 2]
        # The serialisation is canonical (sorted keys): the log diffs well.
        with open(path) as handle:
            first_raw = handle.readline().strip()
        assert first_raw == json.dumps(lines[0], sort_keys=True)

    def test_webhook_sink_posts_the_event_document(self):
        delivered = []
        sink = WebhookEventSink(
            "https://ops.example/hook",
            transport=lambda url, body: delivered.append((url, body)),
        )
        registry = PluginRegistry()
        registry.add_observer(sink)
        registry.emit(EVENT_CAMPAIGN_FINISHED, payload={"cells": 3})
        [(url, body)] = delivered
        assert url == "https://ops.example/hook"
        assert json.loads(body.decode("utf-8"))["payload"] == {"cells": 3}

    def test_webhook_failure_becomes_a_scheduling_error(self):
        def broken_transport(url, body):
            raise ConnectionError("refused")

        sink = WebhookEventSink("https://down.example", transport=broken_transport)
        registry = PluginRegistry()
        registry.add_observer(sink)
        with pytest.raises(SchedulingError, match="webhook delivery"):
            registry.emit(EVENT_CAMPAIGN_FINISHED)


class TestCampaignSpecLifecycleFields:
    def test_round_trip_preserves_the_lifecycle_fields(self):
        spec = CampaignSpec(
            configuration_keys=KEYS,
            deadline_seconds=120.0,
            on_deadline="abort",
            plugins=["regression-alerts"],
            event_log="/tmp/events.jsonl",
            persist_spec=False,
        )
        replayed = CampaignSpec.from_dict(spec.to_dict())
        assert replayed == spec
        assert replayed.plugins == ("regression-alerts",)
        assert replayed.on_deadline == "abort"
        assert replayed.event_log == "/tmp/events.jsonl"

    def test_unknown_on_deadline_mode_rejected(self):
        spec = CampaignSpec(on_deadline="panic", persist_spec=False)
        with pytest.raises(SchedulingError, match="unknown on_deadline mode"):
            spec.validate()

    def test_abort_mode_needs_a_deadline(self):
        spec = CampaignSpec(on_deadline="abort", persist_spec=False)
        with pytest.raises(SchedulingError, match="needs a deadline"):
            spec.validate()

    def test_unknown_plugin_name_rejected(self):
        spec = CampaignSpec(plugins=("no-such-plugin",), persist_spec=False)
        with pytest.raises(SchedulingError, match="unknown campaign plugin"):
            spec.validate()

    def test_bare_string_plugins_rejected(self):
        spec = CampaignSpec(plugins="regression-alerts", persist_spec=False)
        with pytest.raises(SchedulingError, match="plugins"):
            spec.validate()

    def test_campaign_plugin_factory_rejects_unknown_names(self):
        system = _fresh_system()
        assert "regression-alerts" in CAMPAIGN_PLUGINS
        with pytest.raises(SchedulingError, match="unknown campaign plugin"):
            campaign_plugin("no-such-plugin", system)


class TestEventSequenceParity:
    """Both backends emit the identical event stream.

    ``cell_completed`` is emitted from the serial stamping pass, not from
    the backend's map, so its order is backend-independent by
    construction; ``campaign_finished`` always comes last.  The only
    allowed difference is the backend name inside the finish payload.
    """

    def _event_stream(self, backend):
        system = _fresh_system()
        system.submit(
            CampaignSpec(
                configuration_keys=KEYS,
                workers=2,
                backend=backend,
                persist_spec=False,
            )
        )
        return [
            (
                event.name,
                event.campaign_id,
                {
                    key: value
                    for key, value in event.payload.items()
                    if key != "backend"
                },
            )
            for event in system.lifecycle.events
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_emits_the_simulated_event_stream(self, backend):
        reference = self._event_stream("simulated")
        stream = self._event_stream(backend)
        assert stream == reference
        names = [name for name, _campaign, _payload in stream]
        assert names.count(EVENT_CELL_COMPLETED) == len(KEYS)
        assert names[-1] == EVENT_CAMPAIGN_FINISHED
        # Each cell event names its run and verdict.
        for name, campaign_id, payload in stream:
            assert campaign_id == "campaign-0001"
            if name == EVENT_CELL_COMPLETED:
                assert set(payload) == {
                    "cell_index", "experiment", "configuration_key",
                    "run_id", "passed",
                }


class TestDeadlineAbortEndToEnd:
    """``on_deadline='abort'`` cancels queued work on every backend.

    The deterministic cell pass runs before dispatch, so an abort can
    never lose science: the catalogue records of the aborted campaign stay
    bit-identical to a full simulated run.  Both backends cross their
    deadline on the simulated timeline.
    """

    def _abort_spec(self, backend, deadline):
        return CampaignSpec(
            configuration_keys=KEYS,
            workers=1,
            backend=backend,
            deadline_seconds=deadline,
            on_deadline="abort",
            persist_spec=False,
        )

    @pytest.mark.parametrize(
        "backend,deadline",
        [
            ("simulated", 1.0),
            ("processes", 1e-9),
        ],
    )
    def test_abort_cancels_queued_cells_and_keeps_completed_science(
        self, backend, deadline
    ):
        reference_system = _fresh_system()
        reference_system.submit(
            CampaignSpec(configuration_keys=KEYS, workers=1, persist_spec=False)
        )
        system = _fresh_system()
        with pytest.raises(
            SchedulingError,
            match=f"campaign aborted on the {backend} backend",
        ) as excinfo:
            system.submit(self._abort_spec(backend, deadline))
        assert "cancelled" in str(excinfo.value)
        names = [event.name for event in system.lifecycle.events]
        assert names.count(EVENT_DEADLINE_EXCEEDED) == 1
        assert EVENT_CAMPAIGN_FINISHED not in names
        # The already-recorded run documents are untouched by the abort.
        assert [record.to_dict() for record in system.catalog.all()] == [
            record.to_dict() for record in reference_system.catalog.all()
        ]

    def test_report_mode_keeps_the_historical_behaviour(self):
        """Without the abort policy a crossed deadline only reports."""
        system = _fresh_system()
        campaign = system.submit(
            CampaignSpec(
                configuration_keys=KEYS,
                workers=1,
                deadline_seconds=1.0,
                persist_spec=False,
            )
        ).result()
        names = [event.name for event in system.lifecycle.events]
        assert EVENT_DEADLINE_EXCEEDED in names
        assert names[-1] == EVENT_CAMPAIGN_FINISHED
        assert campaign.schedule.late_cells()


class TestBudgetExceededEvent:
    def test_cache_eviction_is_announced_on_the_bus(self):
        system = _fresh_system()
        system.submit(
            CampaignSpec(
                configuration_keys=KEYS,
                workers=2,
                cache_budget_bytes=1,
                persist_spec=False,
            )
        )
        budget_events = [
            event
            for event in system.lifecycle.events
            if event.name == EVENT_BUDGET_EXCEEDED
        ]
        assert budget_events
        assert budget_events[0].payload["budget_bytes"] == 1
        assert budget_events[0].payload["evicted_entries"] > 0


class TestEvolutionRecordedEvent:
    def test_replace_configuration_announces_the_swap(self):
        system = _fresh_system()
        root6 = ExternalSoftwareCatalog().get("ROOT", "6.02")
        evolved = system.configuration("SL5_64bit_gcc4.4").with_external(root6)
        evolution = EnvironmentEvent(
            year=2014,
            kind=EVENT_EXTERNAL_RELEASE,
            subject="ROOT-6.02",
            detail="ROOT 6.02 installed on the SL5 platform",
        )
        system.replace_configuration(evolved, event=evolution)
        [event] = [
            event
            for event in system.lifecycle.events
            if event.name == EVENT_EVOLUTION_RECORDED
        ]
        assert event.payload["configuration_key"] == "SL5_64bit_gcc4.4"
        assert event.payload["subject"] == "ROOT-6.02"

    def test_event_is_stamped_onto_a_mounted_ledger(self):
        system = _fresh_system()
        system.submit(
            CampaignSpec(
                configuration_keys=("SL5_64bit_gcc4.4",),
                record_history=True,
                persist_spec=False,
            )
        )
        assert system.history is not None
        root6 = ExternalSoftwareCatalog().get("ROOT", "6.02")
        evolved = system.configuration("SL5_64bit_gcc4.4").with_external(root6)
        evolution = EnvironmentEvent(
            year=2014,
            kind=EVENT_EXTERNAL_RELEASE,
            subject="ROOT-6.02",
            detail="ROOT 6.02 installed on the SL5 platform",
        )
        system.clock.advance_days(1)
        system.replace_configuration(evolved, event=evolution)
        [record] = system.history.evolution_records()
        assert record.subject == "ROOT-6.02"
        assert record.logical_timestamp == system.clock.now


class TestRegressionAlertingEndToEnd:
    """The acceptance story: evolution → regression → persisted ticket → CLI.

    A recorded campaign passes, ROOT 6.02 lands on the SL5 platform via
    :meth:`SPSystem.replace_configuration` (announced on the bus and
    stamped onto the ledger), and the next campaign — submitted with
    ``plugins=("regression-alerts",)`` — fires ``regression_detected``,
    opens an intervention ticket naming the suspected evolution, and
    persists it; the new CLI lists and resolves the ticket, and
    ``history regressions`` gates a cron job through its exit code.
    """

    def _run_story(self, tmp_path):
        system = SPSystem(
            runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
        )
        system.provision_standard_images()
        system.register_experiment(build_hermes_experiment(scale=0.3))
        spec = CampaignSpec(
            experiments=("HERMES",),
            configuration_keys=ALERT_KEYS,
            record_history=True,
            persist_spec=False,
        )
        cold = system.submit(spec)
        assert all(cell.result.successful for cell in cold.result().cells)

        root6 = ExternalSoftwareCatalog().get("ROOT", "6.02")
        evolved = system.configuration("SL5_64bit_gcc4.4").with_external(root6)
        evolution = EnvironmentEvent(
            year=2014,
            kind=EVENT_EXTERNAL_RELEASE,
            subject="ROOT-6.02",
            detail="removes the CINT interpreter interfaces",
        )
        system.clock.advance_days(1)
        system.replace_configuration(evolved, event=evolution)
        system.clock.advance_days(6)

        alerting_spec = CampaignSpec.from_dict(
            dict(spec.to_dict(), plugins=["regression-alerts"])
        )
        after = system.submit(alerting_spec)
        assert not after.result().all_passed
        storage_dir = str(tmp_path / "storage")
        system.storage.persist(storage_dir)
        return system, storage_dir

    def test_regression_opens_a_persisted_ticket_naming_the_evolution(
        self, tmp_path
    ):
        system, _storage_dir = self._run_story(tmp_path)
        detected = [
            event
            for event in system.lifecycle.events
            if event.name == EVENT_REGRESSION_DETECTED
        ]
        [event] = detected
        assert event.payload["experiment"] == "HERMES"
        assert event.payload["configuration_key"] == "SL5_64bit_gcc4.4"
        assert "ROOT-6.02" in event.payload["suspected_change"]
        assert event.payload["fingerprint_changed"] is True

        store = InterventionStore(system.storage)
        [ticket] = store.open_tickets()
        assert ticket.experiment == "HERMES"
        assert ticket.configuration_key == "SL5_64bit_gcc4.4"
        assert "ROOT-6.02" in ticket.suspected_change
        # A fingerprint flip is direct evidence the environment moved:
        # the ticket routes to the host IT department.
        from repro.core.intervention import InterventionParty
        from repro.environment.compatibility import IssueCategory

        assert ticket.category is IssueCategory.EXTERNAL_DEPENDENCY
        assert ticket.party is InterventionParty.HOST_IT

    def test_persisting_regression_does_not_open_a_duplicate_ticket(
        self, tmp_path
    ):
        system, _storage_dir = self._run_story(tmp_path)
        alerting_spec = CampaignSpec(
            experiments=("HERMES",),
            configuration_keys=ALERT_KEYS,
            record_history=True,
            plugins=("regression-alerts",),
            persist_spec=False,
        )
        system.clock.advance_days(1)
        system.submit(alerting_spec)
        store = InterventionStore(system.storage)
        assert len(store.open_tickets()) == 1
        # The second campaign still announced the (ongoing) regression.
        detected = [
            event
            for event in system.lifecycle.events
            if event.name == EVENT_REGRESSION_DETECTED
        ]
        assert len(detected) == 2

    def test_cli_lists_and_resolves_the_ticket(self, tmp_path, capsys):
        system, storage_dir = self._run_story(tmp_path)
        store = InterventionStore(system.storage)
        [ticket] = store.open_tickets()

        assert cli_main(["interventions", "list", "--storage-dir", storage_dir]) == 0
        output = capsys.readouterr().out
        assert "1 open ticket(s) of 1 recorded" in output
        assert ticket.ticket_id in output
        assert "ROOT-6.02" in output

        assert cli_main([
            "interventions", "resolve", "--storage-dir", storage_dir,
            "--ticket", ticket.ticket_id,
            "--resolution", "ported HERMES to the ROOT 6 interfaces",
        ]) == 0
        assert f"resolved {ticket.ticket_id}" in capsys.readouterr().out

        assert cli_main(["interventions", "list", "--storage-dir", storage_dir]) == 0
        assert "0 open ticket(s) of 1 recorded" in capsys.readouterr().out
        # --all still shows the resolved ticket.
        assert cli_main([
            "interventions", "list", "--storage-dir", storage_dir, "--all",
        ]) == 0
        assert ticket.ticket_id in capsys.readouterr().out
        # The resolution survived on disk.
        from repro.core.intervention import TicketStatus
        from repro.storage.common_storage import CommonStorage

        reloaded = SPSystem().restore_interventions(
            CommonStorage.load(
                storage_dir, namespaces=[InterventionStore.NAMESPACE]
            )
        )
        assert reloaded.ticket(ticket.ticket_id).status is TicketStatus.RESOLVED

    def test_history_regressions_exit_code_gates_cron_jobs(
        self, tmp_path, capsys
    ):
        _system, storage_dir = self._run_story(tmp_path)
        assert cli_main([
            "history", "regressions", "--storage-dir", storage_dir,
        ]) == 1
        verbose = capsys.readouterr().out
        assert "1 regression(s)" in verbose
        assert "ROOT-6.02" in verbose
        assert cli_main([
            "history", "regressions", "--storage-dir", storage_dir, "--quiet",
        ]) == 1
        quiet = capsys.readouterr().out
        assert quiet.count("\n") == 1
        assert "1 regression(s)" in quiet

    def test_history_regressions_exit_zero_when_healthy(self, tmp_path, capsys):
        system = _fresh_system()
        system.submit(
            CampaignSpec(
                configuration_keys=("SL5_64bit_gcc4.4",),
                record_history=True,
                persist_spec=False,
            )
        )
        storage_dir = str(tmp_path / "healthy")
        system.storage.persist(storage_dir)
        assert cli_main([
            "history", "regressions", "--storage-dir", storage_dir, "--quiet",
        ]) == 0
        assert "0 regression(s)" in capsys.readouterr().out


class TestInterventionStore:
    def test_restore_interventions_mirrors_restore_history(self):
        from repro._common import StorageError

        empty = SPSystem()
        assert empty.restore_interventions(missing_ok=True) is None
        with pytest.raises(StorageError, match="no persisted interventions"):
            empty.restore_interventions()

    def test_ticket_counter_resumes_past_persisted_tickets(self):
        from repro.environment.compatibility import IssueCategory
        from repro.core.intervention import InterventionParty
        from repro.storage.common_storage import CommonStorage

        storage = CommonStorage()
        store = InterventionStore(storage)
        first = store.tracker.open_ticket(
            run_id="sp-000001",
            experiment="HERMES",
            test_name="campaign-regression",
            category=IssueCategory.EXPERIMENT_SOFTWARE,
            party=InterventionParty.EXPERIMENT,
            opened_at=100,
            description="first",
            configuration_key="SL5_64bit_gcc4.4",
        )
        store._persist(first)
        # A second store over the same storage replays the document and
        # never re-issues the ID.
        replayed = InterventionStore(storage)
        assert [ticket.ticket_id for ticket in replayed.tickets()] == [
            first.ticket_id
        ]
        second = replayed.tracker.open_ticket(
            run_id="sp-000002",
            experiment="HERMES",
            test_name="campaign-regression",
            category=IssueCategory.EXPERIMENT_SOFTWARE,
            party=InterventionParty.EXPERIMENT,
            opened_at=200,
            description="second",
        )
        assert second.ticket_id != first.ticket_id
        assert replayed.next_timestamp() == 201


class TestDeadlineOverrideReporting:
    """Satellite: ``late_cells(deadline_seconds=...)`` override in reports."""

    def _campaign(self):
        system = _fresh_system()
        return system, system.submit(
            CampaignSpec(configuration_keys=KEYS, workers=2, persist_spec=False)
        ).result()

    def test_schedule_rows_honour_the_override(self):
        _system, campaign = self._campaign()
        assert campaign.schedule.deadline_seconds is None
        # Without an override there is no deadline verdict at all ...
        quantities = [
            row["quantity"] for row in campaign_schedule_rows(campaign.schedule)
        ]
        assert "deadline verdict" not in quantities
        # ... a generous what-if deadline is met ...
        generous = {
            row["quantity"]: row["value"]
            for row in campaign_schedule_rows(
                campaign.schedule,
                deadline_seconds=campaign.schedule.makespan_seconds + 1,
            )
        }
        assert generous["deadline verdict"] == "met"
        # ... and a tight one reports the late cells.
        tight = {
            row["quantity"]: row["value"]
            for row in campaign_schedule_rows(
                campaign.schedule, deadline_seconds=1.0
            )
        }
        assert tight["deadline seconds"] == "1"
        assert tight["deadline verdict"].startswith("missed")

    def test_campaign_page_honours_the_override_and_renders_lifecycle(self):
        system, campaign = self._campaign()
        from repro.reporting.webpages import StatusPageGenerator

        pages = StatusPageGenerator(system.storage, system.catalog)
        page = pages.campaign_page(
            campaign,
            deadline_seconds=1.0,
            events=lifecycle_event_rows(system.lifecycle.recent(limit=5)),
        )
        assert "deadline 1 s" in page
        assert "missed" in page
        assert "Fired lifecycle events" in page
        assert "campaign_finished" in page

    def test_intervention_and_event_rows_shapes(self):
        system, _campaign = self._campaign()
        rows = lifecycle_event_rows(system.lifecycle.events)
        assert rows
        assert set(rows[0]) == {"seq", "event", "campaign", "payload"}
        assert rows[-1]["event"] == EVENT_CAMPAIGN_FINISHED
        assert intervention_rows([]) == []


class TestServicePluginPassThrough:
    def test_due_validations_carry_the_service_plugins(self):
        from repro.core.service import RegularValidationService

        system = _fresh_system()
        service = RegularValidationService(
            system, record_history=True, plugins=("regression-alerts",)
        )
        service.schedule("HERMES", "SL5_64bit_gcc4.4", "30 2 * * *")
        report = service.advance_days(1)
        assert report.n_cycles == 1
        names = [event.name for event in system.lifecycle.events]
        assert EVENT_CELL_COMPLETED in names
        assert EVENT_CAMPAIGN_FINISHED in names
        # No regression on a first, passing validation: no ticket opened.
        assert not InterventionStore.exists_in(system.storage)


class TestReopenWindow:
    """Alert dedupe across time: resolved tickets re-open on recurrence.

    ``InterventionStore.open_from_finding`` with a ``reopen_window``
    re-opens a cell's recently *resolved* ticket instead of opening a
    duplicate — the recurrence is evidence the fix did not hold, and the
    re-opened ticket keeps its identity (with an advancing
    ``reopen_count``) in the reports.  Resolutions older than the window,
    wont-fix closures, and the ``reopen_window=None`` legacy behaviour all
    open fresh tickets; open tickets still dedupe as before.
    """

    WINDOW = 7 * 24 * 3600

    def _finding(self, experiment="HERMES", key="SL5_64bit_gcc4.4"):
        from repro.history.regressions import CLASS_REGRESSED, RegressionFinding

        return RegressionFinding(
            experiment=experiment,
            configuration_key=key,
            classification=CLASS_REGRESSED,
            n_events=2,
            n_flips=1,
            current_status="broken",
        )

    def _store_with_resolved_ticket(self, resolved_at=200):
        from repro.storage.common_storage import CommonStorage

        storage = CommonStorage()
        store = InterventionStore(storage)
        ticket = store.open_from_finding(self._finding(), timestamp=100)
        store.resolve(ticket.ticket_id, "ported to ROOT 6", timestamp=resolved_at)
        return storage, store, ticket

    def test_reopen_flips_a_resolved_ticket_only(self):
        from repro._common import ValidationError
        from repro.core.intervention import TicketStatus

        _storage, store, ticket = self._store_with_resolved_ticket()
        ticket.reopen(300, description="it broke again")
        assert ticket.status is TicketStatus.OPEN
        assert ticket.reopen_count == 1
        assert ticket.resolution == ""
        assert ticket.resolved_at is None
        assert ticket.opened_at == 300
        assert ticket.description == "it broke again"
        # An open ticket has nothing to re-open...
        with pytest.raises(ValidationError):
            ticket.reopen(400)
        # ...and a wont-fix closure is a decision, not a fix.
        store.close_wont_fix(ticket.ticket_id, "platform abandoned", timestamp=500)
        with pytest.raises(ValidationError):
            ticket.reopen(600)

    def test_recurrence_inside_the_window_reopens_the_ticket(self):
        storage, store, ticket = self._store_with_resolved_ticket(resolved_at=200)
        recurred = store.open_from_finding(
            self._finding(),
            timestamp=200 + self.WINDOW,
            reopen_window=self.WINDOW,
        )
        assert recurred is not None
        assert recurred.ticket_id == ticket.ticket_id
        assert recurred.reopen_count == 1
        assert recurred.is_open
        # The re-opened document was persisted: a replayed store agrees.
        replayed = InterventionStore(storage)
        assert replayed.ticket(ticket.ticket_id).reopen_count == 1
        assert len(replayed.tickets()) == 1

    def test_recurrence_outside_the_window_opens_a_fresh_ticket(self):
        _storage, store, ticket = self._store_with_resolved_ticket(resolved_at=200)
        fresh = store.open_from_finding(
            self._finding(),
            timestamp=200 + self.WINDOW + 1,
            reopen_window=self.WINDOW,
        )
        assert fresh is not None
        assert fresh.ticket_id != ticket.ticket_id
        assert fresh.reopen_count == 0
        assert len(store.tickets()) == 2

    def test_legacy_no_window_always_opens_a_fresh_ticket(self):
        _storage, store, ticket = self._store_with_resolved_ticket(resolved_at=200)
        fresh = store.open_from_finding(self._finding(), timestamp=201)
        assert fresh is not None and fresh.ticket_id != ticket.ticket_id

    def test_wont_fix_closure_never_reopens(self):
        from repro.storage.common_storage import CommonStorage

        store = InterventionStore(CommonStorage())
        ticket = store.open_from_finding(self._finding(), timestamp=100)
        store.close_wont_fix(ticket.ticket_id, "platform abandoned", timestamp=200)
        fresh = store.open_from_finding(
            self._finding(), timestamp=201, reopen_window=self.WINDOW
        )
        assert fresh is not None
        assert fresh.ticket_id != ticket.ticket_id

    def test_open_ticket_still_dedupes_with_a_window(self):
        from repro.storage.common_storage import CommonStorage

        store = InterventionStore(CommonStorage())
        store.open_from_finding(self._finding(), timestamp=100)
        assert store.open_from_finding(
            self._finding(), timestamp=101, reopen_window=self.WINDOW
        ) is None
        # A different cell is unaffected by the dedupe or the window.
        other = store.open_from_finding(
            self._finding(key="SL6_64bit_gcc4.4"),
            timestamp=102,
            reopen_window=self.WINDOW,
        )
        assert other is not None

    def test_newest_resolved_ticket_wins_the_reopen(self):
        from repro.storage.common_storage import CommonStorage

        store = InterventionStore(CommonStorage())
        first = store.open_from_finding(self._finding(), timestamp=100)
        store.resolve(first.ticket_id, "first fix", timestamp=150)
        second = store.open_from_finding(self._finding(), timestamp=200)
        store.resolve(second.ticket_id, "second fix", timestamp=250)
        recurred = store.open_from_finding(
            self._finding(), timestamp=300, reopen_window=self.WINDOW
        )
        assert recurred.ticket_id == second.ticket_id

    def test_cli_all_shows_the_reopen_count(self, tmp_path, capsys):
        storage, store, ticket = self._store_with_resolved_ticket(resolved_at=200)
        store.open_from_finding(
            self._finding(), timestamp=300, reopen_window=self.WINDOW
        )
        directory = str(tmp_path / "reopened")
        storage.persist(directory)
        assert cli_main([
            "interventions", "list", "--storage-dir", directory, "--all",
        ]) == 0
        output = capsys.readouterr().out
        assert "reopened" in output
        assert ticket.ticket_id in output
