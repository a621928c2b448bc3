#!/usr/bin/env python3
"""Automated regression alerting on the campaign lifecycle event bus.

Every campaign submission emits a typed event stream — ``cell_completed``
per matrix cell, ``campaign_finished`` at the end, ``evolution_recorded``
when the environment moves — through the system's plugin registry.  This
example wires the two operational consumers of that stream together:

* a JSONL **event log** (``CampaignSpec.event_log``) that appends every
  event for ``tail -f``-style monitoring, and
* the **regression-alerts plugin** (``plugins=("regression-alerts",)``),
  which runs the history regression detector when a campaign finishes and
  opens a persisted intervention ticket for every freshly broken cell —
  naming the suspected environment evolution, routed to the host IT
  department when the configuration fingerprint flipped.

The story: a recorded HERMES campaign passes on two SL5 platforms, ROOT
6.02 lands on the established one (removing the CINT interfaces HERMES
still uses), and the next alerting campaign detects the regression, opens
the ticket, and persists everything.  The ``interventions`` CLI then lists
and resolves the ticket — the morning-after workflow of the operator the
ticket was assigned to.

Run with::

    python examples/alerting_campaign.py [output-directory]
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from repro import CampaignSpec, SPSystem
from repro.cli import main as cli_main
from repro.core.runner import RunnerSettings
from repro.environment.evolution import EVENT_EXTERNAL_RELEASE, EnvironmentEvent
from repro.environment.external import ExternalSoftwareCatalog
from repro.experiments import build_hermes_experiment
from repro.plugins import InterventionStore
from repro.reporting.summary import intervention_rows, lifecycle_event_rows
from repro.reporting.webpages import StatusPageGenerator

#: The two campaign cells: ROOT 6.02 will flip the gcc 4.4 cell while the
#: gcc 4.1 sibling stays green — one ticket, not a flood.
CAMPAIGN_KEYS = ("SL5_64bit_gcc4.4", "SL5_64bit_gcc4.1")


def main() -> None:
    output_directory = (
        sys.argv[1] if len(sys.argv) > 1
        else tempfile.mkdtemp(prefix="sp-alerting-demo-")
    )
    event_log = os.path.join(output_directory, "lifecycle-events.jsonl")

    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.3))

    # -- a recorded, green baseline campaign ---------------------------------
    spec = CampaignSpec(
        experiments=("HERMES",),
        configuration_keys=CAMPAIGN_KEYS,
        record_history=True,
        event_log=event_log,
        persist_spec=False,
    )
    cold = system.submit(spec)
    print(f"{cold.campaign_id} (baseline): "
          + ", ".join(f"{c.configuration_key}={c.run.overall_status}"
                      for c in cold.result().cells))

    # -- the environment evolves ---------------------------------------------
    root6 = ExternalSoftwareCatalog().get("ROOT", "6.02")
    evolved = system.configuration("SL5_64bit_gcc4.4").with_external(root6)
    evolution = EnvironmentEvent(
        year=2014,
        kind=EVENT_EXTERNAL_RELEASE,
        subject="ROOT-6.02",
        detail="ROOT 6.02 installed on the SL5 platform; removes the CINT "
               "interpreter interfaces",
    )
    system.clock.advance_days(1)
    system.replace_configuration(evolved, event=evolution)
    print(f"\nenvironment evolution: {evolution.subject} on SL5_64bit_gcc4.4")

    # -- the alerting campaign ------------------------------------------------
    system.clock.advance_days(6)
    alerting_spec = CampaignSpec.from_dict(
        dict(spec.to_dict(), plugins=["regression-alerts"])
    )
    after = system.submit(alerting_spec)
    print(f"{after.campaign_id} (alerting): "
          + ", ".join(f"{c.configuration_key}={c.run.overall_status}"
                      for c in after.result().cells))

    # The bus saw the whole story, ending in a regression_detected event.
    print("\nfired lifecycle events (most recent 8):")
    for row in lifecycle_event_rows(system.lifecycle.recent(limit=8)):
        print(f"  #{row['seq']:>3} {row['event']:<22} {row['payload']}")
    names = [event.name for event in system.lifecycle.events]
    assert "regression_detected" in names

    # ...and the plugin opened exactly one persisted ticket, naming the
    # suspected evolution.
    store = InterventionStore(system.storage)
    tickets = store.open_tickets()
    print("\nopen intervention tickets:")
    for row in intervention_rows(tickets):
        print(f"  {row['ticket']}: {row['experiment']} on "
              f"{row['configuration']} — suspected {row['suspected change']} "
              f"(assigned: {row['category']})")
    assert len(tickets) == 1
    [ticket] = tickets
    assert "ROOT-6.02" in ticket.suspected_change

    # The status page renders the tickets and events next to the timeline.
    pages = StatusPageGenerator(system.storage, system.catalog)
    pages.campaign_page(
        after.result(),
        tickets=intervention_rows(tickets),
        events=lifecycle_event_rows(system.lifecycle.recent(limit=20)),
    )
    pages.index_page()

    written = system.storage.persist(output_directory)
    print(f"\npersisted {len(written)} new or changed files below {output_directory}")
    with open(event_log) as handle:
        logged = [json.loads(line) for line in handle]
    print(f"event log {event_log}: {len(logged)} JSONL events")
    assert logged[-1]["event"] == "campaign_finished"

    # -- the morning-after CLI workflow ---------------------------------------
    print("\n$ repro-sp history regressions --storage-dir ... --quiet")
    # Exit code 1 — the cron gate ("regressions --quiet && deploy") trips.
    assert cli_main([
        "history", "regressions", "--storage-dir", output_directory, "--quiet",
    ]) == 1
    print("\n$ repro-sp interventions list --storage-dir ...")
    assert cli_main([
        "interventions", "list", "--storage-dir", output_directory,
    ]) == 0
    print(f"\n$ repro-sp interventions resolve --ticket {ticket.ticket_id} ...")
    assert cli_main([
        "interventions", "resolve", "--storage-dir", output_directory,
        "--ticket", ticket.ticket_id,
        "--resolution", "ported HERMES to the ROOT 6 interfaces",
    ]) == 0
    print("\n$ repro-sp interventions list --all --storage-dir ...")
    assert cli_main([
        "interventions", "list", "--storage-dir", output_directory, "--all",
    ]) == 0


if __name__ == "__main__":
    main()
