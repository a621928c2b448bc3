#!/usr/bin/env python3
"""Simulated nightly operation of the sp-system over one month — and the
validation history that regular operation leaves behind.

The regular builds and validations of the sp-system are driven by cron jobs
on the client machines.  This example installs a nightly build-and-validate
job and a weekly full-chain validation job for the HERMES experiment, then
advances the simulated clock by 28 days and shows what the framework did:
which cron firings happened, how the run catalogue filled up, and how the
common storage can be persisted to disk and inspected afterwards.

The second half demonstrates the validation history ledger: three recorded
campaigns (cold, warm, and one after a simulated environment evolution
event — ROOT 6.02 landing on the established SL5 platform), a
``history diff`` naming the cell the evolution flipped, and a
``history regressions`` report attributing the regression to the recorded
evolution event, rendered onto the trends status page.

Run with::

    python examples/nightly_cron_operation.py [output-directory]
"""

from __future__ import annotations

import sys
import tempfile

from repro import CampaignSpec, SPSystem
from repro.cli import main as cli_main
from repro.core.runner import RunnerSettings
from repro.environment.evolution import EVENT_EXTERNAL_RELEASE, EnvironmentEvent
from repro.environment.external import ExternalSoftwareCatalog
from repro.experiments import build_hermes_experiment
from repro.history import RegressionDetector, diff_campaigns, regression_rows, trend_rows
from repro.reporting.export import catalog_to_rows, rows_to_text
from repro.reporting.webpages import StatusPageGenerator
from repro.virtualization.cron import NIGHTLY_BUILD_SCHEDULE, WEEKLY_VALIDATION_SCHEDULE

#: The two cells of the recorded campaigns: the established platform and
#: its gcc 4.1 sibling.
CAMPAIGN_KEYS = ("SL5_64bit_gcc4.4", "SL5_64bit_gcc4.1")


def main() -> None:
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
    )
    system.provision_standard_images()
    hermes = build_hermes_experiment(scale=0.3)
    system.register_experiment(hermes)
    client = system.provisioning.hypervisor.start_client(
        "vm-SL5_64bit_gcc4.4", "hermes-validation-client"
    )
    print(f"started client {client.name} ({client.configuration.label})")

    def nightly_smoke_validation(timestamp: int) -> str:
        """The nightly cron action: a quick validation on the established platform."""
        result = system.validate(
            "HERMES", "SL5_64bit_gcc4.4", description="nightly validation"
        )
        return result.run.run_id

    def weekly_sl6_validation(timestamp: int) -> str:
        """The weekly cron action: validate the SL6 migration target."""
        result = system.validate(
            "HERMES", "SL6_64bit_gcc4.4", description="weekly SL6 validation"
        )
        return result.run.run_id

    client.cron.install("nightly-validation", NIGHTLY_BUILD_SCHEDULE, nightly_smoke_validation)
    client.cron.install("weekly-sl6", WEEKLY_VALIDATION_SCHEDULE, weekly_sl6_validation)
    print("installed cron jobs:")
    for job in client.cron.jobs():
        print(f"  {job.name}: {job.expression.text}")

    print("\nAdvancing the simulated clock by 28 days...")
    fired = client.cron.advance_days(28)
    print(f"  {len(fired)} cron firings")
    nightly_firings = [entry for entry in fired if entry[1] == "nightly-validation"]
    weekly_firings = [entry for entry in fired if entry[1] == "weekly-sl6"]
    print(f"  nightly validations: {len(nightly_firings)}")
    print(f"  weekly SL6 validations: {len(weekly_firings)}")

    print(f"\nRun catalogue now holds {system.total_runs()} validation runs:")
    rows = catalog_to_rows(system.catalog)
    print(rows_to_text(rows, columns=["run_id", "configuration", "description", "overall_status"]))

    descriptions = system.tag_registry.descriptions()
    print(f"\ndescription tags in the bookkeeping: {descriptions}")

    # -- the validation history ledger ---------------------------------------
    print("\n== validation history: three campaigns and one evolution event ==")
    spec = CampaignSpec(
        experiments=("HERMES",),
        configuration_keys=CAMPAIGN_KEYS,
        record_history=True,
        persist_spec=False,
    )
    cold = system.submit(spec)
    print(f"{cold.campaign_id} (cold):   "
          + ", ".join(f"{c.configuration_key}={c.run.overall_status}"
                      for c in cold.result().cells))
    system.clock.advance_days(7)
    warm = system.submit(spec)
    print(f"{warm.campaign_id} (warm):   "
          + ", ".join(f"{c.configuration_key}={c.run.overall_status}"
                      for c in warm.result().cells)
          + f"  [{warm.result().cache_statistics.hits} cache hits]")

    # The environment evolves: ROOT 6.02 is installed on the established
    # SL5 platform (same configuration key, new content).  Handing the
    # driving event to replace_configuration announces the swap on the
    # lifecycle bus and stamps it onto the ledger's time axis in one step
    # — no separate record_evolution call.
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
    print(f"\nevolution event recorded: {evolution}")
    system.clock.advance_days(6)
    after = system.submit(spec)
    print(f"{after.campaign_id} (post-evolution): "
          + ", ".join(f"{c.configuration_key}={c.run.overall_status}"
                      for c in after.result().cells))

    # The diff names the cell the evolution flipped...
    diff = diff_campaigns(system.history, cold.campaign_id, after.campaign_id)
    print(f"\nhistory diff — {diff.summary()}")
    for flip in diff.broke:
        print(f"  broke: {flip.describe()}")
    assert [flip.configuration_key for flip in diff.broke] == ["SL5_64bit_gcc4.4"]

    # ...and the regression report attributes it to the evolution event.
    detector = RegressionDetector(system.history)
    regressions = detector.regressions()
    print("\nhistory regressions:")
    for finding in regressions:
        print(f"  {finding.summary()}")
    assert len(regressions) == 1
    assert regressions[0].suspected_event is not None
    assert regressions[0].suspected_event.subject == "ROOT-6.02"
    assert regressions[0].fingerprint_changed

    # The trends page renders the whole story next to the campaign pages.
    pages = StatusPageGenerator(system.storage, system.catalog)
    pages.campaign_page(after.result(), history_link=True)
    pages.trends_page(
        trend_rows(system.history),
        regression_rows(detector.findings()),
        history_status=system.history.status(),
        evolution_rows=[
            record.to_dict() for record in system.history.evolution_records()
        ],
    )
    pages.index_page()

    output_directory = (
        sys.argv[1] if len(sys.argv) > 1
        else tempfile.mkdtemp(prefix="sp-history-demo-")
    )
    written = system.storage.persist(output_directory)
    print(f"\npersisted {len(written)} new or changed files below {output_directory}")

    # The persisted ledger answers the same questions from disk, through
    # the CLI — exactly what an operator would run the morning after.
    print("\n$ repro-sp history trends --storage-dir", output_directory)
    assert cli_main(["history", "trends", "--storage-dir", output_directory]) == 0
    print("\n$ repro-sp history diff ...")
    assert cli_main([
        "history", "diff", "--storage-dir", output_directory,
        "--from-campaign", cold.campaign_id,
        "--to-campaign", after.campaign_id,
    ]) == 0
    print("\n$ repro-sp history regressions ...")
    # Exit code 1: a regression is open — exactly what a cron job gates on
    # (`history regressions --quiet && deploy` stops the morning it breaks).
    assert cli_main([
        "history", "regressions", "--storage-dir", output_directory,
    ]) == 1


if __name__ == "__main__":
    main()
