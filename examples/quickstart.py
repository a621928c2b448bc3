#!/usr/bin/env python3
"""Quickstart: stand up the sp-system and run one validation cycle.

This example reproduces the everyday use of the validation framework:

1. provision the five standard virtual machine configurations;
2. register an experiment (a scaled-down H1 definition so the example runs in
   a few seconds);
3. run a full validation cycle — build every package, run the standalone
   tests and the analysis chains — on the established SL5/64bit platform;
4. submit a :class:`~repro.scheduler.spec.CampaignSpec` through the unified
   ``SPSystem.submit`` facade to validate H1 everywhere (simulated pool),
   then replay the same spec on the forked process backend;
5. print the resulting status summary and the generated status web page key.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import SPSystem
from repro.experiments import build_h1_experiment
from repro.reporting.webpages import StatusPageGenerator
from repro.scheduler import CampaignSpec


def main() -> None:
    print("Provisioning the sp-system (five standard VM configurations)...")
    system = SPSystem()
    images = system.provision_standard_images()
    for image_name in images:
        print(f"  built image {image_name}")

    print("\nRegistering the H1 experiment (scaled-down level-4 suite)...")
    h1 = build_h1_experiment(scale=0.25)
    system.register_experiment(h1)
    print(
        f"  {len(h1.inventory)} packages, {len(h1.standalone_tests)} standalone tests, "
        f"{h1.chain_test_count()} chain steps ({h1.total_test_count()} tests in total)"
    )

    print("\nRunning a validation cycle on SL5/64bit gcc4.4...")
    result = system.validate("H1", "SL5_64bit_gcc4.4", description="quickstart run")
    run = result.run
    print(f"  {result.summary()}")
    print(f"  run id: {run.run_id}, description tag: {run.description!r}")
    print(f"  simulated duration: {run.total_duration_seconds() / 3600.0:.1f} hours")

    print("\nPer test-kind breakdown:")
    for kind in ("compilation", "standalone", "chain-step"):
        jobs = [job for job in run.jobs if job.kind.value == kind]
        passed = sum(1 for job in jobs if job.passed)
        print(f"  {kind:12s}: {passed}/{len(jobs)} passed")

    print("\nSubmitting a campaign spec: H1 on every configuration...")
    spec = CampaignSpec(
        experiments=("H1",), workers=2, description="quickstart campaign"
    )
    handle = system.submit(spec)
    campaign = handle.result()
    print(f"  {handle.campaign_id}: {handle.cells_completed}/{handle.cells_total} "
          f"cells on the {campaign.backend!r} backend, "
          f"simulated makespan {campaign.schedule.makespan_seconds:,.0f} s "
          f"({campaign.schedule.speedup:.2f}x speedup on 2 workers)")

    print("\nReplaying the identical spec on the forked process backend...")
    forked_system = SPSystem()
    forked_system.provision_standard_images()
    forked_system.register_experiment(build_h1_experiment(scale=0.25))
    # Replay the full history: run IDs and simulated timestamps continue
    # from the quickstart validation, so it must happen here too before the
    # campaigns can be compared document by document.
    forked_system.validate("H1", "SL5_64bit_gcc4.4", description="quickstart run")
    forked = forked_system.submit(
        CampaignSpec.from_dict(dict(spec.to_dict(), backend="processes"))
    ).result()
    identical = (
        [r.to_document() for r in forked.runs()]
        == [r.to_document() for r in campaign.runs()]
    )
    print(f"  {forked.n_cells} cells computed in up to "
          f"{forked.schedule.total_slots} forked processes; simulated makespan "
          f"{forked.schedule.makespan_seconds:,.0f} s; "
          f"run documents identical to the simulated pool: {identical}")

    print("\nGenerating the script-based status web pages...")
    pages = StatusPageGenerator(system.storage, system.catalog)
    pages.run_page(run)
    pages.index_page()
    print("  stored under the 'reports' namespace of the common storage:")
    for key in system.storage.keys("reports"):
        print(f"    reports/{key}")

    if result.successful:
        recipe = system.publish_recipe(result)
        print(f"\nPublished validated recipe {recipe.recipe_id}")
        plan = system.recipe_book.deployment_plan(recipe.recipe_id, "institute-cluster")
        print(plan.rendered())


if __name__ == "__main__":
    main()
