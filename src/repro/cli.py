"""Command line interface to the sp-system reproduction.

The original sp-system is operated through shell scripts and cron entries on
the DESY machines; the reproduction offers an equivalent command line front
end so the framework can be driven without writing Python::

    python -m repro.cli describe
    python -m repro.cli validate --experiment H1 --configuration SL6_64bit_gcc4.4
    python -m repro.cli campaign --scale 0.15 --output /tmp/sp-storage
    python -m repro.cli campaign --workers 4 --policy critical-path --output /tmp/sp-storage
    python -m repro.cli campaign --workers 4 --backend processes
    python -m repro.cli campaign --spec my-campaign.json --cache-budget-mb 16
    python -m repro.cli campaign --no-cache
    python -m repro.cli cache-stats --cache-dir /tmp/sp-storage
    python -m repro.cli campaign --record-history --output /tmp/sp-storage
    python -m repro.cli history trends --storage-dir /tmp/sp-storage
    python -m repro.cli history diff --storage-dir /tmp/sp-storage \
        --from-campaign campaign-0001 --to-campaign campaign-0002
    python -m repro.cli history regressions --storage-dir /tmp/sp-storage
    python -m repro.cli migrate-plan --experiment H1 --target SL7
    python -m repro.cli levels
    python -m repro.cli submit-async --storage-dir /tmp/sp-service \
        --tenant h1-offline --workers 2
    python -m repro.cli serve --storage-dir /tmp/sp-service \
        --tenant h1-offline:2 --tenant zeus:1:0.5:2
    python -m repro.cli queue status --storage-dir /tmp/sp-service
    python -m repro.cli queue cancel --storage-dir /tmp/sp-service \
        --submission sub-000003

The ``serve`` / ``submit-async`` / ``queue`` commands drive the
validation-as-a-service daemon (:mod:`repro.service`): ``submit-async``
persists a campaign submission into the multi-tenant queue without
executing it, ``serve`` resumes the persisted queue and drains it under
fair-share scheduling (publishing heartbeat telemetry and the live
``reports/service.html`` dashboard), and ``queue`` inspects or cancels
persisted submissions without provisioning a system.

Every command provisions a fresh in-memory sp-system (the library is fully
deterministic, so this is cheap and reproducible); ``--output`` persists the
common storage to disk for inspection afterwards.  A ``campaign`` run whose
``--cache-dir`` (default: ``--output``) holds a previous run's persisted
storage warm-starts its build cache from that snapshot, so repeated
campaigns against the same output directory stop recompiling unchanged
packages.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro._common import ReproError, format_table
from repro.core.levels import preservation_table
from repro.core.spsystem import SPSystem
from repro.history import (
    RegressionDetector,
    ValidationHistoryLedger,
    diff_campaigns,
    diff_rows,
    regression_rows,
    trend_rows,
)
from repro.plugins import CAMPAIGN_PLUGINS, InterventionStore
from repro.scheduler.backends import EXECUTION_BACKENDS
from repro.scheduler.cache import BuildCache
from repro.scheduler.pool import SCHEDULING_POLICIES
from repro.scheduler.spec import ON_DEADLINE_MODES, CampaignSpec
from repro.storage.common_storage import CommonStorage
from repro.telemetry import (
    DEFAULT_THRESHOLD,
    DEFAULT_TRENDS_DIR,
    DEFAULT_WINDOW,
    Telemetry,
    check_trends,
    prometheus_text,
)
from repro.environment.configuration import next_generation_configuration
from repro.experiments import (
    build_h1_experiment,
    build_hera_experiments,
    build_hermes_experiment,
    build_zeus_experiment,
)
from repro.migration.planner import MigrationPlanner
from repro.reporting.export import catalog_to_rows, rows_to_text
from repro.reporting.summary import (
    ValidationSummaryBuilder,
    intervention_rows,
    lifecycle_event_rows,
)
from repro.reporting.webpages import StatusPageGenerator
from repro.service import (
    PRIORITY_LANES,
    SERVICE_NAMESPACE,
    TenantLedger,
    TenantPolicy,
    ValidationService,
    cancel_persisted,
    load_submissions,
    snapshot_rows,
    submission_rows,
    tenant_rows,
)


_EXPERIMENT_BUILDERS = {
    "H1": build_h1_experiment,
    "ZEUS": build_zeus_experiment,
    "HERMES": build_hermes_experiment,
}


def _positive_int(text: str) -> int:
    """Argparse type for flags that must be strictly positive integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})"
        )
    return value


def _positive_float(text: str) -> float:
    """Argparse type for flags that must be strictly positive numbers."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive (got {value})")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sp",
        description="sp-system: validation framework for HEP data preservation",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    levels = subparsers.add_parser("levels", help="print the DPHEP preservation levels (Table 1)")
    levels.set_defaults(handler=_cmd_levels)

    describe = subparsers.add_parser("describe", help="describe the provisioned sp-system")
    describe.add_argument("--scale", type=float, default=0.15,
                          help="scale factor for the experiment suites (default 0.15)")
    describe.set_defaults(handler=_cmd_describe)

    validate = subparsers.add_parser("validate", help="run one validation cycle")
    validate.add_argument("--experiment", required=True, choices=sorted(_EXPERIMENT_BUILDERS))
    validate.add_argument("--configuration", default="SL6_64bit_gcc4.4",
                          help="configuration key (default SL6_64bit_gcc4.4)")
    validate.add_argument("--scale", type=float, default=0.15)
    validate.add_argument("--reference-configuration", default=None,
                          help="run a reference validation on this configuration first")
    validate.add_argument("--output", default=None,
                          help="directory to persist the common storage to")
    validate.set_defaults(handler=_cmd_validate)

    campaign = subparsers.add_parser(
        "campaign", help="validate all HERA experiments on all configurations"
    )
    campaign.add_argument("--scale", type=float, default=0.15)
    campaign.add_argument("--rounds", type=_positive_int, default=1,
                          help="number of repeated campaign rounds (default 1)")
    campaign.add_argument("--workers", type=_positive_int, default=1,
                          help="worker-pool size (default 1)")
    campaign.add_argument("--batch-size", type=_positive_int, default=4,
                          help="standalone tests grouped per worker slot (default 4)")
    campaign.add_argument("--policy", default="fifo",
                          choices=sorted(SCHEDULING_POLICIES),
                          help="worker-pool scheduling policy (default fifo)")
    campaign.add_argument("--backend", default="simulated",
                          choices=sorted(EXECUTION_BACKENDS),
                          help="execution backend, i.e. where the cells' tests "
                               "run: 'simulated' computes them inline, "
                               "'processes' in workers x slots forked child "
                               "processes (one task per cell); both report "
                               "the same simulated timeline (default simulated)")
    campaign.add_argument("--spec", default=None, metavar="FILE",
                          help="submit the CampaignSpec JSON document in FILE "
                               "instead of building one from the flags above "
                               "(--output/--cache-dir/--cache-budget-mb still apply)")
    campaign.add_argument("--deadline-seconds", type=float, default=None,
                          help="campaign deadline in simulated timeline "
                               "seconds; late cells are reported")
    campaign.add_argument("--on-deadline", default=None,
                          choices=list(ON_DEADLINE_MODES),
                          help="what a blown deadline does: 'report' (the "
                               "default) only marks late cells, 'abort' "
                               "fails the campaign via the lifecycle bus's "
                               "deadline-abort policy — the cells keep their "
                               "(bit-identical) run documents")
    campaign.add_argument("--event-log", default=None, metavar="PATH",
                          help="append every fired lifecycle event "
                               "(cell_completed, campaign_finished, "
                               "regression_detected, ...) as one JSON line "
                               "to PATH")
    campaign.add_argument("--plugin", action="append", default=None,
                          metavar="NAME", choices=sorted(CAMPAIGN_PLUGINS),
                          help="attach a named lifecycle plugin for this "
                               "submission (repeatable); "
                               "'regression-alerts' runs the regression "
                               "detector after the campaign and opens "
                               "persisted intervention tickets "
                               "(needs --record-history)")
    campaign.add_argument("--cache-dir", default=None,
                          help="directory with a persisted build-cache snapshot to "
                               "warm-start from (defaults to --output, so repeated "
                               "runs with the same --output reuse their cache)")
    campaign.add_argument("--cache-budget-mb", type=_positive_float, default=None,
                          help="size budget for the build cache, enforced on the "
                               "live cache after every round and again before the "
                               "journal persist; least-recently-hit entries are "
                               "evicted first (the journal auto-compacts once "
                               "tombstones outnumber live entries)")
    campaign.add_argument("--no-cache", action="store_true",
                          help="disable the content-addressed build cache "
                               "entirely (cold-path debugging: every build is "
                               "compiled from scratch, nothing is warm-started "
                               "or persisted)")
    campaign.add_argument("--record-history", action="store_true",
                          help="ingest every completed cell into the "
                               "validation history ledger (the 'history' "
                               "storage namespace), enabling the history "
                               "trends/diff/regressions commands on the "
                               "persisted storage; repeated runs against the "
                               "same --output accumulate history")
    campaign.add_argument("--telemetry", action="store_true",
                          help="attach the live telemetry bundle (metrics "
                               "registry + span tracer) to the run: prints "
                               "the per-phase timing table after the summary "
                               "and, with --output, stores the "
                               "reports/telemetry.html page; science output "
                               "is byte-identical either way")
    campaign.add_argument("--output", default=None)
    campaign.set_defaults(handler=_cmd_campaign)

    cache_stats = subparsers.add_parser(
        "cache-stats",
        help="inspect a persisted build-cache journal (hit rate, shared "
             "hits, journal size)",
    )
    cache_stats.add_argument("--cache-dir", required=True,
                             help="directory holding a persisted common storage "
                                  "(the --output of a previous campaign run)")
    cache_stats.add_argument("--compact", action="store_true",
                             help="rewrite the journal from its live state "
                                  "(drops tombstones, superseded records and "
                                  "orphaned artifact payloads) and persist it "
                                  "back to --cache-dir")
    cache_stats.set_defaults(handler=_cmd_cache_stats)

    history = subparsers.add_parser(
        "history",
        help="longitudinal queries over a persisted validation history "
             "ledger (written by campaign --record-history)",
    )
    history_sub = history.add_subparsers(dest="history_command", required=True)
    trends = history_sub.add_parser(
        "trends", help="per-experiment health trends across campaigns"
    )
    trends.add_argument("--storage-dir", required=True,
                        help="directory holding a persisted common storage "
                             "with a history ledger (a previous campaign's "
                             "--output)")
    trends.add_argument("--experiment", default=None,
                        help="restrict the trend to one experiment")
    trends.set_defaults(handler=_cmd_history_trends)
    diff = history_sub.add_parser(
        "diff", help="cell-by-cell matrix diff between two campaigns"
    )
    diff.add_argument("--storage-dir", required=True)
    diff.add_argument("--from-campaign", required=True, dest="from_campaign",
                      metavar="CAMPAIGN_ID")
    diff.add_argument("--to-campaign", required=True, dest="to_campaign",
                      metavar="CAMPAIGN_ID")
    diff.set_defaults(handler=_cmd_history_diff)
    regressions = history_sub.add_parser(
        "regressions",
        help="classify every recorded cell (regressed / flaky / "
             "never-validated) and name the suspected evolution events",
    )
    regressions.add_argument("--storage-dir", required=True)
    regressions.add_argument("--quiet", action="store_true",
                             help="print only the counts line (cron "
                                  "gating: the exit code is 1 when "
                                  "regressions were found, 0 otherwise)")
    regressions.set_defaults(handler=_cmd_history_regressions)

    interventions = subparsers.add_parser(
        "interventions",
        help="list and resolve persisted intervention tickets (opened by "
             "the regression-alerts campaign plugin)",
    )
    interventions_sub = interventions.add_subparsers(
        dest="interventions_command", required=True
    )
    tickets_list = interventions_sub.add_parser(
        "list", help="list intervention tickets (open ones by default)"
    )
    tickets_list.add_argument("--storage-dir", required=True,
                              help="directory holding a persisted common "
                                   "storage with intervention tickets (a "
                                   "previous campaign's --output)")
    tickets_list.add_argument("--all", action="store_true", dest="show_all",
                              help="include resolved and closed tickets")
    tickets_list.set_defaults(handler=_cmd_interventions_list)
    resolve = interventions_sub.add_parser(
        "resolve", help="resolve an open ticket and persist the update"
    )
    resolve.add_argument("--storage-dir", required=True)
    resolve.add_argument("--ticket", required=True, metavar="TICKET_ID")
    resolve.add_argument("--resolution", required=True,
                         help="what was done to fix the regression")
    resolve.add_argument("--timestamp", type=_positive_int, default=None,
                         help="logical resolution timestamp (default: one "
                              "past the newest recorded ticket event)")
    resolve.add_argument("--long-standing-bug", action="store_true",
                         help="mark the fix as exposing a long-standing "
                              "bug rather than an environment change")
    resolve.set_defaults(handler=_cmd_interventions_resolve)

    serve = subparsers.add_parser(
        "serve",
        help="run the validation-as-a-service daemon: resume the "
             "persisted multi-tenant queue and drain it under fair-share "
             "scheduling",
    )
    serve.add_argument("--storage-dir", required=True,
                       help="the daemon's persistent storage directory: the "
                            "queue, tenant ledger, build cache and run "
                            "documents all live (and resume) here")
    serve.add_argument("--scale", type=float, default=0.15)
    serve.add_argument("--tenant", action="append", default=None,
                       metavar="NAME[:WEIGHT[:RATE[:BURST]]]",
                       help="register a tenant policy (repeatable): "
                            "fair-share WEIGHT (default 1), sustained "
                            "submission RATE per second (default 0 = "
                            "unlimited) and token-bucket BURST capacity "
                            "(default 1); unregistered tenants get "
                            "weight 1, unlimited")
    serve.add_argument("--max-submissions", type=_positive_int, default=None,
                       help="stop after this many dispatched campaigns "
                            "(default: drain the whole queue)")
    serve.add_argument("--heartbeat-every", type=_positive_int, default=1,
                       help="publish a heartbeat telemetry event every N "
                            "dispatched campaigns (default 1)")
    serve.set_defaults(handler=_cmd_serve)

    submit_async = subparsers.add_parser(
        "submit-async",
        help="enqueue a campaign submission into a daemon's persisted "
             "queue without executing it (a later 'serve' run dispatches "
             "it)",
    )
    submit_async.add_argument("--storage-dir", required=True,
                              help="the daemon's storage directory (created "
                                   "if missing)")
    submit_async.add_argument("--tenant", required=True,
                              help="the submitting tenant's name")
    submit_async.add_argument("--priority", default="normal",
                              choices=list(PRIORITY_LANES),
                              help="queue lane: 'high' jumps every queued "
                                   "'normal'/'low' submission (default "
                                   "normal)")
    submit_async.add_argument("--spec", default=None, metavar="FILE",
                              help="submit the CampaignSpec JSON document in "
                                   "FILE instead of building one from the "
                                   "flags below")
    submit_async.add_argument("--workers", type=_positive_int, default=1)
    submit_async.add_argument("--rounds", type=_positive_int, default=1)
    submit_async.add_argument("--backend", default="simulated",
                              choices=sorted(EXECUTION_BACKENDS))
    submit_async.set_defaults(handler=_cmd_submit_async)

    queue = subparsers.add_parser(
        "queue",
        help="inspect or cancel persisted service submissions without "
             "provisioning a system",
    )
    queue_sub = queue.add_subparsers(dest="queue_command", required=True)
    queue_status = queue_sub.add_parser(
        "status",
        help="list persisted submissions and the per-tenant usage ledger",
    )
    queue_status.add_argument("--storage-dir", required=True)
    queue_status.set_defaults(handler=_cmd_queue_status)
    queue_cancel = queue_sub.add_parser(
        "cancel", help="cancel a still-queued persisted submission"
    )
    queue_cancel.add_argument("--storage-dir", required=True)
    queue_cancel.add_argument("--submission", required=True,
                              metavar="SUBMISSION_ID")
    queue_cancel.set_defaults(handler=_cmd_queue_cancel)

    metrics = subparsers.add_parser(
        "metrics",
        help="run one instrumented campaign and print its metrics in "
             "Prometheus text exposition format",
    )
    metrics.add_argument("--scale", type=float, default=0.05)
    metrics.add_argument("--workers", type=_positive_int, default=2)
    metrics.add_argument("--rounds", type=_positive_int, default=1)
    metrics.add_argument("--backend", default="simulated",
                         choices=sorted(EXECUTION_BACKENDS))
    metrics.set_defaults(handler=_cmd_metrics)

    trace = subparsers.add_parser(
        "trace",
        help="run one instrumented campaign and export its span tree as "
             "Chrome trace_event JSON (load in chrome://tracing or Perfetto)",
    )
    trace.add_argument("--out", required=True, metavar="TRACE_JSON",
                       help="file the Chrome trace document is written to")
    trace.add_argument("--scale", type=float, default=0.05)
    trace.add_argument("--workers", type=_positive_int, default=2)
    trace.add_argument("--rounds", type=_positive_int, default=1)
    trace.add_argument("--backend", default="simulated",
                       choices=sorted(EXECUTION_BACKENDS))
    trace.add_argument("--output", default=None,
                       help="also persist the storage (including the "
                            "reports/telemetry.html timing page) below this "
                            "directory")
    trace.set_defaults(handler=_cmd_trace)

    bench_trends = subparsers.add_parser(
        "bench-trends",
        help="inspect or gate the recorded benchmark trend series",
    )
    bench_trends_sub = bench_trends.add_subparsers(
        dest="bench_trends_command", required=True
    )
    bench_trends_check = bench_trends_sub.add_parser(
        "check",
        help="compare the latest point of every trend series against the "
             "trailing median; exit 1 on any regression past the threshold",
    )
    bench_trends_check.add_argument(
        "--dir", default=None, metavar="TRENDS_DIR",
        help="trend series directory (default benchmarks/_results/trends)",
    )
    bench_trends_check.add_argument(
        "--threshold", type=_positive_float, default=None,
        help="relative regression threshold (default 0.25 = 25%%)",
    )
    bench_trends_check.add_argument(
        "--window", type=_positive_int, default=None,
        help="trailing points forming the median baseline (default 10)",
    )
    bench_trends_check.set_defaults(handler=_cmd_bench_trends_check)

    migrate = subparsers.add_parser("migrate-plan", help="plan a migration to a new platform")
    migrate.add_argument("--experiment", required=True, choices=sorted(_EXPERIMENT_BUILDERS))
    migrate.add_argument("--source", default="SL5_64bit_gcc4.4")
    migrate.add_argument("--target", default="SL7",
                         help="'SL7' for the SL7+ROOT6 challenge, or a configuration key")
    migrate.add_argument("--scale", type=float, default=0.3)
    migrate.set_defaults(handler=_cmd_migrate_plan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


# -- command handlers -------------------------------------------------------------
def _cmd_levels(arguments: argparse.Namespace) -> int:
    rows = preservation_table()
    print(format_table(
        ["level", "preservation model", "use case"],
        [[row["level"], row["preservation_model"], row["use_case"]] for row in rows],
    ))
    return 0


def _provisioned_system(
    scale: float,
    experiments: Optional[List[str]] = None,
    storage: Optional[CommonStorage] = None,
    telemetry: Optional[Telemetry] = None,
) -> SPSystem:
    system = SPSystem(storage=storage, telemetry=telemetry)
    system.provision_standard_images()
    names = experiments if experiments is not None else list(_EXPERIMENT_BUILDERS)
    for name in names:
        system.register_experiment(_EXPERIMENT_BUILDERS[name](scale=scale))
    return system


def _cmd_describe(arguments: argparse.Namespace) -> int:
    system = _provisioned_system(arguments.scale)
    description = system.describe()
    print("Configurations:")
    for configuration in description["configurations"]:
        externals = ", ".join(
            f"{product} {version}"
            for product, version in sorted(configuration["externals"].items())
        )
        print(
            f"  {configuration['operating_system']}/{configuration['word_size']}bit "
            f"{configuration['compiler']}  [{externals}]"
        )
    print("\nExperiments:")
    for name, info in sorted(description["experiments"].items()):
        print(
            f"  {name}: DPHEP level {info['preservation_level']}, "
            f"{info['packages']} packages, {info['tests']} tests, phase {info['phase']}"
        )
    return 0


def _cmd_validate(arguments: argparse.Namespace) -> int:
    system = _provisioned_system(arguments.scale, [arguments.experiment])
    if arguments.reference_configuration:
        reference = system.validate(
            arguments.experiment, arguments.reference_configuration,
            description="reference run",
        )
        print(reference.summary())
    result = system.validate(arguments.experiment, arguments.configuration)
    print(result.summary())
    print(result.regression_report.summary())
    if result.diagnosis is not None:
        print("diagnosis by category:", result.diagnosis.by_category())
        for ticket in result.tickets:
            print(f"  {ticket.ticket_id} -> {ticket.party.value}: {ticket.description}")
    if arguments.output:
        StatusPageGenerator(system.storage, system.catalog).run_page(result.run)
        written = system.storage.persist(arguments.output)
        print(f"persisted {len(written)} documents below {arguments.output}")
    return 0 if result.successful else 1


def _load_spec_file(path: str) -> CampaignSpec:
    """Load a CampaignSpec from a JSON document on disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        raise ReproError(f"cannot read spec file {path!r}: {error}") from error
    except json.JSONDecodeError as error:
        raise ReproError(f"spec file {path!r} is not valid JSON: {error}") from error
    return CampaignSpec.from_dict(payload)


def _cmd_campaign(arguments: argparse.Namespace) -> int:
    telemetry = Telemetry.create() if arguments.telemetry else None
    system = _provisioned_system(arguments.scale, telemetry=telemetry)
    cache_dir = arguments.cache_dir or arguments.output
    if arguments.spec:
        spec = _load_spec_file(arguments.spec)
    else:
        spec = CampaignSpec(
            workers=arguments.workers,
            rounds=arguments.rounds,
            batch_size=arguments.batch_size,
            policy=arguments.policy,
            deadline_seconds=arguments.deadline_seconds,
            backend=arguments.backend,
        )
    if arguments.cache_budget_mb is not None and (
        arguments.no_cache or not spec.use_cache
    ):
        # Catches --no-cache and a --spec file with "use_cache": false alike:
        # without the cache layer the budget would be a silent no-op.
        raise ReproError(
            "--cache-budget-mb conflicts with --no-cache (or a spec file "
            "with \"use_cache\": false)"
        )
    if arguments.cache_budget_mb is not None:
        if not arguments.output:
            # The budget also caps the persisted journal; without --output
            # nothing is persisted, so honour the historical contract of
            # requiring one instead of silently applying half the flag.
            raise ReproError("--cache-budget-mb requires --output")
        # Fold the override into the spec (winning over a --spec file's own
        # budget) BEFORE submission: the persisted record must replay with
        # the cache budget that was actually applied.
        spec = CampaignSpec.from_dict(
            dict(
                spec.to_dict(),
                cache_budget_bytes=int(arguments.cache_budget_mb * 1024 * 1024),
            )
        )
    if arguments.no_cache:
        # Folded into the spec for the same replayability reason.
        spec = CampaignSpec.from_dict(dict(spec.to_dict(), use_cache=False))
    if arguments.record_history:
        if not arguments.output:
            # Like --cache-budget-mb: the ledger exists for longitudinal
            # queries over the *persisted* storage; without --output the
            # recorded history would be silently discarded.
            raise ReproError("--record-history requires --output")
        # Folded into the spec (winning over a --spec file's own value), so
        # the persisted record replays with history recording on.
        spec = CampaignSpec.from_dict(dict(spec.to_dict(), record_history=True))
    if arguments.on_deadline is not None:
        # Folded into the spec (winning over a --spec file's own value), so
        # the persisted record replays the same deadline semantics.
        spec = CampaignSpec.from_dict(
            dict(spec.to_dict(), on_deadline=arguments.on_deadline)
        )
    if arguments.event_log is not None:
        spec = CampaignSpec.from_dict(
            dict(spec.to_dict(), event_log=arguments.event_log)
        )
    if arguments.plugin:
        spec = CampaignSpec.from_dict(
            dict(spec.to_dict(), plugins=list(arguments.plugin))
        )
    if arguments.cache_dir and not spec.use_cache:
        # An *explicit* --cache-dir (as opposed to the --output default)
        # would be a silent no-op without the cache layer; refuse it like
        # the budget flag.
        raise ReproError(
            "--cache-dir conflicts with --no-cache (or a spec file with "
            "\"use_cache\": false): there is no cache to warm-start"
        )
    if (
        spec.use_cache
        and spec.warm_start
        and cache_dir
        and os.path.isdir(cache_dir)
    ):
        # Warm-start (gated on the *effective* spec settings, so a --spec
        # file disabling the cache or the warm start skips it — the
        # persisted spec record must replay the same campaign): replay
        # only the build-cache journal of the previous campaign, not its
        # accumulated run documents and report pages.
        restored = system.restore_build_cache(
            CommonStorage.load(cache_dir, namespaces=[BuildCache.NAMESPACE]),
            missing_ok=True,
        )
        if restored is not None:
            print(f"warm-started build cache: {len(restored)} entries from {cache_dir}")
    if (
        spec.record_history is not False
        and cache_dir
        and os.path.isdir(cache_dir)
    ):
        # Mount a previously persisted history ledger before submitting, so
        # repeated campaigns against one --output accumulate one continuous
        # history (and the record_history=None auto mode keeps recording).
        mounted = system.restore_history(
            CommonStorage.load(
                cache_dir, namespaces=[ValidationHistoryLedger.NAMESPACE]
            ),
            missing_ok=True,
        )
        if mounted is not None:
            print(
                f"mounted validation history: {len(mounted)} event(s) "
                f"from {cache_dir}"
            )
    if cache_dir and os.path.isdir(cache_dir):
        # Mount previously persisted tickets, so the regression alerter
        # deduplicates against — instead of re-opening — the open tickets
        # of earlier campaigns, and the persisted output carries them all.
        mounted_store = system.restore_interventions(
            CommonStorage.load(
                cache_dir, namespaces=[InterventionStore.NAMESPACE]
            ),
            missing_ok=True,
        )
        if mounted_store is not None:
            print(
                f"mounted {len(mounted_store.tickets())} intervention "
                f"ticket(s) from {cache_dir}"
            )
    handle = system.submit(spec)
    campaign = handle.result()
    print(f"submitted {handle.campaign_id}: {handle.cells_completed}/"
          f"{handle.cells_total} cells on the {campaign.backend!r} backend")
    matrix = ValidationSummaryBuilder().from_campaign(campaign)
    print(matrix.render_text())
    print()
    print(campaign.render_text())
    print()
    print(rows_to_text(
        catalog_to_rows(system.catalog),
        columns=["run_id", "experiment", "configuration", "overall_status"],
    ))
    if telemetry is not None:
        print()
        print(_phase_table(telemetry))
    if spec.event_log:
        print(f"lifecycle event log appended to {spec.event_log}")
    open_tickets = (
        InterventionStore(system.storage).open_tickets()
        if InterventionStore.exists_in(system.storage)
        else None
    )
    if spec.plugins:
        print(
            f"{len(open_tickets or [])} open intervention ticket(s) after "
            "this campaign"
        )
    if arguments.output:
        appended_entries = 0
        if spec.use_cache:
            # Persist before the pages render, so the campaign page can
            # report the journal it will actually travel with.
            appended_entries = system.persist_build_cache(
                max_bytes=spec.cache_budget_bytes
            )
        pages = StatusPageGenerator(system.storage, system.catalog)
        history_on = system.history is not None
        pages.campaign_page(
            campaign,
            cache_journal=(
                BuildCache.journal_status(system.storage)
                if spec.use_cache
                else None
            ),
            history_link=history_on,
            tickets=(
                intervention_rows(open_tickets)
                if open_tickets is not None
                else None
            ),
            events=(
                lifecycle_event_rows(system.lifecycle.recent(limit=50))
                if system.lifecycle.events
                else None
            ),
        )
        pages.index_page()
        pages.summary_page(matrix.render_text())
        if telemetry is not None:
            pages.telemetry_page(
                telemetry.tracer.phase_rows(),
                metric_rows=telemetry.metrics.summary_rows(),
                span_count=len(telemetry.tracer.spans),
            )
        if history_on:
            ledger = system.history
            findings = RegressionDetector(ledger).findings()
            pages.trends_page(
                trend_rows(ledger),
                regression_rows(findings),
                history_status=ledger.status(),
                evolution_rows=[
                    record.to_dict() for record in ledger.evolution_records()
                ],
            )
            status = ledger.status()
            open_regressions = sum(
                1 for finding in findings if finding.is_regression
            )
            print(
                f"validation history: {status['events']} event(s) across "
                f"{status['campaigns']} campaign(s), "
                f"{open_regressions} open regression(s)"
            )
        written = system.storage.persist(arguments.output)
        print(f"\npersisted {len(written)} documents below {arguments.output} "
              f"({appended_entries} new build-cache journal records for the "
              f"next campaign)")
    return 0


def _cmd_cache_stats(arguments: argparse.Namespace) -> int:
    from repro.reporting.summary import build_cache_rows, cache_journal_rows
    from repro.storage.artifacts import ArtifactStore

    if not os.path.isdir(arguments.cache_dir):
        raise ReproError(f"no such storage directory: {arguments.cache_dir}")
    storage = CommonStorage.load(
        arguments.cache_dir, namespaces=[BuildCache.NAMESPACE]
    )
    if BuildCache.NAMESPACE not in storage.namespaces():
        raise ReproError(
            f"no persisted build cache below {arguments.cache_dir}: "
            f"the storage has no {BuildCache.NAMESPACE!r} namespace"
        )
    cache = BuildCache.restore_from(storage, ArtifactStore())
    if arguments.compact:
        written = cache.compact(storage)
        storage.persist(arguments.cache_dir)
        print(f"compacted the journal to {written} entry record(s)")
    rows = (
        [{"quantity": "live cache entries", "value": len(cache)},
         {"quantity": "live cache bytes", "value": cache.total_size_bytes()}]
        + build_cache_rows(cache.statistics)
        + cache_journal_rows(BuildCache.journal_status(storage))
    )
    print(f"build-cache journal below {arguments.cache_dir}")
    print(format_table(
        ["quantity", "value"], [[row["quantity"], row["value"]] for row in rows]
    ))
    return 0


def _load_history_ledger(storage_dir: str) -> ValidationHistoryLedger:
    """Mount the history ledger persisted below *storage_dir*.

    A missing directory or a storage without a ledger is a clean
    :class:`ReproError` (exit code 2), never a traceback — the consistent
    counterpart of how ``cache-stats`` treats a missing build cache.
    """
    from repro._common import StorageError

    if not os.path.isdir(storage_dir):
        raise ReproError(f"no such storage directory: {storage_dir}")
    storage = CommonStorage.load(
        storage_dir, namespaces=[ValidationHistoryLedger.NAMESPACE]
    )
    try:
        return ValidationHistoryLedger.open(storage)
    except StorageError:
        raise ReproError(
            f"no validation history ledger below {storage_dir}: run "
            "'campaign --record-history --output' first"
        ) from None


def _print_rows(rows: List[Dict[str, object]], columns: List[str]) -> None:
    print(format_table(
        columns, [[row.get(column, "") for column in columns] for row in rows]
    ))


def _cmd_history_trends(arguments: argparse.Namespace) -> int:
    ledger = _load_history_ledger(arguments.storage_dir)
    rows = trend_rows(ledger, experiment=arguments.experiment)
    status = ledger.status()
    print(
        f"validation history below {arguments.storage_dir}: "
        f"{status['events']} event(s), {status['campaigns']} campaign(s), "
        f"{status['cells']} cell(s), {status['evolutions']} evolution "
        "event(s)"
    )
    if not rows:
        print("no trend points recorded")
        return 0
    _print_rows(rows, ["experiment", "campaign", "cells", "validated",
                       "broken", "pass_fraction"])
    return 0


def _cmd_history_diff(arguments: argparse.Namespace) -> int:
    ledger = _load_history_ledger(arguments.storage_dir)
    diff = diff_campaigns(
        ledger, arguments.from_campaign, arguments.to_campaign
    )
    print(diff.summary())
    rows = diff_rows(diff)
    if rows:
        _print_rows(rows, ["experiment", "configuration", "change", "from", "to"])
    return 0


def _cmd_history_regressions(arguments: argparse.Namespace) -> int:
    from repro.history import CLASS_FLAKY, CLASS_NEVER_VALIDATED

    ledger = _load_history_ledger(arguments.storage_dir)
    findings = RegressionDetector(ledger).findings()
    regressions = [finding for finding in findings if finding.is_regression]
    flaky = sum(1 for f in findings if f.classification == CLASS_FLAKY)
    never = sum(
        1 for f in findings if f.classification == CLASS_NEVER_VALIDATED
    )
    print(
        f"{len(regressions)} regression(s), {flaky} flaky cell(s), "
        f"{never} never-validated cell(s) across {len(findings)} "
        "recorded cell(s)"
    )
    if not arguments.quiet:
        for finding in regressions:
            print(f"  {finding.summary()}")
        if findings:
            _print_rows(
                regression_rows(findings),
                ["experiment", "configuration", "classification", "events",
                 "flips", "first_bad", "suspected_change"],
            )
    # Nonzero on open regressions, so cron jobs can gate on the exit code
    # (`history regressions --quiet && ...`); storage errors stay exit 2.
    return 1 if regressions else 0


def _load_intervention_store(storage_dir: str) -> "tuple[CommonStorage, InterventionStore]":
    """Mount the intervention tickets persisted below *storage_dir*."""
    if not os.path.isdir(storage_dir):
        raise ReproError(f"no such storage directory: {storage_dir}")
    storage = CommonStorage.load(
        storage_dir, namespaces=[InterventionStore.NAMESPACE]
    )
    if not InterventionStore.exists_in(storage):
        raise ReproError(
            f"no intervention tickets below {storage_dir}: run a campaign "
            "with --plugin regression-alerts first"
        )
    return storage, InterventionStore(storage)


def _cmd_interventions_list(arguments: argparse.Namespace) -> int:
    _storage, store = _load_intervention_store(arguments.storage_dir)
    tickets = store.tickets() if arguments.show_all else store.open_tickets()
    print(
        f"{len(store.open_tickets())} open ticket(s) of "
        f"{len(store.tickets())} recorded below {arguments.storage_dir}"
    )
    if tickets:
        columns = ["ticket", "experiment", "configuration", "category",
                   "status", "suspected change", "description"]
        if arguments.show_all:
            # The full listing shows how often each resolved ticket
            # re-opened on recurrence (the alert dedupe/re-open window).
            columns.insert(5, "reopened")
        _print_rows(intervention_rows(tickets), columns)
    return 0


def _cmd_interventions_resolve(arguments: argparse.Namespace) -> int:
    storage, store = _load_intervention_store(arguments.storage_dir)
    ticket = store.resolve(
        arguments.ticket,
        arguments.resolution,
        timestamp=arguments.timestamp,
        long_standing_bug=arguments.long_standing_bug,
    )
    storage.persist(arguments.storage_dir)
    print(
        f"resolved {ticket.ticket_id} at t={ticket.resolved_at}: "
        f"{arguments.resolution}"
    )
    return 0


def _parse_tenant_flag(text: str) -> TenantPolicy:
    """Parse a ``NAME[:WEIGHT[:RATE[:BURST]]]`` tenant flag."""
    parts = text.split(":")
    try:
        return TenantPolicy(
            name=parts[0],
            weight=int(parts[1]) if len(parts) > 1 and parts[1] else 1,
            rate_per_second=(
                float(parts[2]) if len(parts) > 2 and parts[2] else 0.0
            ),
            burst=int(parts[3]) if len(parts) > 3 and parts[3] else 1,
        )
    except ValueError as error:
        raise ReproError(f"invalid --tenant flag {text!r}: {error}") from error


def _load_service_storage(storage_dir: str, create: bool = False) -> CommonStorage:
    """Load a daemon's persisted storage (optionally starting fresh)."""
    if os.path.isdir(storage_dir):
        return CommonStorage.load(storage_dir)
    if not create:
        raise ReproError(f"no such storage directory: {storage_dir}")
    return CommonStorage()


def _print_service_tables(
    service: ValidationService, submissions: Optional[List] = None
) -> None:
    rows = submissions if submissions is not None else service.submissions()
    if rows:
        _print_rows(
            submission_rows(rows),
            ["submission", "tenant", "priority", "status", "campaign",
             "cells", "error"],
        )
    _print_rows(
        tenant_rows(service.ledger, backlog=service.queue.backlog()),
        ["tenant", "weight", "rate/s", "queued", "submitted", "completed",
         "failed", "cancelled", "rejected", "cells", "build s",
         "cache hits", "shared hits", "donated", "cache bytes"],
    )


def _cmd_serve(arguments: argparse.Namespace) -> int:
    storage = _load_service_storage(arguments.storage_dir, create=True)
    system = _provisioned_system(arguments.scale, storage=storage)
    service = ValidationService(
        system,
        tenants=[_parse_tenant_flag(text) for text in arguments.tenant or []],
        heartbeat_every=arguments.heartbeat_every,
    )
    resumed = service.queue.depth()
    print(
        f"serving below {arguments.storage_dir}: {resumed} queued "
        f"submission(s) resumed, {len(service.ledger.tenants())} tenant(s)"
    )
    processed = service.run_pending(max_submissions=arguments.max_submissions)
    for submission in processed:
        outcome = submission.campaign_id or submission.error or ""
        print(
            f"  {submission.submission_id} [{submission.tenant}] "
            f"{submission.status}: {outcome}"
        )
    service.beat(source="serve")
    appended = system.persist_build_cache()
    written = storage.persist(arguments.storage_dir)
    print(
        f"dispatched {len(processed)} campaign(s); queue depth now "
        f"{service.queue.depth()}"
    )
    _print_service_tables(service)
    _print_rows(snapshot_rows(service.snapshot()), ["metric", "value"])
    print(
        f"persisted {len(written)} documents below {arguments.storage_dir} "
        f"({appended} new build-cache journal records); live dashboard: "
        f"{os.path.join(arguments.storage_dir, 'reports', 'service.html')}"
    )
    return 0


def _cmd_submit_async(arguments: argparse.Namespace) -> int:
    storage = _load_service_storage(arguments.storage_dir, create=True)
    # No provisioning and no warm start: this command only enqueues — the
    # next `serve` run provisions a system and executes.
    system = SPSystem(storage=storage)
    service = ValidationService(system, warm_start=False, dashboard=False)
    if arguments.spec:
        spec = _load_spec_file(arguments.spec)
    else:
        spec = CampaignSpec(
            workers=arguments.workers,
            rounds=arguments.rounds,
            backend=arguments.backend,
        )
    submission = service.submit(arguments.tenant, spec, arguments.priority)
    written = storage.persist(arguments.storage_dir)
    print(
        f"queued {submission.submission_id} for tenant "
        f"{submission.tenant!r} ({submission.priority} lane); queue depth "
        f"{service.queue.depth()}, {len(written)} documents persisted "
        f"below {arguments.storage_dir}"
    )
    return 0


def _cmd_queue_status(arguments: argparse.Namespace) -> int:
    if not os.path.isdir(arguments.storage_dir):
        raise ReproError(f"no such storage directory: {arguments.storage_dir}")
    storage = CommonStorage.load(
        arguments.storage_dir, namespaces=[SERVICE_NAMESPACE]
    )
    submissions = load_submissions(storage)
    ledger = TenantLedger(storage)
    if not submissions and not ledger.tenants():
        raise ReproError(
            f"no service state below {arguments.storage_dir}: run "
            "'submit-async' or 'serve' first"
        )
    queued = [item for item in submissions if item.status == "queued"]
    backlog: Dict[str, int] = {}
    for item in queued:
        backlog[item.tenant] = backlog.get(item.tenant, 0) + 1
    print(
        f"{len(queued)} queued of {len(submissions)} recorded "
        f"submission(s) below {arguments.storage_dir}"
    )
    if storage.exists(SERVICE_NAMESPACE, ValidationService.WORKER_STATUS_KEY):
        worker = storage.get(
            SERVICE_NAMESPACE, ValidationService.WORKER_STATUS_KEY
        )
        line = (
            f"heartbeat worker (last persisted): {worker.get('beats', 0)} "
            f"beat(s), {worker.get('failures', 0)} failure(s), "
            f"{worker.get('restarts', 0)} restart(s)"
        )
        if worker.get("last_error"):
            line += f"; last error: {worker['last_error']}"
        print(line)
    if submissions:
        _print_rows(
            submission_rows(submissions),
            ["submission", "tenant", "priority", "status", "campaign",
             "cells", "error"],
        )
    _print_rows(
        tenant_rows(ledger, backlog=backlog),
        ["tenant", "weight", "rate/s", "queued", "submitted", "completed",
         "failed", "cancelled", "rejected", "cells", "build s",
         "cache hits", "shared hits", "donated", "cache bytes"],
    )
    return 0


def _cmd_queue_cancel(arguments: argparse.Namespace) -> int:
    if not os.path.isdir(arguments.storage_dir):
        raise ReproError(f"no such storage directory: {arguments.storage_dir}")
    storage = CommonStorage.load(
        arguments.storage_dir, namespaces=[SERVICE_NAMESPACE]
    )
    submission = cancel_persisted(storage, arguments.submission)
    storage.persist(arguments.storage_dir)
    print(
        f"cancelled {submission.submission_id} (tenant "
        f"{submission.tenant!r}); the next serve run will not dispatch it"
    )
    return 0


def _phase_table(telemetry: Telemetry) -> str:
    """Render the tracer's per-phase timing rows as a text table."""
    return format_table(
        ["category", "span", "calls", "cumulative s", "self s"],
        [
            [category, name, calls, f"{cumulative:.6f}", f"{self_seconds:.6f}"]
            for category, name, calls, cumulative, self_seconds
            in telemetry.tracer.phase_rows()
        ],
    )


def _instrumented_campaign(
    arguments: argparse.Namespace,
) -> "tuple[SPSystem, Telemetry]":
    """Run one campaign with a live telemetry bundle attached."""
    from repro.telemetry import MetricsObserver

    telemetry = Telemetry.create()
    system = _provisioned_system(arguments.scale, telemetry=telemetry)
    system.lifecycle.add_observer(MetricsObserver(telemetry.metrics))
    spec = CampaignSpec(
        workers=arguments.workers,
        rounds=arguments.rounds,
        backend=arguments.backend,
    )
    handle = system.submit(spec)
    handle.result()
    return system, telemetry


def _cmd_metrics(arguments: argparse.Namespace) -> int:
    system, telemetry = _instrumented_campaign(arguments)
    print(prometheus_text(telemetry.metrics), end="")
    return 0


def _cmd_trace(arguments: argparse.Namespace) -> int:
    system, telemetry = _instrumented_campaign(arguments)
    document = telemetry.tracer.chrome_trace()
    try:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
    except OSError as error:
        raise ReproError(
            f"cannot write trace file {arguments.out!r}: {error}"
        ) from error
    print(
        f"wrote {len(document['traceEvents'])} trace event(s) to "
        f"{arguments.out} (load in chrome://tracing or ui.perfetto.dev)"
    )
    print()
    print(_phase_table(telemetry))
    if arguments.output:
        StatusPageGenerator(system.storage, system.catalog).telemetry_page(
            telemetry.tracer.phase_rows(),
            metric_rows=telemetry.metrics.summary_rows(),
            span_count=len(telemetry.tracer.spans),
        )
        written = system.storage.persist(arguments.output)
        print(
            f"persisted {len(written)} documents below {arguments.output} "
            "(timing page: reports/telemetry.html)"
        )
    return 0


def _cmd_bench_trends_check(arguments: argparse.Namespace) -> int:
    directory = arguments.dir or DEFAULT_TRENDS_DIR
    threshold = (
        arguments.threshold if arguments.threshold is not None
        else DEFAULT_THRESHOLD
    )
    window = arguments.window if arguments.window is not None else DEFAULT_WINDOW
    verdicts = check_trends(directory, threshold=threshold, window=window)
    if not verdicts:
        print(
            f"no trend series below {directory}: nothing to gate "
            "(run the benchmarks to seed them)"
        )
        return 0
    print(
        f"{len(verdicts)} trend series below {directory} "
        f"(threshold {threshold:.0%}, window {window})"
    )
    print(format_table(
        ["metric", "points", "latest", "baseline", "change", "verdict"],
        [verdict.to_row() for verdict in sorted(verdicts.values(),
                                                key=lambda item: item.metric)],
    ))
    regressed = [v for v in verdicts.values() if v.regressed]
    if regressed:
        print(
            f"{len(regressed)} metric(s) regressed past the "
            f"{threshold:.0%} threshold"
        )
        return 1
    return 0


def _cmd_migrate_plan(arguments: argparse.Namespace) -> int:
    system = _provisioned_system(arguments.scale, [arguments.experiment])
    if arguments.target.upper() == "SL7":
        target = next_generation_configuration()
        system.add_configuration(target)
    else:
        target = system.configuration(arguments.target)
    source = system.configuration(arguments.source)
    plan = MigrationPlanner().plan(system.experiment(arguments.experiment), source, target)
    print(
        f"Migration of {arguments.experiment} from {source.key} to {target.key}: "
        f"predicted pass fraction {plan.predicted_pass_fraction:.0%}, "
        f"{plan.total_effort_person_weeks:.1f} person-weeks of porting"
    )
    if plan.is_trivial:
        print("nothing to do — the software already builds and runs on the target")
        return 0
    print(rows_to_text(plan.rows()))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
