"""Summary matrices over validation runs (the content of figure 3).

Figure 3 of the paper is "a summary of the validation tests carried out by the
HERA experiments within the sp-system", showing, per experiment (ZEUS / H1 /
HERMES) and per process, how the tests fare under the different configurations
of operating system and external dependencies.  The
:class:`ValidationSummaryBuilder` produces exactly that matrix from the run
catalogue, plus the headline numbers quoted in the text (total number of runs,
number of configurations, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro._common import format_table
from repro.core.jobs import ValidationRun
from repro.storage.catalog import RunCatalog, RunRecord


@dataclass
class MatrixCell:
    """One cell of the figure-3 matrix: an experiment/process/configuration bin."""

    experiment: str
    process: str
    configuration_key: str
    n_passed: int = 0
    n_failed: int = 0
    n_skipped: int = 0

    @property
    def n_total(self) -> int:
        """Total number of test executions aggregated in the cell."""
        return self.n_passed + self.n_failed + self.n_skipped

    @property
    def status(self) -> str:
        """Aggregate status of the cell: ok / problems / not-run."""
        if self.n_total == 0:
            return "not-run"
        if self.n_failed > 0:
            return "problems"
        if self.n_skipped > 0:
            return "incomplete"
        return "ok"

    @property
    def pass_fraction(self) -> float:
        """Fraction of executions that passed."""
        if self.n_total == 0:
            return 0.0
        return self.n_passed / self.n_total


@dataclass
class SummaryMatrix:
    """The full experiment × process × configuration summary."""

    experiments: List[str]
    configurations: List[str]
    cells: Dict[Tuple[str, str, str], MatrixCell] = field(default_factory=dict)
    experiment_colours: Dict[str, str] = field(default_factory=dict)
    total_runs: int = 0

    def cell(self, experiment: str, process: str, configuration_key: str) -> MatrixCell:
        """Return (creating if necessary) the cell for the given coordinates."""
        key = (experiment, process, configuration_key)
        if key not in self.cells:
            self.cells[key] = MatrixCell(
                experiment=experiment,
                process=process,
                configuration_key=configuration_key,
            )
        return self.cells[key]

    def processes_for(self, experiment: str) -> List[str]:
        """All processes with at least one cell for *experiment*."""
        return sorted({
            process for (exp, process, _key) in self.cells if exp == experiment
        })

    def rows(self) -> List[Dict[str, object]]:
        """Flatten the matrix into rows (one per experiment/process/configuration)."""
        rows = []
        for (experiment, process, configuration_key) in sorted(self.cells):
            cell = self.cells[(experiment, process, configuration_key)]
            rows.append(
                {
                    "experiment": experiment,
                    "process": process,
                    "configuration": configuration_key,
                    "passed": cell.n_passed,
                    "failed": cell.n_failed,
                    "skipped": cell.n_skipped,
                    "status": cell.status,
                }
            )
        return rows

    def render_text(self) -> str:
        """Render the matrix as an aligned text table, grouped by experiment."""
        blocks = []
        for experiment in self.experiments:
            colour = self.experiment_colours.get(experiment, "")
            title = f"{experiment}" + (f" ({colour})" if colour else "")
            headers = ["process"] + self.configurations
            rows = []
            for process in self.processes_for(experiment):
                row = [process]
                for configuration_key in self.configurations:
                    cell = self.cells.get((experiment, process, configuration_key))
                    if cell is None or cell.n_total == 0:
                        row.append("-")
                    else:
                        row.append(f"{cell.n_passed}/{cell.n_total} {cell.status}")
                rows.append(row)
            blocks.append(title + "\n" + format_table(headers, rows))
        footer = f"total validation runs recorded: {self.total_runs}"
        return "\n\n".join(blocks + [footer])

    def overall_pass_fraction(self) -> float:
        """Pass fraction over every cell of the matrix."""
        passed = sum(cell.n_passed for cell in self.cells.values())
        total = sum(cell.n_total for cell in self.cells.values())
        return passed / total if total else 0.0

    def problem_cells(self) -> List[MatrixCell]:
        """All cells with at least one failure."""
        return [cell for cell in self.cells.values() if cell.n_failed > 0]


class ValidationSummaryBuilder:
    """Builds summary matrices from validation runs or the run catalogue."""

    def __init__(self, experiment_colours: Optional[Dict[str, str]] = None) -> None:
        self.experiment_colours = experiment_colours or {
            "ZEUS": "orange",
            "H1": "blue",
            "HERMES": "red",
        }

    def from_runs(self, runs: Sequence[ValidationRun]) -> SummaryMatrix:
        """Build the matrix from in-memory validation runs (per-process detail)."""
        experiments = sorted({run.experiment for run in runs})
        configurations = sorted({run.configuration_key for run in runs})
        matrix = SummaryMatrix(
            experiments=self._order_experiments(experiments),
            configurations=configurations,
            experiment_colours=dict(self.experiment_colours),
            total_runs=len(runs),
        )
        for run in runs:
            per_process = run.statuses_by_process()
            for process, counts in per_process.items():
                cell = matrix.cell(run.experiment, process, run.configuration_key)
                cell.n_passed += counts["passed"]
                cell.n_failed += counts["failed"]
                cell.n_skipped += counts["skipped"]
        return matrix

    def from_campaign(self, campaign) -> SummaryMatrix:
        """Build the matrix from a scheduled campaign's validation runs.

        Accepts any object with a ``runs()`` method returning validation runs
        (duck-typed so the scheduler package can stay a pure consumer of the
        reporting layer).
        """
        return self.from_runs(campaign.runs())

    def from_catalog(self, catalog: RunCatalog) -> SummaryMatrix:
        """Build a coarser matrix from the run catalogue.

        The catalogue stores per-test statuses without the process attribute,
        so the process dimension is reduced to the test-name prefix (the part
        before the first ``-``), which is how the script-based web pages of
        the sp-system group their table rows.
        """
        records = catalog.all()
        experiments = sorted({record.experiment for record in records})
        configurations = sorted({record.configuration_key for record in records})
        matrix = SummaryMatrix(
            experiments=self._order_experiments(experiments),
            configurations=configurations,
            experiment_colours=dict(self.experiment_colours),
            total_runs=len(records),
        )
        for record in records:
            for test_name, status in record.test_statuses.items():
                process = test_name.split("-", 1)[0]
                cell = matrix.cell(record.experiment, process, record.configuration_key)
                if status == "passed":
                    cell.n_passed += 1
                elif status == "failed":
                    cell.n_failed += 1
                elif status == "skipped":
                    cell.n_skipped += 1
        return matrix

    def headline_numbers(self, catalog: RunCatalog) -> Dict[str, int]:
        """The headline statistics quoted in section 3.3 of the paper."""
        records = catalog.all()
        return {
            "total_runs": len(records),
            "experiments": len({record.experiment for record in records}),
            "configurations": len({record.configuration_key for record in records}),
            "total_test_executions": sum(record.n_tests for record in records),
            "total_failures": sum(record.n_failed for record in records),
        }

    def _order_experiments(self, experiments: List[str]) -> List[str]:
        """Order experiments the way figure 3 stacks them: ZEUS, H1, HERMES."""
        preferred = ["ZEUS", "H1", "HERMES"]
        ordered = [name for name in preferred if name in experiments]
        ordered.extend(name for name in experiments if name not in ordered)
        return ordered


def build_cache_rows(statistics) -> List[Dict[str, object]]:
    """Rows describing build-cache accounting (hits, misses, hit rate).

    *statistics* is duck-typed (any object with ``hits``/``misses``/``stores``/
    ``evictions``/``hit_rate``), so the reporting layer needs no import of the
    scheduler package.  Cross-experiment sharing (``shared_hits`` and the
    per-donor ``donated_by_experiment`` breakdown of the content-addressed
    cache) is reported when the statistics object carries it.
    """
    rows = [
        {"quantity": "build cache hits", "value": statistics.hits},
        {"quantity": "build cache misses", "value": statistics.misses},
        {"quantity": "build cache stores", "value": statistics.stores},
        {"quantity": "build cache evictions", "value": statistics.evictions},
        {"quantity": "build cache hit rate", "value": f"{statistics.hit_rate:.1%}"},
        {
            "quantity": "build cache shared hits (cross-experiment)",
            "value": getattr(statistics, "shared_hits", 0),
        },
    ]
    for experiment, count in sorted(
        getattr(statistics, "donated_by_experiment", {}).items()
    ):
        rows.append(
            {"quantity": f"  hits donated by {experiment}", "value": count}
        )
    return rows


def cache_journal_rows(status: Dict[str, int]) -> List[Dict[str, object]]:
    """Rows describing the persisted build-cache journal's size.

    *status* is the mapping :meth:`BuildCache.journal_status` returns
    (``records``/``entries``/``tombstones``/``artifacts``/``bytes``), passed
    as plain data so the reporting layer needs no scheduler import.
    """
    return [
        {"quantity": "cache journal records", "value": status.get("records", 0)},
        {"quantity": "  entry records", "value": status.get("entries", 0)},
        {"quantity": "  tombstone records", "value": status.get("tombstones", 0)},
        {"quantity": "cache artifact payloads", "value": status.get("artifacts", 0)},
        {"quantity": "cache journal bytes", "value": status.get("bytes", 0)},
    ]


def campaign_schedule_rows(
    schedule, deadline_seconds: Optional[float] = None
) -> List[Dict[str, object]]:
    """Rows describing the simulated worker-pool timeline of a campaign.

    *deadline_seconds* overrides the schedule's own deadline for the
    late-cell report and the met/missed verdict — the what-if question
    ("would this timeline have met a tighter deadline?") the schedule's
    :meth:`~repro.scheduler.pool.PoolSchedule.late_cells` already answers.
    """
    rows = [
        {"quantity": "execution backend", "value": schedule.backend},
        {"quantity": "scheduling policy", "value": schedule.policy},
        {"quantity": "workers", "value": schedule.n_workers},
        {"quantity": "slots per worker", "value": schedule.slots_per_worker},
        {"quantity": "sequential seconds", "value": f"{schedule.sequential_seconds:.0f}"},
        {"quantity": "pooled makespan seconds", "value": f"{schedule.makespan_seconds:.0f}"},
        {"quantity": "critical path seconds", "value": f"{schedule.critical_path_seconds:.0f}"},
        {"quantity": "speedup", "value": f"{schedule.speedup:.2f}x"},
        {"quantity": "slot utilisation", "value": f"{schedule.utilisation:.1%}"},
        {"quantity": "task retries after worker failures", "value": schedule.n_retries},
        {"quantity": "failed workers", "value": len(schedule.failed_workers)},
    ]
    effective_deadline = (
        deadline_seconds
        if deadline_seconds is not None
        else schedule.deadline_seconds
    )
    if effective_deadline is not None:
        late = schedule.late_cells(effective_deadline)
        met = schedule.makespan_seconds <= effective_deadline
        rows.append(
            {
                "quantity": "deadline seconds",
                "value": f"{effective_deadline:.0f}",
            }
        )
        rows.append(
            {
                "quantity": "deadline verdict",
                "value": (
                    "met" if met
                    else f"missed ({len(late)} late cell(s): "
                    + ", ".join(str(index) for index in late[:8])
                    + (", ..." if len(late) > 8 else "")
                    + ")"
                ),
            }
        )
    return rows


def intervention_rows(tickets) -> List[Dict[str, object]]:
    """Rows describing intervention tickets (duck-typed, newest last).

    Each ticket needs ``ticket_id``/``experiment``/``configuration_key``/
    ``category``/``status``/``suspected_change``/``description`` — the
    shape :class:`~repro.core.intervention.InterventionTicket` provides —
    so the reporting layer needs no import of the core package.
    """
    rows = []
    for ticket in tickets:
        rows.append(
            {
                "ticket": ticket.ticket_id,
                "experiment": ticket.experiment,
                "configuration": ticket.configuration_key or "-",
                "category": getattr(ticket.category, "value", ticket.category),
                "status": getattr(ticket.status, "value", ticket.status),
                "suspected change": ticket.suspected_change or "-",
                "reopened": getattr(ticket, "reopen_count", 0),
                "description": ticket.description,
            }
        )
    return rows


def lifecycle_event_rows(events) -> List[Dict[str, object]]:
    """Rows describing fired lifecycle events (duck-typed).

    Each event needs ``sequence``/``name``/``campaign_id``/``payload`` —
    the shape :class:`~repro.scheduler.lifecycle.LifecycleEvent` provides.
    """
    rows = []
    for event in events:
        payload = ", ".join(
            f"{key}={value}" for key, value in sorted(event.payload.items())
        )
        rows.append(
            {
                "seq": event.sequence,
                "event": event.name,
                "campaign": event.campaign_id or "-",
                "payload": payload or "-",
            }
        )
    return rows


def render_campaign_report(
    campaign, deadline_seconds: Optional[float] = None
) -> str:
    """Render the operational summary of one scheduled validation campaign.

    *campaign* is duck-typed: it needs ``n_cells``/``rounds``/``dag``/
    ``schedule``/``cache_statistics`` attributes (the scheduler's
    ``CampaignResult`` provides them).  *deadline_seconds* overrides the
    schedule's deadline for the late-cell verdict.
    """
    counts = campaign.dag.counts_by_kind()
    header_rows = [
        {"quantity": "matrix cells executed", "value": campaign.n_cells},
        {"quantity": "campaign rounds", "value": campaign.rounds},
        {"quantity": "scheduled tasks", "value": len(campaign.dag)},
    ] + [
        {"quantity": f"  {kind} tasks", "value": count}
        for kind, count in sorted(counts.items())
    ]
    rows = (
        header_rows
        + campaign_schedule_rows(
            campaign.schedule, deadline_seconds=deadline_seconds
        )
        + build_cache_rows(campaign.cache_statistics)
    )
    table = format_table(
        ["quantity", "value"], [[row["quantity"], row["value"]] for row in rows]
    )
    return "campaign schedule and build-cache summary\n" + table


__all__ = [
    "MatrixCell",
    "SummaryMatrix",
    "ValidationSummaryBuilder",
    "build_cache_rows",
    "cache_journal_rows",
    "campaign_schedule_rows",
    "intervention_rows",
    "lifecycle_event_rows",
    "render_campaign_report",
]
