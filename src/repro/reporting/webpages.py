"""Script-based status web pages.

"Script-based web pages are used to record and display available validation
runs for a given description and indicate the status of the compilation for
the individual packages or tests within table cells, which are linked to a
corresponding output file."  The :class:`StatusPageGenerator` produces those
pages as self-contained static HTML: an index of runs per description, a
per-run page with one coloured cell per test linking to the stored output
document, and a campaign page showing the worker-pool timeline and
build-cache accounting of a scheduled campaign.

Pages are stored as ``{"html": ...}`` documents in the ``reports`` namespace;
:meth:`~repro.storage.common_storage.CommonStorage.persist` writes them as
browsable ``.html`` files, so every relative link on a page (``index`` →
``runpage_<id>.html``, run page → ``../results/<key>.json``) resolves inside
the persisted directory tree.
"""

from __future__ import annotations

import html
import json
from typing import Dict, List, Optional

from repro._common import StorageError
from repro.core.jobs import JobStatus, ValidationRun
from repro.storage.bookkeeping import TagRegistry, format_timestamp
from repro.storage.catalog import RunCatalog
from repro.storage.common_storage import CommonStorage


#: Cell colours per job status, in the spirit of the original pages.
STATUS_COLOURS = {
    "passed": "#4caf50",
    "failed": "#f44336",
    "skipped": "#ff9800",
    "not-run": "#9e9e9e",
}

#: Colour for statuses outside STATUS_COLOURS (e.g. "empty", "unknown").
FALLBACK_COLOUR = "#9e9e9e"


class StatusPageGenerator:
    """Generates static HTML status pages and stores them on the common storage."""

    NAMESPACE = "reports"

    def __init__(
        self, storage: CommonStorage, catalog: Optional[RunCatalog] = None
    ) -> None:
        # The catalog is only consulted by the run index; pages that render
        # plain row data (campaign, trends, service) work without one.
        self.storage = storage
        self.catalog = catalog
        self.storage.create_namespace(self.NAMESPACE)

    # -- per-run page ---------------------------------------------------------
    def run_page(self, run: ValidationRun) -> str:
        """Render the status page of one validation run."""
        rows = []
        for job in run.jobs:
            colour = STATUS_COLOURS.get(job.status.value, FALLBACK_COLOUR)
            # Run pages persist below <dir>/reports/, the output documents
            # below <dir>/results/ — the link must climb out of reports/.
            output_link = (
                f'<a href="../results/{html.escape(job.output_key)}.json">output</a>'
                if job.output_key
                else "&mdash;"
            )
            rows.append(
                "<tr>"
                f"<td>{html.escape(job.test_name)}</td>"
                f"<td>{html.escape(job.kind.value)}</td>"
                f'<td style="background-color:{colour}">{html.escape(job.status.value)}</td>'
                f"<td>{output_link}</td>"
                f"<td>{html.escape('; '.join(job.messages[:2]))}</td>"
                "</tr>"
            )
        header = (
            f"<h1>Validation run {html.escape(run.run_id)}</h1>"
            f"<p>{html.escape(run.experiment)} on {html.escape(run.configuration_key)} "
            f"&mdash; {html.escape(run.description)} &mdash; "
            f"{format_timestamp(run.started_at)}</p>"
            f"<p>{run.n_passed} passed, {run.n_failed} failed, {run.n_skipped} skipped "
            f"of {run.n_jobs} tests</p>"
        )
        table = (
            "<table border='1' cellspacing='0' cellpadding='3'>"
            "<tr><th>test</th><th>kind</th><th>status</th><th>output</th><th>messages</th></tr>"
            + "".join(rows)
            + "</table>"
        )
        page = _wrap_page(f"sp-system run {run.run_id}", header + table)
        self.storage.put(self.NAMESPACE, f"runpage_{run.run_id}", {"html": page})
        return page

    # -- index page -----------------------------------------------------------
    def index_page(self, tag_registry: Optional[TagRegistry] = None) -> str:
        """Render the index of all recorded runs, grouped by description tag."""
        if self.catalog is None:
            raise StorageError(
                "the run index needs a RunCatalog; construct the "
                "StatusPageGenerator with one"
            )
        records = self.catalog.all()
        groups: Dict[str, List] = {}
        for record in records:
            groups.setdefault(record.description, []).append(record)
        sections = []
        for description in sorted(groups):
            rows = []
            for record in groups[description]:
                # Look the actual status up: a skipped or not-run record gets
                # its own colour, anything unknown the grey fallback.
                colour = STATUS_COLOURS.get(record.overall_status, FALLBACK_COLOUR)
                rows.append(
                    "<tr>"
                    f"<td><a href='runpage_{html.escape(record.run_id)}.html'>"
                    f"{html.escape(record.run_id)}</a></td>"
                    f"<td>{html.escape(record.experiment)}</td>"
                    f"<td>{html.escape(record.configuration_key)}</td>"
                    f"<td>{format_timestamp(record.timestamp)}</td>"
                    f'<td style="background-color:{colour}">'
                    f"{html.escape(record.overall_status)}</td>"
                    f"<td>{record.n_passed}/{record.n_tests}</td>"
                    "</tr>"
                )
            sections.append(
                f"<h2>{html.escape(description)}</h2>"
                "<table border='1' cellspacing='0' cellpadding='3'>"
                "<tr><th>run</th><th>experiment</th><th>configuration</th>"
                "<th>time</th><th>status</th><th>passed</th></tr>"
                + "".join(rows)
                + "</table>"
            )
        body = "<h1>sp-system validation runs</h1>" + "".join(sections)
        page = _wrap_page("sp-system validation runs", body)
        self.storage.put(self.NAMESPACE, "index", {"html": page})
        return page

    # -- campaign page --------------------------------------------------------
    #: Timeline rows beyond this count are elided to keep the page browsable.
    MAX_TIMELINE_ROWS = 200

    def campaign_page(
        self,
        result,
        cache_journal: Optional[Dict] = None,
        history_link: bool = False,
        deadline_seconds: Optional[float] = None,
        tickets: Optional[List] = None,
        events: Optional[List] = None,
    ) -> str:
        """Render the status page of one scheduled validation campaign.

        *result* is duck-typed (the scheduler's ``CampaignResult``): the page
        shows the pool timeline, per-worker utilisation, the build-cache
        accounting (including cross-experiment shared hits and the per-donor
        breakdown) and one row per matrix cell linking into the existing run
        pages.  Run pages for the campaign's cells are generated alongside,
        so the links are live once the storage is persisted.  With
        *cache_journal* (the ``BuildCache.journal_status`` mapping, passed
        as plain data to keep this layer scheduler-free), the page also
        reports the persisted journal's size.  With *history_link*, the
        page links to the validation-history trends page rendered by
        :meth:`trends_page`.  *deadline_seconds* overrides the schedule's
        own deadline for the late-cell marks and the met/missed verdict.
        *tickets* and *events* are plain row dictionaries (the reporting
        :func:`~repro.reporting.summary.intervention_rows` /
        :func:`~repro.reporting.summary.lifecycle_event_rows` helpers
        produce them) rendered as open-intervention and fired-event tables.
        """
        schedule = result.schedule
        for cell in result.cells:
            if not self.storage.exists(self.NAMESPACE, f"runpage_{cell.run.run_id}"):
                self.run_page(cell.run)
        effective_deadline = (
            deadline_seconds
            if deadline_seconds is not None
            else schedule.deadline_seconds
        )
        late = set(schedule.late_cells(effective_deadline))
        header = (
            "<h1>Validation campaign</h1>"
            f"<p>{result.n_cells} matrix cells over {schedule.n_workers} worker(s), "
            f"backend <b>{html.escape(schedule.backend)}</b>, "
            f"policy <b>{html.escape(schedule.policy)}</b> &mdash; "
            f"makespan {schedule.makespan_seconds:,.0f} s "
            f"(sequential {schedule.sequential_seconds:,.0f} s, "
            f"{schedule.speedup:.2f}x speedup, "
            f"utilisation {schedule.utilisation:.1%})</p>"
        )
        if history_link:
            header += (
                "<p><a href='trends.html'>validation history: trends and "
                "regressions</a></p>"
            )
        spec = result.spec
        if spec is not None:
            # The submitted spec travels with the page, so an operator can
            # copy it into `campaign --spec file.json` and replay the run.
            spec_json = json.dumps(spec.to_dict(), indent=2, sort_keys=True)
            header += (
                "<h2>Campaign spec</h2>"
                f"<pre>{html.escape(spec_json)}</pre>"
            )
        if effective_deadline is not None:
            verdict = (
                "met"
                if schedule.makespan_seconds <= effective_deadline
                else f"missed &mdash; {len(late)} late cell(s)"
            )
            header += (
                f"<p>deadline {effective_deadline:,.0f} s: {verdict}</p>"
            )
        cache = result.cache_statistics
        shared_hits = getattr(cache, "shared_hits", 0)
        cache_table = (
            "<h2>Build cache</h2>"
            "<table border='1' cellspacing='0' cellpadding='3'>"
            "<tr><th>hits</th><th>misses</th><th>stores</th>"
            "<th>evictions</th><th>hit rate</th>"
            "<th>shared hits (cross-experiment)</th></tr>"
            f"<tr><td>{cache.hits}</td><td>{cache.misses}</td>"
            f"<td>{cache.stores}</td><td>{cache.evictions}</td>"
            f"<td>{cache.hit_rate:.1%}</td>"
            f"<td>{shared_hits}</td></tr>"
            "</table>"
        )
        donated = getattr(cache, "donated_by_experiment", {})
        if donated:
            cache_table += "<p>hits donated across experiments: " + ", ".join(
                f"{html.escape(experiment)} &rarr; {count}"
                for experiment, count in sorted(donated.items())
            ) + "</p>"
        if cache_journal is not None:
            cache_table += (
                f"<p>persisted cache journal: {cache_journal.get('records', 0)} "
                f"record(s) ({cache_journal.get('entries', 0)} entries, "
                f"{cache_journal.get('tombstones', 0)} tombstones), "
                f"{cache_journal.get('artifacts', 0)} artifact payload(s), "
                f"{cache_journal.get('bytes', 0):,} bytes</p>"
            )
        worker_rows = []
        for worker_index in range(schedule.n_workers):
            busy = schedule.busy_seconds_per_worker.get(worker_index, 0.0)
            n_tasks = len(schedule.assignments_for_worker(worker_index))
            status = "failed" if worker_index in schedule.failed_workers else "healthy"
            worker_rows.append(
                "<tr>"
                f"<td>worker {worker_index}</td><td>{status}</td>"
                f"<td>{n_tasks}</td><td>{busy:,.0f}</td>"
                "</tr>"
            )
        worker_table = (
            "<h2>Per-worker utilisation</h2>"
            "<table border='1' cellspacing='0' cellpadding='3'>"
            "<tr><th>worker</th><th>state</th><th>tasks</th><th>busy seconds</th></tr>"
            + "".join(worker_rows)
            + "</table>"
        )
        cell_rows = []
        for cell in result.cells:
            run = cell.run
            colour = STATUS_COLOURS.get(run.overall_status, FALLBACK_COLOUR)
            end_seconds = schedule.cell_end_seconds.get(cell.index)
            finished = f"{end_seconds:,.0f}" if end_seconds is not None else "&mdash;"
            deadline_note = " (late)" if cell.index in late else ""
            cell_rows.append(
                "<tr>"
                f"<td>{cell.index}</td>"
                f"<td>{html.escape(cell.experiment)}</td>"
                f"<td>{html.escape(cell.configuration_key)}</td>"
                f"<td><a href='runpage_{html.escape(run.run_id)}.html'>"
                f"{html.escape(run.run_id)}</a></td>"
                f'<td style="background-color:{colour}">'
                f"{html.escape(run.overall_status)}</td>"
                f"<td>{finished}{deadline_note}</td>"
                "</tr>"
            )
        cell_table = (
            "<h2>Matrix cells</h2>"
            "<table border='1' cellspacing='0' cellpadding='3'>"
            "<tr><th>cell</th><th>experiment</th><th>configuration</th>"
            "<th>run</th><th>status</th><th>finished at (s)</th></tr>"
            + "".join(cell_rows)
            + "</table>"
        )
        timeline_rows = []
        for assignment in schedule.assignments[: self.MAX_TIMELINE_ROWS]:
            timeline_rows.append(
                "<tr>"
                f"<td>{html.escape(assignment.task_id)}</td>"
                f"<td>worker {assignment.worker_index}</td>"
                f"<td>{assignment.start_seconds:,.0f}</td>"
                f"<td>{assignment.end_seconds:,.0f}</td>"
                f"<td>{assignment.attempt}</td>"
                "</tr>"
            )
        elided = len(schedule.assignments) - len(timeline_rows)
        timeline_table = (
            "<h2>Pool timeline</h2>"
            "<table border='1' cellspacing='0' cellpadding='3'>"
            "<tr><th>task</th><th>worker</th><th>start (s)</th>"
            "<th>end (s)</th><th>attempt</th></tr>"
            + "".join(timeline_rows)
            + "</table>"
            + (f"<p>... and {elided} more task(s)</p>" if elided > 0 else "")
        )
        lifecycle_tables = ""
        if tickets is not None:
            lifecycle_tables += self._rows_table(
                "Open intervention tickets",
                ["ticket", "experiment", "configuration", "category",
                 "status", "suspected change", "description"],
                tickets,
            )
        if events is not None:
            lifecycle_tables += self._rows_table(
                "Fired lifecycle events",
                ["seq", "event", "campaign", "payload"],
                events,
            )
        page = _wrap_page(
            "sp-system validation campaign",
            header + cache_table + worker_table + cell_table
            + timeline_table + lifecycle_tables,
        )
        self.storage.put(self.NAMESPACE, "campaign", {"html": page})
        return page

    # -- validation history page -----------------------------------------------
    def trends_page(
        self,
        trend_rows: List[Dict[str, object]],
        regression_rows: List[Dict[str, object]],
        diff_rows: Optional[List[Dict[str, object]]] = None,
        history_status: Optional[Dict[str, int]] = None,
        evolution_rows: Optional[List[Dict[str, object]]] = None,
    ) -> str:
        """Render the longitudinal trends / regressions page.

        Every argument is plain row data (the ``trend_rows`` /
        ``regression_rows`` / ``diff_rows`` helpers of the history package
        produce them), so the reporting layer needs no import of the
        history subsystem.  The page is stored as the ``trends`` report
        document, which the campaign page links to.
        """
        body = "<h1>Validation history: trends and regressions</h1>"
        if history_status:
            body += (
                f"<p>{history_status.get('events', 0)} validation event(s) "
                f"across {history_status.get('campaigns', 0)} campaign(s) and "
                f"{history_status.get('cells', 0)} matrix cell(s); "
                f"{history_status.get('evolutions', 0)} recorded environment "
                "evolution event(s)</p>"
            )
        body += self._rows_table(
            "Per-experiment health across campaigns",
            ["experiment", "campaign", "cells", "validated", "broken",
             "pass_fraction"],
            trend_rows,
        )
        highlight = {
            "regressed": STATUS_COLOURS["failed"],
            "flaky": STATUS_COLOURS["skipped"],
            "never-validated": FALLBACK_COLOUR,
            "healthy": STATUS_COLOURS["passed"],
        }
        body += self._rows_table(
            "Cell classification (regressions first)",
            ["experiment", "configuration", "classification", "events",
             "flips", "first_bad", "suspected_change"],
            regression_rows,
            colour_column="classification",
            colours=highlight,
        )
        if diff_rows is not None:
            body += self._rows_table(
                "Campaign diff (flipped cells)",
                ["experiment", "configuration", "change", "from", "to"],
                diff_rows,
            )
        if evolution_rows:
            body += self._rows_table(
                "Recorded environment evolution events",
                ["year", "kind", "subject", "detail"],
                evolution_rows,
            )
        page = _wrap_page("sp-system validation history", body)
        self.storage.put(self.NAMESPACE, "trends", {"html": page})
        return page

    # -- live service dashboard -------------------------------------------------
    def service_page(
        self,
        snapshot: List[Dict[str, object]],
        tenants: List[Dict[str, object]],
        submissions: List[Dict[str, object]],
        worker: Optional[Dict[str, object]] = None,
        events: Optional[List[Dict[str, object]]] = None,
        metrics: Optional[List[List[object]]] = None,
    ) -> str:
        """Render the validation-service live dashboard.

        Every argument is plain row data (the :mod:`repro.service.telemetry`
        helpers produce it; *metrics* is
        ``MetricsRegistry.summary_rows()`` output), so the reporting layer
        needs no import of the service or telemetry subsystems.  The daemon
        re-renders this page on every heartbeat; it is stored as the
        ``service`` report document.
        """
        body = "<h1>Validation service: live status</h1>"
        if worker:
            state = "alive" if worker.get("alive") else "stopped"
            body += (
                f"<p>heartbeat worker: {state}, "
                f"{worker.get('beats', 0)} beat(s), "
                f"{worker.get('failures', 0)} failure(s), "
                f"{worker.get('restarts', 0)} restart(s)</p>"
            )
            last_error = worker.get("last_error")
            if last_error:
                body += (
                    "<p style='color:#f44336'>last worker error: "
                    f"{html.escape(str(last_error))}</p>"
                )
        body += self._rows_table(
            "Service snapshot", ["metric", "value"], snapshot
        )
        body += self._rows_table(
            "Tenants (fair share, rate limits, usage accounting)",
            ["tenant", "weight", "rate/s", "queued", "submitted", "completed",
             "failed", "cancelled", "rejected", "cells", "build s",
             "cache hits", "shared hits", "donated", "cache bytes"],
            tenants,
        )
        highlight = {
            "completed": STATUS_COLOURS["passed"],
            "failed": STATUS_COLOURS["failed"],
            "cancelled": STATUS_COLOURS["skipped"],
            "running": "#2196f3",
            "queued": FALLBACK_COLOUR,
        }
        body += self._rows_table(
            "Submissions",
            ["submission", "tenant", "priority", "status", "campaign",
             "cells", "error"],
            submissions,
            colour_column="status",
            colours=highlight,
        )
        if metrics:
            body += self._rows_table(
                "Telemetry metrics",
                ["kind", "series", "value"],
                [
                    {"kind": kind, "series": series, "value": value}
                    for kind, series, value in metrics
                ],
            )
        if events:
            body += self._rows_table(
                "Recent lifecycle events",
                ["seq", "event", "campaign", "payload"],
                events,
            )
        page = _wrap_page("sp-system validation service", body)
        self.storage.put(self.NAMESPACE, "service", {"html": page})
        return page

    # -- telemetry page ----------------------------------------------------------
    def telemetry_page(
        self,
        phase_rows: List[List[object]],
        metric_rows: Optional[List[List[object]]] = None,
        span_count: int = 0,
    ) -> str:
        """Render the per-phase timing + metrics report.

        *phase_rows* is ``SpanTracer.phase_rows()`` output
        (``[category, name, calls, cumulative, self]``) and *metric_rows*
        is ``MetricsRegistry.summary_rows()`` output — plain row data, so
        the reporting layer needs no import of the telemetry subsystem.
        Stored as the ``telemetry`` report document
        (``reports/telemetry.html`` once persisted).
        """
        body = (
            "<h1>Telemetry: hot-path timings and metrics</h1>"
            f"<p>{span_count} recorded span(s)</p>"
        )
        body += self._rows_table(
            "Per-phase timings (seconds, cumulative vs self)",
            ["category", "span", "calls", "cumulative s", "self s"],
            [
                {
                    "category": category,
                    "span": name,
                    "calls": calls,
                    "cumulative s": round(cumulative, 6),
                    "self s": round(self_seconds, 6),
                }
                for category, name, calls, cumulative, self_seconds in phase_rows
            ],
        )
        if metric_rows is not None:
            body += self._rows_table(
                "Metric series",
                ["kind", "series", "value"],
                [
                    {"kind": kind, "series": series, "value": value}
                    for kind, series, value in metric_rows
                ],
            )
        page = _wrap_page("sp-system telemetry", body)
        self.storage.put(self.NAMESPACE, "telemetry", {"html": page})
        return page

    def _rows_table(
        self,
        title: str,
        columns: List[str],
        rows: List[Dict[str, object]],
        colour_column: Optional[str] = None,
        colours: Optional[Dict[str, str]] = None,
    ) -> str:
        """A titled HTML table over plain row dictionaries."""
        if not rows:
            return f"<h2>{html.escape(title)}</h2><p>nothing recorded</p>"
        cells = []
        for row in rows:
            rendered = []
            for column in columns:
                value = html.escape(str(row.get(column, "")))
                if colour_column == column and colours:
                    colour = colours.get(str(row.get(column)), FALLBACK_COLOUR)
                    rendered.append(
                        f'<td style="background-color:{colour}">{value}</td>'
                    )
                else:
                    rendered.append(f"<td>{value}</td>")
            cells.append("<tr>" + "".join(rendered) + "</tr>")
        return (
            f"<h2>{html.escape(title)}</h2>"
            "<table border='1' cellspacing='0' cellpadding='3'>"
            "<tr>"
            + "".join(f"<th>{html.escape(column)}</th>" for column in columns)
            + "</tr>"
            + "".join(cells)
            + "</table>"
        )

    # -- summary page ------------------------------------------------------------
    def summary_page(self, matrix_text: str) -> str:
        """Render the figure-3 style summary matrix as a preformatted page."""
        body = (
            "<h1>Summary of the validation tests</h1>"
            f"<pre>{html.escape(matrix_text)}</pre>"
        )
        page = _wrap_page("sp-system summary", body)
        self.storage.put(self.NAMESPACE, "summary", {"html": page})
        return page


def _wrap_page(title: str, body: str) -> str:
    """Wrap a body in a minimal self-contained HTML document."""
    return (
        "<!DOCTYPE html>"
        "<html><head>"
        f"<title>{html.escape(title)}</title>"
        "<meta charset='utf-8'/>"
        "<style>body{font-family:sans-serif} td,th{font-size:12px}</style>"
        "</head><body>"
        + body
        + "</body></html>"
    )


__all__ = ["StatusPageGenerator", "STATUS_COLOURS", "FALLBACK_COLOUR"]
