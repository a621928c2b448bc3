"""Audits of the CI tooling: the ci.sh stages and the bench marker contract.

The tier-1 invocation (``pytest -x -q -m "not bench"``, see ROADMAP.md)
relies on every test below ``benchmarks/`` carrying the ``bench`` marker —
otherwise slow paper-reproduction benchmarks leak into CI.  The marker is
applied centrally by ``benchmarks/conftest.py``; these tests pin that the
hook stays in place, that it really covers every ``test_bench_*.py`` file,
and that ``scripts/ci.sh`` runs the documented stages.
"""

import os
import re
import stat
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS_DIR = os.path.join(REPO_ROOT, "benchmarks")
CI_SCRIPT = os.path.join(REPO_ROOT, "scripts", "ci.sh")


class TestBenchMarkerAudit:
    def test_conftest_applies_the_bench_marker_centrally(self):
        with open(os.path.join(BENCHMARKS_DIR, "conftest.py")) as handle:
            source = handle.read()
        assert "def pytest_collection_modifyitems" in source
        assert "pytest.mark.bench" in source

    def test_every_bench_module_lives_under_the_marked_directory(self):
        """The conftest marks by path; every test_bench_* file must be there."""
        modules = [
            name
            for name in os.listdir(BENCHMARKS_DIR)
            if re.match(r"test_bench_.*\.py$", name)
        ]
        assert modules, "the benchmark suite should not be empty"
        for name in modules:
            path = os.path.join(BENCHMARKS_DIR, name)
            assert os.path.dirname(path) == BENCHMARKS_DIR

    def test_tier1_deselection_collects_no_benchmarks(self):
        """`-m "not bench"` below benchmarks/ must select zero tests."""
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + environment["PYTHONPATH"]
            if environment.get("PYTHONPATH")
            else ""
        )
        completed = subprocess.run(
            [
                sys.executable, "-m", "pytest", "benchmarks/",
                "-m", "not bench", "--collect-only", "-q", "-p", "no:cacheprovider",
            ],
            cwd=REPO_ROOT,
            env=environment,
            capture_output=True,
            text=True,
            timeout=120,
        )
        selected = [
            line for line in completed.stdout.splitlines() if "::" in line
        ]
        assert selected == [], (
            "benchmarks escaped the bench marker:\n" + "\n".join(selected)
        )
        assert "deselected" in completed.stdout


class TestCiScript:
    def test_ci_script_exists_and_is_executable(self):
        assert os.path.isfile(CI_SCRIPT)
        assert os.stat(CI_SCRIPT).st_mode & stat.S_IXUSR

    def test_ci_script_runs_the_documented_stages(self):
        with open(CI_SCRIPT) as handle:
            source = handle.read()
        # The tier-1 invocation documented in ROADMAP.md ...
        assert 'pytest -x -q -m "not bench"' in source
        # ... the headless example smoke runs ...
        assert "-m examples" in source
        # ... the bench marker audit ...
        assert "--collect-only" in source and "benchmarks/" in source
        # ... and the bench-trend gate, in four stages.
        assert "bench-trends check" in source
        for stage in (
            "stage 1/4: bench marker audit",
            "stage 2/4: tier-1 test suite",
            "stage 3/4: bench-trends gate",
            "stage 4/4: examples smoke run",
        ):
            assert stage in source
        assert "/9" not in source
        # The structural audits run once, as the tier-1 classes below; the
        # script keeps no shell copy of them.
        for audit in (
            "history-ledger write audit",
            "monotonic-clock audit",
            "lifecycle-purity audit",
            "service-purity audit",
            "telemetry-purity audit",
        ):
            assert audit not in source
        assert "grep -rn" not in source


class TestHistoryLedgerWriteAudit:
    """The `history` storage namespace is owned by the ledger.

    A raw ``put`` into the namespace would bypass the append-only journal's
    idempotence and index bookkeeping, so this test rejects literal
    accesses outside ``src/repro/history/``; tier-1 (and so
    ``scripts/ci.sh``) runs it.
    """

    PATTERN = re.compile(
        r"(?:put|create_namespace|namespace)\(\s*[\"']history[\"']"
    )

    def _source_files(self):
        src_root = os.path.join(REPO_ROOT, "src")
        for directory, _subdirectories, filenames in os.walk(src_root):
            for filename in filenames:
                if filename.endswith(".py"):
                    yield os.path.join(directory, filename)

    def test_no_raw_history_namespace_access_outside_the_ledger(self):
        owner = os.path.join(REPO_ROOT, "src", "repro", "history") + os.sep
        violations = []
        for path in self._source_files():
            if path.startswith(owner):
                continue
            with open(path, encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    if self.PATTERN.search(line):
                        violations.append(f"{path}:{line_number}: {line.strip()}")
        assert violations == [], (
            "raw 'history' namespace access outside src/repro/history/ — "
            "write through ValidationHistoryLedger instead:\n"
            + "\n".join(violations)
        )

    def test_the_audit_pattern_catches_a_raw_put(self):
        """The regex really fires on the write shapes it must forbid."""
        for violation in (
            'storage.put("history", "journal_1", {})',
            "storage.namespace('history').put('journal_1', {})",
            'storage.create_namespace("history")',
        ):
            assert self.PATTERN.search(violation)
        # The sanctioned shape — going through the ledger's constant — is
        # not a literal and passes.
        assert not self.PATTERN.search(
            "storage.create_namespace(ValidationHistoryLedger.NAMESPACE)"
        )


class TestLifecyclePurityAudit:
    """Tickets and history ingestion flow through the plugin layer.

    Automated intervention tickets (``InterventionTracker()``) and history
    ingestion (``ingest_cycle()``) are owned by ``src/repro/plugins`` (with
    the defining core/history modules): a direct call elsewhere would
    bypass the lifecycle bus — tickets nobody's observer saw, history the
    regression alerter never ran over.  Tier-1 (and so ``scripts/ci.sh``)
    runs this audit.
    """

    PATTERN = re.compile(r"InterventionTracker\(|ingest_cycle\(")

    #: Repo-relative path prefixes (and one file) sanctioned to construct
    #: trackers or ingest history — the plugin layer and the owning modules.
    ALLOWED = (
        os.path.join("src", "repro", "plugins") + os.sep,
        os.path.join("src", "repro", "history") + os.sep,
        os.path.join("src", "repro", "core", "intervention.py"),
    )

    def _source_files(self):
        src_root = os.path.join(REPO_ROOT, "src")
        for directory, _subdirectories, filenames in os.walk(src_root):
            for filename in filenames:
                if filename.endswith(".py"):
                    yield os.path.join(directory, filename)

    def test_no_direct_tracker_or_ingestion_outside_the_plugin_layer(self):
        violations = []
        for path in self._source_files():
            relative = os.path.relpath(path, REPO_ROOT)
            if any(
                relative == allowed or relative.startswith(allowed)
                for allowed in self.ALLOWED
            ):
                continue
            with open(path, encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    if self.PATTERN.search(line):
                        violations.append(f"{relative}:{line_number}: {line.strip()}")
        assert violations == [], (
            "direct tracker construction or history ingestion outside the "
            "plugin layer — route it through repro.plugins "
            "(new_intervention_tracker / HistoryRecorderPlugin) instead:\n"
            + "\n".join(violations)
        )

    def test_the_audit_pattern_catches_the_forbidden_calls(self):
        """The regex really fires on the shapes it must forbid."""
        for violation in (
            "self.interventions = InterventionTracker()",
            "ledger.ingest_cycle(cell.result, configuration=configuration)",
        ):
            assert self.PATTERN.search(violation)
        # The sanctioned shapes — the plugin-layer factory and the plugin
        # class — pass.
        assert not self.PATTERN.search(
            "self.interventions = new_intervention_tracker()"
        )
        assert not self.PATTERN.search(
            "registry.add_observer(HistoryRecorderPlugin(system))"
        )


class TestSchedulerMonotonicClockAudit:
    """src/repro/scheduler/ must time itself with time.monotonic() only.

    A ``time.time()`` call would tie scheduler timings to a clock NTP can
    step backwards.  Tier-1 (and so ``scripts/ci.sh``) runs this audit.
    """

    PATTERN = re.compile(r"time\.time\(")

    def test_no_wall_clock_calls_in_the_scheduler(self):
        scheduler_root = os.path.join(REPO_ROOT, "src", "repro", "scheduler")
        violations = []
        for directory, _subdirectories, filenames in os.walk(scheduler_root):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                with open(path, encoding="utf-8") as handle:
                    for line_number, line in enumerate(handle, start=1):
                        if self.PATTERN.search(line):
                            violations.append(
                                f"{path}:{line_number}: {line.strip()}"
                            )
        assert violations == [], (
            "wall-clock time.time() call in src/repro/scheduler/ — "
            "use time.monotonic() instead:\n" + "\n".join(violations)
        )

    def test_the_audit_pattern_distinguishes_the_clocks(self):
        assert self.PATTERN.search("started = time.time()")
        assert not self.PATTERN.search("started = time.monotonic()")


class TestServicePurityAudit:
    """src/repro/service/ queues, schedules and bills — it never executes.

    The validation daemon's whole determinism story rests on every queued
    campaign flowing through the one sanctioned entrypoint,
    ``SPSystem.submit``: a backend or scheduler construction under
    ``src/repro/service/`` would open a second execution path around it,
    and a ``time.time()`` call would tie rate limiting to a wall clock NTP
    can step (the token buckets run on an injectable monotonic clock).
    Tier-1 (and so ``scripts/ci.sh``) runs this audit.
    """

    PATTERN = re.compile(
        r"[A-Za-z_]*Backend\(|CampaignScheduler\(|execution_backend\(|time\.time\("
    )

    def _source_files(self):
        service_root = os.path.join(REPO_ROOT, "src", "repro", "service")
        for directory, _subdirectories, filenames in os.walk(service_root):
            for filename in filenames:
                if filename.endswith(".py"):
                    yield os.path.join(directory, filename)

    def test_no_execution_or_wall_clock_in_the_service_layer(self):
        violations = []
        for path in self._source_files():
            with open(path, encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    if self.PATTERN.search(line):
                        violations.append(f"{path}:{line_number}: {line.strip()}")
        assert violations == [], (
            "execution or wall-clock call under src/repro/service/ — "
            "dispatch through SPSystem.submit and time with a monotonic "
            "clock instead:\n" + "\n".join(violations)
        )

    def test_the_audit_pattern_catches_the_forbidden_calls(self):
        """The regex really fires on the shapes it must forbid."""
        for violation in (
            "backend = ShardedBackend(shards=2)",
            "scheduler = CampaignScheduler(system, workers=2)",
            'backend = execution_backend("threads")',
            "now = time.time()",
        ):
            assert self.PATTERN.search(violation)
        # The sanctioned shapes — submitting through the system and the
        # injectable monotonic clock — pass.
        assert not self.PATTERN.search("handle = self.system.submit(spec)")
        assert not self.PATTERN.search("return time.monotonic()")
        assert not self.PATTERN.search("self.clock = clock or monotonic_clock")


class TestTelemetryPurityAudit:
    """Telemetry observes on monotonic clocks; science stays uninstrumented.

    Two rules, run by tier-1 (and so ``scripts/ci.sh``): no
    ``time.time()`` under ``src/repro/telemetry/`` (the registry and
    tracer run on injectable monotonic clocks, so metric timestamps can
    never be stepped by NTP), and no ``repro.telemetry`` import under the
    science layers ``src/repro/hepdata/`` and ``src/repro/environment/``
    (instrumentation wraps the science from the outside; a science module
    importing the observability layer could start influencing the numbers
    it reports).
    """

    CLOCK_PATTERN = re.compile(r"time\.time\(")
    IMPORT_PATTERN = re.compile(r"(?:from|import)\s+repro\.telemetry")

    #: Science layers that must never import the telemetry package.
    SCIENCE_ROOTS = ("hepdata", "environment")

    def _source_files(self, *parts):
        root = os.path.join(REPO_ROOT, "src", "repro", *parts)
        for directory, _subdirectories, filenames in os.walk(root):
            for filename in filenames:
                if filename.endswith(".py"):
                    yield os.path.join(directory, filename)

    def test_no_wall_clock_calls_in_the_telemetry_layer(self):
        violations = []
        for path in self._source_files("telemetry"):
            with open(path, encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    if self.CLOCK_PATTERN.search(line):
                        violations.append(f"{path}:{line_number}: {line.strip()}")
        assert violations == [], (
            "wall-clock time call in src/repro/telemetry/ — use "
            "time.monotonic() (or the injected clock) instead:\n"
            + "\n".join(violations)
        )

    def test_science_layers_do_not_import_telemetry(self):
        violations = []
        for science_root in self.SCIENCE_ROOTS:
            for path in self._source_files(science_root):
                with open(path, encoding="utf-8") as handle:
                    for line_number, line in enumerate(handle, start=1):
                        if self.IMPORT_PATTERN.search(line):
                            violations.append(
                                f"{path}:{line_number}: {line.strip()}"
                            )
        assert violations == [], (
            "repro.telemetry imported from a science layer — hepdata/ and "
            "environment/ must stay instrumentation-free:\n"
            + "\n".join(violations)
        )

    def test_the_audit_patterns_catch_the_forbidden_shapes(self):
        """The regexes really fire on the shapes they must forbid."""
        assert self.CLOCK_PATTERN.search("stamp = time.time()")
        assert not self.CLOCK_PATTERN.search("stamp = time.monotonic()")
        for violation in (
            "from repro.telemetry import Telemetry",
            "import repro.telemetry",
            "from repro.telemetry.metrics import MetricsRegistry",
        ):
            assert self.IMPORT_PATTERN.search(violation)
        # Science importing its own siblings passes.
        assert not self.IMPORT_PATTERN.search(
            "from repro.environment.compilers import Compiler"
        )
