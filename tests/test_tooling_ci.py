"""Audits of the CI tooling: the ci.sh stages and the bench marker contract.

The tier-1 invocation (``pytest -x -q -m "not bench"``, see ROADMAP.md)
relies on every test below ``benchmarks/`` carrying the ``bench`` marker —
otherwise slow paper-reproduction benchmarks leak into CI.  The marker is
applied centrally by ``benchmarks/conftest.py``; these tests pin that the
hook stays in place, that it really covers every ``test_bench_*.py`` file,
that ``scripts/ci.sh`` runs the documented stages, that the work-count
file its third stage compares against is complete, and that
``scripts/work_counts.py`` keeps only count metrics, forgets only its own
seed's recorded digests and fails when a perfbench run does.
"""

import ast
import importlib.util
import json
import os
import re
import stat
import subprocess
import sys

import pytest

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
        # ... and the work-count gate, in four stages.
        assert "scripts/work_counts.py" in source
        # The wall-time trend gate it replaced is gone.
        assert not re.search(r"bench.trends", source)
        for stage in (
            "stage 1/4: bench marker audit",
            "stage 2/4: tier-1 test suite",
            "stage 3/4: work-count gate",
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


class TestWorkCountsFile:
    """``scripts/work_counts.json`` records every exact perfbench count.

    The CI gate diffs it against a fresh run, so it must name exactly the
    benchmark's workloads and its ``count``-unit per-layer metrics: a
    change to the benchmark's metric list fails here until the file is
    re-recorded.
    """

    def test_counts_file_matches_the_benchmark_metric_list(self):
        with open(os.path.join(REPO_ROOT, "scripts", "work_counts.json")) as handle:
            counts = json.load(handle)
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
            benchmark = json.load(handle)
        count_metrics = {
            metric["name"] for metric in benchmark["per_layer"]
            if metric["unit"] == "count"
        }
        assert count_metrics
        assert set(counts) == {"matrix", "service", "nightly"}
        for workload, metrics in counts.items():
            assert set(metrics) == count_metrics, workload
            for name, value in metrics.items():
                assert type(value) is int and value >= 0, (workload, name, value)

    def test_counts_file_is_byte_for_byte_the_scripts_output(self):
        """Sorted keys, one-space indent, trailing newline: the re-record
        redirect reproduces the file, so stage 3's diff shows only counts."""
        with open(os.path.join(REPO_ROOT, "scripts", "work_counts.json")) as handle:
            text = handle.read()
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


@pytest.fixture()
def script(monkeypatch, tmp_path):
    """``scripts/work_counts.py`` as a module, its repo root at *tmp_path*."""
    spec = importlib.util.spec_from_file_location(
        "work_counts", os.path.join(REPO_ROOT, "scripts", "work_counts.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", str(tmp_path))
    return module


class TestWorkCountsScript:
    """``scripts/work_counts.py`` against stubbed perfbench runs."""

    @staticmethod
    def _stub_perfbench(monkeypatch, returncode, stdout):
        commands = []

        def run(command, **kwargs):
            commands.append(command)
            return subprocess.CompletedProcess(command, returncode, stdout, "")

        monkeypatch.setattr(subprocess, "run", run)
        return commands

    def test_forgets_only_the_gate_seeds_recorded_digests(self, script, tmp_path):
        seed = script.SEED
        names = [f"digests/matrix-{seed}-1.txt", f"digests/nightly-{seed}-1.txt",
                 f"reference/matrix-{seed}-2.txt", f"digests/matrix-{seed + 4}-1.txt",
                 f"digests/service-1{seed}-1.txt", f"reference/matrix-{seed + 4}-2.txt"]
        for name in names:
            path = tmp_path / ".perfbench-work" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("0" * 64)
        script.forget_recorded_digests()
        assert sorted(
            path.relative_to(tmp_path / ".perfbench-work").as_posix()
            for path in tmp_path.rglob("*.txt")
        ) == sorted(names[3:])

    def test_forgetting_without_a_work_directory_does_nothing(self, script, tmp_path):
        script.forget_recorded_digests()
        assert list(tmp_path.iterdir()) == []

    def test_keeps_only_the_count_metrics_of_the_final_line(self, script, monkeypatch):
        metrics = {"hepdata.calls": {"value": 207, "unit": "count"},
                   "hepdata.generate_s": {"value": 0.25, "unit": "s"},
                   "cache.hit_ratio": {"value": 0.5, "unit": "ratio"}}
        commands = self._stub_perfbench(
            monkeypatch, 0, "warming up\n" + json.dumps({"metrics": metrics}) + "\n")
        assert script.work_counts("service") == {"hepdata.calls": 207}
        assert commands[0][2:] == ["--workload", "service", "--seed", str(script.SEED),
                                   "--seconds", "1", "--trace", "1"]

    def test_deletes_the_gate_seeds_trace_and_result_after_parsing_a_run(
        self, script, monkeypatch, tmp_path
    ):
        seed = script.SEED
        names = [f"traces/service-{seed}-20261019T071908.json",
                 f"results/service-{seed}-20261019T071912-4448.json",
                 f"traces/nightly-{seed}-20261019T071908.json",
                 f"traces/service-{seed + 4}-20261019T071908.json",
                 f"results/service-1{seed}-20261019T071912-4448.json",
                 f"digests/service-{seed}-1.txt"]
        for name in names:
            path = tmp_path / ".perfbench-work" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{}")
        metrics = {"hepdata.calls": {"value": 207, "unit": "count"}}
        self._stub_perfbench(monkeypatch, 0, json.dumps({"metrics": metrics}) + "\n")
        assert script.work_counts("service") == {"hepdata.calls": 207}
        assert sorted(
            path.relative_to(tmp_path / ".perfbench-work").as_posix()
            for path in tmp_path.rglob("*") if path.is_file()
        ) == sorted(names[2:])

    def test_a_failed_run_exits_non_zero_and_shows_its_output(
        self, script, monkeypatch, capsys
    ):
        self._stub_perfbench(monkeypatch, 1, "science mismatch: HERMES/SL5\n")
        with pytest.raises(SystemExit) as failure:
            script.work_counts("nightly")
        assert failure.value.code == "error: perfbench nightly run failed (exit 1)"
        assert "science mismatch: HERMES/SL5" in capsys.readouterr().err

    def test_main_prints_sorted_counts_for_every_workload(
        self, script, monkeypatch, capsys
    ):
        monkeypatch.setattr(script, "work_counts", lambda workload: {"b.n": 2, "a.n": 1})
        assert script.main() == 0
        expected = {workload: {"a.n": 1, "b.n": 2}
                    for workload in ("matrix", "nightly", "service")}
        assert capsys.readouterr().out == (
            json.dumps(expected, indent=1, sort_keys=True) + "\n")


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


class TestStorageWritePathAudit:
    """Files under src/repro/storage/ are written only by the atomic writer.

    ``CommonStorage.persist`` writes each new or changed file to a temp file
    and renames it over its target (``_replace_file``), so a process killed
    mid-persist leaves every file with its old or its new bytes.  An
    ``open`` for a truncating write (``"w"``, ``"wb"``, ``"x"``) anywhere
    else under ``src/repro/storage/`` would bring truncated files back.
    Tier-1 (and so ``scripts/ci.sh``) runs this audit.
    """

    #: The atomic writer: the one function that may open a file for writing.
    WRITER = (
        os.path.join("src", "repro", "storage", "common_storage.py"),
        "_replace_file",
    )
    OPENERS = {"open", "fdopen"}
    #: An open mode that creates or truncates: one ``w`` or ``x`` among the
    #: other mode characters.
    MODE = re.compile(r"^[rbt+]*[wx][rbt+]*$")

    def _is_truncating_open(self, call):
        function = call.func
        if isinstance(function, ast.Name):
            name = function.id
        else:
            name = getattr(function, "attr", None)
        if name not in self.OPENERS:
            return False
        # The mode is the second argument of open/fdopen, the first of
        # Path.open, or the mode= keyword.
        modes = call.args[:2] + [
            keyword.value for keyword in call.keywords if keyword.arg == "mode"
        ]
        return any(
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and self.MODE.match(mode.value)
            for mode in modes
        )

    def _truncating_opens(self, source):
        """``(line, enclosing function)`` of each truncating open in *source*."""
        found = []

        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                    continue
                if isinstance(child, ast.Call) and self._is_truncating_open(child):
                    found.append((child.lineno, function))
                visit(child, function)

        visit(ast.parse(source), None)
        return found

    def test_storage_opens_files_for_writing_only_in_the_atomic_writer(self):
        storage_root = os.path.join(REPO_ROOT, "src", "repro", "storage")
        violations = []
        writer_opens = 0
        for directory, _subdirectories, filenames in os.walk(storage_root):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                relative = os.path.relpath(path, REPO_ROOT)
                with open(path, encoding="utf-8") as handle:
                    opens = self._truncating_opens(handle.read())
                for line_number, function in opens:
                    if (relative, function) == self.WRITER:
                        writer_opens += 1
                    else:
                        violations.append(f"{relative}:{line_number} in {function}")
        assert violations == [], (
            "truncating open under src/repro/storage/ outside the atomic "
            "writer — write through _replace_file instead:\n"
            + "\n".join(violations)
        )
        # The audit still recognises the writer it exempts.
        assert writer_opens == 1

    def test_the_audit_catches_an_in_place_write(self):
        """An in-place ``open(path, "w")`` write is caught; reads are not."""
        source = (
            "def persist(path, document):\n"
            "    with open(path, \"w\", encoding=\"utf-8\") as handle:\n"
            "        json.dump(document, handle)\n"
            "    with open(path, encoding=\"utf-8\") as handle:\n"
            "        handle.read()\n"
            "    with open(path, \"rb\") as handle:\n"
            "        handle.read()\n"
            "    open(path, mode=\"x\").close()\n"
            "    pathlib.Path(path).open(\"wb\").close()\n"
            "def _replace_file(path, data):\n"
            "    with os.fdopen(descriptor, \"wb\") as handle:\n"
            "        handle.write(data)\n"
        )
        assert self._truncating_opens(source) == [
            (2, "persist"), (8, "persist"), (9, "persist"), (11, "_replace_file"),
        ]


class TestStorageDirtyKeyAudit:
    """Only the storage module touches a namespace's documents and dirty keys.

    ``CommonStorage.persist`` writes back, into the directory a storage was
    loaded from, only the keys ``put`` or ``delete`` marked dirty.  A write
    to ``StorageNamespace._documents`` (or ``_dirty``) from anywhere else
    would bypass that bookkeeping and be left off disk without a sound, so
    this audit rejects every read or assignment of either attribute under
    ``src/`` outside ``src/repro/storage/common_storage.py``.  Tier-1 (and
    so ``scripts/ci.sh``) runs it.
    """

    OWNER = os.path.join("src", "repro", "storage", "common_storage.py")
    ATTRIBUTES = {"_documents", "_dirty"}
    REFLECTION = {"getattr", "setattr", "delattr", "hasattr"}

    def _accesses(self, source):
        """Line numbers of each access to a guarded attribute in *source*:
        ``x._documents`` in any context, or ``getattr(x, "_dirty")`` and
        its siblings."""
        found = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and node.attr in self.ATTRIBUTES:
                found.append(node.lineno)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self.REFLECTION
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in self.ATTRIBUTES
            ):
                found.append(node.lineno)
        return sorted(found)

    def test_only_the_storage_module_touches_documents_and_dirty_keys(self):
        violations = []
        owner_accesses = 0
        for directory, _subdirectories, filenames in os.walk(
            os.path.join(REPO_ROOT, "src")
        ):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                relative = os.path.relpath(path, REPO_ROOT)
                with open(path, encoding="utf-8") as handle:
                    lines = self._accesses(handle.read())
                if relative == self.OWNER:
                    owner_accesses += len(lines)
                    continue
                violations += [f"{relative}:{line}" for line in lines]
        assert violations == [], (
            "StorageNamespace._documents or _dirty touched outside "
            f"{self.OWNER} — go through put/get/delete instead, or persist "
            "will not write the change:\n" + "\n".join(violations)
        )
        # The audit still recognises the accesses of the module it exempts.
        assert owner_accesses > 0

    def test_the_audit_catches_reads_writes_and_reflection(self):
        source = (
            "namespace._documents[key] = document\n"
            "documents = storage.namespace('results')._documents\n"
            "namespace._dirty.clear()\n"
            "del namespace._documents[key]\n"
            "getattr(namespace, '_documents')\n"
            "setattr(namespace, '_dirty', set())\n"
            "namespace.put(key, document)\n"
            "documents = namespace.items()\n"
        )
        assert self._accesses(source) == [1, 2, 3, 4, 5, 6]


class TestPhysicsMemoAudit:
    """Every memo in the physics code is bounded.

    The physics runs for every cell of every night, so a memo there grows
    with the number of distinct keys it sees.  Under ``src/repro/hepdata/``
    and in ``src/repro/_common.py`` this audit rejects ``functools.cache``
    and any ``functools.lru_cache`` without an explicit finite ``maxsize``
    (a positive int, literal or computed from module-level constants);
    tier-1 (and so ``scripts/ci.sh``) runs it.
    """

    AUDITED = (
        os.path.join("src", "repro", "hepdata"),
        os.path.join("src", "repro", "_common.py"),
    )

    def _audited_files(self):
        for relative in self.AUDITED:
            path = os.path.join(REPO_ROOT, relative)
            if path.endswith(".py"):
                yield path
                continue
            for directory, _subdirectories, filenames in os.walk(path):
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(directory, filename)

    @staticmethod
    def _is_lru_cache(node):
        return (isinstance(node, ast.Name) and node.id == "lru_cache") or (
            isinstance(node, ast.Attribute) and node.attr == "lru_cache"
        )

    @staticmethod
    def _value(node, constants):
        """The value of the constant expression *node*, or None."""
        try:
            return eval(  # the audited source is this repository's own
                compile(ast.Expression(node), "<audit>", "eval"),
                {"__builtins__": {}},
                dict(constants),
            )
        except Exception:
            return None

    def _memos(self, source):
        """``(unbounded, bounded)`` memo line numbers in *source*."""
        tree = ast.parse(source)
        constants = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                constants[node.targets[0].id] = self._value(node.value, constants)
        unbounded, bounded, calls = [], [], set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                # functools.cache by name, or lru_cache under another name.
                if any(
                    name.name == "cache" or (name.name == "lru_cache" and name.asname)
                    for name in node.names
                ):
                    unbounded.append(node.lineno)
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "cache"
                and getattr(node.value, "id", None) == "functools"
            ):
                unbounded.append(node.lineno)
            elif isinstance(node, ast.Call) and self._is_lru_cache(node.func):
                calls.add(id(node.func))
                sizes = [
                    self._value(size, constants)
                    for size in node.args[:1] + [
                        keyword.value
                        for keyword in node.keywords if keyword.arg == "maxsize"
                    ]
                ]
                finite = sizes and all(type(size) is int and size > 0 for size in sizes)
                (bounded if finite else unbounded).append(node.lineno)
        # A bare @lru_cache: no explicit bound.
        unbounded += [
            node.lineno for node in ast.walk(tree)
            if self._is_lru_cache(node) and id(node) not in calls
        ]
        return sorted(unbounded), sorted(bounded)

    def test_physics_memos_are_bounded(self):
        violations, bounded = [], []
        for path in self._audited_files():
            with open(path, encoding="utf-8") as handle:
                unbounded_lines, bounded_lines = self._memos(handle.read())
            relative = os.path.relpath(path, REPO_ROOT)
            violations += [f"{relative}:{line}" for line in unbounded_lines]
            bounded += [f"{relative}:{line}" for line in bounded_lines]
        assert violations == [], (
            "unbounded memo in the physics code — give functools.lru_cache "
            "an explicit finite maxsize:\n" + "\n".join(violations)
        )
        # The audit recognises the rounding-offset memo's decorator shape.
        assert any(
            entry.startswith(os.path.join("src", "repro", "hepdata", "numerics.py"))
            for entry in bounded
        )

    def test_the_audit_flags_every_unbounded_shape(self):
        source = (
            "import functools\n"
            "from functools import cache\n"
            "from functools import lru_cache as memo\n"
            "SIZE = 1 << 10\n"
            "NOTHING = None\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def a(x): ...\n"
            "@functools.cache\n"
            "def b(x): ...\n"
            "@functools.lru_cache\n"
            "def c(x): ...\n"
            "@functools.lru_cache(None)\n"
            "def d(x): ...\n"
            "@functools.lru_cache(maxsize=NOTHING)\n"
            "def e(x): ...\n"
            "f = functools.lru_cache()(len)\n"
            "@functools.lru_cache(maxsize=SIZE, typed=True)\n"
            "def g(x): ...\n"
            "from functools import lru_cache\n"
            "@lru_cache(256)\n"
            "def h(x): ...\n"
        )
        assert self._memos(source) == ([2, 3, 6, 8, 10, 12, 14, 16], [17, 20])


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
