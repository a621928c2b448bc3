"""Per-layer trace taken from outside the program.

The traced run wraps the public calls of each layer (see :func:`install`)
with span recorders installed from this file; nothing in
``src/`` knows it is being traced.  A span is ``(name, start, end, parent)``
on one thread's stack; spans and counts stay in memory and are written out
once, at the end of the run.  Every ``*_s`` metric is *self* time: the
call's duration minus the durations of the spans nested inside it, so a
layer is never charged for the layers it calls.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Records spans and counts for the wrapped calls of one traced run."""

    def __init__(self) -> None:
        #: [name, start, end, parent index] per span, in start order.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.queue_wait_s = 0.0
        self._enqueued: Dict[str, float] = {}
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- span bookkeeping ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, owner: type, attribute: str, name: str,
             after: Optional[Callable] = None, before: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        *before(args, kwargs)* returns a state for *after(args, kwargs,
        result, span, state)*; both run outside the call's own span, inside
        a ``trace.bookkeeping`` span, so their cost is excluded from every
        layer's self time.
        """
        original = owner.__dict__[attribute]
        is_classmethod = isinstance(original, classmethod)
        function = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                mark = tracer._open(BOOKKEEPING)
                state = before(args, kwargs)
                tracer._close(mark)
            index = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer.counts[name] += 1
            if after is not None:
                mark = tracer._open(BOOKKEEPING)
                after(args, kwargs, result, tracer.spans[index], state)
                tracer._close(mark)
            return result

        setattr(owner, attribute, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attribute, original))

    def count(self, owner: type, attribute: str, name: str, unless_inside: str) -> None:
        """Count calls of ``owner.attribute`` without a span, except calls
        made while a span named *unless_inside* is open on this thread."""
        function = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(function)
        def counted(*args, **kwargs):
            spans = tracer.spans
            if not any(spans[index][0] == unless_inside for index in tracer._stack()):
                tracer.counts[name] += 1
            return function(*args, **kwargs)

        setattr(owner, attribute, counted)
        self._patches.append((owner, attribute, function))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Summed self time per span name."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None and end is not None:
                children[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            if end is not None:
                totals[name] += (end - start) - children[index]
        return totals

    def total_seconds(self) -> Dict[str, float]:
        """Summed wall duration per span name (children included)."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _parent in self.spans:
            if end is not None:
                totals[name] += end - start
        return totals

    def write(self, path: str) -> None:
        """Write spans and counts out (called once, after the run)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


# -- the wrapped layers -------------------------------------------------------------
def _tree_files(directory: str, names) -> Dict[str, bytes]:
    """path -> bytes of every file below the named namespace directories."""
    contents = {}
    for name in names:
        folder = os.path.join(directory, name)
        if not os.path.isdir(folder):
            continue
        for entry in os.scandir(folder):
            if entry.is_file():
                with open(entry.path, "rb") as handle:
                    contents[entry.path] = handle.read()
    return contents


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls (see README.md for the table)."""
    from repro.buildsys.builder import BuildTask, PackageBuilder
    from repro.core.diagnosis import FailureDiagnosisEngine
    from repro.core.regression import RegressionDetector as RunComparison
    from repro.core.runner import ValidationRunner
    from repro.core.spsystem import SPSystem
    from repro.hepdata.analysis import PhysicsAnalysis
    from repro.hepdata.generator import MonteCarloGenerator
    from repro.hepdata.reconstruction import EventReconstruction
    from repro.hepdata.simulation import DetectorSimulation
    from repro.history import RegressionDetector as HistoryRegressions
    from repro.history import ValidationHistoryLedger
    from repro.reporting.webpages import StatusPageGenerator
    from repro.scheduler.backends import EXECUTION_BACKENDS
    from repro.scheduler.cache import BuildCache
    from repro.scheduler.campaign import CampaignScheduler
    from repro.scheduler.lifecycle import PluginRegistry
    from repro.service import ValidationService
    from repro.storage.common_storage import CommonStorage, StorageNamespace

    counts = tracer.counts

    def count_events(args, kwargs, result, span, state):
        counts["hepdata.events"] += len(result)

    tracer.wrap(MonteCarloGenerator, "generate", "hepdata.generate", after=count_events)
    tracer.wrap(DetectorSimulation, "simulate", "hepdata.simulate")
    tracer.wrap(EventReconstruction, "reconstruct", "hepdata.reconstruct")
    tracer.wrap(PhysicsAnalysis, "run", "hepdata.analysis")
    tracer.wrap(ValidationRunner, "run", "runner.run")
    tracer.wrap(RunComparison, "compare_to_reference", "core.compare")
    tracer.wrap(FailureDiagnosisEngine, "diagnose_run", "core.diagnose")
    tracer.wrap(PackageBuilder, "build_package", "buildsys.build")

    def cache_outcome(args, kwargs, result, span, state):
        counts["cache.misses" if result is None else "cache.hits"] += 1

    tracer.wrap(BuildCache, "lookup", "cache.lookup", after=cache_outcome)
    tracer.wrap(CampaignScheduler, "run_requests", "scheduler.campaign")
    tracer.wrap(SPSystem, "submit", "spsystem.submit")
    tracer.wrap(SPSystem, "validate", "scheduler.cell_pass")

    def count_tasks(args, kwargs, result, span, state):
        request = args[1]
        counts["scheduler.tasks"] += len(request.dag.tasks())
        counts["scheduler.build_payloads"] += sum(
            1 for payload in request.payloads.values() if isinstance(payload, BuildTask)
        )

    for backend in EXECUTION_BACKENDS.values():
        tracer.wrap(backend, "execute", "scheduler.dispatch", after=count_tasks)

    def loaded(args, kwargs, result, span, state):
        directory = args[1] if len(args) > 1 else kwargs["directory"]
        counts["storage.load_docs"] += result.total_documents()
        counts["storage.load_bytes"] += sum(
            entry.stat().st_size
            for name in result.namespaces()
            if os.path.isdir(os.path.join(directory, name))
            for entry in os.scandir(os.path.join(directory, name))
            if entry.is_file()
        )

    def before_persist(args, kwargs):
        storage = args[0]
        directory = args[1] if len(args) > 1 else kwargs["directory"]
        return _tree_files(directory, storage.namespaces())

    def persisted(args, kwargs, result, span, state):
        counts["storage.persist_files"] += len(result)
        for path in result:
            with open(path, "rb") as handle:
                data = handle.read()
            counts["storage.persist_bytes"] += len(data)
            if state.get(path) == data:
                counts["storage.unchanged_files"] += 1

    tracer.wrap(CommonStorage, "load", "storage.load", after=loaded)
    tracer.wrap(CommonStorage, "persist", "storage.persist",
                before=before_persist, after=persisted)
    # Every document write goes through StorageNamespace.put: the
    # CommonStorage.put pass-through, the service queue and ledger, tickets
    # and the journal.  The puts that load makes to fill a fresh installation
    # from disk are not writes.
    tracer.count(StorageNamespace, "put", "storage.put", unless_inside="storage.load")

    def journalled(args, kwargs, result, span, state):
        counts["journal.records"] += int(result)

    tracer.wrap(SPSystem, "restore_build_cache", "journal.restore")
    tracer.wrap(SPSystem, "persist_build_cache", "journal.persist", after=journalled)

    def ingested(args, kwargs, result, span, state):
        if result is not None:
            counts["history.events"] += 1

    tracer.wrap(SPSystem, "restore_history", "history.mount")
    tracer.wrap(ValidationHistoryLedger, "ingest_cycle", "history.ingest", after=ingested)
    tracer.wrap(HistoryRegressions, "findings", "history.findings")

    def enqueued(args, kwargs, result, span, state):
        tracer._enqueued[result.submission_id] = span[2]

    def dispatched(args, kwargs, result, span, state):
        if result is not None:
            queued_at = tracer._enqueued.pop(result.submission_id, None)
            if queued_at is not None:
                tracer.queue_wait_s += span[1] - queued_at

    tracer.wrap(ValidationService, "__init__", "service.resume")
    tracer.wrap(ValidationService, "submit", "service.submit", after=enqueued)
    tracer.wrap(ValidationService, "run_next", "service.dispatch", after=dispatched)
    tracer.wrap(ValidationService, "beat", "service.beat")

    for attribute in sorted(StatusPageGenerator.__dict__):
        if attribute.endswith("_page") and callable(StatusPageGenerator.__dict__[attribute]):
            tracer.wrap(StatusPageGenerator, attribute, "reporting.page")
    tracer.wrap(PluginRegistry, "emit", "lifecycle.emit")


def child_cpu_seconds() -> float:
    """CPU seconds of reaped child processes (the pool workers)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def layer_metrics(tracer: Tracer, child_cpu_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run (setup.* and the overhead
    are added by the driver)."""
    own = tracer.self_seconds()
    total = tracer.total_seconds()
    counts = tracer.counts
    hepdata = ("hepdata.generate", "hepdata.simulate", "hepdata.reconstruct",
               "hepdata.analysis")
    lookups = counts["cache.hits"] + counts["cache.misses"]
    persisted = counts["storage.persist_files"]
    campaign_s = total.get("scheduler.campaign", 0.0)
    return {
        "hepdata.generate_s": own.get("hepdata.generate", 0.0),
        "hepdata.simulate_s": own.get("hepdata.simulate", 0.0),
        "hepdata.reconstruct_s": own.get("hepdata.reconstruct", 0.0),
        "hepdata.analysis_s": own.get("hepdata.analysis", 0.0),
        "hepdata.calls": sum(counts[name] for name in hepdata),
        "hepdata.events": counts["hepdata.events"],
        "runner.cells": counts["runner.run"],
        "runner.self_s": own.get("runner.run", 0.0),
        "core.compare_s": own.get("core.compare", 0.0),
        "core.compare_calls": counts["core.compare"],
        "core.diagnose_s": own.get("core.diagnose", 0.0),
        "core.diagnose_calls": counts["core.diagnose"],
        "buildsys.build_s": own.get("buildsys.build", 0.0),
        "buildsys.builds": counts["buildsys.build"],
        "cache.hits": counts["cache.hits"],
        "cache.misses": counts["cache.misses"],
        "cache.hit_ratio": counts["cache.hits"] / lookups if lookups else 0.0,
        "scheduler.cell_pass_s": own.get("scheduler.cell_pass", 0.0),
        "scheduler.dispatch_s": own.get("scheduler.dispatch", 0.0),
        "scheduler.tasks": counts["scheduler.tasks"],
        "scheduler.build_payloads": counts["scheduler.build_payloads"],
        "scheduler.child_cpu_s": child_cpu_s,
        "scheduler.redo_share": (
            total.get("scheduler.dispatch", 0.0) / campaign_s if campaign_s else 0.0
        ),
        "storage.load_s": own.get("storage.load", 0.0),
        "storage.load_docs": counts["storage.load_docs"],
        "storage.load_mb": counts["storage.load_bytes"] / 1e6,
        "storage.persist_s": own.get("storage.persist", 0.0),
        "storage.persist_files": persisted,
        "storage.persist_mb": counts["storage.persist_bytes"] / 1e6,
        "storage.puts": counts["storage.put"],
        "storage.unchanged_share": (
            counts["storage.unchanged_files"] / persisted if persisted else 0.0
        ),
        "journal.restore_s": own.get("journal.restore", 0.0),
        "journal.persist_s": own.get("journal.persist", 0.0),
        "journal.records": counts["journal.records"],
        "history.mount_s": own.get("history.mount", 0.0),
        "history.ingest_s": own.get("history.ingest", 0.0),
        "history.events": counts["history.events"],
        "history.findings_s": own.get("history.findings", 0.0),
        "service.resume_s": own.get("service.resume", 0.0),
        "service.submit_s": own.get("service.submit", 0.0),
        "service.dispatch_s": own.get("service.dispatch", 0.0),
        "service.beat_s": own.get("service.beat", 0.0),
        "service.submits": counts["service.submit"],
        "service.queue_wait_s": tracer.queue_wait_s,
        "reporting.pages_s": own.get("reporting.page", 0.0),
        "reporting.pages": counts["reporting.page"],
        "lifecycle.emit_s": own.get("lifecycle.emit", 0.0),
        "lifecycle.events": counts["lifecycle.emit"],
    }
