"""The benchmark's three workloads, their seeded inputs and their science digest.

Each workload drives the program only through its public entry points
(``SPSystem.submit`` and ``repro.cli.main``, called in process) on inputs
generated here from the seed; the program never sees the seed itself.

* ``matrix``  -- one ``SPSystem.submit`` of R rounds of the 3 HERA
  experiments x 5 standard configurations on the ``processes`` backend.
* ``service`` -- one client in a closed loop of ``submit-async`` calls from
  three tenants, drained by ``serve`` every 6 submissions.
* ``nightly`` -- N cron nights of ``campaign --record-history --plugin
  regression-alerts`` followed by the ``history regressions --quiet`` gate.

Run as a script, this module executes one workload in a fresh interpreter
and writes its result as JSON (the driver, ``run.py``, does this so the
timed process carries neither the set-up probes nor the reference replay).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from typing import Dict, List, Optional, Sequence

import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("matrix", "service", "nightly")
EXPERIMENTS = ("H1", "HERMES", "ZEUS")
#: The standard configurations provisioned by every installation.
CONFIGURATIONS = (
    "SL5_32bit_gcc4.1",
    "SL5_32bit_gcc4.4",
    "SL5_64bit_gcc4.1",
    "SL5_64bit_gcc4.4",
    "SL6_64bit_gcc4.4",
)
CELLS = tuple((experiment, key) for experiment in EXPERIMENTS for key in CONFIGURATIONS)

MATRIX_SCALE = 0.12
NIGHTLY_SCALE = "0.12"
SERVICE_SCALE = "0.05"
#: Tenant -> fair-share weight; submissions are drawn in the same 2:1:1 mix.
TENANTS = (("alpha", 2), ("beta", 1), ("gamma", 1))
#: Share of submissions sent to the high-priority lane.
HIGH_PRIORITY_SHARE = 0.2
#: Submissions between two ``serve`` calls.  Fixed, so that every seed
#: grows the directory in the same steps: with a seeded 4-8, the directory
#: held 23 to 28 cells at the median submission, depending on the seed,
#: which alone spread ``submit_p50_s`` by ~0.10 between seeds.
SUBMISSIONS_PER_SERVE = 6
#: Work per second of --seconds.  At the benchmark's --seconds 10 on the
#: 2-vCPU reference box a matrix run measures ~10 s and a nightly run
#: ~13 s (its first ~6 nights run slower than the rest, so 16 nights keep
#: the median among the steady ones).  Every service call loads and
#: rewrites the whole growing directory, so a service run costs
#: O(calls^2): 60 calls take ~40 s and leave six samples beyond p90; 100
#: calls would take ~100 s, more than the benchmark's time budget allows.
MATRIX_ROUNDS_PER_SECOND = 1.2
NIGHTS_PER_SECOND = 1.6
SUBMISSIONS_PER_SECOND = 6


def size_for(workload: str, seconds: float) -> int:
    """Rounds, submissions or nights a run of *seconds* measures (at least
    two samples, so every percentile is defined)."""
    if workload == "matrix":
        return max(2, round(seconds * MATRIX_ROUNDS_PER_SECOND))
    if workload == "nightly":
        return max(2, round(seconds * NIGHTS_PER_SECOND))
    return max(10, round(seconds * SUBMISSIONS_PER_SECOND))


def science_size(workload: str) -> int:
    """The smallest size at which every cell of *workload* runs once."""
    return len(CELLS) if workload == "service" else 1


# -- seeded inputs -------------------------------------------------------------
def matrix_cells(seed: int, rounds: int) -> List[tuple]:
    """R rounds of the 15-cell matrix, each round in a seeded order."""
    rng = random.Random(f"matrix:{seed}")
    cells: List[tuple] = []
    for _ in range(rounds):
        round_cells = list(CELLS)
        rng.shuffle(round_cells)
        cells.extend(round_cells)
    return cells


def service_plan(seed: int, submissions: int) -> List[tuple]:
    """``("submit", tenant, cell, priority)`` and ``("serve",)`` steps.

    Cells come in seeded permutations of the 15-cell matrix, so every seed
    submits nearly the same mix of cells (and grows the same storage).
    """
    rng = random.Random(f"service:{seed}")
    mix = [name for name, weight in TENANTS for _ in range(weight)]
    cells: List[tuple] = []
    while len(cells) < submissions:
        cells += rng.sample(CELLS, len(CELLS))
    plan: List[tuple] = []
    for index in range(submissions):
        priority = "high" if rng.random() < HIGH_PRIORITY_SHARE else "normal"
        plan.append(("submit", rng.choice(mix), cells[index], priority))
        if (index + 1) % SUBMISSIONS_PER_SERVE == 0 or index == submissions - 1:
            plan.append(("serve",))
    return plan


def nightly_cells(seed: int, nights: int) -> List[List[tuple]]:
    """One seeded ordering of the full 15-cell matrix per night."""
    rng = random.Random(f"nightly:{seed}")
    orders = []
    for _ in range(nights):
        night = list(CELLS)
        rng.shuffle(night)
        orders.append(night)
    return orders


def _spec(cells: Sequence[tuple], **options):
    from repro.scheduler.spec import CampaignSpec, ValidationRequest

    return CampaignSpec(
        requests=tuple(ValidationRequest(experiment, key) for experiment, key in cells),
        **options,
    )


def _write_spec(path: str, spec) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec.to_dict(), handle)
    return path


# -- science digest ------------------------------------------------------------
#: Run-document fields that say which run it was and when it ran, not what
#: it found.
RUN_IDENTITY = ("run_id", "timestamp", "timestamp_readable")


def _digest(documents) -> str:
    hasher = hashlib.sha256()
    for document in documents:
        hasher.update(json.dumps(document, sort_keys=True).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def storage_documents(storage) -> List[tuple]:
    """``(key, document)`` pairs of an installation's ``results`` namespace:
    its run documents, catalogue records and test outputs (schedules,
    pages and heartbeats live in other namespaces)."""
    return list(storage.namespace("results").items())


def directory_documents(directory: str) -> List[tuple]:
    """:func:`storage_documents` of a ``results`` namespace persisted below
    *directory*."""
    folder = os.path.join(directory, "results")
    documents = []
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), encoding="utf-8") as handle:
            documents.append((name[:-len(".json")], json.load(handle)))
    return documents


def cell_science(documents) -> Dict[str, List[str]]:
    """``"EXPERIMENT/CONFIGURATION"`` -> the distinct digests of the science
    its runs produced.

    A run's science is its run document without :data:`RUN_IDENTITY`, plus
    the test outputs stored under its run id, keyed by test name.  It
    depends on the cell and the workload's scale only, not on the seed or
    on the run's place in the campaign, so every run of a cell has one
    digest and it can be compared with the ones committed in science.json.
    """
    runs = {document["run_id"]: document for key, document in documents
            if key.startswith("run_")}
    outputs: Dict[str, Dict[str, object]] = {run_id: {} for run_id in runs}
    for key, document in documents:
        run_id, _, test = key.partition("_")
        if run_id in outputs:
            outputs[run_id][test] = document
    science: Dict[str, set] = {}
    for run_id, document in runs.items():
        body = {name: value for name, value in document.items() if name not in RUN_IDENTITY}
        cell = f"{document['experiment']}/{document['configuration_key']}"
        science.setdefault(cell, set()).add(_digest([body, outputs[run_id]]))
    return {cell: sorted(digests) for cell, digests in sorted(science.items())}


def matrix_reference_digest(seed: int, rounds: int) -> str:
    """The matrix science replayed in process on the ``simulated`` backend."""
    system = _matrix_system()
    system.submit(_matrix_spec(seed, rounds, backend="simulated"))
    return _digest(storage_documents(system.storage))


def _directory_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, names in os.walk(directory)
        for name in names
    )


# -- the workloads -------------------------------------------------------------
def _matrix_system():
    from repro.core.spsystem import SPSystem
    from repro.experiments import build_hera_experiments

    system = SPSystem()
    system.provision_standard_images()
    for experiment in build_hera_experiments(scale=MATRIX_SCALE, shared_externals=True):
        system.register_experiment(experiment)
    return system


def _matrix_spec(seed: int, rounds: int, backend: str):
    return _spec(
        matrix_cells(seed, rounds),
        workers=1,
        slots_per_worker=2,
        backend=backend,
        record_history=False,
    )


class Outcome:
    """What one run of a workload measured and produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.latencies: List[float] = []
        self.cells = 0
        self.wall_s = 0.0
        self.digest = ""
        self.science: Dict[str, List[str]] = {}
        self.storage_bytes = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def digest_science(self, documents: List[tuple]) -> None:
        self.digest = _digest(documents)
        self.science = cell_science(documents)

    def as_dict(self) -> Dict[str, object]:
        return dict(vars(self))


def _run_matrix(seed: int, rounds: int, workdir: str, outcome: Outcome) -> None:
    system = _matrix_system()
    spec = _matrix_spec(seed, rounds, backend="processes")
    stamps: List[float] = []
    outcome.attempted = len(spec.requests)
    start = time.perf_counter()
    try:
        handle = system.submit(spec, on_cell_complete=lambda _cell: stamps.append(time.perf_counter()))
    except Exception as error:  # counted and reported; the run still reports
        outcome.wall_s = time.perf_counter() - start
        outcome.errors.append(f"submit raised {type(error).__name__}: {error}")
        # The raised exception, or every cell it left unfinished.
        outcome.failed = max(1, len(spec.requests) - len(stamps))
        return
    outcome.wall_s = time.perf_counter() - start
    # Latency from submission to each round's full-matrix verdict: every
    # round is submitted at once, so round k's verdict is in when k x 15
    # cells have completed.
    outcome.latencies = [stamp - start for stamp in stamps[len(CELLS) - 1::len(CELLS)]]
    runs = handle.result().runs()
    outcome.cells = len(runs)
    if outcome.cells != len(spec.requests):
        outcome.fail(f"{outcome.cells} runs for {len(spec.requests)} requested cells")
    outcome.digest_science(storage_documents(system.storage))
    # No storage directory: the in-memory documents as JSON bytes.
    outcome.storage_bytes = sum(
        len(json.dumps(document, sort_keys=True))
        for name in system.storage.namespaces()
        for _key, document in system.storage.namespace(name).items()
    )


def _cli(outcome: Outcome, argv: List[str]) -> float:
    """One in-process CLI call; returns its latency. An exit code other
    than 0 or a raised exception counts as one failed operation."""
    from repro.cli import main

    outcome.attempted += 1
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = main(argv)
    except Exception as error:  # counted, reported, and the loop goes on
        code = f"{type(error).__name__}: {error}"
    latency = time.perf_counter() - start
    if code != 0:
        outcome.fail(f"{' '.join(argv[:2])} -> {code}: {captured.getvalue()[-300:]}")
    return latency


def _run_service(seed: int, submissions: int, workdir: str, outcome: Outcome) -> None:
    storage = os.path.join(workdir, "storage")
    specs = os.path.join(workdir, "specs")
    os.makedirs(specs, exist_ok=True)
    spec_files = {
        cell: _write_spec(os.path.join(specs, f"{cell[0]}-{cell[1]}.json"), _spec([cell]))
        for cell in CELLS
    }
    tenant_flags = []
    for name, weight in TENANTS:
        tenant_flags += ["--tenant", f"{name}:{weight}"]
    plan = service_plan(seed, submissions)
    start = time.perf_counter()
    for step in plan:
        if step[0] == "submit":
            _kind, tenant, cell, priority = step
            outcome.latencies.append(_cli(outcome, [
                "submit-async", "--storage-dir", storage, "--tenant", tenant,
                "--spec", spec_files[cell], "--priority", priority,
            ]))
        else:
            _cli(outcome, ["serve", "--storage-dir", storage, "--scale", SERVICE_SCALE]
                 + tenant_flags)
    outcome.wall_s = time.perf_counter() - start
    outcome.cells = _completed_cells(storage)
    service = os.path.join(storage, "service")
    statuses = []
    for name in sorted(os.listdir(service)):
        if name.startswith("submission_"):
            with open(os.path.join(service, name), encoding="utf-8") as handle:
                statuses.append(json.load(handle).get("status"))
    if statuses != ["completed"] * submissions or outcome.cells != submissions:
        outcome.fail(f"{outcome.cells} cells for {submissions} submissions, "
                     f"statuses {sorted(set(map(str, statuses)))}")
    outcome.digest_science(directory_documents(storage))
    outcome.storage_bytes = _directory_bytes(storage)


def _run_nightly(seed: int, nights: int, workdir: str, outcome: Outcome) -> None:
    output = os.path.join(workdir, "storage")
    specs = os.path.join(workdir, "specs")
    os.makedirs(specs, exist_ok=True)
    spec_files = [
        _write_spec(os.path.join(specs, f"night-{index:03d}.json"), _spec(cells))
        for index, cells in enumerate(nightly_cells(seed, nights))
    ]
    start = time.perf_counter()
    for spec_file in spec_files:
        outcome.latencies.append(_cli(outcome, [
            "campaign", "--spec", spec_file, "--output", output, "--scale", NIGHTLY_SCALE,
            "--record-history", "--plugin", "regression-alerts",
        ]))
        _cli(outcome, ["history", "regressions", "--storage-dir", output, "--quiet"])
    outcome.wall_s = time.perf_counter() - start
    outcome.cells = _completed_cells(output)
    if outcome.cells != nights * len(CELLS):
        outcome.fail(f"{outcome.cells} cells for {nights} nights")
    outcome.digest_science(directory_documents(output))
    outcome.storage_bytes = _directory_bytes(output)


def _completed_cells(directory: str) -> int:
    """Catalogue records persisted below *directory* (one per completed cell)."""
    folder = os.path.join(directory, "results")
    return sum(1 for name in os.listdir(folder) if name.startswith("run_"))


RUNNERS = {"matrix": _run_matrix, "service": _run_service, "nightly": _run_nightly}


def run(workload: str, seed: int, size: int, workdir: str, tracer=None) -> Dict[str, object]:
    """Run one workload in this process; returns what it measured."""
    outcome = Outcome()
    os.makedirs(workdir, exist_ok=True)
    child_cpu_before = layers.child_cpu_seconds()
    if tracer is not None:
        layers.install(tracer)
    try:
        RUNNERS[workload](seed, size, workdir, outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = outcome.as_dict()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # getrusage has no peak for a process tree: the workload process plus
    # its largest pool child (ru_maxrss is in KiB on Linux).
    result["peak_rss_bytes"] = (own + children) * 1024
    if tracer is not None:
        result["layers"] = layers.layer_metrics(
            tracer, layers.child_cpu_seconds() - child_cpu_before)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", required=True)
    arguments = parser.parse_args(argv)
    tracer = layers.Tracer() if arguments.traced else None
    result = run(arguments.workload, arguments.seed, arguments.size, arguments.workdir, tracer)
    if tracer is not None:
        tracer.write(os.path.join(arguments.workdir, "trace.json"))
    with open(arguments.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
