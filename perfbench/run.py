"""Repo benchmark driver: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {matrix,service,nightly} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --record-science

``--trace 0`` runs the workload untraced in a fresh interpreter, then
times several fresh-interpreter set-up probes, checks the science and
prints the end-to-end metrics.  ``--trace 1`` runs an untraced twin and a
traced run of the same inputs and prints the per-layer metrics plus the
tracing overhead.  Every metric is printed by name with its unit; the last
stdout line is the JSON result.  The exit code is 1 when a check fails.
``--record-science`` rewrites science.json, the per-cell science every
run is checked against, from the current program.  See README.md for the
workloads, the metrics and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
#: The committed science digest of every cell of every workload.
SCIENCE = os.path.join(HERE, "science.json")

#: Set-up probes per run; setup_s is their median.
PROBES = 7


def metric_units(section: str) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under *section*."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def probe_loop_seconds() -> float:
    """A fixed pure-Python loop: host-speed metadata, never a rescaling factor."""
    start = time.perf_counter()
    total = 0
    for index in range(1_000_000):
        total += index * index % 7
    return time.perf_counter() - start


def git_sha() -> str:
    """HEAD of the checkout ("unknown" outside a git repository)."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False).stdout.strip()
    except OSError:
        head = ""
    return head or "unknown"


def percentile(values: Sequence[float], fraction: float) -> float:
    """The *fraction* quantile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[round(fraction * 100) - 1]


# -- child processes -----------------------------------------------------------
def run_workload(workload: str, seed: int, size: int, workdir: str, traced: bool) -> Dict:
    """Run one workload in a fresh interpreter and return its result."""
    out = os.path.join(workdir, "result.json")
    command = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
               "--seed", str(seed), "--size", str(size), "--workdir", workdir, "--out", out]
    if traced:
        command.append("--traced")
    # Flush the previous run's writes and deletions first, so their
    # writeback is not timed here.
    os.sync()
    subprocess.run(command, check=True, timeout=170)
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    if traced:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        shutil.move(os.path.join(workdir, "trace.json"), os.path.join(
            WORK, "traces", f"{workload}-{seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"))
    return result


def setup_probe(workload: str, directory: str) -> Dict[str, float]:
    """Time one fresh interpreter from spawn to ready; returns its phases."""
    command = [sys.executable, os.path.join(HERE, "probe.py"), workload, directory]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as process:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
        process.stdout.read()
        if process.wait(timeout=60) != 0 or not line:
            raise RuntimeError(f"set-up probe for {workload} failed")
    phases = json.loads(line)
    phases["setup_s"] = elapsed
    return phases


def setup_probes(workload: str, directory: str, count: int) -> Dict[str, object]:
    """Median of each phase over *count* probes, plus every probe."""
    os.sync()
    runs = [setup_probe(workload, directory) for _ in range(count)]
    medians: Dict[str, object] = {
        key: statistics.median(run[key] for run in runs) for key in runs[0]}
    medians["probes"] = runs
    return medians


# -- checks --------------------------------------------------------------------
def committed_science() -> Dict[str, Dict[str, str]]:
    """workload -> cell -> the science digest every run of the cell must give."""
    with open(SCIENCE, encoding="utf-8") as handle:
        return json.load(handle)


def record_science() -> int:
    """Rewrite science.json from one small run of each workload, in which
    every cell runs once.  Only for a change meant to alter the science."""
    science = {}
    for workload in workloads.WORKLOADS:
        workdir = os.path.join(WORK, f"science-{workload}-{os.getpid()}")
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            result = run_workload(workload, 0, workloads.science_size(workload), workdir, False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        cells = result["science"]
        if result["failed"] or len(cells) != len(workloads.CELLS) or any(
                len(digests) != 1 for digests in cells.values()):
            print(f"error: {workload} gave no single science per cell: {result['errors']}",
                  file=sys.stderr)
            return 1
        science[workload] = {cell: digests[0] for cell, digests in cells.items()}
    with open(SCIENCE, "w", encoding="utf-8") as handle:
        json.dump(science, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {SCIENCE}")
    return 0


def _recorded(path: str, make: Callable[[], str]) -> str:
    """The digest stored at *path*; stores ``make()`` there first if none is."""
    if not os.path.isfile(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(make() + "\n")
    with open(path, encoding="utf-8") as handle:
        return handle.read().strip()


def check(workload: str, seed: int, size: int, results: List[Dict],
          science: Optional[Dict[str, str]] = None) -> List[str]:
    """Science checks; each mismatch is one failed operation.

    Every cell must give the science committed in science.json, so a
    program change that alters the physics fails on every seed.  The
    whole ``results`` namespace, run ids included, must also repeat
    across runs of one seed and, on ``matrix``, equal a ``simulated``
    replay of the same requests.
    """
    science = committed_science()[workload] if science is None else science
    problems = []
    for result in results:
        wrong = [f"{cell} {', '.join(digest[:12] for digest in digests)} "
                 f"!= {science.get(cell, 'none')[:12]}"
                 for cell, digests in result["science"].items()
                 if digests != [science.get(cell)]]
        if wrong:
            problems.append("science differs from science.json: " + "; ".join(wrong))
    digests = [result["digest"] for result in results]
    if workload == "matrix":
        reference = _recorded(os.path.join(WORK, "reference", f"matrix-{seed}-{size}.txt"),
                              lambda: workloads.matrix_reference_digest(seed, size))
        problems += [f"digest {digest[:12]} != simulated replay {reference[:12]}"
                     for digest in digests if digest != reference]
    recorded = _recorded(os.path.join(WORK, "digests", f"{workload}-{seed}-{size}.txt"),
                         lambda: digests[0])
    problems += [f"digest {digest[:12]} != earlier run of this seed {recorded[:12]}"
                 for digest in digests if digest != recorded]
    return problems


# -- metrics -------------------------------------------------------------------
def end_to_end(result: Dict, setup: Dict[str, float]) -> Dict[str, float]:
    latencies = result["latencies"]
    return {
        "setup_s": setup["setup_s"],
        "cells_per_s": result["cells"] / result["wall_s"],
        "submit_p50_s": statistics.median(latencies),
        "submit_p90_s": percentile(latencies, 0.90),
        "storage_mb": result["storage_bytes"] / 1e6,
        "peak_rss_mb": result["peak_rss_bytes"] / 1e6,
    }


def per_layer(twin: Dict, traced: Dict, setup: Dict[str, float]) -> Dict[str, float]:
    metrics = dict(traced["layers"])
    for phase in ("import", "provision", "experiments", "mount"):
        metrics[f"setup.{phase}_s"] = setup[f"{phase}_s"]
    metrics["trace.overhead"] = (traced["cells"] / traced["wall_s"]) / (
        twin["cells"] / twin["wall_s"])
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-science", action="store_true",
                        help="rewrite science.json from the current program and exit")
    arguments = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources below {ROOT}/src", file=sys.stderr)
        return 2
    if arguments.record_science:
        return record_science()
    if None in (arguments.workload, arguments.seed, arguments.seconds):
        parser.error("--workload, --seed and --seconds are required")
    workload, seed = arguments.workload, arguments.seed
    size = workloads.size_for(workload, arguments.seconds)
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    loop_before = probe_loop_seconds()
    try:
        if arguments.trace:
            twin = run_workload(workload, seed, size, os.path.join(workdir, "twin"), False)
            traced = run_workload(workload, seed, size, os.path.join(workdir, "traced"), True)
            results = [twin, traced]
            setup = setup_probes(workload, os.path.join(workdir, "traced", "storage"), 3)
            metrics = per_layer(twin, traced, setup)
            units = metric_units("per_layer")
        else:
            result = run_workload(workload, seed, size, os.path.join(workdir, "run"), False)
            results = [result]
            setup = setup_probes(workload, os.path.join(workdir, "run", "storage"), PROBES)
            metrics = end_to_end(result, setup)
            units = metric_units("end_to_end")
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                               "disagree with BENCHMARK.json")
        problems = check(workload, seed, size, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    loop_after = probe_loop_seconds()
    # Each result also makes the science checks: science.json, the seed's
    # earlier runs and, on matrix, the simulated replay.
    attempted = sum(result["attempted"] for result in results) + len(results) * (
        3 if workload == "matrix" else 2)
    failed = sum(result["failed"] for result in results) + len(problems)
    errors = [error for result in results for error in result["errors"]] + problems
    record = {
        "workload": workload, "seed": seed, "seconds": arguments.seconds, "size": size,
        "trace": arguments.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "probe_loop_before_s": loop_before,
        "probe_loop_after_s": loop_after, "failed_ratio": failed / max(attempted, 1),
        "setup_probes": setup["probes"],
        "errors": errors, "metrics": metrics,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(WORK, "results", f"{workload}-{seed}-{stamp}-{os.getpid()}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for error in errors:
        print(f"FAILED: {error}")
    print(f"{workload} seed={seed} size={size} sha={record['git_sha'][:12]} "
          f"nproc={record['nproc']} python={record['python']} "
          f"probe_loop={loop_before:.4f}s/{loop_after:.4f}s")
    print(f"  failed_ratio = {record['failed_ratio']:.4f} ratio ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
