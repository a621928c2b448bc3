"""Exact work counts of every perfbench workload, as the CI gate compares them.

    python3 scripts/work_counts.py                               # print the counts
    python3 scripts/work_counts.py > scripts/work_counts.json    # re-record them

Runs each perfbench workload once at a tiny size with tracing on
(``perfbench/run.py --workload W --seed 3 --seconds 1 --trace 1``) and
prints every per-layer metric whose unit is ``count`` as sorted JSON,
``{workload: {metric: value}}``.  These counts -- physics calls, cache
lookups, storage files loaded and written, ... -- repeat exactly across
runs of one seed, so unlike a wall time they can be compared exactly.
``scripts/ci.sh`` diffs the output against the committed
``scripts/work_counts.json``; a change meant to alter the work
re-records the file, and its diff states the change in work.

Exits 1, printing the run's output, when a perfbench run fails: a cell
whose science differs from ``perfbench/science.json``, a twin and traced
run of one seed that disagree, or a failed operation.  After each run it
parses, it deletes the trace and result files perfbench left for the gate
seed under ``.perfbench-work/``, so repeated gates do not pile them up.
Stdlib only; it changes nothing under ``perfbench/``.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("matrix", "service", "nightly")
SEED = 3


def forget_recorded_digests() -> None:
    """Remove the digests earlier runs of the gate seed recorded.

    perfbench records the first run of a seed and checks later runs
    against it; a record left by an older program would fail this one.
    The twin and traced run of each workload (and, on ``matrix``, the
    simulated replay) still check runs of the program under test.
    """
    work = os.path.join(ROOT, ".perfbench-work")
    for pattern in (os.path.join(work, "digests", f"*-{SEED}-*.txt"),
                    os.path.join(work, "reference", f"matrix-{SEED}-*.txt")):
        for path in glob.glob(pattern):
            os.remove(path)


def forget_run_files(workload: str) -> None:
    """Remove the trace and result files of *workload*'s runs at the gate
    seed; the gate reads a run's counts from its output, not from them."""
    work = os.path.join(ROOT, ".perfbench-work")
    for directory in ("traces", "results"):
        for path in glob.glob(os.path.join(work, directory, f"{workload}-{SEED}-*.json")):
            os.remove(path)


def work_counts(workload: str) -> dict:
    """The ``count``-unit per-layer metrics of one tiny traced run."""
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"error: perfbench {workload} run failed "
                         f"(exit {completed.returncode})")
    metrics = json.loads(completed.stdout.splitlines()[-1])["metrics"]
    forget_run_files(workload)
    return {name: metric["value"] for name, metric in metrics.items()
            if metric["unit"] == "count"}


def main() -> int:
    forget_recorded_digests()
    counts = {workload: work_counts(workload) for workload in WORKLOADS}
    print(json.dumps(counts, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
