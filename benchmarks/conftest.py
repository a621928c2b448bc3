"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (or one
ablation) and prints the corresponding rows/series, so that running
``pytest benchmarks/ --benchmark-only -s`` reproduces the content of the
evaluation section.  The timing numbers reported by pytest-benchmark are
secondary; the printed rows are the reproduction artefact.  They are also
written below ``benchmarks/_results/``, which git ignores: a local run leaves
the tables behind to inspect without changing the tracked tree.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence

import pytest


RESULTS_DIR = os.path.join(os.path.dirname(__file__), "_results")
_BENCHMARKS_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(config, items):
    """Mark everything under benchmarks/ with the ``bench`` marker.

    Tier-1 CI can then deselect the (slow) reproduction benchmarks with
    ``pytest -m "not bench"`` while a plain ``pytest`` run keeps collecting
    them as before.
    """
    for item in items:
        if str(item.fspath).startswith(_BENCHMARKS_DIR + os.sep):
            item.add_marker(pytest.mark.bench)


def emit(experiment_id: str, title: str, rows: Sequence[Dict[str, object]],
         notes: str = "") -> None:
    """Print the rows of one reproduced table/figure and persist them as JSON."""
    from repro.reporting.export import rows_to_text

    print()
    print(f"=== {experiment_id}: {title} ===")
    if notes:
        print(notes)
    print(rows_to_text(list(rows)))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment_id.lower().replace(' ', '_')}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"title": title, "notes": notes, "rows": list(rows)}, handle, indent=2)


def emit_text(experiment_id: str, title: str, text: str) -> None:
    """Print a preformatted reproduction artefact (e.g. the figure-3 matrix)."""
    print()
    print(f"=== {experiment_id}: {title} ===")
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment_id.lower().replace(' ', '_')}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


@pytest.fixture(scope="session")
def hera_experiments_small():
    """Scaled-down HERA experiment definitions used by run-heavy benchmarks."""
    from repro.experiments import build_hera_experiments

    return build_hera_experiments(scale=0.12)
