"""One set-up probe: a fresh interpreter made ready for its first submission.

    python3 perfbench/probe.py WORKLOAD [STORAGE_DIR]

Imports the program, provisions the standard images, builds and registers
the workload's experiments and, for ``service`` and ``nightly``, loads and
mounts the storage directory a run left behind the way ``repro serve`` and
``repro campaign --output`` do.  It then prints one JSON line with the
seconds each phase took and exits; the driver times the whole probe from
spawn to that line.
"""

import json
import os
import sys
import time

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    workload = sys.argv[1]
    directory = sys.argv[2] if len(sys.argv) > 2 else None
    from repro.core.spsystem import SPSystem
    from repro.experiments import (
        build_h1_experiment,
        build_hera_experiments,
        build_hermes_experiment,
        build_zeus_experiment,
    )
    from repro.history import ValidationHistoryLedger
    from repro.plugins import InterventionStore
    from repro.scheduler.cache import BuildCache
    from repro.service import TenantPolicy, ValidationService
    from repro.storage.common_storage import CommonStorage

    phases = {"import_s": time.perf_counter() - START, "mount_s": 0.0}
    mark = time.perf_counter()
    storage = None
    if workload == "service":
        storage = CommonStorage.load(directory)
        system = SPSystem(storage=storage)
        phases["mount_s"] += time.perf_counter() - mark
        mark = time.perf_counter()
    else:
        system = SPSystem()
    system.provision_standard_images()
    phases["provision_s"] = time.perf_counter() - mark
    mark = time.perf_counter()
    if workload == "matrix":
        experiments = build_hera_experiments(scale=0.12, shared_externals=True)
    else:
        scale = 0.05 if workload == "service" else 0.12
        experiments = [
            build(scale=scale)
            for build in (build_h1_experiment, build_zeus_experiment, build_hermes_experiment)
        ]
    for experiment in experiments:
        system.register_experiment(experiment)
    phases["experiments_s"] = time.perf_counter() - mark
    mark = time.perf_counter()
    if workload == "service":
        ValidationService(system, tenants=[
            TenantPolicy(name="alpha", weight=2),
            TenantPolicy(name="beta", weight=1),
            TenantPolicy(name="gamma", weight=1),
        ])
    elif workload == "nightly":
        system.restore_build_cache(
            CommonStorage.load(directory, namespaces=[BuildCache.NAMESPACE]), missing_ok=True)
        system.restore_history(
            CommonStorage.load(directory, namespaces=[ValidationHistoryLedger.NAMESPACE]),
            missing_ok=True)
        system.restore_interventions(
            CommonStorage.load(directory, namespaces=[InterventionStore.NAMESPACE]),
            missing_ok=True)
    phases["mount_s"] += time.perf_counter() - mark
    print(json.dumps(phases), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
