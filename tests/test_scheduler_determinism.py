"""Determinism regression tests for the campaign scheduler.

The scheduler's contract is that pooled execution changes the campaign's
wall-clock story only: for any worker count, the produced
:class:`~repro.core.jobs.ValidationRun` documents and
:class:`~repro.storage.catalog.RunCatalog` records must be bit-identical to
the sequential baseline of calling ``SPSystem.validate`` cell by cell.  The
tests here pin that property across seeds, scales and worker counts, and also
cover the ``ValidationJob``/``ValidationRun`` document round-trip the
structural comparisons rely on.
"""

import pickle

import pytest

from repro.buildsys.builder import BuildTask
from repro.core.jobs import JobStatus, ValidationJob, ValidationRun
from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.experiments import build_hermes_experiment
from repro.scheduler.backends import EXECUTION_BACKENDS
from repro.scheduler.spec import CampaignSpec


def _fresh_system(seed, telemetry=None):
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0, seed=seed),
        telemetry=telemetry,
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.2))
    return system


def _sequential_baseline(seed, keys, rounds=1):
    """The pre-scheduler behaviour: one validate() call per cell, in order."""
    system = _fresh_system(seed)
    results = [
        system.validate("HERMES", key)
        for _round in range(rounds)
        for key in keys
    ]
    return system, results


KEYS = ["SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4"]

#: The backends the parity suite runs against: every registered one.
PARITY_BACKENDS = tuple(EXECUTION_BACKENDS)

#: The backends that compute the cells somewhere other than inline in this
#: process; each is compared with the inline simulated backend.
EXECUTING_BACKENDS = tuple(
    backend for backend in PARITY_BACKENDS if backend != "simulated"
)


def _campaign_spec(backend, keys=None, **overrides):
    options = dict(workers=4, backend=backend, persist_spec=False)
    if keys is not None:
        options["configuration_keys"] = tuple(keys)
    options.update(overrides)
    return CampaignSpec(**options)


class TestSchedulerMatchesSequentialBaseline:
    @pytest.mark.parametrize("seed", [20131029, 7, 424242])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_run_documents_identical(self, seed, workers):
        baseline_system, baseline = _sequential_baseline(seed, KEYS)
        scheduled_system = _fresh_system(seed)
        scheduled = scheduled_system.submit(
            _campaign_spec("simulated", KEYS, workers=workers, experiments=("HERMES",))
        ).result().cycles_for("HERMES")
        assert [cycle.run.to_document() for cycle in scheduled] == [
            cycle.run.to_document() for cycle in baseline
        ]
        # The catalogue records are equally bit-identical.
        assert [record.to_dict() for record in scheduled_system.catalog.all()] == [
            record.to_dict() for record in baseline_system.catalog.all()
        ]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_multi_round_campaign_identical_despite_cache(self, workers):
        """Round >= 2 is served from the build cache, yet output is identical."""
        seed = 20131029
        baseline_system, baseline = _sequential_baseline(seed, KEYS, rounds=2)
        scheduled_system = _fresh_system(seed)
        campaign = scheduled_system.submit(
            _campaign_spec(
                "simulated", KEYS, workers=workers, rounds=2, experiments=("HERMES",)
            )
        ).result()
        assert campaign.cache_statistics.hits > 0
        assert [run.to_document() for run in campaign.runs()] == [
            cycle.run.to_document() for cycle in baseline
        ]
        assert [record.to_dict() for record in scheduled_system.catalog.all()] == [
            record.to_dict() for record in baseline_system.catalog.all()
        ]

    def test_regression_and_workflow_side_effects_identical(self):
        """Diagnosis, tickets and workflow phases match the sequential path."""
        seed = 20131029
        baseline_system, baseline = _sequential_baseline(seed, KEYS)
        scheduled_system = _fresh_system(seed)
        scheduled = scheduled_system.submit(
            _campaign_spec("simulated", KEYS, experiments=("HERMES",))
        ).result().cycles_for("HERMES")
        for before, after in zip(baseline, scheduled):
            assert before.successful == after.successful
            assert len(before.tickets) == len(after.tickets)
            assert (before.diagnosis is None) == (after.diagnosis is None)
        assert (
            baseline_system.workflow.phase_of("HERMES")
            is scheduled_system.workflow.phase_of("HERMES")
        )

    def test_worker_count_does_not_change_storage(self):
        """The common storage is byte-for-byte independent of the pool size."""
        documents = []
        for workers in (1, 2, 5):
            system = _fresh_system(20131029)
            system.submit(
                _campaign_spec(
                    "simulated", KEYS, workers=workers, experiments=("HERMES",)
                )
            )
            documents.append({
                namespace: {
                    key: system.storage.get(namespace, key)
                    for key in system.storage.keys(namespace)
                }
                for namespace in system.storage.namespaces()
            })
        assert documents[0] == documents[1] == documents[2]


class TestBackendParity:
    """The same spec yields bit-identical science on every backend.

    The process backend computes the cells in forked children instead of
    inline; the run documents and catalogue records, produced by the
    serial stamping pass, must stay bit-identical to the simulated backend
    and to the sequential ``validate`` path.
    """

    def _full_matrix_spec(self, backend):
        return CampaignSpec(workers=4, backend=backend, persist_spec=False)

    @pytest.mark.parametrize("backend", EXECUTING_BACKENDS)
    def test_executing_backend_matches_simulated_and_sequential(self, backend):
        seed = 20131029
        all_keys = [c.key for c in _fresh_system(seed).configurations()]
        baseline_system, baseline = _sequential_baseline(seed, all_keys)
        simulated_system = _fresh_system(seed)
        simulated = simulated_system.submit(self._full_matrix_spec("simulated"))
        executed_system = _fresh_system(seed)
        executed = executed_system.submit(self._full_matrix_spec(backend))
        expected = [cycle.run.to_document() for cycle in baseline]
        assert [
            run.to_document() for run in simulated.result().runs()
        ] == expected
        assert [
            run.to_document() for run in executed.result().runs()
        ] == expected
        expected_records = [
            record.to_dict() for record in baseline_system.catalog.all()
        ]
        assert [
            record.to_dict() for record in simulated_system.catalog.all()
        ] == expected_records
        assert [
            record.to_dict() for record in executed_system.catalog.all()
        ] == expected_records
        # The cache statistics are part of the invariant: computing the cells
        # in other processes must not change them.
        assert (
            executed.result().cache_statistics
            == simulated.result().cache_statistics
        )
        # Both report the simulated timeline, each under its own name.
        assert simulated.result().schedule.backend == "simulated"
        assert executed.result().schedule.backend == backend
        assert len(executed.result().schedule.assignments) == len(
            executed.result().dag
        )

    def test_build_task_digest_check_rejects_divergence(self, sp_system, tiny_hermes):
        """A diverging re-execution fails loudly instead of passing silently."""
        from repro._common import BuildError
        from repro.buildsys.builder import PackageBuilder, build_result_digest

        sp_system.register_experiment(tiny_hermes)
        package = tiny_hermes.inventory.all()[0]
        configuration = sp_system.configuration("SL5_64bit_gcc4.4")
        builder = PackageBuilder()
        good = BuildTask(
            package=package,
            configuration=configuration,
            builder=builder,
            expected_digest=build_result_digest(
                builder.build_package(package, configuration)
            ),
        )
        assert good.run().package == package
        assert good.runs == 1
        bad = BuildTask(
            package=package,
            configuration=configuration,
            builder=builder,
            expected_digest="not-the-digest",
        )
        with pytest.raises(BuildError):
            bad.run()

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    def test_spec_round_trip_replays_identical_campaign(self, backend):
        spec = CampaignSpec(
            configuration_keys=tuple(KEYS),
            workers=3,
            rounds=2,
            backend=backend,
            persist_spec=False,
        )
        first = _fresh_system(20131029).submit(spec).result()
        replayed = (
            _fresh_system(20131029)
            .submit(CampaignSpec.from_dict(spec.to_dict()))
            .result()
        )
        assert [run.to_document() for run in replayed.runs()] == [
            run.to_document() for run in first.runs()
        ]

    @pytest.mark.parametrize("backend", EXECUTING_BACKENDS)
    def test_executing_backend_storage_matches_simulated(self, backend):
        """The persisted storage is byte-identical across backends."""
        documents = []
        for chosen in ("simulated", backend):
            system = _fresh_system(20131029)
            system.submit(_campaign_spec(chosen, KEYS, workers=2))
            documents.append({
                namespace: {
                    key: system.storage.get(namespace, key)
                    for key in system.storage.keys(namespace)
                }
                for namespace in system.storage.namespaces()
            })
        assert documents[0] == documents[1]

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    def test_noop_plugin_registry_does_not_change_science(self, backend):
        """An attached observer registry leaves the science byte-identical.

        The lifecycle bus's observer contract (see
        ``repro/scheduler/lifecycle.py``) promises that read-only sinks
        never change run documents, catalogue records or cache
        statistics.  This pins it: a counting no-op observer subscribed
        to every event sees the full stream, yet the campaign output
        matches a bare system bit for bit on every backend.
        """
        from repro.scheduler.lifecycle import (
            EVENT_CAMPAIGN_FINISHED,
            EVENT_CELL_COMPLETED,
            LIFECYCLE_EVENTS,
            LifecycleObserver,
        )

        class CountingObserver(LifecycleObserver):
            name = "noop-counter"
            events = LIFECYCLE_EVENTS

            def __init__(self):
                self.seen = []

            def handle(self, event, context):
                self.seen.append(event.name)

        seed = 20131029
        bare_system = _fresh_system(seed)
        bare = bare_system.submit(
            _campaign_spec(backend, KEYS, workers=2)
        ).result()
        observed_system = _fresh_system(seed)
        observer = observed_system.lifecycle.add_observer(CountingObserver())
        observed = observed_system.submit(
            _campaign_spec(backend, KEYS, workers=2)
        ).result()
        # The observer really saw the campaign: one cell_completed per
        # cell (in deterministic cell order) plus the final finish event.
        assert observer.seen.count(EVENT_CELL_COMPLETED) == len(observed.cells)
        assert observer.seen[-1] == EVENT_CAMPAIGN_FINISHED
        # ...and the science is untouched.
        assert [run.to_document() for run in observed.runs()] == [
            run.to_document() for run in bare.runs()
        ]
        assert observed.cache_statistics == bare.cache_statistics
        assert [
            record.to_dict() for record in observed_system.catalog.all()
        ] == [record.to_dict() for record in bare_system.catalog.all()]
        assert {
            namespace: {
                key: observed_system.storage.get(namespace, key)
                for key in observed_system.storage.keys(namespace)
            }
            for namespace in observed_system.storage.namespaces()
        } == {
            namespace: {
                key: bare_system.storage.get(namespace, key)
                for key in bare_system.storage.keys(namespace)
            }
            for namespace in bare_system.storage.namespaces()
        }

    def test_attached_telemetry_leaves_science_identical(self):
        """A full telemetry bundle changes nothing but what it records.

        Two invariants at once, on every parity backend: (1) a campaign
        run with a live :class:`~repro.telemetry.Telemetry` bundle and a
        ``MetricsObserver`` on the bus produces run documents, catalogue
        records and cache statistics byte-identical to an uninstrumented
        system; (2) the *cell-category* span sequence — the spans of the
        deterministic cell pass (spec validation, DAG construction, cell
        validation, cache probes) — is itself identical across all
        backends, because the cell pass is the same code path everywhere.
        Span durations and metric values are wall-clock and excluded;
        span names, order and attributes are not.
        """
        from repro.telemetry import MetricsObserver, Telemetry

        seed = 20131029
        sequences = {}
        for backend in PARITY_BACKENDS:
            bare_system = _fresh_system(seed)
            bare = bare_system.submit(
                _campaign_spec(backend, KEYS, workers=2)
            ).result()
            telemetry = Telemetry.create()
            observed_system = _fresh_system(seed, telemetry=telemetry)
            observed_system.lifecycle.add_observer(
                MetricsObserver(telemetry.metrics)
            )
            observed = observed_system.submit(
                _campaign_spec(backend, KEYS, workers=2)
            ).result()
            assert [run.to_document() for run in observed.runs()] == [
                run.to_document() for run in bare.runs()
            ]
            assert observed.cache_statistics == bare.cache_statistics
            assert [
                record.to_dict() for record in observed_system.catalog.all()
            ] == [record.to_dict() for record in bare_system.catalog.all()]
            # The bundle really recorded the campaign.
            counted = telemetry.metrics.counter_value(
                "cells_total", outcome="passed"
            ) + telemetry.metrics.counter_value("cells_total", outcome="failed")
            assert counted == len(observed.cells)
            sequences[backend] = telemetry.tracer.sequence(category="cell")
        assert sequences[PARITY_BACKENDS[0]], (
            "the instrumented cell pass recorded no spans"
        )
        assert len(set(sequences.values())) == 1, (
            "the deterministic cell-pass span sequence diverged between "
            "backends: " + ", ".join(sorted(sequences))
        )

    def test_build_task_pickle_round_trip(self, sp_system, tiny_hermes):
        """BuildTask pickles: the round trip keeps its fields and digest check.

        This pins the picklability contract directly so a future
        unpicklable field fails here, not deep inside a pool traceback.
        """
        from repro.buildsys.builder import PackageBuilder, build_result_digest

        sp_system.register_experiment(tiny_hermes)
        package = tiny_hermes.inventory.all()[0]
        configuration = sp_system.configuration("SL5_64bit_gcc4.4")
        builder = PackageBuilder()
        task = BuildTask(
            package=package,
            configuration=configuration,
            builder=builder,
            expected_digest=build_result_digest(
                builder.build_package(package, configuration)
            ),
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.package == package
        assert clone.configuration.key == configuration.key
        assert clone.expected_digest == task.expected_digest
        # The clone executes independently: the digest check passes and the
        # original's run counter is untouched (the parent mirrors it).
        result = clone.run()
        assert build_result_digest(result) == task.expected_digest
        assert clone.runs == 1
        assert task.runs == 0

    def test_forked_campaigns_with_shared_warm_start(self):
        """Two forked campaigns sharing one build cache stay exact.

        The first campaign on two single-slot forked workers populates the
        system's build cache; the second campaign's cells all warm-start
        from that shared cache — and the science plus the cache statistics
        still match the simulated backend bit for bit.
        """
        forked_spec = CampaignSpec(
            configuration_keys=tuple(KEYS),
            workers=2,
            slots_per_worker=1,
            backend="processes",
            persist_spec=False,
        )
        simulated_spec = _campaign_spec("simulated", KEYS, workers=2)

        reference_system = _fresh_system(20131029)
        reference_first = reference_system.submit(simulated_spec).result()
        reference_second = reference_system.submit(simulated_spec).result()

        system = _fresh_system(20131029)
        first = system.submit(forked_spec).result()
        second = system.submit(forked_spec).result()

        assert first.schedule.backend == "processes"
        assert first.schedule.slots_per_worker == 1
        # The second campaign is served warm: its cells hit the cache the
        # first campaign filled.
        assert second.cache_statistics.hits > 0
        # Science and cache accounting match the simulated pair exactly.
        assert [run.to_document() for run in first.runs()] == [
            run.to_document() for run in reference_first.runs()
        ]
        assert [run.to_document() for run in second.runs()] == [
            run.to_document() for run in reference_second.runs()
        ]
        assert first.cache_statistics == reference_first.cache_statistics
        assert second.cache_statistics == reference_second.cache_statistics


class TestDocumentRoundTrip:
    """The small fix: to_document()/from_document() round-trip structurally."""

    def test_job_round_trip(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        run = sp_system.validate("HERMES", "SL5_64bit_gcc4.4").run
        for job in run.jobs:
            document = job.to_document()
            restored = ValidationJob.from_document(document)
            assert restored.to_document() == document
            assert restored.status is job.status
            assert restored.kind is job.kind

    def test_job_round_trip_preserves_optional_fields(self):
        from repro.core.testspec import TestKind

        job = ValidationJob(
            job_id="sp-000001",
            test_name="chain-step",
            experiment="TESTEXP",
            configuration_key="SL5_64bit_gcc4.4",
            kind=TestKind.CHAIN_STEP,
            status=JobStatus.SKIPPED,
            started_at=1356998400,
            messages=["previous step failed"],
            chain="reco-chain",
            process="reconstruction",
        )
        restored = ValidationJob.from_document(job.to_document())
        assert restored.chain == "reco-chain"
        assert restored.output_key is None
        assert restored.to_document() == job.to_document()

    def test_run_round_trip(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        run = sp_system.validate("HERMES", "SL5_64bit_gcc4.4").run
        restored = ValidationRun.from_document(run.to_document())
        assert restored.to_document() == run.to_document()
        assert restored.n_jobs == run.n_jobs
        assert restored.overall_status == run.overall_status

    def test_stored_run_metadata_round_trips(self, sp_system, tiny_hermes):
        """Runs can be re-hydrated structurally from the common storage."""
        sp_system.register_experiment(tiny_hermes)
        run = sp_system.validate("HERMES", "SL6_64bit_gcc4.4").run
        document = sp_system.storage.get("results", f"runmeta_{run.run_id}")
        restored = ValidationRun.from_document(document)
        assert restored.statuses_by_test() == run.statuses_by_test()
        assert restored.to_document() == run.to_document()


class TestHistoryRecordingBitIdentity:
    """record_history must never change the scientific output.

    Ingesting cells into the history ledger adds documents to the
    ``history`` namespace only: the run documents, the catalogue records
    and every other namespace stay byte-identical to the seed path, and a
    warm-started installation re-ingesting inherited cells is a no-op.
    """

    def _non_history_documents(self, system):
        from repro.history.ledger import ValidationHistoryLedger

        return {
            namespace: {
                key: system.storage.get(namespace, key)
                for key in system.storage.keys(namespace)
            }
            for namespace in system.storage.namespaces()
            if namespace != ValidationHistoryLedger.NAMESPACE
        }

    def test_run_documents_identical_with_history_on(self):
        seed = 20131029
        baseline_system, baseline = _sequential_baseline(seed, KEYS)
        recorded_system = _fresh_system(seed)
        campaign = recorded_system.submit(
            CampaignSpec(
                experiments=("HERMES",),
                configuration_keys=tuple(KEYS),
                workers=4,
                record_history=True,
                persist_spec=False,
            )
        ).result()
        assert recorded_system.history is not None
        assert len(recorded_system.history) == len(campaign.cells)
        assert [run.to_document() for run in campaign.runs()] == [
            cycle.run.to_document() for cycle in baseline
        ]
        assert [
            record.to_dict() for record in recorded_system.catalog.all()
        ] == [record.to_dict() for record in baseline_system.catalog.all()]
        # Outside the history namespace the storage is byte-identical.
        baseline_documents = {
            namespace: {
                key: baseline_system.storage.get(namespace, key)
                for key in baseline_system.storage.keys(namespace)
            }
            for namespace in baseline_system.storage.namespaces()
        }
        assert self._non_history_documents(recorded_system) == baseline_documents

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    def test_history_recording_is_backend_invariant_in_science(self, backend):
        """Per-backend events differ only in the recorded backend name."""
        system = _fresh_system(20131029)
        campaign = system.submit(
            CampaignSpec(
                configuration_keys=tuple(KEYS),
                workers=2,
                backend=backend,
                record_history=True,
                persist_spec=False,
            )
        ).result()
        events = system.history.events()
        assert [event.run_id for event in events] == [
            run.run_id for run in campaign.runs()
        ]
        assert {event.backend for event in events} == {backend}
        scientific = [
            {
                key: value
                for key, value in event.to_dict().items()
                if key != "backend"
            }
            for event in events
        ]
        reference_system = _fresh_system(20131029)
        reference_system.submit(
            CampaignSpec(
                configuration_keys=tuple(KEYS),
                workers=2,
                record_history=True,
                persist_spec=False,
            )
        )
        reference = [
            {
                key: value
                for key, value in event.to_dict().items()
                if key != "backend"
            }
            for event in reference_system.history.events()
        ]
        assert scientific == reference

    def test_warm_start_reingest_is_idempotent(self, tmp_path):
        """Mounting a recorded storage and replaying adds no duplicates."""
        from repro.scheduler.cache import BuildCache
        from repro.storage.common_storage import CommonStorage

        spec = CampaignSpec(
            experiments=("HERMES",),
            configuration_keys=tuple(KEYS),
            record_history=True,
            persist_spec=False,
        )
        cold = _fresh_system(20131029)
        cold.submit(spec)
        cold.persist_build_cache()
        cold.storage.persist(str(tmp_path))

        warm = SPSystem(
            runner_settings=RunnerSettings(
                simulated_seconds_per_test=30.0, seed=20131029
            ),
            storage=CommonStorage.load(str(tmp_path)),
        )
        warm.provision_standard_images()
        warm.register_experiment(build_hermes_experiment(scale=0.2))
        inherited = len(warm.history)
        assert inherited == len(cold.history)
        journal_before = warm.history.journal_records()
        warm.submit(spec)  # fresh run IDs: genuinely new events
        assert len(warm.history) == inherited + 2
        # Re-mounting rebuilds the same indexes without duplication.
        remounted = SPSystem(storage=warm.storage)
        assert len(remounted.history) == inherited + 2
        assert remounted.history.journal_records() == journal_before + 2
