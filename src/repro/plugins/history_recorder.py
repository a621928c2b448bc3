"""History ingestion as a lifecycle plugin.

This used to be ``SPSystem._ingest_campaign_history``, called inline from
``submit``; it now rides the lifecycle bus so that history recording is
just one observer among many.  The behaviour is bit-identical to the old
inline call: the ``record_history`` tri-state is honoured (``None`` = auto:
record exactly when the system already carries a ledger), ingestion is
idempotent per run ID, and the cache-provenance classification
(uncached/warm/cold) is unchanged.

The plugin also owns evolution recording: a
``replace_configuration(configuration, event=...)`` emits
``evolution_recorded`` and this observer lands the event on the ledger —
but only when a ledger exists, mirroring the manual
``system.history.record_evolution`` calls it replaces.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.scheduler.lifecycle import (
    EVENT_CAMPAIGN_FINISHED,
    EVENT_EVOLUTION_RECORDED,
    EventContext,
    LifecycleEvent,
    LifecycleObserver,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.spsystem import CampaignHandle, SPSystem
    from repro.scheduler.campaign import CampaignResult


class HistoryRecorderPlugin(LifecycleObserver):
    """Ingests completed campaigns and evolution events into the ledger.

    Registered system-wide (first, before any per-submission plugins), so
    observers added later — e.g. the regression alerter — always see the
    campaign *after* its cells have landed on the ledger.
    """

    name = "history-recorder"
    events = frozenset({EVENT_CAMPAIGN_FINISHED, EVENT_EVOLUTION_RECORDED})

    def __init__(self, system: "SPSystem") -> None:
        # Weak: the system owns this plugin through its lifecycle bus, and a
        # strong reference back would make a cycle that only a full garbage
        # collection frees, keeping the system's storage alive until then.
        self._system = weakref.ref(system)

    @property
    def system(self) -> "SPSystem":
        """The system whose campaigns and evolutions this plugin records."""
        return self._system()  # type: ignore[return-value]

    def handle(self, event: LifecycleEvent, context: EventContext) -> None:
        if event.name == EVENT_EVOLUTION_RECORDED:
            self._record_evolution(context)
        else:
            self._ingest_campaign(context)

    def _record_evolution(self, context: EventContext) -> None:
        environment_event = context.subjects.get("event")
        if environment_event is None or self.system.history is None:
            return
        self.system.history.record_evolution(
            environment_event, self.system.clock.now
        )

    def _ingest_campaign(self, context: EventContext) -> int:
        """Ingest every cell of a completed campaign into the ledger.

        Idempotent per run ID, so replays over inherited state never
        duplicate events.  Returns the number of newly ingested events.
        """
        handle: "CampaignHandle" = context.subjects["handle"]  # type: ignore[assignment]
        campaign: "CampaignResult" = context.subjects["campaign"]  # type: ignore[assignment]
        spec = handle.spec
        record = (
            spec.record_history
            if spec.record_history is not None
            else self.system.history is not None
        )
        if not record:
            return 0
        ledger = self.system.enable_history()
        statistics = campaign.cache_statistics
        if campaign.spec is not None and not campaign.spec.use_cache:
            provenance = "uncached"
        elif statistics.hits > 0:
            provenance = "warm"
        else:
            provenance = "cold"
        ingested = 0
        telemetry = self.system.telemetry
        with telemetry.tracer.span(
            "ledger_ingest", category="ledger", cells=len(campaign.cells)
        ):
            for cell in campaign.cells:
                event = ledger.ingest_cycle(
                    cell.result,
                    configuration=self.system.configuration(cell.configuration_key),
                    campaign_id=handle.campaign_id,
                    backend=campaign.backend,
                    cache_provenance=provenance,
                )
                if event is not None:
                    ingested += 1
        telemetry.metrics.increment("ledger_events_total", amount=ingested)
        return ingested


__all__ = ["HistoryRecorderPlugin"]
