"""Unified telemetry: metrics, tracing spans and exporters.

One bundle object, :class:`Telemetry`, carries the two live sinks —
a :class:`~repro.telemetry.metrics.MetricsRegistry` and a
:class:`~repro.telemetry.tracing.SpanTracer` — through the whole stack:
``SPSystem(telemetry=...)`` hands it to the scheduler, the cache
builder, the execution backends, the history plugin and the service
daemon.  The default is :data:`NULL_TELEMETRY`, a no-op bundle whose
``span``/``increment`` calls cost one method dispatch, so uninstrumented
runs pay (almost) nothing and the overhead benchmark can compare the two
honestly.

Instrumentation wraps science, never leaks into it: nothing under
``hepdata/`` or ``environment/`` may import this package (audited by
ci.sh and ``tests/test_tooling_ci.py``), and attaching a full bundle
leaves run documents, catalog records and cache statistics byte-identical
(pinned by ``TestBackendParity``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.exporters import prometheus_text
from repro.telemetry.metrics import HistogramSeries, MetricsRegistry
from repro.telemetry.tracing import Span, SpanTracer


class _NullSpan:
    """A reusable no-op context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Span API that records nothing; every call is near-free."""

    __slots__ = ()
    spans = ()

    def span(self, name, category=None, **attributes):
        return _NULL_SPAN

    def sequence(self, category=None):
        return ()

    def phase_rows(self):
        return []

    def chrome_trace(self):
        return {"traceEvents": [], "displayTimeUnit": "ms", "otherData": {}}

    def reset(self):
        return None


class NullMetrics:
    """Metrics API that records nothing; every call is near-free."""

    __slots__ = ()

    def increment(self, name, amount=1.0, **labels):
        return None

    def set_gauge(self, name, value, **labels):
        return None

    def observe(self, name, value, **labels):
        return None

    def declare_histogram(self, name, buckets):
        return None

    def time_block(self, name, **labels):
        return _NULL_SPAN

    def counter_value(self, name, **labels):
        return 0.0

    def gauge_value(self, name, **labels):
        return None

    def histogram(self, name, **labels):
        return None

    def counters(self):
        return ()

    def gauges(self):
        return ()

    def histograms(self):
        return ()

    def summary_rows(self):
        return []

    def snapshot(self):
        return self.to_dict()

    def to_dict(self):
        return {"counters": [], "gauges": [], "histograms": [], "last_update_offset": 0.0}


class Telemetry:
    """The bundle handed through the stack: a registry plus a tracer."""

    def __init__(self, metrics, tracer, enabled: bool = True) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.enabled = enabled

    @classmethod
    def create(cls, clock: Optional[Callable[[], float]] = None) -> "Telemetry":
        """A live bundle; *clock* must be monotonic when given."""
        return cls(
            metrics=MetricsRegistry(clock=clock),
            tracer=SpanTracer(clock=clock),
            enabled=True,
        )

    @classmethod
    def disabled(cls) -> "Telemetry":
        return cls(metrics=NullMetrics(), tracer=NullTracer(), enabled=False)


#: The default bundle: records nothing, costs (almost) nothing.
NULL_TELEMETRY = Telemetry.disabled()


def __getattr__(name: str):
    # MetricsObserver pulls in the scheduler's lifecycle module; importing
    # it lazily keeps this package importable from inside
    # ``repro.scheduler`` (the cache and backends take a telemetry handle)
    # without a circular import.
    if name == "MetricsObserver":
        from repro.telemetry.observer import MetricsObserver

        return MetricsObserver
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "HistogramSeries",
    "MetricsObserver",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullMetrics",
    "NullTracer",
    "Span",
    "SpanTracer",
    "Telemetry",
    "prometheus_text",
]
