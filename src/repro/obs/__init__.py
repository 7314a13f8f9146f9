"""Observability: simulated-time tracing + harness metrics.

Two planes (see ``docs/observability.md``):

* :mod:`repro.obs.tracer` — span traces in **simulated** time, exported
  as Perfetto-loadable Chrome trace-event JSON;
* :mod:`repro.obs.metrics` — counters/gauges/histograms describing the
  harness's own execution in **wall** time.

:mod:`repro.obs.annotate` (imported lazily by the CLI, not here: it pulls
in the whole harness stack) re-runs configurations serially with a
:class:`~repro.obs.tracer.SpanTracer` attached to produce the trace —
the simulation is a pure function of (config, seed), so the annotation
pass describes pool or cached results exactly.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.tracer": [
        "CPU_TRACK_BASE", "NULL_TRACER", "NullTracer", "SpanTracer",
        "Tracer", "validate_chrome",
    ],
    "repro.obs.metrics": ["Counter", "Gauge", "Histogram", "MetricsRegistry"],
})
