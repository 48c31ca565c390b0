"""Unified observability: metrics, spans, structured logs.

Production tiered-memory systems — TPP's kernel counters, HeMem's
per-pool sampling — are driven by lightweight continuous monitoring;
this package is the repro equivalent, shared by every layer instead of
living inside the daemon:

* :mod:`repro.obs.metrics` — the Prometheus text-format registry.
  Counters, gauges, fixed-bucket histograms,
  :func:`~repro.obs.metrics.parse_metrics`, and the strict
  :func:`~repro.obs.metrics.validate_exposition` checker CI runs over
  ``/metrics``.
* :mod:`repro.obs.trace` — span-based tracing with Chrome trace-event
  JSON export (Perfetto / ``about:tracing``).  ``REPRO_TRACE=<path>``
  or ``--trace`` activates it; disabled it is a single global check.
  Worker-process spans merge into the parent's timeline; an
  ``X-Trace-Id`` header correlates client → daemon → runner → cache.
* :mod:`repro.obs.log` — structured JSON logging
  (``REPRO_LOG_JSON=1``), one line per event with keyed fields,
  replacing ad-hoc prints in the runner and the daemon.

See ``docs/api.md`` ("Observability") for the span/metric/log
inventories and the Perfetto walkthrough.
"""

from repro.core.lazy import lazy_exports

_API = {
    "Counter": "repro.obs.metrics",
    "DEFAULT_BUCKETS": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "LOG_JSON_ENV": "repro.obs.log",
    "MetricsRegistry": "repro.obs.metrics",
    "TRACE_ENV": "repro.obs.trace",
    "TRACE_ID_HEADER": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
    "current_trace_id": "repro.obs.trace",
    "enabled": "repro.obs.trace",
    "format_event": "repro.obs.log",
    "install": "repro.obs.trace",
    "instant": "repro.obs.trace",
    "json_mode": "repro.obs.log",
    "log_event": "repro.obs.log",
    "new_trace_id": "repro.obs.trace",
    "parse_metrics": "repro.obs.metrics",
    "span": "repro.obs.trace",
    "uninstall": "repro.obs.trace",
    "validate_exposition": "repro.obs.metrics",
}

__all__ = sorted(_API)

__getattr__, __dir__ = lazy_exports(__name__, _API)
