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

from repro.obs.log import LOG_JSON_ENV, format_event, json_mode, log_event
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_metrics,
    validate_exposition,
)
from repro.obs.trace import (
    TRACE_ENV,
    TRACE_ID_HEADER,
    Tracer,
    current_trace_id,
    enabled,
    install,
    instant,
    new_trace_id,
    span,
    uninstall,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "LOG_JSON_ENV",
    "MetricsRegistry",
    "TRACE_ENV",
    "TRACE_ID_HEADER",
    "Tracer",
    "current_trace_id",
    "enabled",
    "format_event",
    "install",
    "instant",
    "json_mode",
    "log_event",
    "new_trace_id",
    "parse_metrics",
    "span",
    "uninstall",
    "validate_exposition",
]
