"""Hardened ingestion of external traces.

Layers, bottom up:

* :mod:`~repro.ingest.parser` — streaming, bounded-memory validation
  of untrusted ``k6``/``mase`` trace bytes with line-precise
  :class:`~repro.core.errors.IngestError` rejection and hard resource
  caps;
* :mod:`~repro.ingest.npz` — the binary ``npz`` format ``repro trace``
  writes, read through the same entry points and caps;
* :mod:`~repro.ingest.registry` — sha256-checksummed admission under
  the cache root, with quarantine of rejected inputs and
  corruption-detected loads;
* :mod:`~repro.ingest.workload` — adapter exposing registered traces
  as workloads (``trace:<name>#<sha12>``) through the standard memo /
  shm-arena / result-cache path;
* :mod:`~repro.ingest.mix` — Kill-Llama-style multi-program mixes
  (``mix:<a>+<b>``) with per-member fault isolation.
"""

from repro.core.errors import IngestError

from .mix import (IngestedMixWorkload, MixMemberStatus, MixOutcome,
                  parse_mix_spec, resolve_mix, run_mix)
from .npz import save_npz
from .parser import (DEFAULT_LIMITS, FORMATS, IngestLimits, ParsedTrace,
                     detect_format, parse_bytes, parse_file,
                     parse_stream)
from .registry import (QUARANTINE_DIRNAME, TRACE_DIR_ENV,
                       TraceRecord, TraceRegistry, default_registry,
                       default_root, sanitize_name, set_default_root)
from .workload import (IngestedTraceWorkload, clear_resolver_cache,
                       resolve_workload)

__all__ = [
    "DEFAULT_LIMITS",
    "FORMATS",
    "IngestError",
    "IngestLimits",
    "IngestedMixWorkload",
    "IngestedTraceWorkload",
    "MixMemberStatus",
    "MixOutcome",
    "ParsedTrace",
    "QUARANTINE_DIRNAME",
    "TRACE_DIR_ENV",
    "TraceRecord",
    "TraceRegistry",
    "clear_resolver_cache",
    "default_registry",
    "default_root",
    "detect_format",
    "parse_bytes",
    "parse_file",
    "parse_mix_spec",
    "parse_stream",
    "resolve_mix",
    "resolve_workload",
    "run_mix",
    "sanitize_name",
    "save_npz",
    "set_default_root",
]
