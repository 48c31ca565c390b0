"""Profiling substrate: page counters, CDFs, structure reverse maps."""

from repro.core.lazy import lazy_exports

_API = {
    "AccessCdf": "repro.profiling.cdf",
    "DataStructureMap": "repro.profiling.datastruct_map",
    "ScatterPoint": "repro.profiling.datastruct_map",
    "PageAccessProfiler": "repro.profiling.profiler",
    "StructureProfile": "repro.profiling.profiler",
    "WorkloadProfile": "repro.profiling.profiler",
}

__all__ = sorted(_API)

__getattr__, __dir__ = lazy_exports(__name__, _API)
