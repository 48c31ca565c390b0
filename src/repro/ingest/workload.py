"""Workload adapter exposing registered traces to the simulator.

:class:`IngestedTraceWorkload` wraps one admitted trace as a
:class:`~repro.workloads.base.TraceWorkload` whose ``dram_trace``
replays the registered access stream verbatim instead of synthesizing
one.  Its workload *name* is the registry record's canonical form —
``trace:<name>#<sha12>`` — so the content digest is salted into every
:class:`~repro.runner.spec.RunSpec` cache key: re-ingesting a changed
file under the same name yields different cache keys, and a stale
result can never be served for new bytes.

The adapter consults the same trace-memo seam as synthetic workloads
(:func:`~repro.workloads.base.lookup_trace` /
:func:`~repro.workloads.base.store_trace`), so ingested traces flow
through the shm arena and result cache exactly like synthetic ones.

:func:`resolve_workload` is the entry point
:func:`repro.workloads.suite.get_workload` delegates ``trace:`` and
``mix:`` names to.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import IngestError, WorkloadError
from repro.core.units import PAGE_SIZE
from repro.gpu.trace import DramTrace
from repro.workloads.base import (DEFAULT_RAW_ACCESSES,
                                  DataStructureSpec, TraceWorkload,
                                  lookup_trace, store_trace,
                                  trace_cache_key)

from .registry import TraceRegistry, TraceRecord, default_registry

#: (registry root, canonical name) -> workload; bounded by the number
#: of distinct ingested traces used in one process.
_RESOLVER_CACHE: dict[tuple[str, str], TraceWorkload] = {}


def clear_resolver_cache() -> None:
    _RESOLVER_CACHE.clear()


class ReplayedTraceWorkload(TraceWorkload):
    """A post-cache stream replayed verbatim; subclasses supply it."""

    suite = "ingest"
    dataset_scales = {"default": 1.0}

    def _stream(self) -> tuple:
        """``(page_indices, is_write, footprint_pages)``."""
        raise NotImplementedError

    def raw_access_stream(self, dataset: str = "default",
                          n_accesses: int = DEFAULT_RAW_ACCESSES,
                          seed: int = 0):
        raise WorkloadError(
            f"{self.name}: ingested traces are post-cache streams; "
            "no raw SM-issued stream exists")

    def dram_trace(self, dataset: str = "default",
                   n_accesses: int = DEFAULT_RAW_ACCESSES,
                   seed: int = 0, filtered: bool = True,
                   config=None, n_epochs: int = 16) -> DramTrace:
        """The stream, verbatim (memoized like synthesis).

        ``n_accesses``/``seed``/``filtered`` do not alter the replayed
        stream — the trace *is* the post-cache stream — but stay in the
        memo key so the shm planner and cache agree with synthetic
        workloads' keying.
        """
        self._check_dataset(dataset)
        key = trace_cache_key(self.name, dataset, n_accesses, seed,
                              filtered=filtered,
                              config_repr=(repr(config)
                                           if config is not None
                                           else None),
                              n_epochs=n_epochs)
        trace = lookup_trace(key)
        if trace is None:
            pages, flags, footprint_pages = self._stream()
            trace = DramTrace(
                page_indices=pages,
                footprint_pages=footprint_pages,
                n_raw_accesses=int(pages.size),
                n_epochs=n_epochs,
                is_write=flags,
            )
            store_trace(key, trace)
        return trace


class IngestedTraceWorkload(ReplayedTraceWorkload):
    """One registered external trace, replayed verbatim."""

    description = "externally ingested trace"

    def __init__(self, record: TraceRecord,
                 registry: TraceRegistry) -> None:
        self.record = record
        self.registry = registry
        self.name = record.canonical
        self._arrays: Optional[tuple] = None

    def _load(self) -> tuple:
        """(page_indices, is_write, cycles), checksum-verified once."""
        if self._arrays is None:
            record, pages, flags, cycles = self.registry.load(
                self.record.name)
            if record.sha256 != self.record.sha256:
                raise IngestError(
                    f"trace {self.record.name!r} was re-ingested with "
                    f"different content (expected {self.record.short_sha}, "
                    f"registry now has {record.short_sha})",
                    file=self.record.name)
            self._arrays = (pages, flags, cycles)
        return self._arrays

    def _stream(self) -> tuple:
        pages, flags, _cycles = self._load()
        return pages, flags, self.record.footprint_pages

    def define_structures(self, dataset: str = "default"
                          ) -> tuple[DataStructureSpec, ...]:
        rec = self.record
        write_fraction = rec.n_writes / max(1, rec.n_accesses)
        return (DataStructureSpec(
            name="trace",
            size_bytes=max(PAGE_SIZE, rec.footprint_pages * PAGE_SIZE),
            traffic_weight=float(rec.n_accesses),
            pattern="uniform",
            read_fraction=1.0 - write_fraction,
        ),)


def _split_fragment(spec: str) -> tuple[str, Optional[str]]:
    """``"stream#1a2b"`` -> ``("stream", "1a2b")``."""
    if "#" in spec:
        name, _, fragment = spec.partition("#")
        return name, fragment
    return spec, None


def _resolve_record(registry: TraceRegistry, spec: str) -> TraceRecord:
    name, fragment = _split_fragment(spec)
    try:
        record = registry.record(name)
    except IngestError as exc:
        raise WorkloadError(str(exc))
    if record is None:
        from repro.workloads.suite import unknown_workload_message
        raise WorkloadError(unknown_workload_message(f"trace:{spec}"))
    if fragment and not record.sha256.startswith(fragment.lower()):
        raise WorkloadError(
            f"trace:{name} checksum mismatch: requested #{fragment} "
            f"but the registry holds #{record.short_sha} — the trace "
            "was re-ingested with different content")
    return record


def resolve_workload(name: str,
                     registry: Optional[TraceRegistry] = None
                     ) -> TraceWorkload:
    """Resolve a ``trace:<name>[#sha12]`` or ``mix:<a>+<b>...`` name.

    Raises :class:`WorkloadError` for unknown names or stale checksum
    fragments.  Resolved workloads are memoized per (registry root,
    canonical name) so repeated ``get_workload`` calls share loaded
    arrays.
    """
    registry = registry or default_registry()
    if name.startswith("mix:"):
        from .mix import resolve_mix
        return resolve_mix(name, registry)
    if not name.startswith("trace:"):
        raise WorkloadError(f"not an ingested-trace name: {name!r}")
    record = _resolve_record(registry, name[len("trace:"):])
    cache_key = (str(registry.root), record.canonical)
    cached = _RESOLVER_CACHE.get(cache_key)
    if cached is not None:
        return cached
    workload = IngestedTraceWorkload(record, registry)
    _RESOLVER_CACHE[cache_key] = workload
    return workload
