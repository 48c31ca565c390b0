"""Zero-copy trace shipping over ``multiprocessing.shared_memory``.

The sweep runner's workers all replay the same workload traces: a
100-point ratio sweep needs exactly one ``bfs`` trace, yet the historic
path synthesized it once *per worker process* (the synthesis is
memoized per process, not per sweep).  This module moves trace arrays
into named shared-memory segments so the parent synthesizes each
unique trace once, publishes the raw array bytes, and ships only the
segment *name* plus dtype/shape metadata to workers — who map the
segment and build a read-only :class:`~repro.gpu.trace.DramTrace` view
without copying or re-synthesizing anything.

Three pieces:

* :class:`SharedTraceArena` — the parent-owned segment registry.
  ``publish()`` copies a trace into a fresh segment (refcount 1);
  ``retain()``/``release()`` bracket a consumer's use, and a segment is
  unlinked the moment its count reaches zero.  ``close()`` force-unlinks
  everything and runs automatically via ``weakref.finalize`` (which is
  also atexit-registered), so neither a dropped runner nor a normal
  interpreter exit can leak ``/dev/shm`` entries; if the parent dies
  hard (SIGKILL), the stdlib resource tracker — a separate process —
  unlinks whatever remains.  Crashed *workers* hold only attachments,
  never ownership, so a ``BrokenProcessPool`` rebuild needs no cleanup
  beyond the arena the parent already owns.  A byte budget
  (``REPRO_SHM_MAX_BYTES``) evicts the least-recently-published idle
  segments so unbounded sweeps cannot fill ``/dev/shm``.
* :class:`TraceHandle` — the picklable wire description of one
  published trace (segment name, lengths, epoch count).  Handles are
  shipped with every chunk, so a pool rebuilt mid-sweep re-learns the
  arena with no initializer coordination.
* the worker side — :func:`attach_trace` maps a handle (memoized per
  process, per segment) and :func:`install_worker_handles` installs a
  provider into :mod:`repro.workloads.base` so ``dram_trace`` consults
  shared memory before synthesizing.  A missing or torn segment simply
  returns ``None`` and the worker falls back to local synthesis — the
  arena is an accelerator, never a correctness dependency.

Traces built from shared memory are **bit-identical** to synthesized
ones: synthesis is deterministic, the bytes are copied verbatim, and
the mapped arrays are marked read-only so no consumer can corrupt the
shared copy.  When shared memory is unavailable (no ``/dev/shm``,
import failure, creation error) every entry point degrades to the
pickle path that predates this module.
"""

from __future__ import annotations

import itertools
import os
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from repro.core.errors import ReproError, RunnerError
from repro.gpu.trace import DramTrace
from repro.obs import trace as obs_trace
from repro.obs.log import log_event
from repro.policies.registry import make_policy, split_policy

try:  # pragma: no cover - import always succeeds on CPython >= 3.8
    from multiprocessing import shared_memory as _shm_module
except ImportError:  # pragma: no cover - trimmed stdlib builds
    _shm_module = None

#: master switch for parallel sweeps: "0"/"false"/"no"/"off" disable
#: the arena; unset or "1"/"true"/"yes"/"on" leave it on.
SHM_ENV = "REPRO_SHM"

#: byte budget for live segments before idle ones are evicted.
SHM_MAX_BYTES_ENV = "REPRO_SHM_MAX_BYTES"
DEFAULT_SHM_MAX_BYTES = 512 * 1024 * 1024

#: segment names are ``reproshm_<pid>_<seq>`` — greppable in /dev/shm
#: and audited by the leak-check test fixture.
SEGMENT_PREFIX = "reproshm"

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def shm_setting() -> bool:
    """The ``REPRO_SHM`` switch: off only for an off value."""
    raw = os.environ.get(SHM_ENV, "").strip().lower()
    if raw and raw not in _TRUE | _FALSE:
        raise RunnerError(f"{SHM_ENV} must be boolean-ish, got {raw!r}")
    return raw not in _FALSE


def shm_available() -> bool:
    """Can this interpreter create shared-memory segments at all?"""
    return _shm_module is not None


def default_max_bytes() -> int:
    raw = os.environ.get(SHM_MAX_BYTES_ENV, "").strip()
    if not raw:
        return DEFAULT_SHM_MAX_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise RunnerError(
            f"{SHM_MAX_BYTES_ENV} must be an integer, got {raw!r}")
    if value <= 0:
        raise RunnerError(f"{SHM_MAX_BYTES_ENV} must be positive")
    return value


def list_repro_segments() -> set[str]:
    """Names of live repro-owned segments (the leak-audit probe).

    Only meaningful on platforms that expose ``/dev/shm``; elsewhere
    returns an empty set so audits trivially pass.
    """
    root = Path("/dev/shm")
    if not root.is_dir():
        return set()
    return {p.name for p in root.glob(f"{SEGMENT_PREFIX}_*")}


# ----------------------------------------------------------------------
# Wire description of one published trace
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TraceHandle:
    """Everything a worker needs to rebuild a trace from its segment.

    The segment holds ``n_accesses`` little-endian int64 page indices,
    followed (when ``has_write``) by ``n_accesses`` write-flag bytes.
    """

    key: tuple
    segment: str
    n_accesses: int
    footprint_pages: int
    n_raw_accesses: int
    n_epochs: int
    has_write: bool

    @property
    def nbytes(self) -> int:
        return self.n_accesses * (9 if self.has_write else 8)


def _trace_nbytes(trace: DramTrace) -> int:
    per = 9 if trace.is_write is not None else 8
    return max(1, int(trace.page_indices.size) * per)


def _views(buffer, handle: TraceHandle):
    """(page_indices, is_write) ndarray views over a segment buffer."""
    n = handle.n_accesses
    indices = np.ndarray((n,), dtype=np.int64, buffer=buffer)
    flags = None
    if handle.has_write:
        flags = np.ndarray((n,), dtype=bool, buffer=buffer, offset=8 * n)
    return indices, flags


# ----------------------------------------------------------------------
# Parent side: the arena
# ----------------------------------------------------------------------

#: process-global segment-name sequence (see ``_next_name``).
_NAME_SEQ = itertools.count(1)


class _Segment:
    """One live shared-memory segment plus its refcount."""

    __slots__ = ("shm", "handle", "refcount")

    def __init__(self, shm, handle: TraceHandle) -> None:
        self.shm = shm
        self.handle = handle
        self.refcount = 1


def _cleanup_segments(segments: dict) -> None:
    """Unlink every remaining segment (finalizer target).

    Module-level so ``weakref.finalize`` holds no reference back to the
    arena; idempotent because it drains the shared dict.
    """
    while segments:
        _, segment = segments.popitem()
        try:
            segment.shm.close()
            segment.shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - racy
            pass


class SharedTraceArena:
    """Parent-owned registry of published traces.

    Lifecycle contract: ``publish`` creates a segment with refcount 1
    (the publisher's reference).  ``retain``/``release`` adjust the
    count; hitting zero unlinks the segment immediately.  ``close``
    force-unlinks everything regardless of counts — it is the owner's
    prerogative and the crash/atexit backstop.  All accounting is
    parent-process-local: workers only ever *attach*, so their crashes
    cannot strand a segment.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        if not shm_available():
            raise RunnerError(
                "multiprocessing.shared_memory is unavailable")
        self.max_bytes = (default_max_bytes() if max_bytes is None
                          else int(max_bytes))
        #: insertion-ordered (oldest first) for LRU-style eviction.
        self._segments: dict[tuple, _Segment] = {}
        self.published = 0
        self.evicted = 0
        self._finalizer = weakref.finalize(
            self, _cleanup_segments, self._segments)

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, key: tuple) -> bool:
        return key in self._segments

    @property
    def nbytes(self) -> int:
        return sum(s.handle.nbytes for s in self._segments.values())

    def refcount(self, key: tuple) -> int:
        segment = self._segments.get(key)
        return segment.refcount if segment is not None else 0

    def handles(self) -> dict[tuple, TraceHandle]:
        """Snapshot of every live segment's wire description."""
        return {key: seg.handle for key, seg in self._segments.items()}

    # -- lifecycle -----------------------------------------------------

    def _next_name(self) -> str:
        # The sequence is process-global, NOT per-arena: workers
        # memoize decoded traces by segment name, so a name must never
        # be reused within one parent process — a second arena (e.g.
        # after close()) restarting its own counter would alias old
        # names and serve stale traces from worker memos.
        return f"{SEGMENT_PREFIX}_{os.getpid()}_{next(_NAME_SEQ)}"

    def publish(self, key: tuple, trace: DramTrace) -> TraceHandle:
        """Copy ``trace`` into a fresh segment; no-op if already live."""
        existing = self._segments.get(key)
        if existing is not None:
            return existing.handle
        name = self._next_name()
        shm = _shm_module.SharedMemory(
            name=name, create=True, size=_trace_nbytes(trace))
        handle = TraceHandle(
            key=key,
            segment=name,
            n_accesses=int(trace.page_indices.size),
            footprint_pages=int(trace.footprint_pages),
            n_raw_accesses=int(trace.n_raw_accesses),
            n_epochs=int(trace.n_epochs),
            has_write=trace.is_write is not None,
        )
        indices, flags = _views(shm.buf, handle)
        np.copyto(indices, trace.page_indices)
        if flags is not None:
            np.copyto(flags, trace.is_write)
        self._segments[key] = _Segment(shm, handle)
        self.published += 1
        self._evict_over_budget(keep=key)
        return handle

    def retain(self, key: tuple) -> TraceHandle:
        """Take a reference on a live segment (raises if unknown)."""
        segment = self._segments.get(key)
        if segment is None:
            raise RunnerError(f"no shared trace for key {key!r}")
        segment.refcount += 1
        return segment.handle

    def release(self, key: tuple) -> None:
        """Drop one reference; the segment is unlinked at zero."""
        segment = self._segments.get(key)
        if segment is None:
            raise RunnerError(f"no shared trace for key {key!r}")
        segment.refcount -= 1
        if segment.refcount <= 0:
            self._unlink(key)

    def _unlink(self, key: tuple) -> None:
        segment = self._segments.pop(key)
        try:
            segment.shm.close()
            segment.shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - racy
            pass

    def _evict_over_budget(self, keep: tuple) -> None:
        """Evict oldest idle segments until within the byte budget."""
        if self.nbytes <= self.max_bytes:
            return
        for key in list(self._segments):
            if self.nbytes <= self.max_bytes:
                break
            segment = self._segments[key]
            if key == keep or segment.refcount > 1:
                continue  # in use (or just published): never evict
            self._unlink(key)
            self.evicted += 1
            obs_trace.instant("runner.shm.evict", cat="runner",
                              segment=segment.handle.segment,
                              bytes=segment.handle.nbytes)

    def close(self) -> None:
        """Unlink every segment now (idempotent)."""
        _cleanup_segments(self._segments)


# ----------------------------------------------------------------------
# Worker side: attach + provider
# ----------------------------------------------------------------------

#: per-process memo of mapped segments and decoded traces.  Mappings
#: are kept for the life of the worker so the arrays they back stay
#: valid; the OS reclaims them when the process exits.
_ATTACHED: dict[str, object] = {}
_DECODED: dict[str, DramTrace] = {}


def attach_trace(handle: TraceHandle) -> Optional[DramTrace]:
    """Map a published segment into a read-only :class:`DramTrace`.

    Returns ``None`` when the segment no longer exists (evicted or the
    owner died) — callers fall back to local synthesis, preserving
    results at the cost of the copy this module normally avoids.
    """
    cached = _DECODED.get(handle.segment)
    if cached is not None:
        return cached
    if not shm_available():
        return None
    with obs_trace.span("runner.shm.attach", cat="runner",
                        segment=handle.segment,
                        bytes=handle.nbytes) as span:
        try:
            shm = _ATTACHED.get(handle.segment)
            if shm is None:
                shm = _shm_module.SharedMemory(name=handle.segment)
                _ATTACHED[handle.segment] = shm
            indices, flags = _views(shm.buf, handle)
            indices.flags.writeable = False
            if flags is not None:
                flags.flags.writeable = False
            trace = DramTrace(
                page_indices=indices,
                footprint_pages=handle.footprint_pages,
                n_raw_accesses=handle.n_raw_accesses,
                n_epochs=handle.n_epochs,
                is_write=flags,
            )
        except (OSError, ValueError) as exc:
            span.annotate(outcome="miss",
                          cause=f"{type(exc).__name__}: {exc}")
            log_event("runner.shm.attach_failed", level="warning",
                      segment=handle.segment,
                      cause=f"{type(exc).__name__}: {exc}")
            return None
        span.annotate(outcome="attached")
    _DECODED[handle.segment] = trace
    return trace


class WorkerTraceProvider:
    """The ``dram_trace`` hook a worker installs: key → shared trace."""

    def __init__(self) -> None:
        self._handles: dict[tuple, TraceHandle] = {}

    def merge(self, handles: Mapping[tuple, TraceHandle]) -> None:
        self._handles.update(handles)

    def __call__(self, key: tuple) -> Optional[DramTrace]:
        handle = self._handles.get(key)
        if handle is None:
            return None
        return attach_trace(handle)


def install_worker_handles(
        handles: Mapping[tuple, TraceHandle]) -> WorkerTraceProvider:
    """Install (or extend) this process's shared-trace provider."""
    from repro.workloads import base as workloads_base

    provider = workloads_base.trace_provider()
    if not isinstance(provider, WorkerTraceProvider):
        provider = WorkerTraceProvider()
        workloads_base.install_trace_provider(provider)
    provider.merge(handles)
    return provider


# ----------------------------------------------------------------------
# Planning: which trace keys will a spec's experiment ask for?
# ----------------------------------------------------------------------

def planned_trace_keys(spec) -> tuple[tuple, ...]:
    """The ``dram_trace`` memo keys ``run_experiment(spec)`` will use.

    Mirrors :func:`repro.core.experiment.run_experiment`: every run
    needs the default-epoch trace (static replay, oracle profiling,
    the profiler's pass); ONLINE policies additionally replay at their
    configured epoch count, and ANNOTATED runs with a distinct
    ``training_dataset`` profile on that dataset too.  Unknown policy
    spellings plan conservatively (base key only) — planning must
    never raise, because a bad spec has to surface through the normal
    execution error path, not here.
    """
    from repro.workloads.base import DEFAULT_RAW_ACCESSES, trace_cache_key

    n_accesses = (spec.trace_accesses if spec.trace_accesses is not None
                  else DEFAULT_RAW_ACCESSES)
    keys = [trace_cache_key(spec.workload, spec.dataset, n_accesses,
                            spec.seed)]
    try:
        epochs = (make_policy(spec.policy).epochs
                  if split_policy(spec.policy)[0] == "ONLINE" else None)
    except ReproError:  # malformed specs fail later
        epochs = None
    if epochs is not None:
        key = trace_cache_key(spec.workload, spec.dataset, n_accesses,
                              spec.seed, n_epochs=epochs)
        if key not in keys:
            keys.append(key)
    if ("ANNOTATED" in spec.policy.upper()
            and spec.training_dataset
            and spec.training_dataset != spec.dataset):
        keys.append(trace_cache_key(spec.workload, spec.training_dataset,
                                    n_accesses, spec.seed))
    return tuple(keys)


def publish_for_specs(arena: SharedTraceArena,
                      specs: Iterable,
                      synthesize: Optional[Callable] = None
                      ) -> dict[tuple, TraceHandle]:
    """Publish every trace the given specs will need; returns handles.

    Each returned handle carries one reference, taken as soon as its
    key is live (so publishing a later key of the same call cannot
    evict it); the caller must :meth:`~SharedTraceArena.release` every
    returned key once its consumers are done with the segment.

    ``synthesize`` is injectable for tests; the default resolves the
    workload and synthesizes through the ordinary (memoized)
    ``dram_trace`` path, so the parent pays each synthesis exactly
    once.  Any per-spec failure (unknown workload/dataset, malformed
    policy) is skipped: the spec will raise the real error in a worker,
    exactly as it would have without shared memory.
    """
    handles: dict[tuple, TraceHandle] = {}
    published_bytes = 0
    with obs_trace.span("runner.shm.publish", cat="runner") as span:
        for spec in specs:
            for key in planned_trace_keys(spec):
                if key in handles:
                    continue
                if key in arena:
                    handles[key] = arena.retain(key)
                    continue
                try:
                    if synthesize is not None:
                        trace = synthesize(key)
                    else:
                        trace = _synthesize(key)
                    arena.publish(key, trace)
                    handles[key] = arena.retain(key)
                    published_bytes += handles[key].nbytes
                except Exception as exc:  # noqa: BLE001 - advisory path
                    log_event("runner.shm.publish_skipped",
                              level="warning", spec=spec.label(),
                              cause=f"{type(exc).__name__}: {exc}")
        span.annotate(n_traces=len(handles), bytes=published_bytes,
                      arena_bytes=arena.nbytes)
    return handles


def _synthesize(key: tuple) -> DramTrace:
    """Run the ordinary synthesis pipeline for one memo key."""
    from repro.workloads.suite import get_workload

    name, dataset, n_accesses, seed, filtered, _config, n_epochs = key
    workload = get_workload(name)
    return workload.dram_trace(dataset, n_accesses=n_accesses, seed=seed,
                               filtered=filtered, n_epochs=n_epochs)
