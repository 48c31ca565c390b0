"""Span-based tracing with Chrome trace-event export.

One question the metrics counters cannot answer is *where the time
went* inside a single request or sweep: which chunk waited, which spec
retried, whether the cache lookup or the engine kernel dominated.  This
module answers it with lightweight spans::

    from repro.obs import trace

    with trace.span("runner.chunk", cat="runner", n_specs=4) as sp:
        ...
        sp.annotate(retries=1)

Design constraints, in order:

* **Near-zero overhead when disabled.**  ``span()`` checks one module
  global and returns a shared no-op handle; no objects are allocated,
  no clocks are read.  The hot kernels stay within noise of the
  committed bench baselines with tracing off.
* **One file, openable in Perfetto.**  Enabled tracers buffer events in
  memory and export the `Chrome trace-event JSON format
  <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
  (``{"traceEvents": [...]}``, complete ``"ph": "X"`` events with
  microsecond ``ts``/``dur``), which ``about:tracing`` and
  https://ui.perfetto.dev load directly.
* **Worker spans merge into the parent's timeline.**  Worker processes
  record into a buffer-only tracer (:func:`capture`), ship their events
  back with the chunk payload, and the parent :meth:`Tracer.absorb`\\ s
  them — ``pid``/``tid`` preserved, timestamps on the shared wall
  clock, so Perfetto shows one aligned multi-process timeline.
* **Request-scoped correlation.**  A contextvar carries the current
  trace id (``X-Trace-Id`` on the wire); every span opened under it is
  tagged ``args.trace_id``, so one simulate request yields one
  filterable tree spanning client → daemon → runner → cache.

Activation: ``REPRO_TRACE=<path>`` in the environment (exported
automatically at process exit), ``--trace <path>`` on the CLI, or
:func:`install` programmatically.  Async spans opened inside an
``http.request`` span inherit its timeline lane (a contextvar), so
concurrent requests render as separate, correctly nested tracks even
though they interleave on one event-loop thread.
"""

from __future__ import annotations

import atexit
import contextvars
import json
import os
import sys
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Sequence, Union

#: environment variable that enables tracing and names the export path.
TRACE_ENV = "REPRO_TRACE"

#: wire header carrying the trace id client → daemon (case-insensitive).
TRACE_ID_HEADER = "X-Trace-Id"

#: current request/sweep trace id; spans record it as ``args.trace_id``.
_trace_id_var: contextvars.ContextVar[Optional[str]] = \
    contextvars.ContextVar("repro_trace_id", default=None)

#: timeline lane override — set by a root request span so every span
#: nested under it (including async callees on other tasks and executor
#: threads entered with a copied context) shares one ``tid`` track.
_lane_var: contextvars.ContextVar[Optional[int]] = \
    contextvars.ContextVar("repro_trace_lane", default=None)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (compact enough for labels)."""
    return uuid.uuid4().hex[:16]


def current_trace_id() -> Optional[str]:
    """The trace id bound to the current context, if any."""
    return _trace_id_var.get()


def set_trace_id(trace_id: Optional[str]) -> contextvars.Token:
    """Bind ``trace_id`` to the current context; returns a reset token."""
    return _trace_id_var.set(trace_id)


def reset_trace_id(token: contextvars.Token) -> None:
    _trace_id_var.reset(token)


def _tid() -> int:
    """The timeline lane for the current context.

    A root span may have pinned a lane (async request handling); else
    the asyncio task identity (each concurrent request is its own
    track); else the OS thread identity.
    """
    lane = _lane_var.get()
    if lane is not None:
        return lane
    # No task can be running unless something imported asyncio, so the
    # module is looked up rather than imported (it costs ~40 ms).
    asyncio = sys.modules.get("asyncio")
    try:
        task = asyncio.current_task() if asyncio is not None else None
    except RuntimeError:
        task = None
    if task is not None:
        return id(task) & 0x7FFFFFFF
    return threading.get_ident() & 0x7FFFFFFF


class _SpanHandle:
    """What a ``with span(...)`` block receives: an annotation sink."""

    __slots__ = ("_extra",)

    def __init__(self, extra: dict) -> None:
        self._extra = extra

    def annotate(self, **fields: Any) -> None:
        """Attach fields to the span's ``args`` at close time."""
        self._extra.update(fields)


class _NullSpan:
    """Shared no-op handle returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **fields: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """An in-memory trace-event buffer bound to one export path.

    Thread-safe: spans close (and workers' events are absorbed) from
    the event loop, executor threads, and test threads concurrently.
    ``path`` may be ``None`` for buffer-only tracers (worker capture).
    """

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        self.path = Path(path) if path is not None else None
        #: pid that owns the export; forked children must never write.
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._events: list[dict] = []

    # -- recording -----------------------------------------------------

    def _record(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)

    @contextmanager
    def span(self, name: str, cat: str = "repro",
             **args: Any) -> Iterator[_SpanHandle]:
        """Record one complete ("X") event around the ``with`` body."""
        ts_us = time.time_ns() // 1_000
        start = time.perf_counter_ns()
        extra: dict = {}
        handle = _SpanHandle(extra)
        try:
            yield handle
        finally:
            dur_us = max((time.perf_counter_ns() - start) // 1_000, 1)
            merged = dict(args)
            merged.update(extra)
            trace_id = _trace_id_var.get()
            if trace_id is not None:
                merged.setdefault("trace_id", trace_id)
            self._record({
                "name": name, "cat": cat, "ph": "X",
                "ts": ts_us, "dur": dur_us,
                "pid": os.getpid(), "tid": _tid(),
                "args": merged,
            })

    def instant(self, name: str, cat: str = "repro",
                **args: Any) -> None:
        """Record one instant ("i") event — retry/degrade annotations."""
        trace_id = _trace_id_var.get()
        if trace_id is not None:
            args.setdefault("trace_id", trace_id)
        self._record({
            "name": name, "cat": cat, "ph": "i", "s": "t",
            "ts": time.time_ns() // 1_000,
            "pid": os.getpid(), "tid": _tid(),
            "args": args,
        })

    def absorb(self, events: Sequence[Mapping[str, Any]]) -> None:
        """Merge events recorded elsewhere (worker processes) verbatim.

        ``pid``/``tid`` are preserved so the exported timeline keeps
        one track per worker.
        """
        with self._lock:
            self._events.extend(dict(event) for event in events)

    # -- introspection / export ----------------------------------------

    @property
    def events(self) -> list[dict]:
        """A snapshot of the recorded events (tests, merging)."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def export(self, path: Union[str, Path, None] = None) -> Path:
        """Write the Chrome trace-event JSON file; returns its path.

        Only the installing process exports — a forked worker that
        inherited this tracer silently refuses, so pool workers can
        never clobber the parent's file at interpreter exit.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("tracer has no export path")
        if os.getpid() != self.pid:
            return target
        events = self.events
        pids = sorted({event["pid"] for event in events})
        metadata = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"repro (pid {pid})"}}
            for pid in pids
        ]
        payload = {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.trace"},
        }
        from repro.core.atomicio import atomic_write_text

        return atomic_write_text(target, json.dumps(payload))


# ----------------------------------------------------------------------
# module-level tracer: one per process, env- or CLI-activated
# ----------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None
#: set after the REPRO_TRACE env var has been consulted once, so the
#: disabled fast path is a plain global read.
_ENV_CHECKED = False


def install(path: Union[str, Path, None] = None,
            tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the process-wide tracer."""
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = tracer if tracer is not None else Tracer(path)
    _ENV_CHECKED = True
    return _ACTIVE


def uninstall() -> Optional[Tracer]:
    """Remove and return the process-wide tracer (no export)."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


def _reset_state() -> None:
    """Forget the tracer *and* the env probe (test isolation only)."""
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = None
    _ENV_CHECKED = False


def active() -> Optional[Tracer]:
    """The installed tracer, lazily built from ``REPRO_TRACE``."""
    global _ENV_CHECKED
    if _ACTIVE is None and not _ENV_CHECKED:
        _ENV_CHECKED = True
        path = os.environ.get(TRACE_ENV, "").strip()
        if path:
            install(path)
    return _ACTIVE


def enabled() -> bool:
    """True when spans are being recorded in this process."""
    return active() is not None


def span(name: str, cat: str = "repro", **args: Any):
    """Context manager recording one span — no-op when disabled."""
    tracer = active()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, cat=cat, **args)


def instant(name: str, cat: str = "repro", **args: Any) -> None:
    """Record one instant event — no-op when disabled."""
    tracer = active()
    if tracer is not None:
        tracer.instant(name, cat=cat, **args)


@contextmanager
def lane(tid: Optional[int] = None) -> Iterator[int]:
    """Pin every span in the block (and its async/executor callees that
    copy this context) to one timeline lane."""
    value = _tid() if tid is None else tid
    token = _lane_var.set(value)
    try:
        yield value
    finally:
        _lane_var.reset(token)


@contextmanager
def capture() -> Iterator[list]:
    """Record spans into a throwaway buffer; yields its event list.

    The worker-process half of span merging: ``_execute_chunk`` runs
    under ``capture()`` and returns the events with its payload, and
    the parent absorbs them.  The ambient tracer (an inherited fork
    copy, or an env-activated one) is shadowed for the duration, so a
    worker can never export or double-record.
    """
    global _ACTIVE, _ENV_CHECKED
    previous, previous_checked = _ACTIVE, _ENV_CHECKED
    tracer = Tracer(path=None)
    _ACTIVE, _ENV_CHECKED = tracer, True
    try:
        yield tracer._events
    finally:
        _ACTIVE, _ENV_CHECKED = previous, previous_checked


def _export_at_exit() -> None:
    """Flush an env-activated tracer when the process ends."""
    tracer = _ACTIVE
    if tracer is not None and tracer.path is not None:
        try:
            tracer.export()
        except Exception:  # pragma: no cover - exit path best-effort
            pass


atexit.register(_export_at_exit)
