"""Concurrency primitives for the daemon: micro-batching and single-flight.

Two shapes of request coalescing, both pure asyncio:

* :class:`MicroBatcher` — amortize many cheap, independent requests
  (``/v1/placement``) by collecting everything that arrives within a
  short window into one handler call;
* :class:`SingleFlight` — deduplicate expensive identical requests
  (simulate, profile, autotune jobs): the first caller starts the job,
  concurrent identical callers await the *same* task, and the key is
  released when the job completes (after which the on-disk cache
  serves repeats).

Neither primitive knows anything about HTTP or placement — they are
testable in isolation (see ``tests/test_serve_units.py``).
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Optional, Sequence

from repro.core.errors import ServeError


class BatchSaturatedError(ServeError):
    """The micro-batch queue is full; the caller should degrade inline."""


class MicroBatcher:
    """Collect concurrent submissions into windowed handler calls.

    ``handler`` receives a list of items and must return a list of
    results of equal length, aligned by position; a result may be an
    ``Exception`` instance, which is raised to that item's submitter
    without failing the rest of the batch.  The handler runs on the
    event loop — it must be cheap (the closed-form ``GetAllocation``
    path qualifies; simulations do not).

    A batch is flushed when ``max_batch`` items are waiting or when
    ``window_s`` has elapsed since the first item arrived, whichever
    comes first.  ``window_s=0`` degenerates to drain-what's-queued,
    which still coalesces bursts that arrived while a previous batch
    was being processed.
    """

    def __init__(self, handler: Callable[[list], list],
                 window_s: float = 0.002,
                 max_batch: int = 64,
                 max_queue: int = 256) -> None:
        self._handler = handler
        self.window_s = window_s
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._queue: asyncio.Queue = asyncio.Queue()
        self._worker: Optional[asyncio.Task] = None
        #: filled in by the owner for observability; batch sizes seen.
        self.batch_sizes: list[int] = []
        #: observability hook: called with the queue depth on every
        #: enqueue and dequeue, so a gauge wired here is live rather
        #: than sampled at scrape/flush time (it used to go stale
        #: between placement batches).
        self.on_depth_change: Optional[Callable[[int], None]] = None

    def _depth_changed(self) -> None:
        if self.on_depth_change is not None:
            self.on_depth_change(self._queue.qsize())

    def start(self) -> None:
        if self._worker is None:
            self._worker = asyncio.get_running_loop().create_task(
                self._run(), name="repro-serve-batcher"
            )

    async def stop(self) -> None:
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    async def submit(self, item: Any) -> Any:
        """Queue ``item`` and await its result from a future batch.

        Raises :class:`BatchSaturatedError` when the queue is full —
        the caller is expected to fall back to computing inline rather
        than queueing unboundedly (graceful degradation, not failure).
        """
        if self._worker is None:
            raise ServeError("MicroBatcher.submit before start()")
        if self._queue.qsize() >= self.max_queue:
            raise BatchSaturatedError(
                f"placement batch queue full ({self.max_queue})"
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((item, future))
        self._depth_changed()
        return await future

    async def _collect(self) -> list:
        """One batch: first item blocks, the rest race the window."""
        batch = [await self._queue.get()]
        self._depth_changed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.window_s
        while len(batch) < self.max_batch:
            remaining = deadline - loop.time()
            if remaining <= 0:
                while (len(batch) < self.max_batch
                       and not self._queue.empty()):
                    batch.append(self._queue.get_nowait())
                self._depth_changed()
                break
            try:
                batch.append(await asyncio.wait_for(
                    self._queue.get(), remaining
                ))
                self._depth_changed()
            except asyncio.TimeoutError:
                break
        return batch

    async def _run(self) -> None:
        while True:
            batch = await self._collect()
            self.batch_sizes.append(len(batch))
            items = [item for item, _ in batch]
            try:
                results = self._handler(items)
                if len(results) != len(items):
                    raise ServeError(
                        "batch handler returned "
                        f"{len(results)} results for {len(items)} items"
                    )
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                results = [exc] * len(items)
            for (_, future), result in zip(batch, results):
                if future.cancelled():
                    continue
                if isinstance(result, Exception):
                    future.set_exception(result)
                else:
                    future.set_result(result)


class SingleFlight:
    """Share one in-flight task among identical concurrent requests.

    Keys identify work (here: a job's result-cache content key).  The
    first ``join_or_start`` for a key creates the task; later calls
    return the same task with ``joined=True``.  The entry is dropped when the
    task finishes, so post-completion repeats start fresh (and are then
    satisfied by whatever persistent cache the task populated).

    Awaiters should wrap the task in :func:`asyncio.shield` — one
    waiter's timeout must not cancel a job others (or the cache) still
    want.
    """

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Task] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    def keys(self) -> Sequence[str]:
        return tuple(self._inflight)

    def tasks(self) -> "tuple[asyncio.Task, ...]":
        """The in-flight tasks themselves (graceful shutdown drains
        these before tearing down the executor)."""
        return tuple(self._inflight.values())

    def join_or_start(
        self, key: str, factory: Callable[[], Awaitable[Any]]
    ) -> tuple[asyncio.Task, bool]:
        """Return ``(task, joined)`` for ``key``.

        ``joined`` is ``True`` when an existing in-flight task was
        reused (the dedup hit the integration tests count via
        ``/metrics``).
        """
        task = self._inflight.get(key)
        if task is not None and not task.done():
            return task, True
        task = asyncio.get_running_loop().create_task(
            factory(), name=f"repro-serve-job-{key[:8]}"
        )
        self._inflight[key] = task
        task.add_done_callback(
            lambda finished: self._discard(key, finished)
        )
        return task, False

    def _discard(self, key: str, task: asyncio.Task) -> None:
        if not task.cancelled():
            # Mark any failure retrieved: waiters that stopped waiting
            # (deadline, disconnect) must not trigger asyncio's "task
            # exception was never retrieved" warning.
            task.exception()
        if self._inflight.get(key) is task:
            del self._inflight[key]
