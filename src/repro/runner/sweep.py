"""The parallel sweep runner.

:class:`SweepRunner` turns a list of :class:`~repro.runner.spec.RunSpec`
into a list of :class:`~repro.core.experiment.ExperimentResult`, in
order, using three accelerations that never change the numbers:

* **cache** — specs whose salted content hash is already on disk are
  served without simulating (see :mod:`repro.runner.cache`);
* **in-batch dedup** — identical specs within one batch execute once
  (experiments routinely re-run their baseline per sweep point);
* **process fan-out** — remaining specs are split into deterministic
  contiguous chunks and streamed through a ``ProcessPoolExecutor``.

Determinism: every experiment is fully reproducible from its spec (all
randomness is seeded, and no state carries over between runs), so the
partitioning of specs onto workers cannot affect results — parallel
output is bit-identical to a serial run.  Chunks are contiguous blocks
of the miss list (:func:`partition_misses`): consecutive specs that
need the same traces stay together, and a block is capped at
``ceil(n_misses / jobs)`` specs so even a one-trace sweep spreads over
every worker.  The partition is a pure function of the specs and
``jobs``, and it preserves the workload-major order figure loops emit.

Streaming: the parent publishes one block's traces, submits that block
at once, and harvests finished chunks without blocking before it
builds the next block's traces — so workers compute workload 1 while
the parent synthesizes workload 2, and decoding and checkpointing
overlap the remaining compute.  Harvest is strictly in submission
order, which keeps checkpoint order (and fault targeting) deterministic;
once every block is submitted the parent blocks on the oldest pending
chunk.  Executed results are round-tripped through the cache codec even
on the serial path, so a value can never depend on whether it came
from a worker, the cache, or an in-process run.

Fault tolerance: the fan-out path survives crashed workers, hung
chunks, and transient exceptions.  Each chunk gets a wall-clock budget
(``chunk_timeout_s``) counted from the moment it can hold a worker —
the later of its submit and the harvest of the chunk ``jobs`` places
ahead of it — so time spent queued behind other chunks never counts.
A timeout or a ``BrokenProcessPool`` abandons and rebuilds the pool,
and the failed chunks are retried with exponential backoff +
deterministic jitter, **split in half** on each retry so a single
poisoned spec is progressively isolated.  An input error
(:data:`FAIL_FAST_ERRORS`) is not retried: a retry runs the same
inputs into the same error, so its spec fails at once, with no backoff
and no halving, and the rest of its chunk runs again.  A spec
that exhausts ``max_retries`` gets one last in-process attempt (the
degraded serial fallback); if that fails too the sweep raises a
structured :class:`~repro.core.errors.SweepError` naming the offending
specs.  Completed chunks are checkpointed to the cache *as they
finish*, so a killed or failed sweep only re-runs actual misses when
resumed.  All recovery events are counted in the manifest's
``recovery`` dict.  Failures are injectable via
:class:`~repro.resilience.faults.FaultPlan` (site ``runner.chunk``) —
decisions are made in the parent and shipped to workers as arguments,
so every recovery path is deterministic and testable.

A module-global *active runner* lets high-level entry points (the CLI,
figure regenerators) share one configuration: ``configure()`` installs
a runner, ``configured()`` scopes one to a ``with`` block, ``active()``
returns the current one (building an environment-default runner on
first use: ``REPRO_JOBS`` workers, caching only if ``REPRO_CACHE_DIR``
is set).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro.core.cachedir import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIRNAME,
    cache_root,
)
from repro.core.errors import (
    ConfigError,
    OutOfMemoryError,
    PolicyError,
    RunnerError,
    SweepError,
    WorkloadError,
)
from repro.core.experiment import ExperimentResult, run_experiment
from repro.obs import trace as obs_trace
from repro.obs.log import log_event
from repro.policies.registry import parse_policy
from repro.resilience.faults import (
    FaultAction,
    FaultPlan,
    InjectedFaultError,
    active_plan,
    perform_worker_action,
)
from repro.resilience.retry import BackoffPolicy
from repro.runner.cache import (
    ResultCache,
    decode_result,
    encode_result,
)
from repro.runner.manifest import RunManifest, SpecRecord
from repro.runner.salt import code_version_salt
from repro.runner.shm import (
    SharedTraceArena,
    TraceHandle,
    install_worker_handles,
    planned_trace_keys,
    publish_for_specs,
    shm_available,
    shm_setting,
)
from repro.runner.spec import RunSpec
from repro.runner.wire import pack_chunk, unpack_chunk

# Worker pools fork from this process: load the ANNOTATED policy's
# profiling pass and the ONLINE policy's migration stack here, or each
# worker of every pool imports them again.
import repro.policies.online  # noqa: F401
import repro.profiling.profiler  # noqa: F401
import repro.runtime.hints  # noqa: F401

#: default on-disk locations, overridable from the environment.
#: (cache resolution itself lives in :mod:`repro.core.cachedir` so the
#: CLI and the serve daemon share the exact same rule.)
RUNS_DIR_ENV = "REPRO_RUNS_DIR"
JOBS_ENV = "REPRO_JOBS"
CHUNK_TIMEOUT_ENV = "REPRO_CHUNK_TIMEOUT"
MAX_RETRIES_ENV = "REPRO_MAX_RETRIES"

#: retry budget per spec when none is configured.
DEFAULT_MAX_RETRIES = 2

#: errors a spec's own inputs cause, so every retry would raise them
#: again: they fail their spec at once.  Worker death, timeouts,
#: ``OSError`` and injected faults stay retriable.
FAIL_FAST_ERRORS = (OutOfMemoryError, PolicyError, ConfigError,
                    WorkloadError)


def default_jobs() -> int:
    """Worker count when none is configured (``REPRO_JOBS`` or 1)."""
    raw = os.environ.get(JOBS_ENV, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise RunnerError(f"{JOBS_ENV} must be an integer, got {raw!r}")
    return 1


def check_chunk_timeout(value: Optional[float]) -> Optional[float]:
    """A chunk budget from any source (constructor, environment,
    ``ServeConfig``, CLI): ``None`` for none, else a finite number of
    seconds in ``(0, threading.TIMEOUT_MAX]``.  ``nan`` would time every
    chunk out and ``inf`` overflows the wait, so both fail up front."""
    if value is not None and not 0 < float(value) <= threading.TIMEOUT_MAX:
        raise RunnerError(f"chunk timeout must be a number of seconds in "
                          f"(0, {threading.TIMEOUT_MAX:.0f}], got {value!r}")
    return None if value is None else float(value)


def default_chunk_timeout() -> Optional[float]:
    """Chunk budget when none is configured (``REPRO_CHUNK_TIMEOUT``).

    ``None`` (no env var) disables the timeout — identical to the
    historical behavior; any value :func:`check_chunk_timeout` passes
    enables it.
    """
    raw = os.environ.get(CHUNK_TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise RunnerError(
            f"{CHUNK_TIMEOUT_ENV} must be a number, got {raw!r}")
    return check_chunk_timeout(value)


def default_max_retries() -> int:
    """Per-spec retry budget (``REPRO_MAX_RETRIES`` or 2)."""
    raw = os.environ.get(MAX_RETRIES_ENV, "").strip()
    if not raw:
        return DEFAULT_MAX_RETRIES
    try:
        return max(0, int(raw))
    except ValueError:
        raise RunnerError(
            f"{MAX_RETRIES_ENV} must be an integer, got {raw!r}")


def default_cache_root() -> Path:
    """Where a cache goes when enabled without an explicit directory.

    Delegates to :func:`repro.core.cachedir.cache_root` — the one rule
    shared by the runner, the CLI, and the serve daemon.
    """
    return cache_root()


def execute_spec(spec: RunSpec) -> ExperimentResult:
    """Run one spec's experiment (no cache involvement)."""
    return run_experiment(
        spec.workload,
        dataset=spec.dataset,
        policy=parse_policy(spec.policy),
        topology=spec.topology,
        bo_capacity_fraction=spec.bo_capacity_fraction,
        engine=spec.engine,
        trace_accesses=spec.trace_accesses,
        seed=spec.seed,
        training_dataset=spec.training_dataset,
    )


def _run_chunk_body(specs: Sequence[RunSpec],
                    action: Optional[FaultAction]
                    ) -> list[tuple[dict, float]]:
    perform_worker_action(action)
    out = []
    for position, spec in enumerate(specs):
        start = time.perf_counter()
        try:
            with obs_trace.span("runner.exec", cat="runner",
                                spec=spec.label()):
                result = execute_spec(spec)
        except FAIL_FAST_ERRORS as exc:
            # Name the spec to the parent, which fails it at once.
            exc.chunk_position = position
            raise
        out.append((encode_result(result), time.perf_counter() - start))
    return out


def _execute_chunk(specs: Sequence[RunSpec],
                   action: Optional[FaultAction] = None,
                   collect_spans: bool = False,
                   handles: "Optional[dict[tuple, TraceHandle]]" = None
                   ) -> tuple[bytes, list[dict]]:
    """Worker entry point: run specs, return the chunk's results as one
    :mod:`repro.runner.wire` frame plus any spans recorded meanwhile.

    Results cross the process boundary in the cache's JSON encoding
    (framed by :func:`~repro.runner.wire.pack_chunk`) so fresh and
    cached results are byte-for-byte the same representation.
    ``action`` is a fault decision shipped from the parent (crash /
    hang / transient error) — ``None`` outside chaos runs and tests.
    ``handles`` names the shared-memory segments holding this chunk's
    traces; merging them (idempotent) before running covers workers
    born after a pool rebuild and traces published after the pool's
    initializer ran.  ``collect_spans`` is set by a tracing parent
    submitting to a worker pool: execution spans are buffered locally
    (pid/tid of this process) and returned with the payload so the
    parent can merge them into its timeline.  In-process callers leave
    it ``False`` and record straight into the ambient tracer.
    """
    if handles:
        install_worker_handles(handles)
    if collect_spans:
        with obs_trace.capture() as events:
            out = _run_chunk_body(specs, action)
        return pack_chunk(out), list(events)
    return pack_chunk(_run_chunk_body(specs, action)), []


def partition_misses(specs: Sequence[RunSpec], jobs: int) -> list[range]:
    """Split ``range(len(specs))`` into contiguous execution blocks.

    Consecutive specs with equal
    :func:`~repro.runner.shm.planned_trace_keys` form one trace group;
    a group is cut every ``ceil(len(specs) / jobs)`` specs, so a sweep
    over a single trace still spreads over every worker.  Pure function
    of its arguments — the partition (and therefore which worker runs
    what) never depends on timing.
    """
    n = len(specs)
    cap = -(-n // max(1, jobs))
    traces = [planned_trace_keys(spec) for spec in specs]
    blocks, start = [], 0
    for i in range(1, n + 1):
        if i == n or i - start == cap or traces[i] != traces[start]:
            blocks.append(range(start, i))
            start = i
    return blocks


@dataclass
class RecoveryStats:
    """What it took to complete a sweep beyond the happy path."""

    retries: int = 0
    pool_rebuilds: int = 0
    chunk_timeouts: int = 0
    worker_crashes: int = 0
    chunk_errors: int = 0
    degraded_serial: int = 0
    backoff_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "retries": self.retries,
            "pool_rebuilds": self.pool_rebuilds,
            "chunk_timeouts": self.chunk_timeouts,
            "worker_crashes": self.worker_crashes,
            "chunk_errors": self.chunk_errors,
            "degraded_serial": self.degraded_serial,
            "backoff_s": round(self.backoff_s, 6),
        }


@dataclass(frozen=True)
class SweepOutcome:
    """Results of one batch, plus its manifest."""

    results: tuple[ExperimentResult, ...]
    manifest: RunManifest

    def __iter__(self) -> Iterator[ExperimentResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> ExperimentResult:
        return self.results[index]


@dataclass
class _Chunk:
    """One submitted block awaiting harvest."""

    block: list[int]
    future: Future
    #: arena keys retained for the block, released when it settles.
    traces: tuple
    #: when the chunk could first hold a worker (its timeout clock);
    #: ``None`` while ``jobs`` older chunks are still unsettled.
    clock: Optional[float]


class _Wave:
    """One pass of blocks through the pool: streamed submit, in-order
    harvest.

    ``failed`` collects ``(block, cause)`` pairs for the retry logic;
    ``rejected`` the ``(spec index, cause)`` pairs of input errors,
    which fail at once, and ``rerun`` the rest of their chunks;
    ``broken`` records that the pool has to be abandoned and rebuilt.
    """

    def __init__(self, runner: "SweepRunner", specs: Sequence[RunSpec],
                 keys: Sequence[str], results: list, durations: list,
                 recovery: RecoveryStats) -> None:
        self.runner = runner
        self.specs = specs
        self.keys = keys
        self.results = results
        self.durations = durations
        self.recovery = recovery
        self.tracing = obs_trace.enabled()
        self.pending: deque[_Chunk] = deque()
        self.failed: list[tuple[list[int], str]] = []
        self.rejected: list[tuple[int, str]] = []
        self.rerun: list[list[int]] = []
        self.broken = False

    def submit(self, block: list[int]) -> None:
        """Publish the block's traces, then hand the block to the pool."""
        runner = self.runner
        block_specs = [self.specs[i] for i in block]
        # Every block of a wave takes exactly one fault decision, even
        # when an earlier chunk already broke the pool: how many were
        # submitted by then is timing, the decision sequence is not.
        action = runner._decide("|".join(s.label() for s in block_specs))
        if self.broken:
            self.failed.append((block, "worker pool broken"))
            return
        handles = runner._publish_block(block_specs)
        try:
            with obs_trace.span("runner.submit", cat="runner",
                                n_specs=len(block)):
                future = runner._ensure_pool().submit(
                    _execute_chunk, block_specs, action, self.tracing,
                    handles or None)
        except BaseException as exc:
            runner._release(handles)
            if not isinstance(exc, BrokenExecutor):
                raise
            self.recovery.worker_crashes += 1
            self.broken = True
            self.failed.append(
                (block, f"worker pool broke on submit: {exc}"))
            return
        clock = (time.monotonic() if len(self.pending) < runner.jobs
                 else None)
        self.pending.append(_Chunk(block, future, tuple(handles), clock))

    def drain(self, wait: bool) -> None:
        """Settle pending chunks in submission order: all of them when
        ``wait``, else only the prefix that has already finished."""
        jobs = self.runner.jobs
        while self.pending and (wait or self.pending[0].future.done()):
            chunk = self.pending.popleft()
            try:
                self._settle(chunk)
            finally:
                self.runner._release(chunk.traces)
                if (len(self.pending) >= jobs
                        and self.pending[jobs - 1].clock is None):
                    self.pending[jobs - 1].clock = time.monotonic()

    def close(self) -> None:
        """Release the traces of chunks left pending by an abort."""
        while self.pending:
            self.runner._release(self.pending.popleft().traces)

    def _settle(self, chunk: _Chunk) -> None:
        runner, specs = self.runner, self.specs
        block, future = chunk.block, chunk.future
        labels = [specs[i].label() for i in block]
        with obs_trace.span("runner.chunk", cat="runner",
                            specs=labels) as chunk_span:
            if self.broken:
                # Pool already abandoned: salvage finished chunks,
                # requeue the rest.
                if future.done() and future.exception() is None:
                    runner._harvest(specs, self.keys, block,
                                    future.result(), self.results,
                                    self.durations)
                    chunk_span.annotate(outcome="salvaged")
                else:
                    self.failed.append((block, "worker pool broken"))
                    chunk_span.annotate(outcome="abandoned")
                return
            timeout = None
            if runner.chunk_timeout_s is not None:
                timeout = max(0.05, chunk.clock + runner.chunk_timeout_s
                              - time.monotonic())
            try:
                with obs_trace.span("runner.wait", cat="runner"):
                    payload = future.result(timeout=timeout)
            except FuturesTimeoutError:
                self.recovery.chunk_timeouts += 1
                self.broken = True
                cause = f"chunk exceeded {runner.chunk_timeout_s}s timeout"
                self.failed.append((block, cause))
                chunk_span.annotate(outcome="timeout")
            except BrokenExecutor as exc:
                self.recovery.worker_crashes += 1
                self.broken = True
                self.failed.append((block, f"worker crashed: {exc}"))
                chunk_span.annotate(outcome="crashed")
            except Exception as exc:  # noqa: BLE001
                self.recovery.chunk_errors += 1
                cause = f"{type(exc).__name__}: {exc}"
                position = getattr(exc, "chunk_position", None)
                if isinstance(exc, FAIL_FAST_ERRORS) and position is not None:
                    self.rejected.append((block[position], cause))
                    rest = block[:position] + block[position + 1:]
                    if rest:
                        self.rerun.append(rest)
                    chunk_span.annotate(outcome="rejected", cause=cause)
                else:
                    self.failed.append((block, cause))
                    chunk_span.annotate(outcome="error", cause=cause)
            else:
                runner._harvest(specs, self.keys, block, payload,
                                self.results, self.durations)
                chunk_span.annotate(outcome="ok")


class SweepRunner:
    """Fan experiment specs across workers, through a result cache.

    ``jobs``: worker processes (``None`` → ``REPRO_JOBS`` or 1; 1 runs
    in-process).  ``cache``: a :class:`ResultCache`, ``True`` (cache at
    the default root), ``False`` (no cache), or ``None`` (cache only if
    ``REPRO_CACHE_DIR`` is set).  ``runs_dir``: where batch manifests
    are written (``None`` → ``REPRO_RUNS_DIR``, else ``<cache>/runs``
    when caching, else in-memory manifests only).

    Resilience knobs: ``chunk_timeout_s`` (``None`` → disabled or
    ``REPRO_CHUNK_TIMEOUT``) bounds each chunk's wall clock, counted
    from when it can hold a worker, before it is declared hung;
    ``max_retries`` (``None`` → 2 or ``REPRO_MAX_RETRIES``) bounds
    per-spec retry attempts; ``backoff`` schedules the inter-retry
    sleeps; ``fault_plan`` overrides the process-wide injection plan
    (``None`` → ``REPRO_FAULTS``/installed plan via
    :func:`repro.resilience.faults.active_plan`).

    Parallel runs are streamed: misses are cut into trace-grouped
    blocks (:func:`partition_misses`), each block is submitted as soon
    as its traces are published, and finished chunks are harvested in
    submission order while later blocks are still being built.

    Zero-copy substrate: ``shm`` (``None`` → ``REPRO_SHM``, else
    automatic: on for parallel runs when the platform supports it)
    publishes each unique workload trace into a shared-memory segment
    once per sweep and ships segment names to workers instead of
    re-synthesizing per process; a block holds a reference on its
    segments from submit to harvest, so the ``REPRO_SHM_MAX_BYTES``
    budget only ever evicts traces no pending chunk needs.  It is an
    acceleration only — results are bit-identical with it on, off, or
    unavailable.  The worker pool persists across ``run()`` calls (warm
    workers keep their decoded traces); call :meth:`close` to release
    the pool and unlink all segments.
    """

    def __init__(self,
                 jobs: Optional[int] = None,
                 cache: Union[ResultCache, bool, None] = None,
                 runs_dir: Union[str, Path, None] = None,
                 salt: Optional[str] = None,
                 chunk_timeout_s: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 backoff: Optional[BackoffPolicy] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 shm: Optional[bool] = None) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        if isinstance(cache, ResultCache):
            self.cache: Optional[ResultCache] = cache
        elif cache is True:
            self.cache = ResultCache(default_cache_root())
        elif cache is None and os.environ.get(CACHE_DIR_ENV, "").strip():
            self.cache = ResultCache(default_cache_root())
        else:
            self.cache = None
        if runs_dir is not None:
            self.runs_dir: Optional[Path] = Path(runs_dir).expanduser()
        elif os.environ.get(RUNS_DIR_ENV, "").strip():
            self.runs_dir = Path(os.environ[RUNS_DIR_ENV]).expanduser()
        elif self.cache is not None:
            self.runs_dir = self.cache.root / "runs"
        else:
            self.runs_dir = None
        self.salt = code_version_salt() if salt is None else salt
        self.chunk_timeout_s = (default_chunk_timeout()
                                if chunk_timeout_s is None
                                else check_chunk_timeout(chunk_timeout_s))
        self.max_retries = (default_max_retries() if max_retries is None
                            else max(0, int(max_retries)))
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self._fault_plan = fault_plan
        #: tri-state policy: True/False forced, None = automatic
        #: (parallel runs use shm when the platform supports it).
        self.shm_policy = shm if shm is not None else shm_setting()
        self._arena: Optional[SharedTraceArena] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        #: injectable for tests; the only place the runner sleeps.
        self._sleep = time.sleep
        self.last_manifest: Optional[RunManifest] = None

    # ------------------------------------------------------------------
    # zero-copy substrate lifecycle
    # ------------------------------------------------------------------

    @property
    def shm_enabled(self) -> bool:
        """Will this runner use shared-memory traces for fan-out?"""
        if self.shm_policy is False:
            return False
        if not shm_available():
            return False  # forced-on degrades silently to pickle
        if self.shm_policy is True:
            return True
        return self.jobs > 1

    def _ensure_arena(self) -> SharedTraceArena:
        if self._arena is None:
            self._arena = SharedTraceArena()
        return self._arena

    def _publish_block(self, block_specs: Sequence[RunSpec]
                       ) -> dict[tuple, TraceHandle]:
        """Publish the traces one block needs, each retained until the
        block settles (see :meth:`_release`); ``{}`` without shm."""
        if not self.shm_enabled:
            return {}
        return publish_for_specs(self._ensure_arena(), block_specs)

    def _release(self, traces) -> None:
        """Drop the references :meth:`_publish_block` took."""
        for key in traces:
            self._arena.release(key)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, built (or rebuilt) on demand."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Release the worker pool and unlink every shm segment.

        Safe to call repeatedly; the runner rebuilds both lazily if
        used again afterwards.
        """
        self._teardown_pool()
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[RunSpec],
            deadline: Optional[float] = None) -> SweepOutcome:
        """Resolve every spec, in order (cache → dedup → fan-out).

        ``deadline`` is an absolute ``time.monotonic()`` instant;
        once it passes, the sweep stops launching work and raises
        :class:`SweepError` naming the unresolved specs (the serve
        layer propagates request deadlines this way).
        """
        specs = tuple(specs)
        start = time.perf_counter()
        n = len(specs)
        keys = [spec.cache_key(self.salt) for spec in specs]
        results: list[Optional[ExperimentResult]] = [None] * n
        durations = [0.0] * n
        hit = [False] * n
        duplicate = [False] * n
        recovery = RecoveryStats()

        with obs_trace.span("runner.run", cat="runner",
                            n_specs=n, jobs=self.jobs) as run_span:
            first_index: dict[str, int] = {}
            misses: list[int] = []
            for i, key in enumerate(keys):
                if key in first_index:
                    duplicate[i] = True
                    continue
                first_index[key] = i
                if self.cache is not None:
                    cached = self.cache.get(key)
                    if cached is not None:
                        results[i] = cached
                        hit[i] = True
                        continue
                misses.append(i)

            if misses:
                self._execute_misses(specs, keys, misses, results,
                                     durations, recovery, deadline)
            for i in range(n):
                if duplicate[i]:
                    results[i] = results[first_index[keys[i]]]
            run_span.annotate(cache_hits=sum(hit),
                              deduplicated=sum(duplicate),
                              executed=len(misses))

        manifest = RunManifest(
            run_id=RunManifest.new_run_id(),
            created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            jobs=self.jobs,
            n_specs=n,
            cache_hits=sum(hit),
            deduplicated=sum(duplicate),
            executed=len(misses),
            salt=self.salt,
            wall_time_s=time.perf_counter() - start,
            cache_dir=(str(self.cache.root)
                       if self.cache is not None else None),
            cache_stats=(self.cache.stats.as_dict()
                         if self.cache is not None else {}),
            recovery=recovery.as_dict(),
            records=tuple(
                SpecRecord(index=i, label=specs[i].label(),
                           cache_key=keys[i], cache_hit=hit[i],
                           deduplicated=duplicate[i],
                           duration_s=durations[i])
                for i in range(n)
            ),
        )
        if self.runs_dir is not None and n > 1:
            manifest.write(self.runs_dir)
        self.last_manifest = manifest
        return SweepOutcome(results=tuple(results), manifest=manifest)

    # ------------------------------------------------------------------
    # execution with recovery
    # ------------------------------------------------------------------

    def _fault(self) -> Optional[FaultPlan]:
        return (self._fault_plan if self._fault_plan is not None
                else active_plan())

    def _decide(self, key: str) -> Optional[FaultAction]:
        plan = self._fault()
        return plan.decide("runner.chunk", key=key) if plan else None

    @staticmethod
    def _apply_inprocess_action(action: Optional[FaultAction]) -> None:
        """Honor a fault decision without a worker process to kill.

        ``crash`` and ``error`` both surface as a transient exception
        (there is no process to lose); ``hang`` sleeps.
        """
        if action is None:
            return
        if action.mode in ("crash", "error"):
            raise InjectedFaultError(
                f"injected {action.mode} at {action.site} (in-process)")
        if action.mode == "hang":
            time.sleep(action.delay_s)

    def _checkpoint(self, specs: Sequence[RunSpec], keys: Sequence[str],
                    index: int, results: list) -> None:
        """Persist one finished result immediately (resumable sweeps)."""
        if self.cache is not None:
            self.cache.put(keys[index], specs[index].canonical(),
                           results[index])

    def _harvest(self, specs: Sequence[RunSpec], keys: Sequence[str],
                 block: Sequence[int], payload: tuple,
                 results: list, durations: list) -> None:
        frame, worker_events = payload
        if worker_events:
            tracer = obs_trace.active()
            if tracer is not None:
                tracer.absorb(worker_events)
        with obs_trace.span("runner.decode", cat="runner",
                            n_specs=len(block), bytes=len(frame)):
            pairs = unpack_chunk(frame)
            for index, (encoded, spent) in zip(block, pairs):
                results[index] = decode_result(encoded)
                durations[index] = spent
        if self.cache is not None:  # one append, one fsync per chunk
            self.cache.put_many(
                (keys[index], specs[index].canonical(), results[index])
                for index in block[:len(pairs)])

    def _backoff_sleep(self, attempt: int,
                       recovery: RecoveryStats) -> None:
        """Sleep before a retry wave, bounded by the total budget."""
        if self.backoff.exhausted(recovery.backoff_s):
            return
        delay = min(self.backoff.delay(attempt),
                    self.backoff.max_total_s - recovery.backoff_s)
        if delay > 0:
            recovery.backoff_s += delay
            self._sleep(delay)

    @staticmethod
    def _check_deadline(deadline: Optional[float],
                        labels: Sequence[str]) -> None:
        if deadline is not None and time.monotonic() >= deadline:
            raise SweepError(
                f"sweep deadline exceeded with {len(labels)} spec(s) "
                "unresolved",
                failed_specs=tuple(labels),
                causes=("deadline exceeded",) * len(labels),
            )

    def _execute_misses(self, specs: Sequence[RunSpec],
                        keys: Sequence[str],
                        misses: Sequence[int],
                        results: list, durations: list,
                        recovery: RecoveryStats,
                        deadline: Optional[float] = None) -> None:
        if self.jobs > 1 and len(misses) > 1:
            self._execute_parallel(specs, keys, misses, results,
                                   durations, recovery, deadline)
        else:
            self._execute_serial(specs, keys, misses, results,
                                 durations, recovery, deadline)

    def _execute_serial(self, specs: Sequence[RunSpec],
                        keys: Sequence[str],
                        misses: Sequence[int],
                        results: list, durations: list,
                        recovery: RecoveryStats,
                        deadline: Optional[float]) -> None:
        failed: list[str] = []
        causes: list[str] = []
        for position, index in enumerate(misses):
            label = specs[index].label()
            self._check_deadline(
                deadline,
                [specs[i].label() for i in misses[position:]])
            last_cause: Optional[str] = None
            for attempt in range(self.max_retries + 1):
                try:
                    self._apply_inprocess_action(self._decide(label))
                    frame, _ = _execute_chunk((specs[index],))
                    encoded, spent = unpack_chunk(frame)[0]
                except Exception as exc:  # noqa: BLE001 - retry boundary
                    recovery.chunk_errors += 1
                    last_cause = f"{type(exc).__name__}: {exc}"
                    if isinstance(exc, FAIL_FAST_ERRORS):
                        break
                    if attempt < self.max_retries:
                        recovery.retries += 1
                        obs_trace.instant("runner.retry", cat="runner",
                                          spec=label, attempt=attempt + 1,
                                          cause=last_cause)
                        log_event("runner.retry", level="warning",
                                  spec=label, attempt=attempt + 1,
                                  cause=last_cause)
                        self._backoff_sleep(attempt, recovery)
                else:
                    results[index] = decode_result(encoded)
                    durations[index] = spent
                    self._checkpoint(specs, keys, index, results)
                    last_cause = None
                    break
            if last_cause is not None:
                failed.append(label)
                causes.append(last_cause)
        if failed:
            raise SweepError(
                f"sweep failed for {len(failed)} spec(s): "
                f"{', '.join(failed)}",
                failed_specs=failed, causes=causes,
            )

    def _execute_parallel(self, specs: Sequence[RunSpec],
                          keys: Sequence[str],
                          misses: Sequence[int],
                          results: list, durations: list,
                          recovery: RecoveryStats,
                          deadline: Optional[float]) -> None:
        queue: list[list[int]] = [
            [misses[j] for j in block]
            for block in partition_misses([specs[i] for i in misses],
                                          self.jobs)
        ]
        attempts = {index: 0 for index in misses}
        failed: dict[int, str] = {}
        retry_round = 0
        try:
            while queue:
                self._check_deadline(
                    deadline,
                    [specs[i].label() for blk in queue for i in blk])
                wave = _Wave(self, specs, keys, results, durations,
                             recovery)
                try:
                    for block in queue:
                        wave.submit(block)
                        wave.drain(wait=False)
                    wave.drain(wait=True)
                finally:
                    wave.close()
                queue = []

                if wave.broken:
                    # A hung worker cannot be cancelled and a crashed
                    # pool cannot accept work: abandon and rebuild.
                    # The arena is untouched — workers never own
                    # segments, so nothing leaks with the pool.
                    self._teardown_pool()
                    recovery.pool_rebuilds += 1
                    obs_trace.instant("runner.pool_rebuild",
                                      cat="runner")
                    log_event("runner.pool_rebuild", level="warning",
                              rebuilds=recovery.pool_rebuilds)

                if wave.failed:
                    for block, cause in wave.failed:
                        retriable: list[int] = []
                        for index in block:
                            attempts[index] += 1
                            if attempts[index] > self.max_retries:
                                self._degraded_serial(
                                    specs, keys, index, cause,
                                    results, durations, recovery,
                                    failed)
                            else:
                                retriable.append(index)
                        if retriable:
                            recovery.retries += 1
                            obs_trace.instant(
                                "runner.retry", cat="runner",
                                specs=[specs[i].label()
                                       for i in retriable],
                                cause=cause)
                            log_event(
                                "runner.retry", level="warning",
                                n_specs=len(retriable), cause=cause)
                            # Shrink the chunk on retry so a poisoned
                            # spec is isolated in ~log2(chunk) rounds.
                            if len(retriable) > 1:
                                mid = len(retriable) // 2
                                queue.append(retriable[:mid])
                                queue.append(retriable[mid:])
                                obs_trace.instant(
                                    "runner.chunk_halved",
                                    cat="runner",
                                    sizes=[mid, len(retriable) - mid])
                            else:
                                queue.append(retriable)
                    if queue:
                        self._backoff_sleep(retry_round, recovery)
                        retry_round += 1
                for index, cause in wave.rejected:
                    failed[index] = cause
                queue.extend(wave.rerun)
        except BaseException:
            # A sweep aborting mid-flight (deadline, KeyboardInterrupt)
            # must not leave orphaned work running: drop the pool.  On
            # the success path it stays warm for the next run().
            self._teardown_pool()
            raise
        if failed:
            self._teardown_pool()
            order = sorted(failed)
            labels = [specs[i].label() for i in order]
            raise SweepError(
                f"sweep failed for {len(failed)} spec(s): "
                f"{', '.join(labels)}",
                failed_specs=labels,
                causes=[failed[i] for i in order],
            )

    def _degraded_serial(self, specs: Sequence[RunSpec],
                         keys: Sequence[str], index: int, cause: str,
                         results: list, durations: list,
                         recovery: RecoveryStats,
                         failed: dict) -> None:
        """Last-resort in-process execution of one exhausted spec."""
        recovery.degraded_serial += 1
        label = specs[index].label()
        obs_trace.instant("runner.degraded_serial", cat="runner",
                          spec=label, cause=cause)
        log_event("runner.degraded_serial", level="warning",
                  spec=label, cause=cause)
        try:
            self._apply_inprocess_action(self._decide(label))
            frame, _ = _execute_chunk((specs[index],))
            encoded, spent = unpack_chunk(frame)[0]
        except Exception as exc:  # noqa: BLE001 - terminal boundary
            failed[index] = (f"{type(exc).__name__}: {exc} "
                             f"(after: {cause})")
        else:
            results[index] = decode_result(encoded)
            durations[index] = spent
            self._checkpoint(specs, keys, index, results)


# ----------------------------------------------------------------------
# The active runner: one shared configuration per process (or block).
# ----------------------------------------------------------------------

_ACTIVE: Optional[SweepRunner] = None


def active() -> SweepRunner:
    """The process-wide runner, built from the environment on first use."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = SweepRunner()
    return _ACTIVE


def configure(jobs: Optional[int] = None,
              cache: Union[ResultCache, bool, None] = None,
              runs_dir: Union[str, Path, None] = None,
              chunk_timeout_s: Optional[float] = None,
              max_retries: Optional[int] = None,
              fault_plan: Optional[FaultPlan] = None,
              shm: Optional[bool] = None) -> SweepRunner:
    """Install (and return) a new process-wide runner.

    The displaced runner's pool and shm segments are released — it
    stays usable (both rebuild lazily) but holds no resources while
    inactive.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = SweepRunner(jobs=jobs, cache=cache, runs_dir=runs_dir,
                          chunk_timeout_s=chunk_timeout_s,
                          max_retries=max_retries,
                          fault_plan=fault_plan,
                          shm=shm)
    if previous is not None:
        previous.close()
    return _ACTIVE


@contextmanager
def configured(jobs: Optional[int] = None,
               cache: Union[ResultCache, bool, None] = None,
               runs_dir: Union[str, Path, None] = None,
               chunk_timeout_s: Optional[float] = None,
               max_retries: Optional[int] = None,
               fault_plan: Optional[FaultPlan] = None,
               shm: Optional[bool] = None
               ) -> Iterator[SweepRunner]:
    """Scope a runner configuration to a ``with`` block.

    The scoped runner's pool and shm segments are released when the
    block exits, so a CLI invocation can never leak ``/dev/shm``
    entries past its own lifetime.
    """
    global _ACTIVE
    previous = _ACTIVE
    runner = SweepRunner(jobs=jobs, cache=cache, runs_dir=runs_dir,
                         chunk_timeout_s=chunk_timeout_s,
                         max_retries=max_retries,
                         fault_plan=fault_plan,
                         shm=shm)
    _ACTIVE = runner
    try:
        yield runner
    finally:
        _ACTIVE = previous
        runner.close()
