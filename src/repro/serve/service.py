"""The placement service: request semantics behind the HTTP surface.

:class:`PlacementService` owns every request path and all their shared
state; the HTTP layer (:mod:`repro.serve.http`) only translates between
wire format and these methods.

* **placement** — the paper's ``GetAllocation`` (Fig. 9) as a service:
  closed-form, cheap, micro-batched across concurrent requests via
  :class:`~repro.serve.batching.MicroBatcher`.  When the batch queue
  saturates the service degrades to inline computation — placement is
  the path that must always answer.
* **jobs** — *simulate* (a workload x policy experiment through one
  shared :class:`~repro.runner.sweep.SweepRunner`), *profile* (a
  Section 5.1 page-access profile) and *autotune* (the closed-loop
  interleave ratio).  Each public method parses its payload, derives
  the salted content key its result is cached under, and hands a job
  body to one admission path: refused while draining (503), fast-failed
  while the :class:`~repro.resilience.breaker.CircuitBreaker` is open
  (503), bounded to ``max_pending_jobs`` *distinct* jobs (429),
  deduplicated through one :class:`~repro.serve.batching.SingleFlight`,
  then run on the executor.  Every result is a record of the runner's
  checksummed :class:`~repro.runner.cache.ResultCache`, so it stays
  warm across restarts and ``repro autotune`` reports are warm here.

Request deadlines propagate from the HTTP layer into every job (and
through :meth:`SweepRunner.run` for simulate), so a job never keeps
computing past the point its caller stopped waiting.
:meth:`PlacementService.stop` drains in-flight jobs (bounded by
``drain_timeout_s``) before tearing down the executor — the
graceful-shutdown path ``repro serve`` runs on SIGTERM/SIGINT.
Simulate failures are injectable at site ``serve.simulate`` via
:class:`~repro.resilience.faults.FaultPlan`.

Every path records Prometheus metrics in the service's registry; the
integration tests and the CI smoke job assert against that text.
"""

from __future__ import annotations

import asyncio
import contextvars
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.core.errors import (
    IngestError,
    ReproError,
    RequestLimitError,
    ServeError,
    SweepError,
    WorkloadError,
)
from repro.core.limits import DEFAULT_REQUEST_LIMITS
from repro.ingest import IngestLimits, TraceRegistry, set_default_root
from repro.ingest.registry import TRACES_DIRNAME
from repro.resilience.breaker import BREAKER_STATE_VALUES, CircuitBreaker
from repro.resilience.faults import (
    FaultPlan,
    InjectedFaultError,
    active_plan,
)
from repro.memory.acpi import Sbit, enumerate_tables
from repro.memory.topology import topology_by_name, topology_names
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.policies.registry import policy_names
from repro.profiling.cdf import AccessCdf
from repro.profiling.profiler import PageAccessProfiler
from repro.runner import ResultCache, SweepRunner, content_key, make_spec
from repro.runner.spec import RunSpec
from repro.runtime.hints import get_allocation
from repro.serve.batching import BatchSaturatedError, MicroBatcher, SingleFlight
from repro.serve.config import ServeConfig
from repro.tuning import AutotuneReport, RatioController, autotune_spec
from repro.tuning.autotuner import autotune as run_autotune
from repro.workloads import get_workload, workload_names


class BadRequestError(ServeError):
    """Malformed request payload (HTTP 400)."""

    def __init__(self, message: str) -> None:
        super().__init__(message, status=400)


class ServiceSaturatedError(ServeError):
    """The bounded simulate queue is full (HTTP 429 + Retry-After)."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message, status=429, retry_after=retry_after)


class ServiceUnavailableError(ServeError):
    """Fast-fail: breaker open or daemon draining (503 + Retry-After)."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message, status=503, retry_after=retry_after)


class DeadlineExceededError(ServeError):
    """The request's deadline passed before its work completed (504)."""

    def __init__(self, message: str) -> None:
        super().__init__(message, status=504)


@dataclass(frozen=True)
class _SbitOnlyTables:
    """Duck-typed stand-in for FirmwareTables when a request supplies a
    raw bandwidth vector instead of a named topology.

    ``get_allocation`` only reads ``tables.sbit``, so this is the whole
    contract a placement request needs.
    """

    sbit: Sbit


def _require(payload: Mapping[str, Any], key: str) -> Any:
    try:
        return payload[key]
    except (KeyError, TypeError):
        raise BadRequestError(f"missing required field {key!r}")


def _int_field(payload: Mapping[str, Any], key: str, default: Any = None,
               minimum: Optional[int] = None) -> Any:
    value = payload.get(key)
    if value is None:
        return default
    try:
        value = int(value)
    except (TypeError, ValueError, OverflowError):
        raise BadRequestError(f"field {key!r} must be an integer")
    if minimum is not None and value < minimum:
        raise BadRequestError(f"field {key!r} must be >= {minimum}")
    return value


def _finite_float(value: Any) -> float:
    """``float(value)``, raising ValueError unless the result is finite
    (JSON's ``NaN``/``Infinity`` and ``1e400`` parse to non-finite
    floats; integers past the float range overflow)."""
    try:
        value = float(value)
    except OverflowError:
        raise ValueError("number out of range")
    if not math.isfinite(value):
        raise ValueError("number must be finite")
    return value


def _workload_field(payload: Mapping[str, Any]) -> tuple[str, Any]:
    """The required ``workload`` name and the workload it resolves to."""
    name = _require(payload, "workload")
    if not isinstance(name, str):
        raise BadRequestError("'workload' must be a string")
    try:
        return name, get_workload(name)
    except WorkloadError as exc:
        raise BadRequestError(str(exc))


def _check_dataset(workload: Any, dataset: Any,
                   key: str = "dataset") -> str:
    """Reject a dataset the workload does not define (HTTP 400), before
    any job runs — the runner would otherwise fail the job and count
    the client's mistake against the circuit breaker."""
    known = workload.datasets()
    if not isinstance(dataset, str) or dataset not in known:
        raise BadRequestError(
            f"unknown {key} {dataset!r} for workload "
            f"{workload.name!r}; known: {list(known)}")
    return dataset


def parse_simulate_spec(payload: Mapping[str, Any]) -> RunSpec:
    """Validate a ``/v1/simulate`` payload into a canonical RunSpec.

    Every client mistake answers 400 here, before a job starts, so only
    backend failures ever reach the runner's retries and the breaker.
    """
    workload, resolved = _workload_field(payload)
    policy = payload.get("policy", "BW-AWARE")
    if not isinstance(policy, str):
        raise BadRequestError("'policy' must be a string")
    topology_name = payload.get("topology")
    topology = None
    if topology_name is not None:
        if not isinstance(topology_name, str):
            raise BadRequestError(
                "/v1/simulate 'topology' must be a registered name"
            )
        try:
            topology = topology_by_name(topology_name)
        except ReproError as exc:
            raise BadRequestError(str(exc))
    capacity = payload.get("bo_capacity_fraction")
    if capacity is not None:
        try:
            capacity = _finite_float(capacity)
        except (TypeError, ValueError):
            raise BadRequestError(
                "'bo_capacity_fraction' must be a finite number"
            )
        if capacity <= 0:
            raise BadRequestError(
                "'bo_capacity_fraction' must be positive"
            )
    engine = payload.get("engine", "throughput")
    if engine not in ("throughput", "detailed", "banked"):
        raise BadRequestError(f"unknown engine {engine!r}")
    dataset = _check_dataset(resolved, payload.get("dataset", "default"))
    training = payload.get("training_dataset")
    if training is not None:
        training = _check_dataset(resolved, training, "training_dataset")
    try:
        spec = make_spec(
            workload, policy,
            dataset=dataset,
            topology=topology,
            bo_capacity_fraction=capacity,
            trace_accesses=_int_field(payload, "trace_accesses",
                                      minimum=1),
            seed=_int_field(payload, "seed", default=0, minimum=0),
            training_dataset=training,
            engine=engine,
        )
    except ReproError as exc:
        raise BadRequestError(str(exc))
    return spec


def parse_autotune_request(payload: Mapping[str, Any]) -> dict:
    """Validate a ``/v1/autotune`` payload into canonical parameters."""
    _, resolved = _workload_field(payload)
    topology_name = payload.get("topology", "baseline")
    if not isinstance(topology_name, str):
        raise BadRequestError(
            "/v1/autotune 'topology' must be a registered name"
        )
    try:
        topology = topology_by_name(topology_name)
    except ReproError as exc:
        raise BadRequestError(str(exc))
    engine = payload.get("engine", "throughput")
    if engine not in ("throughput", "detailed", "banked"):
        raise BadRequestError(f"unknown engine {engine!r}")
    controller_params = payload.get("controller", {})
    if not isinstance(controller_params, Mapping):
        raise BadRequestError("'controller' must be an object")
    allowed = {"gain", "deadband", "max_step", "min_fraction"}
    unknown = set(controller_params) - allowed
    if unknown:
        raise BadRequestError(
            f"unknown controller fields {sorted(unknown)}; "
            f"known: {sorted(allowed)}"
        )
    try:
        controller = RatioController(**{
            key: _finite_float(value)
            for key, value in controller_params.items()
        })
    except (TypeError, ValueError, ReproError) as exc:
        raise BadRequestError(f"bad controller parameters: {exc}")
    try:
        n_accesses = DEFAULT_REQUEST_LIMITS.check_accesses(
            _int_field(payload, "n_accesses", default=60_000, minimum=1),
            "n_accesses")
        epochs = DEFAULT_REQUEST_LIMITS.check_epochs(
            _int_field(payload, "epochs", default=16, minimum=2))
    except RequestLimitError as exc:
        raise BadRequestError(str(exc))
    return {
        "workload": resolved.name,
        "dataset": _check_dataset(resolved,
                                  payload.get("dataset", "default")),
        "topology_name": topology_name,
        "topology": topology,
        "engine": engine,
        "seed": _int_field(payload, "seed", default=0, minimum=0),
        "epochs": epochs,
        "n_accesses": n_accesses,
        "controller": controller,
        "force": bool(payload.get("force", False)),
    }


def parse_profile_request(payload: Mapping[str, Any]) -> dict:
    """Validate a ``/v1/profile`` request into canonical parameters.

    ``n_accesses`` below 1 is raised to 1; ``None`` means the
    workload's default trace length.
    """
    _, resolved = _workload_field(payload)
    n_accesses = _int_field(payload, "n_accesses")
    try:
        n_accesses = DEFAULT_REQUEST_LIMITS.check_accesses(
            None if n_accesses is None else max(1, n_accesses),
            "n_accesses")
    except RequestLimitError as exc:
        raise BadRequestError(str(exc))
    return {
        "workload": resolved.name,
        "dataset": _check_dataset(resolved,
                                  payload.get("dataset", "default")),
        "n_accesses": n_accesses,
        "seed": _int_field(payload, "seed", default=0, minimum=0),
    }


#: the fields of a ``/v1/profile`` payload, which a cached profile
#: record must carry all of.
_PROFILE_FIELDS = ("workload", "dataset", "seed", "n_accesses",
                   "total_accesses", "footprint_pages",
                   "never_accessed_pages", "skew", "traffic_top10",
                   "structures")


def _decode_profile(payload: dict) -> dict:
    """A cached profile record's payload; ``KeyError`` (so the record
    is quarantined) unless it carries every field."""
    return {field: payload[field] for field in _PROFILE_FIELDS}


class PlacementService:
    """All daemon behaviour that is independent of the wire protocol."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.config = config or ServeConfig()
        self.metrics = MetricsRegistry()
        self.started_at = time.time()
        # Uptime must come from the monotonic clock: time.time() jumps
        # under NTP slews/steps, which once produced negative uptimes.
        self._started_monotonic = time.monotonic()
        self._fault_plan = fault_plan
        self._draining = False

        cache_dir = self.config.resolved_cache_dir()
        self.runner = SweepRunner(
            jobs=self.config.jobs,
            cache=(ResultCache(cache_dir) if cache_dir is not None
                   else False),
            chunk_timeout_s=self.config.chunk_timeout_s,
            max_retries=self.config.max_retries,
            shm=self.config.use_shm,
        )
        # External-trace registry lives under the same cache root the
        # result cache uses; no cache root (use_cache=False) means no
        # trace ingestion (503 on /v1/traces).  The module default root
        # is installed so fork-based sweep workers and make_spec both
        # resolve trace:/mix: names against this daemon's registry.
        if cache_dir is not None:
            self.trace_registry: Optional[TraceRegistry] = TraceRegistry(
                cache_dir / TRACES_DIRNAME)
            set_default_root(self.trace_registry.root)
        else:
            self.trace_registry = None
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_timeout_s=self.config.breaker_reset_s,
            half_open_max_probes=self.config.breaker_probes,
            on_transition=self._breaker_transition,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.simulate_workers,
            thread_name_prefix="repro-serve-sim",
        )
        #: every in-flight job of every kind, by content key.
        self._flight = SingleFlight()
        self._batcher = MicroBatcher(self._placement_batch)
        # Live depth: the gauge tracks every enqueue/dequeue instead of
        # being sampled only when a placement request completes, which
        # left /metrics stale between batches and blind to bursts.
        self._batcher.on_depth_change = (
            lambda depth: self.m_queue_depth.set(depth))

        m = self.metrics
        self.m_requests = m.counter(
            "repro_serve_requests_total",
            "HTTP requests by endpoint and status code.")
        self.m_latency = m.histogram(
            "repro_serve_request_seconds",
            "End-to-end request latency by endpoint.")
        self.m_sim_requests = m.counter(
            "repro_serve_simulate_requests_total",
            "Accepted /v1/simulate requests.")
        self.m_sim_dedup = m.counter(
            "repro_serve_simulate_deduplicated_total",
            "Simulate requests that joined an identical in-flight job.")
        self.m_sim_jobs = m.counter(
            "repro_serve_simulate_jobs_total",
            "Runner jobs actually started (post dedup).")
        self.m_sim_cache_hits = m.counter(
            "repro_serve_simulate_cache_hits_total",
            "Simulate jobs answered from the on-disk result cache.")
        self.m_sim_cache_misses = m.counter(
            "repro_serve_simulate_cache_misses_total",
            "Simulate jobs that had to execute the experiment.")
        self.m_sim_rejected = m.counter(
            "repro_serve_simulate_rejected_total",
            "Simulate requests refused with 429 (queue saturated).")
        self.m_sim_inflight = m.gauge(
            "repro_serve_simulate_inflight",
            "Distinct jobs (simulate, profile, autotune) currently in "
            "flight; max_pending_jobs bounds them together.")
        self.m_queue_depth = m.gauge(
            "repro_serve_queue_depth",
            "Queued placement requests awaiting a micro-batch.")
        self.m_place_requests = m.counter(
            "repro_serve_placement_requests_total",
            "Accepted /v1/placement requests.")
        self.m_place_batches = m.counter(
            "repro_serve_placement_batches_total",
            "Micro-batches flushed on the placement path.")
        self.m_place_batched = m.counter(
            "repro_serve_placement_batched_requests_total",
            "Placement requests answered through a micro-batch.")
        self.m_place_inline = m.counter(
            "repro_serve_placement_inline_total",
            "Placement requests computed inline (batch queue "
            "saturated; graceful degradation).")
        self.m_profile_hits = m.counter(
            "repro_serve_profile_cache_hits_total",
            "Profile jobs answered from the on-disk result cache.")
        self.m_profile_misses = m.counter(
            "repro_serve_profile_cache_misses_total",
            "Profile jobs that ran the profiler.")
        self.m_timeouts = m.counter(
            "repro_serve_timeouts_total",
            "Requests that exceeded the per-request timeout.")
        self.m_sim_failures = m.counter(
            "repro_serve_simulate_failures_total",
            "Simulate jobs that raised (excluding deadline rejects).")
        self.m_breaker_state = m.gauge(
            "repro_serve_breaker_state",
            "Job circuit breaker state "
            "(0=closed, 1=open, 2=half_open).")
        self.m_breaker_transitions = m.counter(
            "repro_serve_breaker_transitions_total",
            "Circuit breaker state transitions by edge.")
        self.m_breaker_rejected = m.counter(
            "repro_serve_breaker_rejected_total",
            "Jobs of any kind fast-failed 503 while the breaker "
            "was open.")
        self.m_deadline_rejected = m.counter(
            "repro_serve_deadline_rejected_total",
            "Jobs of any kind abandoned because their deadline "
            "passed.")
        self.m_runner_retries = m.counter(
            "repro_serve_runner_retries_total",
            "Chunk retries performed by the sweep runner.")
        self.m_runner_rebuilds = m.counter(
            "repro_serve_runner_pool_rebuilds_total",
            "Worker pools abandoned and rebuilt by the sweep runner.")
        self.m_runner_degraded = m.counter(
            "repro_serve_runner_degraded_serial_total",
            "Specs that fell back to in-process serial execution.")
        self.m_cache_quarantined = m.gauge(
            "repro_serve_cache_quarantined_total",
            "Corrupt cache records quarantined by this daemon's "
            "runner (counted as misses, never served).")
        self.m_ingest_requests = m.counter(
            "repro_serve_ingest_requests_total",
            "Trace uploads received on /v1/traces.")
        self.m_ingest_admitted = m.counter(
            "repro_serve_ingest_admitted_total",
            "Trace uploads validated and admitted to the registry.")
        self.m_ingest_rejected = m.counter(
            "repro_serve_ingest_rejected_total",
            "Trace uploads rejected with 422 (quarantined).")
        self.m_ingest_bytes = m.counter(
            "repro_serve_ingest_bytes_total",
            "Raw bytes of admitted trace uploads.")
        self.m_ingest_quarantined = m.gauge(
            "repro_serve_ingest_quarantined",
            "Rejected trace files currently held in quarantine.")
        self.m_traces = m.gauge(
            "repro_serve_traces",
            "External traces currently registered.")
        self.m_autotune_requests = m.counter(
            "repro_serve_autotune_requests_total",
            "Accepted /v1/autotune requests.")
        self.m_autotune_profile_hits = m.counter(
            "repro_serve_autotune_profile_hits_total",
            "Autotune jobs answered from the on-disk result cache.")
        self.m_autotune_runs = m.counter(
            "repro_serve_autotune_runs_total",
            "Closed-loop tuning runs actually executed.")
        self.m_draining = m.gauge(
            "repro_serve_draining",
            "1 while the daemon is draining for shutdown.")
        self.m_drained = m.counter(
            "repro_serve_drained_jobs_total",
            "In-flight jobs of any kind completed during graceful "
            "drain.")
        #: per job kind: the (cache hit, cache miss) counters.
        self._cache_counters = {
            "simulate": (self.m_sim_cache_hits, self.m_sim_cache_misses),
            "profile": (self.m_profile_hits, self.m_profile_misses),
            "autotune": (self.m_autotune_profile_hits,
                         self.m_autotune_runs),
        }

    # ------------------------------------------------------------------
    # resilience plumbing
    # ------------------------------------------------------------------

    def _breaker_transition(self, old: str, new: str) -> None:
        """CircuitBreaker callback: keep /metrics in step with state."""
        self.m_breaker_transitions.inc(transition=f"{old}_to_{new}")
        self.m_breaker_state.set(BREAKER_STATE_VALUES[new])

    def _fault(self) -> Optional[FaultPlan]:
        return (self._fault_plan if self._fault_plan is not None
                else active_plan())

    def _export_runner_recovery(self, recovery: Mapping[str, Any]) -> None:
        """Surface one job's runner recovery counts on /metrics."""
        if recovery.get("retries"):
            self.m_runner_retries.inc(recovery["retries"])
        if recovery.get("pool_rebuilds"):
            self.m_runner_rebuilds.inc(recovery["pool_rebuilds"])
        if recovery.get("degraded_serial"):
            self.m_runner_degraded.inc(recovery["degraded_serial"])

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._batcher.start()

    async def stop(self) -> None:
        """Graceful shutdown: refuse new work, drain in-flight jobs.

        In-flight jobs get up to ``drain_timeout_s`` to finish (their
        waiters receive real responses and their results reach the
        cache); only then are the batcher and the executor torn down.
        """
        self._draining = True
        self.m_draining.set(1)
        pending = self._flight.tasks()
        if pending and self.config.drain_timeout_s > 0:
            done, _ = await asyncio.wait(
                pending, timeout=self.config.drain_timeout_s)
            self.m_drained.inc(len(done))
        await self._batcher.stop()
        self._executor.shutdown(wait=False, cancel_futures=True)
        # Release the runner's worker pool and unlink its shm segments
        # — the daemon exiting must leave /dev/shm exactly as found.
        self.runner.close()

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # /healthz
    # ------------------------------------------------------------------

    def health(self) -> dict:
        cache_dir = self.config.resolved_cache_dir()
        return {
            "status": "ok",
            "pid": os.getpid(),
            "uptime_s": round(
                time.monotonic() - self._started_monotonic, 3),
            "workloads": len(workload_names()),
            "policies": len(policy_names()),
            "topologies": list(topology_names()),
            "cache_dir": str(cache_dir) if cache_dir else None,
            "inflight_jobs": len(self._flight),
            "max_pending_jobs": self.config.max_pending_jobs,
            "breaker": self.breaker.state,
            "draining": self._draining,
            "traces": (len(self.trace_registry.names())
                       if self.trace_registry is not None else 0),
        }

    # ------------------------------------------------------------------
    # /v1/placement
    # ------------------------------------------------------------------

    def _tables_for(self, topology: Any) -> tuple[Any, str]:
        """Resolve a request's topology field to firmware tables."""
        if topology is None:
            topology = "baseline"
        if isinstance(topology, str):
            try:
                return enumerate_tables(topology_by_name(topology)), topology
            except ReproError as exc:
                raise BadRequestError(str(exc))
        if isinstance(topology, Mapping):
            bandwidths = topology.get("bandwidth_gbps")
            if not isinstance(bandwidths, Sequence) or not bandwidths:
                raise BadRequestError(
                    "custom topology needs a non-empty "
                    "'bandwidth_gbps' array"
                )
            try:
                sbit = Sbit(tuple(_finite_float(b) for b in bandwidths))
            except (TypeError, ValueError, ReproError) as exc:
                raise BadRequestError(f"bad bandwidth vector: {exc}")
            return _SbitOnlyTables(sbit=sbit), "custom"
        raise BadRequestError(
            "'topology' must be a name or {'bandwidth_gbps': [...]}"
        )

    def compute_placement(self, payload: Mapping[str, Any]) -> dict:
        """One placement request, closed form (no queueing)."""
        sizes = _require(payload, "sizes")
        hotness = _require(payload, "hotness")
        if not isinstance(sizes, Sequence) or not isinstance(
                hotness, Sequence):
            raise BadRequestError("'sizes' and 'hotness' must be arrays")
        try:
            sizes = [int(s) for s in sizes]
            hotness = [_finite_float(h) for h in hotness]
        except (TypeError, ValueError, OverflowError):
            raise BadRequestError(
                "'sizes' must be integers and 'hotness' finite numbers"
            )
        if any(size >= 2 ** 63 for size in sizes):
            # larger sizes overflow the float density ranking
            raise BadRequestError("'sizes' must be below 2**63 bytes")
        bo_capacity = _int_field(payload, "bo_capacity_bytes", minimum=0)
        if bo_capacity is None:
            raise BadRequestError(
                "missing required field 'bo_capacity_bytes'"
            )
        bo_domain = _int_field(payload, "bo_domain")
        tables, topology_label = self._tables_for(payload.get("topology"))
        if bo_domain is not None and not (
                0 <= bo_domain < len(tables.sbit.bandwidth_gbps)):
            raise BadRequestError("'bo_domain' out of range")
        try:
            hints = get_allocation(
                sizes, hotness, tables,
                bo_capacity_bytes=bo_capacity,
                bo_domain=bo_domain,
            )
        except ReproError as exc:
            raise BadRequestError(str(exc))
        return {
            "hints": [hint.value for hint in hints],
            "topology": topology_label,
            "bo_capacity_bytes": bo_capacity,
            "n_allocations": len(hints),
        }

    def _placement_batch(self, items: list) -> list:
        """MicroBatcher handler: answer every queued request."""
        self.m_place_batches.inc()
        self.m_place_batched.inc(len(items))
        results: list = []
        for payload in items:
            try:
                results.append(self.compute_placement(payload))
            except Exception as exc:
                results.append(exc)
        return results

    async def placement(self, payload: Mapping[str, Any]) -> dict:
        """Micro-batched placement; degrades inline when saturated."""
        self.m_place_requests.inc()
        with obs_trace.span("serve.placement", cat="serve") as span:
            try:
                result = await self._batcher.submit(payload)
                degraded = False
            except BatchSaturatedError:
                # Graceful degradation: placement must always answer,
                # so a saturated batch queue means compute right here
                # instead.
                self.m_place_inline.inc()
                result = self.compute_placement(payload)
                degraded = True
            span.annotate(degraded=degraded)
        self.m_queue_depth.set(self._batcher.queue_depth)
        return dict(result, degraded=degraded)

    # ------------------------------------------------------------------
    # jobs: simulate, profile, autotune
    # ------------------------------------------------------------------

    def _run_job(self, body: Callable[[Optional[float]], tuple],
                 deadline: Optional[float]) -> tuple:
        """Executor-thread body of every job: ``body(deadline)`` returns
        ``(payload, cache_hit)``.

        ``deadline`` (``time.monotonic()`` absolute) is checked here and
        handed on; simulate propagates it into the runner, which stops
        launching work once it passes.
        """
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceededError(
                "request deadline passed before the job started")
        return body(deadline)

    async def _job(self, kind: str, key: str,
                   body: Callable[[Optional[float]], tuple],
                   deadline: Optional[float],
                   **span_args: Any) -> tuple[Any, bool, bool]:
        """The one admission path: drain check, circuit breaker,
        ``max_pending_jobs`` bound, single-flight on ``key``, then
        ``body`` on the executor.  Returns ``(payload, cache_hit,
        deduplicated)``.

        Deduplicated joiners are not refused by the breaker or the
        bound (they add no load) and share the *first* waiter's
        deadline.
        """
        simulate = kind == "simulate"
        if self._draining:
            raise ServiceUnavailableError(
                "daemon is draining for shutdown",
                retry_after=self.config.retry_after_s,
            )
        joined_existing = key in self._flight.keys()
        if not joined_existing and not self.breaker.allow():
            self.m_breaker_rejected.inc()
            raise ServiceUnavailableError(
                "job circuit breaker is open after repeated failures",
                retry_after=max(self.breaker.retry_after(),
                                self.config.retry_after_s),
            )
        if (not joined_existing
                and len(self._flight) >= self.config.max_pending_jobs):
            if simulate:
                self.m_sim_rejected.inc()
            raise ServiceSaturatedError(
                f"job queue full "
                f"({self.config.max_pending_jobs} jobs in flight)",
                retry_after=self.config.retry_after_s,
            )

        loop = asyncio.get_running_loop()
        hits, misses = self._cache_counters[kind]

        async def job() -> tuple:
            if simulate:
                self.m_sim_jobs.inc()
            try:
                plan = self._fault() if simulate else None
                action = (plan.decide("serve.simulate", key=key)
                          if plan else None)
                if action is not None:
                    if action.mode == "hang":
                        await asyncio.sleep(action.delay_s)
                    else:
                        raise InjectedFaultError(
                            "injected fault at serve.simulate")
                # run_in_executor does not copy the caller's context:
                # carry it over so the worker thread keeps the request's
                # trace id and span lane.
                ctx = contextvars.copy_context()
                outcome = await loop.run_in_executor(
                    self._executor,
                    lambda: ctx.run(self._run_job, body, deadline),
                )
            except DeadlineExceededError:
                # Client-caused: the backend is fine, don't trip the
                # breaker on it.
                self.m_deadline_rejected.inc()
                raise
            except Exception:
                if simulate:
                    self.m_sim_failures.inc()
                self.breaker.record_failure()
                raise
            self.breaker.record_success()
            (hits if outcome[1] else misses).inc()
            return outcome

        task, joined = self._flight.join_or_start(key, job)
        if joined and simulate:
            self.m_sim_dedup.inc()
        self.m_sim_inflight.set(len(self._flight))
        with obs_trace.span(f"serve.{kind}", cat="serve",
                            **span_args) as span:
            span.annotate(deduplicated=joined)
            try:
                # shield: one waiter's cancellation/timeout must not
                # kill a job other waiters share (and whose result
                # feeds the cache).
                payload, cache_hit = await asyncio.shield(task)
            finally:
                self.m_sim_inflight.set(len(self._flight))
            span.annotate(cache_hit=cache_hit)
        return payload, cache_hit, joined

    def _cached(self, key: str, spec: dict, compute: Callable[[], Any],
                encode: Callable[[Any], dict],
                decode: Callable[[dict], Any],
                force: bool = False) -> tuple[Any, bool]:
        """``(value, cache_hit)``: the result-cache record for ``key``
        unless ``force``, else ``compute()`` stored under ``key``."""
        cache = self.runner.cache
        if cache is not None and not force:
            value = cache.get(key, decode)
            if value is not None:
                return value, True
        value = compute()
        if cache is not None:
            cache.put(key, spec, value, encode)
        return value, False

    # ------------------------------------------------------------------
    # /v1/simulate
    # ------------------------------------------------------------------

    def parse_simulate_spec(self, payload: Mapping[str, Any]) -> RunSpec:
        """Validate a simulate payload into a canonical RunSpec."""
        return parse_simulate_spec(payload)

    def _simulate_body(self, spec: RunSpec,
                       deadline: Optional[float]) -> tuple[dict, bool]:
        """One runner batch for one spec (the runner reads and fills
        the result cache itself)."""
        started = time.perf_counter()
        try:
            outcome = self.runner.run([spec], deadline=deadline)
        except SweepError as exc:
            if "deadline exceeded" in exc.causes:
                raise DeadlineExceededError(str(exc))
            raise
        record = outcome.manifest.records[0]
        result = outcome.results[0]
        self._export_runner_recovery(outcome.manifest.recovery)
        report = {
            "cache_hit": bool(record.cache_hit),
            "duration_s": time.perf_counter() - started,
            "recovery": dict(outcome.manifest.recovery),
            "result": {
                "workload": result.workload,
                "dataset": result.dataset,
                "policy": result.policy,
                "topology": result.topology_name,
                "time_ms": result.time_ns / 1e6,
                "achieved_bandwidth_gbps":
                    result.sim.achieved_bandwidth / 1e9,
                "dominant_bound": result.sim.dominant_bound(),
                "zone_page_counts": list(result.zone_page_counts),
                "placement_fractions":
                    list(result.placement_fractions()),
            },
        }
        return report, report["cache_hit"]

    async def simulate(self, payload: Mapping[str, Any],
                       deadline: Optional[float] = None) -> dict:
        """Run (or recall) one workload x policy experiment.

        ``deadline`` is an absolute ``time.monotonic()`` instant (the
        HTTP layer derives it from the request timeout); it rides into
        the runner so abandoned requests stop consuming workers.
        """
        spec = self.parse_simulate_spec(payload)
        key = spec.cache_key(self.runner.salt)
        self.m_sim_requests.inc()
        report, _, joined = await self._job(
            "simulate", key,
            lambda deadline: self._simulate_body(spec, deadline),
            deadline, workload=spec.workload, policy=spec.policy)
        return {
            "spec": spec.canonical(),
            "cache_key": key,
            "deduplicated": joined,
            **report,
        }

    # ------------------------------------------------------------------
    # /v1/traces
    # ------------------------------------------------------------------

    async def ingest_trace(self, name: Optional[str],
                           fmt: Optional[str], body: Any,
                           deadline: Optional[float] = None) -> dict:
        """Validate and admit one uploaded trace (``POST /v1/traces``).

        ``body`` is raw bytes or the spooled temp file the HTTP layer
        streamed the upload into.  Client errors (no registry name, an
        unresolvable format) answer 400; content rejections — malformed
        lines, cap overruns — answer 422 with the structured
        ``ingest_error`` body and leave the input in quarantine.
        """
        self.m_ingest_requests.inc()
        if self.trace_registry is None:
            raise ServiceUnavailableError(
                "trace ingestion needs a cache root; this daemon runs "
                "with caching disabled",
                retry_after=self.config.retry_after_s)
        if self._draining:
            raise ServiceUnavailableError(
                "daemon is draining for shutdown",
                retry_after=self.config.retry_after_s)
        if not name:
            raise BadRequestError(
                "query parameter 'name' is required "
                "(POST /v1/traces?name=<name>&format=k6|mase|npz)")
        from repro.ingest import detect_format
        try:
            resolved_fmt = detect_format(name, fmt or None)
        except IngestError as exc:
            raise BadRequestError(str(exc))
        budget = 30.0
        if deadline is not None:
            budget = max(0.1, min(budget, deadline - time.monotonic()))
        limits = IngestLimits(max_bytes=self.config.max_body_bytes,
                              deadline_s=budget)
        registry = self.trace_registry
        loop = asyncio.get_running_loop()
        ctx = contextvars.copy_context()
        try:
            with obs_trace.span("serve.ingest", cat="serve",
                                trace=name, fmt=resolved_fmt):
                record = await loop.run_in_executor(
                    self._executor,
                    lambda: ctx.run(registry.admit, body, name=name,
                                    fmt=resolved_fmt, limits=limits),
                )
        except IngestError as err:
            self.m_ingest_rejected.inc()
            self.m_ingest_quarantined.set(registry.quarantined_count())
            raise ServeError(
                str(err), status=422,
                payload={"ingest_error": err.to_dict()})
        self.m_ingest_admitted.inc()
        self.m_ingest_bytes.inc(record.source_bytes)
        self.m_traces.set(len(registry.names()))
        return {
            "trace": record.to_dict(),
            # the checksum-carrying name to pass as /v1/simulate
            # 'workload' (also valid inside mix: specs).
            "workload": record.canonical,
        }

    def list_traces(self) -> dict:
        """Registered external traces (``GET /v1/traces``)."""
        if self.trace_registry is None:
            return {"traces": [], "quarantined": 0}
        records = []
        for trace_name in self.trace_registry.names():
            try:
                record = self.trace_registry.record(trace_name)
            except IngestError:
                continue  # corrupt meta: listed nowhere, load() evicts
            if record is not None:
                payload = record.to_dict()
                payload["workload"] = record.canonical
                records.append(payload)
        return {
            "traces": records,
            "quarantined": self.trace_registry.quarantined_count(),
        }

    # ------------------------------------------------------------------
    # /v1/profile/<workload>
    # ------------------------------------------------------------------

    @staticmethod
    def _profile_payload(workload: str, dataset: str,
                         n_accesses: Optional[int], seed: int) -> dict:
        profile = PageAccessProfiler().profile(
            get_workload(workload), dataset, n_accesses=n_accesses,
            seed=seed,
        )
        cdf = AccessCdf.from_counts(profile.page_counts)
        return {
            "workload": profile.workload,
            "dataset": profile.dataset,
            "seed": seed,
            "n_accesses": n_accesses,
            "total_accesses": profile.total_accesses,
            "footprint_pages": profile.footprint_pages,
            "never_accessed_pages": profile.never_accessed_pages(),
            "skew": cdf.skew(),
            "traffic_top10": cdf.traffic_at_footprint(0.1),
            "structures": [
                {
                    "name": s.name,
                    "n_pages": s.n_pages,
                    "accesses": s.accesses,
                    "hotness_density": s.hotness_density,
                }
                for s in profile.hotness_ranking()
            ],
        }

    async def profile(self, payload: Mapping[str, Any],
                      deadline: Optional[float] = None) -> dict:
        """One workload's Section 5.1 page-access profile."""
        request = parse_profile_request(payload)
        spec = {"kind": "profile", **request}
        key = content_key(spec, self.runner.salt)
        profile, cached, _ = await self._job(
            "profile", key,
            lambda _: self._cached(
                key, spec, lambda: self._profile_payload(**request),
                dict, _decode_profile),
            deadline, workload=request["workload"],
            dataset=request["dataset"])
        return dict(profile, cached=cached)

    # ------------------------------------------------------------------
    # /v1/autotune
    # ------------------------------------------------------------------

    async def autotune(self, payload: Mapping[str, Any],
                       deadline: Optional[float] = None) -> dict:
        """Tune (or recall) a workload's interleave ratio.

        A repeat request is answered from the result cache unless
        ``force`` asks for a fresh run.
        """
        params = parse_autotune_request(payload)
        force = params.pop("force")
        topology_name = params.pop("topology_name")
        spec = autotune_spec(**params)
        key = content_key(spec, self.runner.salt)
        self.m_autotune_requests.inc()
        report, cached, joined = await self._job(
            "autotune", key,
            # run_autotune is looked up at call time: benchmarks rebind it.
            lambda _: self._cached(
                key, spec, lambda: run_autotune(**params),
                AutotuneReport.to_dict, AutotuneReport.from_dict, force),
            deadline, workload=params["workload"], topology=topology_name)
        return {
            "profile_key": key,
            "cached": cached,
            "deduplicated": joined,
            "profile": report.to_dict(),
        }

    # ------------------------------------------------------------------
    # /metrics
    # ------------------------------------------------------------------

    def metrics_text(self) -> str:
        # Refresh sampled gauges at scrape time.
        self.m_queue_depth.set(self._batcher.queue_depth)
        self.m_sim_inflight.set(len(self._flight))
        self.m_breaker_state.set(
            BREAKER_STATE_VALUES[self.breaker.state])
        if self.runner.cache is not None:
            self.m_cache_quarantined.set(
                self.runner.cache.stats.quarantined)
        return self.metrics.render()
