"""Configuration for the placement-as-a-service daemon.

One frozen dataclass carries every knob the daemon honors, so tests can
build throwaway configurations without touching the environment and the
CLI maps flags onto fields one-to-one.  Defaults are production-shaped
(caching on at the shared root, modest queue bounds) but every bound is
small enough to exercise from a laptop.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.core.cachedir import cache_root
from repro.core.errors import ConfigError, RunnerError
from repro.runner import check_chunk_timeout

#: environment variable naming the daemon clients talk to by default.
SERVE_URL_ENV = "REPRO_SERVE_URL"

#: default bind address / port for ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8077


def default_serve_url() -> str:
    """Base URL clients use when none is given explicitly."""
    env = os.environ.get(SERVE_URL_ENV, "").strip()
    if env:
        return env.rstrip("/")
    return f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"


def _check_seconds(name: str, value: float, *,
                   allow_zero: bool = False) -> None:
    """Require a finite duration in ``(0, threading.TIMEOUT_MAX]`` (or
    from 0 with ``allow_zero``).  Written so ``nan`` fails every
    comparison and is rejected rather than slipping past ``<= 0``."""
    low = 0 <= value if allow_zero else 0 < value
    if not (low and value <= threading.TIMEOUT_MAX):
        bracket = "[" if allow_zero else "("
        raise ConfigError(f"{name} must be a number of seconds in "
                          f"{bracket}0, {threading.TIMEOUT_MAX:.0f}], "
                          f"got {value!r}")


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon needs to run.

    Queue semantics: ``max_pending_jobs`` bounds *distinct* in-flight
    jobs — simulate, profile and autotune together (deduplicated
    joiners ride along for free); beyond it the daemon answers 429 with
    ``Retry-After``.  ``simulate_workers`` threads drain that queue; a
    simulate job runs one :class:`~repro.runner.sweep.SweepRunner` batch,
    and every kind consults the shared on-disk result cache first.
    ``/v1/placement`` never enters this
    queue — it is answered from the closed-form ``GetAllocation`` path,
    micro-batched over a fixed 2 ms collection window (at most 64 per
    batch, 256 queued before requests degrade to inline computation).
    """

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT

    #: result-cache root; ``None`` resolves via $REPRO_CACHE_DIR with
    #: the shared ``./.repro-cache`` default (repro.core.cachedir).
    cache_dir: Optional[Union[str, Path]] = None
    #: disable the on-disk cache entirely (tests, ephemeral runs).
    use_cache: bool = True
    #: worker processes per simulate job (SweepRunner ``jobs``).
    jobs: int = 1

    #: distinct jobs of any kind allowed in flight before 429.
    max_pending_jobs: int = 8
    #: threads draining the job queue.
    simulate_workers: int = 2
    #: wall-clock budget per request before the daemon answers 504.
    request_timeout_s: float = 120.0
    #: Retry-After hint attached to 429 responses.
    retry_after_s: float = 1.0

    #: consecutive job failures before the circuit breaker opens
    #: (open → fast 503 + Retry-After instead of queueing doomed work).
    breaker_threshold: int = 5
    #: seconds the breaker stays open before admitting half-open probes.
    breaker_reset_s: float = 30.0
    #: concurrent probe jobs admitted while half-open.
    breaker_probes: int = 1
    #: how long graceful shutdown waits for in-flight jobs to drain.
    drain_timeout_s: float = 10.0
    #: per-chunk wall-clock budget for the runner (None → no timeout,
    #: or $REPRO_CHUNK_TIMEOUT).
    chunk_timeout_s: Optional[float] = None
    #: per-spec retry budget for the runner (None → 2, or
    #: $REPRO_MAX_RETRIES).
    max_retries: Optional[int] = None
    #: shared-memory trace shipping for the runner (None → $REPRO_SHM,
    #: else automatic when ``jobs`` > 1).  The daemon's runner owns one
    #: arena for its whole lifetime, so warm workers reuse published
    #: traces across requests.
    use_shm: Optional[bool] = None

    #: ceiling on request body size (bytes); 413 beyond it.
    max_body_bytes: int = 4 * 1024 * 1024

    #: slowloris guard: every read while receiving a request (request
    #: line, header line, body chunk) must deliver bytes within this
    #: window or the daemon answers 408 and closes the connection.
    header_read_timeout_s: float = 15.0

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ConfigError(f"port out of range: {self.port}")
        if self.max_pending_jobs < 1:
            raise ConfigError("max_pending_jobs must be >= 1")
        if self.simulate_workers < 1:
            raise ConfigError("simulate_workers must be >= 1")
        _check_seconds("request_timeout_s", self.request_timeout_s)
        _check_seconds("retry_after_s", self.retry_after_s, allow_zero=True)
        if self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be >= 1")
        _check_seconds("breaker_reset_s", self.breaker_reset_s)
        if self.breaker_probes < 1:
            raise ConfigError("breaker_probes must be >= 1")
        _check_seconds("drain_timeout_s", self.drain_timeout_s,
                       allow_zero=True)
        try:
            check_chunk_timeout(self.chunk_timeout_s)
        except RunnerError as exc:
            raise ConfigError(str(exc)) from None
        if self.max_body_bytes < 1:
            raise ConfigError("max_body_bytes must be >= 1")
        _check_seconds("header_read_timeout_s", self.header_read_timeout_s)

    def resolved_cache_dir(self) -> Optional[Path]:
        """The cache root this daemon will read and write, or ``None``."""
        if not self.use_cache:
            return None
        return cache_root(self.cache_dir)
