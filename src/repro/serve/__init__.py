"""Placement-as-a-service: the paper's runtime as a long-lived daemon.

The paper's ``GetAllocation`` routine (Fig. 9) is request/response
shaped: {sizes, hotness} in, placement hints out.  Production
tiered-memory placement runs exactly this way — a system service (TPP)
or a runtime tool consulted by applications — so this package wraps the
repro library in an asyncio HTTP daemon:

* :class:`ServeApp` / :func:`run` — the daemon itself
  (``repro serve``);
* :class:`PlacementService` — protocol-independent request semantics
  (micro-batched placement; simulate, profile and autotune jobs
  deduplicated, bounded and cached; Prometheus metrics);
* :class:`ServeClient` — stdlib client library (``repro request``);
* :class:`ServeConfig` — every knob in one dataclass;
* :class:`BackgroundServer` — in-process harness for tests/embedding.

See ``docs/api.md`` ("Serving") for the endpoint catalogue and
semantics.
"""

from repro.obs.metrics import MetricsRegistry, parse_metrics
from repro.serve.batching import (
    BatchSaturatedError,
    MicroBatcher,
    SingleFlight,
)
from repro.serve.client import ServeClient
from repro.serve.config import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    SERVE_URL_ENV,
    ServeConfig,
    default_serve_url,
)
from repro.serve.http import BackgroundServer, ServeApp, run
from repro.serve.service import (
    BadRequestError,
    DeadlineExceededError,
    PlacementService,
    ServiceSaturatedError,
    ServiceUnavailableError,
)

__all__ = [
    "BackgroundServer",
    "BadRequestError",
    "BatchSaturatedError",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DeadlineExceededError",
    "MetricsRegistry",
    "MicroBatcher",
    "PlacementService",
    "SERVE_URL_ENV",
    "ServeApp",
    "ServeClient",
    "ServeConfig",
    "ServiceSaturatedError",
    "ServiceUnavailableError",
    "SingleFlight",
    "default_serve_url",
    "parse_metrics",
    "run",
]
