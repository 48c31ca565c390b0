"""Client library for the placement daemon (stdlib ``urllib`` only).

:class:`ServeClient` mirrors the daemon's endpoints one method each and
speaks plain JSON over HTTP, so it works against any ``repro serve``
instance with zero dependencies::

    from repro.serve.client import ServeClient

    client = ServeClient("http://127.0.0.1:8077")
    hints = client.placement(sizes=[1 << 20, 8 << 20],
                             hotness=[100.0, 1.0],
                             bo_capacity_bytes=1 << 20)["hints"]
    report = client.simulate(workload="bfs", policy="BW-AWARE",
                             trace_accesses=20_000)

Failures raise :class:`~repro.core.errors.ServeError` carrying the HTTP
status, the decoded error payload, and — for 429 backpressure — the
server's ``Retry-After`` hint.  :meth:`ServeClient.simulate` can retry
that case itself (``retries=``), which is the intended client-side
reaction to graceful degradation.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Any, Mapping, Optional, Sequence, Union

from repro.core.errors import ServeError
from repro.obs import trace as obs_trace
from repro.obs.metrics import parse_metrics
from repro.resilience import BackoffPolicy
from repro.serve.config import default_serve_url

#: HTTP statuses worth re-submitting: queue saturation (429) and
#: temporary unavailability — draining or an open circuit breaker (503).
RETRYABLE_STATUSES = frozenset({429, 503})


class ServeClient:
    """Synchronous client for one daemon instance."""

    def __init__(self, base_url: Optional[str] = None,
                 timeout_s: float = 300.0,
                 backoff: Optional[BackoffPolicy] = None) -> None:
        self.base_url = (base_url or default_serve_url()).rstrip("/")
        self.timeout_s = timeout_s
        #: governs sleeps between simulate retries when the server does
        #: not send a usable ``Retry-After``; also caps the cumulative
        #: time spent sleeping across one ``simulate`` call.
        self.backoff = backoff if backoff is not None else BackoffPolicy(
            base_s=0.25, factor=2.0, max_s=5.0, max_total_s=60.0
        )
        self._sleep = time.sleep  # test seam

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Optional[Mapping[str, Any]] = None
                 ) -> tuple[int, Mapping[str, str], bytes]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        token = None
        if obs_trace.enabled():
            trace_id = obs_trace.current_trace_id()
            if trace_id is None:
                trace_id = obs_trace.new_trace_id()
                token = obs_trace.set_trace_id(trace_id)
            headers[obs_trace.TRACE_ID_HEADER] = trace_id
        request = urllib.request.Request(
            self.base_url + path, data=body, headers=headers,
            method=method,
        )
        try:
            return self._send(request, method, path)
        finally:
            if token is not None:
                obs_trace.reset_trace_id(token)

    def _send(self, request: urllib.request.Request, method: str,
              path: str) -> tuple[int, Mapping[str, str], bytes]:
        with obs_trace.span("client.request", cat="client",
                            method=method, path=path) as span:
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout_s) as response:
                    span.annotate(status=response.status)
                    return (response.status,
                            {k.lower(): v
                             for k, v in response.headers.items()},
                            response.read())
            except urllib.error.HTTPError as exc:
                span.annotate(status=exc.code)
                with exc:
                    return (exc.code,
                            {k.lower(): v
                             for k, v in exc.headers.items()},
                            exc.read())
            except urllib.error.URLError as exc:
                span.annotate(error=type(exc).__name__)
                raise ServeError(
                    f"cannot reach {self.base_url}: {exc.reason}",
                    status=0,
                )
            except (OSError, http.client.HTTPException) as exc:
                # Mid-read failures — the connection dropped or timed
                # out *after* urlopen returned — arrive as raw
                # ConnectionResetError / IncompleteRead / TimeoutError,
                # not URLError.  Wrap them so callers see one exception
                # type for every transport failure.
                span.annotate(error=type(exc).__name__)
                raise ServeError(
                    f"transport error talking to {self.base_url}: "
                    f"{type(exc).__name__}: {exc}",
                    status=0,
                )

    def _json(self, method: str, path: str,
              payload: Optional[Mapping[str, Any]] = None) -> dict:
        status, headers, body = self._request(method, path, payload)
        return self._decode(status, headers, body)

    def _decode(self, status: int, headers: Mapping[str, str],
                body: bytes) -> dict:
        try:
            decoded = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"error": body[:200].decode("latin-1")}
        if 200 <= status < 300:
            return decoded
        retry_after: Optional[float] = None
        raw_retry = headers.get("retry-after")
        if raw_retry is not None:
            try:
                retry_after = float(raw_retry)
            except ValueError:
                retry_after = None
        raise ServeError(
            decoded.get("error", f"HTTP {status}"),
            status=status, retry_after=retry_after, payload=decoded,
        )

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """``GET /healthz``."""
        return self._json("GET", "/healthz")

    def metrics_text(self) -> str:
        """``GET /metrics`` — raw Prometheus exposition text."""
        status, _, body = self._request("GET", "/metrics")
        if status != 200:
            raise ServeError(f"metrics endpoint returned {status}",
                             status=status)
        return body.decode("utf-8")

    def metrics(self) -> dict[str, float]:
        """``GET /metrics`` parsed into ``{'name{labels}': value}``."""
        return parse_metrics(self.metrics_text())

    def placement(self, sizes: Sequence[int],
                  hotness: Sequence[float],
                  bo_capacity_bytes: int,
                  topology: Union[str, Mapping[str, Any], None] = None,
                  bo_domain: Optional[int] = None) -> dict:
        """``POST /v1/placement`` — GetAllocation hints, micro-batched.

        Returns ``{"hints": ["BW"|"BO"|"CO", ...], ...}`` aligned with
        ``sizes``.  ``topology`` is a registered name (default
        ``"baseline"``) or ``{"bandwidth_gbps": [...]}``.
        """
        payload: dict[str, Any] = {
            "sizes": list(sizes),
            "hotness": list(hotness),
            "bo_capacity_bytes": int(bo_capacity_bytes),
        }
        if topology is not None:
            payload["topology"] = topology
        if bo_domain is not None:
            payload["bo_domain"] = int(bo_domain)
        return self._json("POST", "/v1/placement", payload)

    def simulate(self, workload: str, policy: str = "BW-AWARE",
                 dataset: str = "default",
                 topology: Optional[str] = None,
                 bo_capacity_fraction: Optional[float] = None,
                 trace_accesses: Optional[int] = None,
                 seed: int = 0, engine: str = "throughput",
                 training_dataset: Optional[str] = None,
                 retries: int = 0) -> dict:
        """``POST /v1/simulate`` — run (or fetch) one experiment.

        ``retries`` > 0 re-submits when the server signals transient
        trouble — queue saturation (429) or unavailability while
        draining / breaker-open (503).  The sleep between attempts is
        the server's ``Retry-After`` hint capped at the backoff
        policy's ``max_s``, or the policy's own exponential delay when
        no hint is sent; cumulative sleep is bounded by the policy's
        ``max_total_s``, after which the last error raises even if
        retries remain.  All other errors raise immediately.
        """
        payload: dict[str, Any] = {
            "workload": workload, "policy": policy, "dataset": dataset,
            "seed": seed, "engine": engine,
        }
        if topology is not None:
            payload["topology"] = topology
        if bo_capacity_fraction is not None:
            payload["bo_capacity_fraction"] = bo_capacity_fraction
        if trace_accesses is not None:
            payload["trace_accesses"] = trace_accesses
        if training_dataset is not None:
            payload["training_dataset"] = training_dataset
        attempts = max(0, int(retries)) + 1
        slept_s = 0.0
        for attempt in range(attempts):
            try:
                return self._json("POST", "/v1/simulate", payload)
            except ServeError as exc:
                if (exc.status not in RETRYABLE_STATUSES
                        or attempt == attempts - 1
                        or self.backoff.exhausted(slept_s)):
                    raise
                if exc.retry_after is not None and exc.retry_after > 0:
                    delay = min(exc.retry_after, self.backoff.max_s)
                else:
                    delay = self.backoff.delay(attempt)
                self._sleep(delay)
                slept_s += delay
        raise AssertionError("unreachable")  # pragma: no cover

    def autotune(self, workload: str, dataset: str = "default",
                 topology: Optional[str] = None,
                 engine: str = "throughput",
                 epochs: Optional[int] = None,
                 n_accesses: Optional[int] = None,
                 seed: int = 0,
                 controller: Optional[Mapping[str, float]] = None,
                 force: bool = False) -> dict:
        """``POST /v1/autotune`` — tune (or recall) an interleave ratio.

        Returns ``{"profile_key", "cached", "profile": {...}}`` where
        ``profile`` carries the tuned fractions, the closed-form SBIT
        split, and the tuned-vs-static times.  ``force=True`` ignores
        the persisted profile and re-tunes.
        """
        payload: dict[str, Any] = {
            "workload": workload, "dataset": dataset, "seed": seed,
            "engine": engine,
        }
        if topology is not None:
            payload["topology"] = topology
        if epochs is not None:
            payload["epochs"] = int(epochs)
        if n_accesses is not None:
            payload["n_accesses"] = int(n_accesses)
        if controller is not None:
            payload["controller"] = dict(controller)
        if force:
            payload["force"] = True
        return self._json("POST", "/v1/autotune", payload)

    def upload_trace(self, name: str,
                     data: Optional[bytes] = None,
                     path: Optional[str] = None,
                     fmt: Optional[str] = None) -> dict:
        """``POST /v1/traces`` — upload one trace.

        Pass raw ``data`` bytes or a local file ``path``; ``fmt`` is
        ``"k6"``, ``"mase"`` or ``"npz"`` (inferred from the registry
        name's prefix when omitted).  On success the response carries the
        checksum-carrying workload name (``trace:<name>#<sha12>``) to
        use with :meth:`simulate`.  Rejections raise
        :class:`ServeError` with status 422 and the structured
        ``ingest_error`` in ``payload``.
        """
        if (data is None) == (path is None):
            raise ServeError(
                "pass exactly one of data= or path= to upload_trace",
                status=0)
        if path is not None:
            with open(path, "rb") as handle:
                data = handle.read()
        query = f"name={name}"
        if fmt is not None:
            query += f"&format={fmt}"
        headers = {"Accept": "application/json",
                   "Content-Type": "application/octet-stream"}
        request = urllib.request.Request(
            self.base_url + f"/v1/traces?{query}", data=data,
            headers=headers, method="POST",
        )
        status, resp_headers, body = self._send(
            request, "POST", "/v1/traces")
        return self._decode(status, resp_headers, body)

    def traces(self) -> dict:
        """``GET /v1/traces`` — registered external traces."""
        return self._json("GET", "/v1/traces")

    def profile(self, workload: str, dataset: str = "default",
                accesses: Optional[int] = None, seed: int = 0) -> dict:
        """``GET /v1/profile/<workload>`` — cached hotness profile."""
        query = [f"dataset={dataset}", f"seed={seed}"]
        if accesses is not None:
            query.append(f"accesses={int(accesses)}")
        return self._json(
            "GET", f"/v1/profile/{workload}?" + "&".join(query)
        )

    def wait_until_ready(self, timeout_s: float = 30.0,
                         interval_s: float = 0.1) -> dict:
        """Poll ``/healthz`` until the daemon answers (startup races)."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                return self.health()
            except ServeError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval_s)
