"""Stdlib asyncio HTTP/1.1 front end for the placement service.

No web framework: the daemon speaks just enough HTTP for JSON request/
response bodies, which keeps the runtime dependency set at
numpy + stdlib (the repo's hard constraint).  One request per
connection (``Connection: close``) — placement traffic is small and
the accept loop is cheap, so protocol simplicity wins over keep-alive.

Routes::

    GET  /healthz                  liveness + catalogue summary
    GET  /metrics                  Prometheus text exposition
    POST /v1/placement             GetAllocation hints (micro-batched)
    POST /v1/simulate              experiment via runner + cache + dedup
    POST /v1/autotune              closed-loop interleave-ratio tuning
    GET  /v1/profile/<workload>    cached CDF/hotness profile

Error contract: JSON ``{"error": ...}`` bodies; 400 for malformed
requests, 404 unknown route, 413 oversized body, 429 + ``Retry-After``
when the simulate queue is saturated, 503 + ``Retry-After`` when the
circuit breaker is open or the daemon is draining, 504 when a request
outlives its deadline, 500 for anything unexpected.

Deadlines: each request's budget is the configured
``request_timeout_s``, optionally tightened by an ``X-Request-Timeout``
header (seconds; never loosened).  The resulting absolute deadline is
propagated into the service and from there into the sweep runner, so
work stops when the caller stops waiting.

Shutdown: ``run()`` installs SIGTERM/SIGINT handlers that trigger a
graceful drain — stop accepting, finish in-flight requests and jobs
(bounded by ``drain_timeout_s``), then exit — instead of an asyncio
traceback.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import tempfile
import threading
import time
from typing import Any, Mapping, Optional
from urllib.parse import parse_qs, unquote, urlsplit

from repro.core.errors import ServeError
from repro.obs import trace as obs_trace
from repro.obs.log import log_event
from repro.serve.config import ServeConfig
from repro.serve.service import PlacementService

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 422: "Unprocessable Content",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: request header that tightens (never loosens) the request timeout.
DEADLINE_HEADER = "x-request-timeout"

#: /metrics content type (Prometheus text exposition format).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _HttpRequest:
    __slots__ = ("method", "path", "query", "headers", "body",
                 "body_file", "deadline")

    def __init__(self, method: str, target: str,
                 headers: Mapping[str, str], body: bytes) -> None:
        self.method = method
        split = urlsplit(target)
        self.path = unquote(split.path)
        self.query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        self.headers = headers
        self.body = body
        #: spooled temp file holding the body of a trace upload (large
        #: octet-stream bodies never land in one bytes object); ``body``
        #: is empty when this is set.
        self.body_file = None
        #: absolute time.monotonic() budget, set by ``ServeApp._dispatch``.
        self.deadline: Optional[float] = None

    def close(self) -> None:
        if self.body_file is not None:
            try:
                self.body_file.close()
            except OSError:  # pragma: no cover - tempfile cleanup
                pass
            self.body_file = None

    def timeout_hint(self) -> Optional[float]:
        """The client's X-Request-Timeout, if present and sane."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            return None
        return value if value > 0 else None

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"request body is not valid JSON: {exc}",
                             status=400)
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object",
                             status=400)
        return payload


class _HttpResponse:
    def __init__(self, status: int, body: bytes,
                 content_type: str = "application/json",
                 headers: Optional[Mapping[str, str]] = None) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = dict(headers or {})

    @classmethod
    def json(cls, payload: Any, status: int = 200,
             headers: Optional[Mapping[str, str]] = None
             ) -> "_HttpResponse":
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return cls(status, body, headers=headers)

    def encode(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            "Connection: close",
        ]
        for key, value in self.headers.items():
            lines.append(f"{key}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head + self.body


#: spooled upload bodies overflow from memory to disk above this size.
_SPOOL_MEMORY_BYTES = 1024 * 1024
#: chunk size for spooled body reads.
_SPOOL_CHUNK_BYTES = 64 * 1024
#: most bytes discarded while draining an oversized (413) body so the
#: client can finish sending and actually read the rejection.
_DRAIN_DISCARD_BYTES = 64 * 1024 * 1024


async def drain_rejected_body(reader: asyncio.StreamReader,
                              idle_timeout_s: Optional[float]) -> None:
    """Discard an in-flight request body after a 413.

    Closing immediately races the client's send: it sees a reset
    before it ever reads the rejection.  Reading and discarding (never
    buffering) until EOF — bounded in bytes and per-read idle time —
    lets well-behaved clients observe the 413 while a hostile sender
    still cannot make the daemon allocate or wait unboundedly.
    """
    discarded = 0
    while discarded < _DRAIN_DISCARD_BYTES:
        try:
            coro = reader.read(_SPOOL_CHUNK_BYTES)
            if idle_timeout_s is not None:
                chunk = await asyncio.wait_for(coro,
                                               timeout=idle_timeout_s)
            else:
                chunk = await coro
        except (asyncio.TimeoutError, ConnectionError, OSError):
            return
        if not chunk:
            return
        discarded += len(chunk)


def _spooled_path(method: str, target: str) -> bool:
    """Trace uploads stream to a spooled temp file instead of one
    bytes object — their bodies are raw octet-stream payloads bounded
    only by ``max_body_bytes``."""
    return (method.upper() == "POST"
            and urlsplit(target).path == "/v1/traces")


async def read_http_request(reader: asyncio.StreamReader,
                            max_body_bytes: int,
                            idle_timeout_s: Optional[float] = None
                            ) -> Optional[_HttpRequest]:
    """Parse one HTTP/1.1 request off ``reader``.  Returns ``None`` on
    a clean EOF before a request line.

    ``idle_timeout_s`` is the slowloris guard: every read — request
    line, each header line, each body chunk — must deliver bytes
    within that window or the request fails with a 408
    :class:`ServeError`.  A client that opens a connection and stalls
    can therefore never hold a connection slot past the deadline.
    """

    async def guarded(awaitable):
        if idle_timeout_s is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable,
                                          timeout=idle_timeout_s)
        except asyncio.TimeoutError:
            raise ServeError(
                f"client idle for more than {idle_timeout_s:g}s "
                "while sending the request", status=408)

    try:
        request_line = await guarded(reader.readline())
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ServeError("malformed request line", status=400)
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await guarded(reader.readline())
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ServeError("bad Content-Length", status=400)
    if length > max_body_bytes:
        raise ServeError(
            f"body exceeds {max_body_bytes} bytes",
            status=413,
        )
    if length and _spooled_path(method, target):
        spool = tempfile.SpooledTemporaryFile(
            max_size=_SPOOL_MEMORY_BYTES)
        try:
            remaining = length
            while remaining:
                chunk = await guarded(reader.read(
                    min(_SPOOL_CHUNK_BYTES, remaining)))
                if not chunk:
                    raise asyncio.IncompleteReadError(b"", remaining)
                spool.write(chunk)
                remaining -= len(chunk)
        except BaseException:
            spool.close()
            raise
        spool.seek(0)
        request = _HttpRequest(method.upper(), target, headers, b"")
        request.body_file = spool
        return request
    body = await guarded(reader.readexactly(length)) if length else b""
    return _HttpRequest(method.upper(), target, headers, body)


class ServeApp:
    """The daemon: a :class:`PlacementService` behind an asyncio server."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.service = PlacementService(self.config)
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`; supports
        ``port=0`` for OS-assigned test ports)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def start(self) -> None:
        # With tracing on, a request without a trace id gets one from
        # new_trace_id: load its deferred uuid now, not on that request.
        import uuid  # noqa: F401

        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
        )

    async def stop(self) -> None:
        """Graceful shutdown: close the listener, let in-flight
        connections finish (bounded by ``drain_timeout_s``), then
        drain the service's jobs."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = {task for task in self._connections
                   if not task.done()}
        if pending and self.config.drain_timeout_s > 0:
            await asyncio.wait(pending,
                               timeout=self.config.drain_timeout_s)
        await self.service.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[_HttpRequest]:
        return await read_http_request(
            reader, self.config.max_body_bytes,
            idle_timeout_s=self.config.header_read_timeout_s)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        request = None
        try:
            try:
                request = await self._read_request(reader)
            except ServeError as exc:
                body = dict(exc.payload)
                body["error"] = str(exc)
                response = _HttpResponse.json(
                    body, status=exc.status or 400
                )
                writer.write(response.encode())
                await writer.drain()
                if exc.status == 413:
                    await drain_rejected_body(
                        reader, self.config.header_read_timeout_s)
                return
            except asyncio.IncompleteReadError:
                return
            if request is None:
                return
            response = await self._respond(request)
            writer.write(response.encode())
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            if request is not None:
                request.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _route(self, request: _HttpRequest):
        """Return ``(endpoint_label, handler coroutine factory)``."""
        path, method = request.path, request.method
        if path == "/healthz" and method == "GET":
            return "healthz", lambda: self._get_healthz()
        if path == "/metrics" and method == "GET":
            return "metrics", lambda: self._get_metrics()
        if path == "/v1/placement" and method == "POST":
            return "placement", lambda: self._post_placement(request)
        if path == "/v1/simulate" and method == "POST":
            return "simulate", lambda: self._post_simulate(request)
        if path == "/v1/autotune" and method == "POST":
            return "autotune", lambda: self._post_autotune(request)
        if path == "/v1/traces" and method == "POST":
            return "traces", lambda: self._post_traces(request)
        if path == "/v1/traces" and method == "GET":
            return "traces", lambda: self._get_traces()
        if path.startswith("/v1/profile/") and method == "GET":
            return "profile", lambda: self._get_profile(request)
        known = {"/healthz", "/metrics", "/v1/placement", "/v1/simulate",
                 "/v1/autotune", "/v1/traces"}
        if path in known or path.startswith("/v1/profile/"):
            return "other", None  # right path, wrong method
        return "other", False  # unknown path

    async def _respond(self, request: _HttpRequest) -> _HttpResponse:
        """Trace-scope wrapper: one ``http.request`` span per request.

        The client's ``X-Trace-Id`` (or a fresh id when tracing is on)
        is bound to the handling context so every span below — service,
        runner, cache, engine — carries the same ``args.trace_id``, and
        is echoed on the response so callers can correlate.
        """
        trace_id = request.headers.get(obs_trace.TRACE_ID_HEADER.lower())
        if trace_id is None and obs_trace.enabled():
            trace_id = obs_trace.new_trace_id()
        if trace_id is None:
            return await self._dispatch(request)
        token = obs_trace.set_trace_id(trace_id)
        try:
            with obs_trace.lane():
                with obs_trace.span("http.request", cat="http",
                                    method=request.method,
                                    path=request.path) as span:
                    response = await self._dispatch(request)
                    span.annotate(status=response.status)
        finally:
            obs_trace.reset_trace_id(token)
        response.headers.setdefault(obs_trace.TRACE_ID_HEADER, trace_id)
        return response

    async def _dispatch(self, request: _HttpRequest) -> _HttpResponse:
        service = self.service
        endpoint, handler = self._route(request)
        loop = asyncio.get_running_loop()
        started = loop.time()
        timeout = self.config.request_timeout_s
        hint = request.timeout_hint()
        if hint is not None:
            timeout = min(timeout, hint)
        request.deadline = time.monotonic() + timeout
        if handler is None:
            response = _HttpResponse.json(
                {"error": f"method {request.method} not allowed "
                          f"for {request.path}"}, status=405)
        elif handler is False:
            response = _HttpResponse.json(
                {"error": f"no route {request.path}"}, status=404)
        else:
            try:
                response = await asyncio.wait_for(
                    handler(), timeout=timeout,
                )
            except asyncio.TimeoutError:
                service.m_timeouts.inc()
                response = _HttpResponse.json(
                    {"error": f"request timed out after {timeout}s"},
                    status=504,
                )
            except ServeError as exc:
                headers = {}
                if exc.retry_after is not None:
                    headers["Retry-After"] = (
                        f"{max(exc.retry_after, 0.0):g}"
                    )
                body = dict(exc.payload)
                body["error"] = str(exc)
                response = _HttpResponse.json(
                    body, status=exc.status or 400,
                    headers=headers,
                )
            except Exception as exc:  # noqa: BLE001 - daemon boundary
                response = _HttpResponse.json(
                    {"error": f"internal error: "
                              f"{type(exc).__name__}: {exc}"},
                    status=500,
                )
        service.m_requests.inc(endpoint=endpoint,
                               status=str(response.status))
        service.m_latency.observe(loop.time() - started,
                                  endpoint=endpoint)
        return response

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    async def _get_healthz(self) -> _HttpResponse:
        return _HttpResponse.json(self.service.health())

    async def _get_metrics(self) -> _HttpResponse:
        text = self.service.metrics_text()
        return _HttpResponse(200, text.encode("utf-8"),
                             content_type=METRICS_CONTENT_TYPE)

    async def _post_placement(self, request: _HttpRequest
                              ) -> _HttpResponse:
        result = await self.service.placement(request.json())
        return _HttpResponse.json(result)

    async def _post_simulate(self, request: _HttpRequest
                             ) -> _HttpResponse:
        result = await self.service.simulate(
            request.json(), deadline=request.deadline)
        return _HttpResponse.json(result)

    async def _post_autotune(self, request: _HttpRequest
                             ) -> _HttpResponse:
        result = await self.service.autotune(
            request.json(), deadline=request.deadline)
        return _HttpResponse.json(result)

    async def _post_traces(self, request: _HttpRequest
                           ) -> _HttpResponse:
        result = await self.service.ingest_trace(
            request.query.get("name"),
            request.query.get("format"),
            request.body_file if request.body_file is not None
            else request.body,
            deadline=request.deadline,
        )
        return _HttpResponse.json(result)

    async def _get_traces(self) -> _HttpResponse:
        return _HttpResponse.json(self.service.list_traces())

    async def _get_profile(self, request: _HttpRequest) -> _HttpResponse:
        workload = request.path[len("/v1/profile/"):]
        if not workload or "/" in workload:
            raise ServeError(f"bad profile path {request.path!r}",
                             status=404)
        query = request.query
        result = await self.service.profile({
            "workload": workload,
            "dataset": query.get("dataset", "default"),
            "n_accesses": query.get("accesses"),
            "seed": query.get("seed"),
        }, deadline=request.deadline)
        return _HttpResponse.json(result)


def run(config: Optional[ServeConfig] = None,
        ready_message: bool = True) -> None:
    """Blocking entry point for ``repro serve``.

    SIGTERM and Ctrl-C (SIGINT) both trigger the graceful drain:
    stop accepting, finish in-flight requests and simulate jobs
    (bounded by ``drain_timeout_s``), flush results to the cache,
    exit 0 — no asyncio traceback.
    """
    app = ServeApp(config)

    async def main() -> None:
        await app.start()
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        handled_signals = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
                handled_signals.append(signum)
            except (NotImplementedError, RuntimeError):
                # Non-Unix event loop: fall back to KeyboardInterrupt.
                pass
        if ready_message:
            cache_dir = app.service.health()["cache_dir"]
            log_event(
                "serve.listening",
                message=(f"repro.serve listening on {app.base_url} "
                         f"(cache: {cache_dir})"),
                url=app.base_url, cache_dir=cache_dir,
                stream=sys.stdout,
            )
        assert app._server is not None
        server_task = asyncio.ensure_future(app._server.serve_forever())
        try:
            await stop_requested.wait()
            if ready_message:
                inflight = len(app.service._flight)
                log_event(
                    "serve.draining",
                    message=("repro.serve draining "
                             f"({inflight} job(s) in flight, timeout "
                             f"{app.config.drain_timeout_s:g}s)..."),
                    inflight=inflight,
                    drain_timeout_s=app.config.drain_timeout_s,
                    stream=sys.stdout,
                )
        finally:
            server_task.cancel()
            try:
                await server_task
            except (asyncio.CancelledError, Exception):
                pass
            await app.stop()
            for signum in handled_signals:
                loop.remove_signal_handler(signum)
        if ready_message:
            log_event("serve.stopped",
                      message="repro.serve stopped cleanly",
                      stream=sys.stdout)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        pass


class BackgroundServer:
    """A ServeApp on a dedicated event-loop thread.

    The in-process harness the integration tests (and anything else
    embedding the daemon) use::

        with BackgroundServer(ServeConfig(port=0)) as server:
            client = ServeClient(server.base_url)

    ``port=0`` lets the OS pick a free port; ``base_url`` reflects the
    real binding.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.app = ServeApp(config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def base_url(self) -> str:
        return self.app.base_url

    @property
    def service(self) -> PlacementService:
        return self.app.service

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise ServeError("daemon failed to start within 30s")
        return self

    def _run(self) -> None:
        async def main() -> None:
            try:
                await self.app.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            self._ready.set()
            await self._stop_event.wait()
            await self.app.stop()

        asyncio.run(main())

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
