"""Cross-layer observability tests.

The three satellite bug regressions (uptime clock, client transport
wrapping, metrics escaping is covered in test_obs_metrics) plus the
tentpole acceptance path: one traced simulate request against an
in-process daemon yields one coherent trace tree — client request →
HTTP handler → service → runner → cache — sharing a single trace id,
with the ``X-Trace-Id`` header echoed on the response.
"""

from __future__ import annotations

import http.client
import urllib.error
import urllib.request

import pytest

from repro.core.errors import ServeError
from repro.obs import trace as obs_trace
from repro.runner import ResultCache, SweepRunner, make_spec
from repro.serve import BackgroundServer, ServeClient, ServeConfig
from repro.serve.service import PlacementService


@pytest.fixture(autouse=True)
def _isolated_tracer():
    obs_trace._reset_state()
    yield
    obs_trace._reset_state()


# ----------------------------------------------------------------------
# satellite: uptime must come from the monotonic clock
# ----------------------------------------------------------------------


class TestMonotonicUptime:
    def test_uptime_survives_wall_clock_step(self, monkeypatch,
                                             tmp_path):
        """Regression: uptime was ``time.time() - started_at``, so an
        NTP step (or any wall-clock jump) made it negative or wildly
        wrong.  The monotonic clock cannot jump."""
        service = PlacementService(ServeConfig(
            cache_dir=tmp_path, simulate_workers=1))
        try:
            import time as time_module
            real_time = time_module.time
            # Wall clock steps one hour into the past.
            monkeypatch.setattr(time_module, "time",
                                lambda: real_time() - 3600.0)
            uptime = service.health()["uptime_s"]
            assert 0.0 <= uptime < 60.0
        finally:
            service._executor.shutdown(wait=False)

    def test_uptime_advances(self, tmp_path):
        service = PlacementService(ServeConfig(
            cache_dir=tmp_path, simulate_workers=1))
        try:
            first = service.health()["uptime_s"]
            second = service.health()["uptime_s"]
            assert second >= first >= 0.0
        finally:
            service._executor.shutdown(wait=False)


# ----------------------------------------------------------------------
# satellite: mid-read transport failures must raise ServeError
# ----------------------------------------------------------------------


class _Raiser:
    def __init__(self, exc: BaseException) -> None:
        self.exc = exc

    def __call__(self, *args, **kwargs):
        raise self.exc


class TestClientTransportWrapping:
    @pytest.mark.parametrize("exc", [
        ConnectionResetError(104, "Connection reset by peer"),
        http.client.IncompleteRead(b"partial body"),
        TimeoutError("timed out"),
        BrokenPipeError(32, "Broken pipe"),
        http.client.RemoteDisconnected(
            "Remote end closed connection without response"),
    ])
    def test_raw_transport_errors_wrapped(self, monkeypatch, exc):
        """Regression: only URLError/HTTPError were caught, so a
        connection dropped mid-read escaped as a raw OSError (or
        HTTPException) instead of ServeError."""
        monkeypatch.setattr(urllib.request, "urlopen", _Raiser(exc))
        client = ServeClient("http://127.0.0.1:1", timeout_s=0.1)
        with pytest.raises(ServeError) as info:
            client.health()
        assert info.value.status == 0
        assert "transport error" in str(info.value)
        assert type(exc).__name__ in str(info.value)

    def test_urlerror_still_wrapped(self, monkeypatch):
        monkeypatch.setattr(
            urllib.request, "urlopen",
            _Raiser(urllib.error.URLError("connection refused")))
        client = ServeClient("http://127.0.0.1:1", timeout_s=0.1)
        with pytest.raises(ServeError) as info:
            client.health()
        assert info.value.status == 0
        assert "cannot reach" in str(info.value)


# ----------------------------------------------------------------------
# tentpole: worker spans merge into the parent sweep trace
# ----------------------------------------------------------------------


class TestRunnerTraceMerging:
    def test_parallel_sweep_merges_worker_spans(self, tmp_path):
        tracer = obs_trace.install(tmp_path / "sweep-trace.json")
        specs = [
            make_spec(workload, policy, trace_accesses=5_000)
            for workload in ("bfs", "xsbench")
            for policy in ("LOCAL", "BW-AWARE")
        ]
        runner = SweepRunner(jobs=2,
                             cache=ResultCache(tmp_path / "cache"))
        outcome = runner.run(specs)
        assert len(outcome.results) == 4
        events = tracer.events
        names = {event["name"] for event in events}
        assert {"runner.run", "runner.submit", "runner.chunk",
                "runner.wait", "runner.decode", "runner.exec",
                "cache.get", "cache.put"} <= names
        # Worker-process events were absorbed with their own pid.
        exec_pids = {e["pid"] for e in events
                     if e["name"] == "runner.exec"}
        assert exec_pids, "no runner.exec spans captured"
        run_pid = next(e["pid"] for e in events
                       if e["name"] == "runner.run")
        assert exec_pids != {run_pid}
        # The runner.run span carries the sweep summary.
        run_args = next(e["args"] for e in events
                        if e["name"] == "runner.run")
        assert run_args["executed"] == 4

    def test_untraced_sweep_records_nothing(self, tmp_path,
                                            monkeypatch):
        monkeypatch.delenv(obs_trace.TRACE_ENV, raising=False)
        runner = SweepRunner(jobs=1,
                             cache=ResultCache(tmp_path / "cache"))
        outcome = runner.run(
            [make_spec("bfs", "LOCAL", trace_accesses=5_000)])
        assert len(outcome.results) == 1
        assert obs_trace.active() is None


class TestEngineSpans:
    """Every engine's span says which per-access kernel ran."""

    @pytest.mark.parametrize("engine", ("throughput", "detailed", "banked"))
    def test_engine_span_carries_kernel(self, tmp_path, monkeypatch,
                                        engine):
        from repro.core.experiment import run_experiment
        from repro.gpu import service

        tracer = obs_trace.install(tmp_path / "engine-trace.json")
        expected = service.kernel_path()
        run_experiment("bfs", engine=engine, trace_accesses=5_000)
        monkeypatch.setattr(service, "_native_kernels", lambda: None)
        run_experiment("bfs", engine=engine, trace_accesses=5_000)
        spans = [e for e in tracer.events
                 if e["name"] == f"engine.{engine}"]
        assert [e["args"]["accesses"] > 0 for e in spans] == [True] * 2
        first, second = (e["args"]["kernel"] for e in spans)
        assert (first, second) == (expected, "numpy")


# ----------------------------------------------------------------------
# tentpole: one request, one trace tree, one trace id
# ----------------------------------------------------------------------


class TestServeTraceTree:
    def test_simulate_request_yields_single_trace_tree(self, tmp_path):
        tracer = obs_trace.install(tmp_path / "serve-trace.json")
        config = ServeConfig(port=0, cache_dir=tmp_path / "cache",
                             simulate_workers=1)
        with BackgroundServer(config) as server:
            client = ServeClient(server.base_url)
            client.wait_until_ready()
            report = client.simulate(workload="bfs", policy="BW-AWARE",
                                     trace_accesses=5_000)
        assert report["result"]["workload"] == "bfs"
        events = tracer.events
        names = {e["name"] for e in events}
        assert {"client.request", "http.request", "serve.simulate",
                "runner.run", "cache.get"} <= names

        def ids_for(name):
            return {e["args"].get("trace_id") for e in events
                    if e["name"] == name}

        sim_ids = ids_for("serve.simulate")
        assert len(sim_ids) == 1
        (trace_id,) = sim_ids
        assert trace_id is not None
        # The simulate POST's whole tree shares that id, client included.
        for name in ("http.request", "runner.run", "cache.get"):
            assert trace_id in ids_for(name), name
        assert trace_id in ids_for("client.request")

    def test_trace_id_header_echoed(self, tmp_path):
        obs_trace.install(tmp_path / "echo-trace.json")
        config = ServeConfig(port=0, cache_dir=tmp_path / "cache",
                             simulate_workers=1)
        with BackgroundServer(config) as server:
            client = ServeClient(server.base_url)
            client.wait_until_ready()
            status, headers, _ = client._request("GET", "/healthz")
        assert status == 200
        assert "x-trace-id" in headers
        assert len(headers["x-trace-id"]) == 16

    def test_no_header_without_tracing(self, tmp_path, monkeypatch):
        monkeypatch.delenv(obs_trace.TRACE_ENV, raising=False)
        config = ServeConfig(port=0, cache_dir=tmp_path / "cache",
                             simulate_workers=1)
        with BackgroundServer(config) as server:
            client = ServeClient(server.base_url)
            client.wait_until_ready()
            status, headers, _ = client._request("GET", "/healthz")
        assert status == 200
        assert "x-trace-id" not in headers

    def test_explicit_header_propagates_untraced_client(self, tmp_path):
        """A caller-supplied X-Trace-Id reaches the daemon's spans even
        when the daemon generated none of its own."""
        obs_trace.install(tmp_path / "prop-trace.json")
        tracer = obs_trace.active()
        config = ServeConfig(port=0, cache_dir=tmp_path / "cache",
                             simulate_workers=1)
        with BackgroundServer(config) as server:
            client = ServeClient(server.base_url)
            client.wait_until_ready()
            token = obs_trace.set_trace_id("cafe000000000001")
            try:
                status, headers, _ = client._request("GET", "/healthz")
            finally:
                obs_trace.reset_trace_id(token)
        assert status == 200
        assert headers["x-trace-id"] == "cafe000000000001"
        http_ids = {e["args"].get("trace_id") for e in tracer.events
                    if e["name"] == "http.request"}
        assert "cafe000000000001" in http_ids
