"""Integration tests: the daemon in-process, over real sockets.

A :class:`BackgroundServer` runs the full asyncio app on a dedicated
thread with an OS-assigned port; :class:`ServeClient` talks to it over
HTTP like any external consumer would.  The acceptance scenarios from
the issue live here:

* 50 concurrent identical ``/v1/simulate`` requests trigger exactly one
  runner job (verified via ``/metrics``);
* the next identical request after completion is a disk cache hit with
  p50 latency under 50 ms;
* a saturated simulate queue answers 429 + Retry-After while
  ``/v1/placement`` keeps answering from the closed-form path.

Determinism: tests that need a job to stay in flight gate the service's
executor-thread body on a ``threading.Event`` instead of racing against
wall-clock simulation time.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.errors import ServeError
from repro.obs.metrics import parse_metrics
from repro.serve import BackgroundServer, ServeClient, ServeConfig

#: short traces keep cold simulate jobs around a second on slow boxes.
ACCESSES = 6_000


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServeConfig(
        port=0,
        cache_dir=tmp_path_factory.mktemp("serve-cache"),
        simulate_workers=2,
        max_pending_jobs=8,
        retry_after_s=0.05,
    )
    with BackgroundServer(config) as background:
        yield background


@pytest.fixture(scope="module")
def client(server):
    client = ServeClient(server.base_url)
    client.wait_until_ready()
    return client


def gate_jobs(service):
    """Block every job body (simulate, profile, autotune) until the
    returned event is set."""
    original = service._run_job
    gate = threading.Event()

    def gated(body, deadline=None):
        assert gate.wait(timeout=30), "test gate never released"
        return original(body, deadline)

    service._run_job = gated
    return gate, lambda: setattr(service, "_run_job", original)


class TestHealthAndRouting:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workloads"] > 10
        assert "baseline" in health["topologies"]
        assert health["cache_dir"] is not None

    def test_unknown_route_404(self, server):
        with pytest.raises(ServeError) as excinfo:
            ServeClient(server.base_url)._json("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, server):
        with pytest.raises(ServeError) as excinfo:
            ServeClient(server.base_url)._json("GET", "/v1/placement")
        assert excinfo.value.status == 405

    def test_non_json_body_400(self, server):
        request = urllib.request.Request(
            server.base_url + "/v1/placement",
            data=b"not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_metrics_exposition_format(self, client):
        text = client.metrics_text()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "# TYPE repro_serve_request_seconds histogram" in text
        assert "repro_serve_simulate_inflight" in text


class TestPlacementEndpoint:
    def test_constrained_hints(self, client):
        result = client.placement(
            sizes=[4096 * 10, 4096 * 10, 4096 * 10],
            hotness=[1.0, 50.0, 5.0],
            bo_capacity_bytes=4096 * 10,
        )
        assert result["hints"] == ["CO", "BO", "CO"]
        assert result["degraded"] is False

    def test_unconstrained_all_bw(self, client):
        result = client.placement(
            sizes=[4096, 4096], hotness=[1.0, 2.0],
            bo_capacity_bytes=4096 * 1000,
        )
        assert result["hints"] == ["BW", "BW"]

    def test_validation_error_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.placement(sizes=[4096], hotness=[1.0, 2.0],
                             bo_capacity_bytes=0)
        assert excinfo.value.status == 400
        assert "align" in str(excinfo.value)

    def test_concurrent_placements_all_answered(self, client, server):
        before = server.service.m_place_batches.value()
        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(
                lambda i: client.placement(
                    sizes=[4096 * (i + 1), 4096],
                    hotness=[float(i), 1.0],
                    bo_capacity_bytes=4096,
                ),
                range(16),
            ))
        assert all(len(r["hints"]) == 2 for r in results)
        # Micro-batching must not duplicate or drop answers; batch
        # count strictly grew but by at most the request count.
        grew = server.service.m_place_batches.value() - before
        assert 1 <= grew <= 16

    def test_saturated_batcher_degrades_inline(self, client, server):
        """A full batch queue still answers, computed inline."""
        batcher = server.service._batcher
        assert (batcher.window_s, batcher.max_batch,
                batcher.max_queue) == (0.002, 64, 256)
        request = dict(sizes=[4096 * 10, 4096 * 10, 4096 * 10],
                       hotness=[1.0, 50.0, 5.0],
                       bo_capacity_bytes=4096 * 10)
        batched = client.placement(**request)
        inline_metric = "repro_serve_placement_inline_total"
        before = parse_metrics(client.metrics_text())[inline_metric]
        batcher.max_queue = 0
        try:
            degraded = client.placement(**request)
        finally:
            batcher.max_queue = 256
        assert batched["degraded"] is False
        assert degraded["degraded"] is True
        assert degraded["hints"] == batched["hints"] == ["CO", "BO", "CO"]
        after = parse_metrics(client.metrics_text())[inline_metric]
        assert after == before + 1


class TestSimulateDedupAndCache:
    def test_50_concurrent_identical_requests_one_job(
            self, client, server):
        service = server.service
        gate, restore = gate_jobs(service)
        jobs_before = service.m_sim_jobs.value()
        dedup_before = service.m_sim_dedup.value()
        requests_before = service.m_sim_requests.value()
        try:
            with ThreadPoolExecutor(max_workers=50) as pool:
                futures = [
                    pool.submit(
                        client.simulate, workload="bfs",
                        policy="BW-AWARE", trace_accesses=ACCESSES,
                    )
                    for _ in range(50)
                ]
                # Wait until all 50 are accepted (joined the in-flight
                # job), then let the single gated job run.
                deadline = time.monotonic() + 30
                while (service.m_sim_requests.value()
                       < requests_before + 50):
                    assert time.monotonic() < deadline, \
                        "requests never all arrived"
                    time.sleep(0.01)
                gate.set()
                results = [f.result(timeout=60) for f in futures]
        finally:
            gate.set()
            restore()

        keys = {r["cache_key"] for r in results}
        assert len(keys) == 1
        times = {r["result"]["time_ms"] for r in results}
        assert len(times) == 1  # everyone saw the same simulation
        assert sum(r["deduplicated"] for r in results) == 49

        metrics = client.metrics()
        assert (metrics["repro_serve_simulate_jobs_total"]
                == jobs_before + 1)
        assert (metrics["repro_serve_simulate_deduplicated_total"]
                == dedup_before + 49)

    def test_warm_cache_hit_under_50ms_p50(self, client):
        # The spec above is now in the on-disk cache: repeats must be
        # served without simulating, fast enough for interactive use.
        latencies = []
        for _ in range(9):
            started = time.perf_counter()
            result = client.simulate(workload="bfs", policy="BW-AWARE",
                                     trace_accesses=ACCESSES)
            latencies.append(time.perf_counter() - started)
            assert result["cache_hit"] is True
            assert result["deduplicated"] is False
        assert statistics.median(latencies) < 0.050

    def test_distinct_specs_not_deduplicated(self, client, server):
        jobs_before = server.service.m_sim_jobs.value()
        a = client.simulate(workload="bfs", policy="LOCAL",
                            trace_accesses=ACCESSES)
        b = client.simulate(workload="bfs", policy="INTERLEAVE",
                            trace_accesses=ACCESSES)
        assert a["cache_key"] != b["cache_key"]
        assert server.service.m_sim_jobs.value() == jobs_before + 2

    def test_result_fields(self, client):
        result = client.simulate(workload="bfs", policy="BW-AWARE",
                                 trace_accesses=ACCESSES)
        body = result["result"]
        assert body["workload"] == "bfs"
        assert body["policy"] == "BW-AWARE"
        assert body["time_ms"] > 0
        assert body["achieved_bandwidth_gbps"] > 0
        assert len(body["zone_page_counts"]) >= 2
        assert sum(body["placement_fractions"]) == pytest.approx(1.0)

    def test_validation_error_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.simulate(workload="not-a-workload")
        assert excinfo.value.status == 400


class TestBackpressure:
    """Saturation semantics need their own tightly-bounded daemon."""

    @pytest.fixture()
    def small_server(self, tmp_path):
        config = ServeConfig(
            port=0, cache_dir=tmp_path / "cache",
            simulate_workers=1, max_pending_jobs=1,
            retry_after_s=0.05,
        )
        with BackgroundServer(config) as background:
            yield background

    def test_429_with_retry_after_while_placement_still_answers(
            self, small_server):
        client = ServeClient(small_server.base_url)
        client.wait_until_ready()
        service = small_server.service
        gate, restore = gate_jobs(service)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                occupant = pool.submit(
                    client.simulate, workload="bfs",
                    trace_accesses=ACCESSES,
                )
                deadline = time.monotonic() + 30
                while service.m_sim_requests.value() < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)

                # Queue full: a *distinct* spec must be refused...
                with pytest.raises(ServeError) as excinfo:
                    client.simulate(workload="lbm",
                                    trace_accesses=ACCESSES)
                assert excinfo.value.status == 429
                assert excinfo.value.retry_after == pytest.approx(0.05)

                # ...an *identical* spec still joins the in-flight job
                # (dedup adds no load, so it is not backpressured)...
                joiner = pool.submit(
                    client.simulate, workload="bfs",
                    trace_accesses=ACCESSES,
                )
                while service.m_sim_dedup.value() < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)

                # ...and placement still answers closed-form.
                placed = client.placement(
                    sizes=[4096 * 10], hotness=[5.0],
                    bo_capacity_bytes=4096,
                )
                assert placed["hints"] == ["BO"]

                gate.set()
                assert occupant.result(timeout=60)["cache_hit"] is False
                assert joiner.result(timeout=60)["deduplicated"] is True
        finally:
            gate.set()
            restore()

        metrics = ServeClient(small_server.base_url).metrics()
        assert metrics["repro_serve_simulate_rejected_total"] == 1

    @pytest.mark.parametrize("kind", ["profile", "autotune"])
    def test_profile_and_autotune_share_the_job_bound(self, small_server,
                                                      kind):
        """max_pending_jobs bounds every job kind: with one job in
        flight, a second distinct profile or autotune answers 429 and
        starts no job."""
        client = ServeClient(small_server.base_url)
        client.wait_until_ready()
        service = small_server.service
        ask = {
            "profile": lambda seed: client.profile(
                "bfs", accesses=ACCESSES, seed=seed),
            "autotune": lambda seed: client.autotune(
                "xsbench", epochs=4, n_accesses=4_000, seed=seed),
        }[kind]
        started = {"profile": "repro_serve_profile_cache_misses_total",
                   "autotune": "repro_serve_autotune_runs_total"}[kind]
        gate, restore = gate_jobs(service)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                occupant = pool.submit(ask, 1)
                deadline = time.monotonic() + 30
                while client.health()["inflight_jobs"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                with pytest.raises(ServeError) as excinfo:
                    ask(2)
                assert excinfo.value.status == 429
                assert excinfo.value.retry_after == pytest.approx(0.05)
                gate.set()
                assert occupant.result(timeout=60)["cached"] is False
        finally:
            gate.set()
            restore()
        assert client.metrics()[started] == 1

    def test_client_retry_succeeds_after_saturation(self, small_server):
        client = ServeClient(small_server.base_url)
        client.wait_until_ready()
        service = small_server.service
        gate, restore = gate_jobs(service)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                occupant = pool.submit(
                    client.simulate, workload="bfs",
                    trace_accesses=ACCESSES,
                )
                deadline = time.monotonic() + 30
                while service.m_sim_requests.value() < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                # Release the gate shortly after the retrying request
                # first gets bounced.
                threading.Timer(0.2, gate.set).start()
                retried = client.simulate(
                    workload="lbm", trace_accesses=ACCESSES,
                    retries=50,
                )
                assert retried["result"]["workload"] == "lbm"
                occupant.result(timeout=60)
        finally:
            gate.set()
            restore()

    def test_request_timeout_504(self, tmp_path):
        config = ServeConfig(
            port=0, cache_dir=tmp_path / "cache",
            simulate_workers=1, request_timeout_s=0.3,
        )
        with BackgroundServer(config) as background:
            client = ServeClient(background.base_url)
            client.wait_until_ready()
            gate, restore = gate_jobs(background.service)
            try:
                with pytest.raises(ServeError) as excinfo:
                    client.simulate(workload="bfs",
                                    trace_accesses=ACCESSES)
                assert excinfo.value.status == 504
            finally:
                gate.set()
                restore()
            metrics = client.metrics()
            assert metrics["repro_serve_timeouts_total"] >= 1


class TestProfileEndpoint:
    def test_profile_then_cached(self, client, server):
        first = client.profile("bfs", accesses=ACCESSES)
        assert first["cached"] is False
        assert first["total_accesses"] > 0
        assert first["structures"]
        densities = [s["hotness_density"] for s in first["structures"]]
        assert densities == sorted(densities, reverse=True)

        second = client.profile("bfs", accesses=ACCESSES)
        assert second["cached"] is True
        assert second["structures"] == first["structures"]
        metrics = client.metrics()
        assert metrics["repro_serve_profile_cache_hits_total"] >= 1

    def test_profile_stays_warm_across_restarts(self, tmp_path):
        config = ServeConfig(port=0, cache_dir=tmp_path)
        answers = []
        for _ in range(2):
            with BackgroundServer(config) as background:
                client = ServeClient(background.base_url)
                client.wait_until_ready()
                answers.append(client.profile("lbm", accesses=ACCESSES))
        assert [a.pop("cached") for a in answers] == [False, True]
        assert answers[0] == answers[1]

    def test_unknown_workload_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.profile("not-a-workload")
        assert excinfo.value.status == 400

    def test_bad_query_400(self, server):
        with pytest.raises(ServeError) as excinfo:
            ServeClient(server.base_url)._json(
                "GET", "/v1/profile/bfs?accesses=zebra")
        assert excinfo.value.status == 400


class TestCliRequests:
    """`repro request ...` against the in-process daemon."""

    def test_health(self, server, capsys):
        from repro.cli import main

        assert main(["request", "health", "--url",
                     server.base_url]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"

    def test_placement(self, server, capsys):
        from repro.cli import main

        assert main([
            "request", "placement", "--url", server.base_url,
            "--sizes", "40960,40960", "--hotness", "1,100",
            "--bo-capacity", "40960",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hints"] == ["CO", "BO"]

    def test_simulate_and_metrics(self, server, capsys):
        from repro.cli import main

        assert main([
            "request", "simulate", "--url", server.base_url,
            "-w", "bfs", "-n", str(ACCESSES),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["workload"] == "bfs"

        assert main(["request", "metrics", "--url",
                     server.base_url]) == 0
        out = capsys.readouterr().out
        assert "repro_serve_simulate_requests_total" in out

    def test_transport_error_exit_code(self, capsys):
        from repro.cli import main

        assert main(["request", "health", "--url",
                     "http://127.0.0.1:9", "--timeout", "2"]) == 1
        assert "error" in capsys.readouterr().err
