"""Unit tests for the serve building blocks (no sockets involved).

Covers the metrics registry (render + parse round trip), the
micro-batcher and single-flight primitives, configuration validation,
the shared cache-dir resolution rule, and request validation in
:class:`PlacementService` — everything testable without an HTTP server.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

import pytest

from repro.core.cachedir import cache_root
from repro.core.errors import ConfigError, ServeError
from repro.memory.acpi import enumerate_tables
from repro.memory.topology import simulated_baseline
from repro.obs.metrics import MetricsRegistry, parse_metrics
from repro.resilience.faults import FaultPlan, install_plan
from repro.runner import SweepRunner, default_cache_root
from repro.serve.batching import (
    BatchSaturatedError,
    MicroBatcher,
    SingleFlight,
)
from repro.serve.config import ServeConfig, default_serve_url
from repro.serve.service import BadRequestError, PlacementService


class TestCacheDirResolution:
    """Satellite: one resolution rule for runner, CLI, and serve."""

    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert cache_root(tmp_path / "explicit") == tmp_path / "explicit"

    def test_env_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert cache_root() == tmp_path / "env"

    def test_default_is_cwd_repro_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert cache_root() == tmp_path / ".repro-cache"

    def test_whitespace_env_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "   ")
        monkeypatch.chdir(tmp_path)
        assert cache_root() == tmp_path / ".repro-cache"

    def test_runner_uses_shared_rule(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        assert default_cache_root() == tmp_path / "shared"
        runner = SweepRunner(cache=True)
        assert runner.cache is not None
        assert runner.cache.root == tmp_path / "shared"

    def test_serve_uses_shared_rule(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        config = ServeConfig()
        assert config.resolved_cache_dir() == tmp_path / "shared"
        assert ServeConfig(use_cache=False).resolved_cache_dir() is None
        explicit = ServeConfig(cache_dir=tmp_path / "mine")
        assert explicit.resolved_cache_dir() == tmp_path / "mine"


class TestServeConfig:
    def test_defaults_valid(self):
        config = ServeConfig()
        assert config.port == 8077
        assert config.max_pending_jobs >= 1

    @pytest.mark.parametrize("kwargs", [
        {"port": -1},
        {"port": 70000},
        {"max_pending_jobs": 0},
        {"simulate_workers": 0},
        {"request_timeout_s": 0},
        {"request_timeout_s": float("nan")},
        {"request_timeout_s": float("inf")},
        {"retry_after_s": float("nan")},
        {"retry_after_s": -1},
        {"breaker_reset_s": float("nan")},
        {"drain_timeout_s": float("nan")},
        {"drain_timeout_s": -1},
        {"header_read_timeout_s": float("nan")},
        {"header_read_timeout_s": 0},
        {"max_body_bytes": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ServeConfig(**kwargs)

    def test_default_url_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_URL", "http://example:9000/")
        assert default_serve_url() == "http://example:9000"
        monkeypatch.delenv("REPRO_SERVE_URL")
        assert default_serve_url() == "http://127.0.0.1:8077"


class TestMetricsRegistry:
    def test_counter_render_and_parse(self):
        registry = MetricsRegistry()
        requests = registry.counter("demo_total", "Demo counter.")
        requests.inc(endpoint="a", status="200")
        requests.inc(endpoint="a", status="200")
        requests.inc(endpoint="b", status="500")
        text = registry.render()
        assert "# TYPE demo_total counter" in text
        samples = parse_metrics(text)
        assert samples['demo_total{endpoint="a",status="200"}'] == 2
        assert samples['demo_total{endpoint="b",status="500"}'] == 1

    def test_unlabelled_counter_renders_zero_before_first_inc(self):
        registry = MetricsRegistry()
        registry.counter("cold_total", "Never incremented.")
        assert parse_metrics(registry.render())["cold_total"] == 0

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        depth = registry.gauge("depth", "Queue depth.")
        depth.set(4)
        depth.inc()
        depth.dec(2)
        assert depth.value() == 3
        assert parse_metrics(registry.render())["depth"] == 3

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        lat = registry.histogram("lat_seconds", "Latency.",
                                 buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            lat.observe(value)
        samples = parse_metrics(registry.render())
        assert samples['lat_seconds_bucket{le="0.01"}'] == 1
        assert samples['lat_seconds_bucket{le="0.1"}'] == 2
        assert samples['lat_seconds_bucket{le="1"}'] == 3
        assert samples['lat_seconds_bucket{le="+Inf"}'] == 4
        assert samples["lat_seconds_count"] == 4
        assert samples["lat_seconds_sum"] == pytest.approx(5.555)

    def test_duplicate_metric_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "")
        with pytest.raises(ValueError):
            registry.counter("x_total", "")

    def test_labels_render_sorted(self):
        registry = MetricsRegistry()
        counter = registry.counter("s_total", "")
        counter.inc(zebra="1", alpha="2")
        assert 'alpha="2",zebra="1"' in registry.render()


class TestMicroBatcher:
    def test_coalesces_concurrent_submissions(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: [i * 2 for i in items],
                                   window_s=0.01, max_batch=64)
            batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(10))
            )
            await batcher.stop()
            return results, batcher.batch_sizes

        results, batch_sizes = asyncio.run(scenario())
        assert results == [i * 2 for i in range(10)]
        # All ten were queued before the window elapsed: one batch.
        assert batch_sizes == [10]

    def test_max_batch_splits(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: list(items),
                                   window_s=0.01, max_batch=4)
            batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(10)))
            await batcher.stop()
            return batcher.batch_sizes

        sizes = asyncio.run(scenario())
        assert sum(sizes) == 10
        assert max(sizes) <= 4

    def test_per_item_exceptions_do_not_poison_batch(self):
        def handler(items):
            return [ValueError("bad") if i == 3 else i for i in items]

        async def scenario():
            batcher = MicroBatcher(handler, window_s=0.01)
            batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(5)),
                return_exceptions=True,
            )
            await batcher.stop()
            return results

        results = asyncio.run(scenario())
        assert results[0] == 0 and results[4] == 4
        assert isinstance(results[3], ValueError)

    def test_handler_crash_fails_whole_batch(self):
        def handler(items):
            raise RuntimeError("boom")

        async def scenario():
            batcher = MicroBatcher(handler, window_s=0.0)
            batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(3)),
                return_exceptions=True,
            )
            await batcher.stop()
            return results

        for result in asyncio.run(scenario()):
            assert isinstance(result, RuntimeError)

    def test_saturation_raises(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: list(items),
                                   window_s=5.0, max_queue=2)
            batcher.start()
            # Fill the queue without letting the window flush.
            first = asyncio.ensure_future(batcher.submit(1))
            second = asyncio.ensure_future(batcher.submit(2))
            await asyncio.sleep(0)
            with pytest.raises(BatchSaturatedError):
                await batcher.submit(3)
            first.cancel()
            second.cancel()
            await batcher.stop()

        asyncio.run(scenario())

    def test_submit_before_start_rejected(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: list(items))
            with pytest.raises(ServeError):
                await batcher.submit(1)

        asyncio.run(scenario())

    def test_depth_change_fires_on_enqueue_and_dequeue(self):
        """``on_depth_change`` tracks the live queue depth at every
        enqueue and dequeue, not just at batch flush boundaries —
        this is what keeps the ``repro_serve_queue_depth`` gauge
        truthful between flushes."""
        depths = []

        async def scenario():
            batcher = MicroBatcher(lambda items: list(items),
                                   window_s=0.01, max_batch=64)
            batcher.on_depth_change = depths.append
            batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(4)))
            await batcher.stop()

        asyncio.run(scenario())
        # every submit reported a growing depth...
        assert depths[:4] == [1, 2, 3, 4]
        # ...and the collector reported the drain back down to empty.
        assert depths[-1] == 0
        assert min(depths) == 0 and max(depths) == 4


class TestSingleFlight:
    def test_concurrent_callers_share_one_execution(self):
        calls = []

        async def scenario():
            flight = SingleFlight()

            async def work():
                calls.append(1)
                await asyncio.sleep(0.01)
                return "done"

            tasks = []
            joined_flags = []
            for _ in range(8):
                task, joined = flight.join_or_start("key", work)
                tasks.append(task)
                joined_flags.append(joined)
            results = await asyncio.gather(
                *(asyncio.shield(t) for t in tasks)
            )
            return results, joined_flags

        results, joined = asyncio.run(scenario())
        assert len(calls) == 1
        assert results == ["done"] * 8
        assert joined == [False] + [True] * 7

    def test_key_released_after_completion(self):
        async def scenario():
            flight = SingleFlight()

            async def work():
                return 1

            task, _ = flight.join_or_start("key", work)
            await task
            assert len(flight) == 0
            task2, joined = flight.join_or_start("key", work)
            await task2
            return joined

        assert asyncio.run(scenario()) is False

    def test_distinct_keys_run_independently(self):
        async def scenario():
            flight = SingleFlight()

            async def make(value):
                async def work():
                    return value
                return work

            task_a, _ = flight.join_or_start("a", await make("a"))
            task_b, _ = flight.join_or_start("b", await make("b"))
            assert len(flight) == 2
            return await asyncio.gather(task_a, task_b)

        assert asyncio.run(scenario()) == ["a", "b"]


TABLES = enumerate_tables(simulated_baseline())


@pytest.fixture
def service(tmp_path):
    return PlacementService(ServeConfig(
        cache_dir=tmp_path / "cache", simulate_workers=1,
    ))


class TestPlacementValidation:
    def test_valid_request(self, service):
        result = service.compute_placement({
            "sizes": [4096 * 10, 4096 * 10],
            "hotness": [1.0, 100.0],
            "bo_capacity_bytes": 4096 * 10,
        })
        assert result["hints"] == ["CO", "BO"]
        assert result["topology"] == "baseline"
        assert result["n_allocations"] == 2

    def test_custom_bandwidth_topology(self, service):
        result = service.compute_placement({
            "sizes": [4096] * 4,
            "hotness": [1.0] * 4,
            "bo_capacity_bytes": 4096 * 100,
            "topology": {"bandwidth_gbps": [200.0, 80.0]},
        })
        assert result["hints"] == ["BW"] * 4
        assert result["topology"] == "custom"

    @pytest.mark.parametrize("payload,fragment", [
        ({}, "sizes"),
        ({"sizes": [1]}, "hotness"),
        ({"sizes": [1], "hotness": [1.0]}, "bo_capacity_bytes"),
        ({"sizes": 3, "hotness": [1.0],
          "bo_capacity_bytes": 0}, "array"),
        ({"sizes": [1, 2], "hotness": [1.0],
          "bo_capacity_bytes": 0}, "align"),
        ({"sizes": [0], "hotness": [1.0],
          "bo_capacity_bytes": 0}, "positive"),
        ({"sizes": [1], "hotness": [-1.0],
          "bo_capacity_bytes": 0}, ">= 0"),
        ({"sizes": [1], "hotness": [1.0],
          "bo_capacity_bytes": -1}, ">= 0"),
        ({"sizes": [1], "hotness": [1.0], "bo_capacity_bytes": 0,
          "topology": "nope"}, "unknown topology"),
        ({"sizes": [1], "hotness": [1.0], "bo_capacity_bytes": 0,
          "topology": {"bandwidth_gbps": []}}, "bandwidth_gbps"),
        ({"sizes": [1], "hotness": [1.0], "bo_capacity_bytes": 0,
          "bo_domain": 7}, "bo_domain"),
    ])
    def test_bad_requests_rejected(self, service, payload, fragment):
        with pytest.raises(BadRequestError) as excinfo:
            service.compute_placement(payload)
        assert fragment in str(excinfo.value)
        assert excinfo.value.status == 400


class TestSimulateValidation:
    def test_canonical_spec(self, service):
        spec = service.parse_simulate_spec({
            "workload": "bfs", "policy": "bw-aware",
            "trace_accesses": 1000,
        })
        assert spec.workload == "bfs"
        assert spec.policy == "BW-AWARE"
        assert spec.trace_accesses == 1000

    @pytest.mark.parametrize("payload,fragment", [
        ({}, "workload"),
        ({"workload": "nope"}, "nope"),
        ({"workload": "bfs", "policy": "NOPE"}, "unknown policy"),
        ({"workload": "bfs", "topology": "nope"}, "unknown topology"),
        ({"workload": "bfs", "engine": "warp"}, "unknown engine"),
        ({"workload": "bfs", "bo_capacity_fraction": -0.5}, "positive"),
        ({"workload": "bfs", "trace_accesses": 0}, ">= 1"),
        ({"workload": "bfs", "seed": "x"}, "integer"),
    ])
    def test_bad_requests_rejected(self, service, payload, fragment):
        with pytest.raises(BadRequestError) as excinfo:
            service.parse_simulate_spec(payload)
        assert fragment in str(excinfo.value)

    def test_identical_payloads_share_cache_key(self, service):
        payload = {"workload": "bfs", "policy": "BW-AWARE",
                   "trace_accesses": 1000}
        spec_a = service.parse_simulate_spec(dict(payload))
        spec_b = service.parse_simulate_spec(
            {"workload": "bfs", "policy": "bw-aware",
             "trace_accesses": 1000, "seed": 0}
        )
        salt = service.runner.salt
        assert spec_a.cache_key(salt) == spec_b.cache_key(salt)


class TestInProcessSimulate:
    """A simulate job is one spec, so the daemon's runner runs it
    in-process: it never builds a worker pool or a trace arena, and of
    its recovery counts only retries can move."""

    def test_default_daemon_never_fans_out(self, tmp_path):
        payload = {"workload": "bfs", "policy": "LOCAL",
                   "trace_accesses": 20_000}

        async def scenario(service):
            await service.start()
            try:
                cold = await service.simulate(payload)
                warm = await service.simulate(payload)
                install_plan(FaultPlan.from_string("runner.chunk:error:1"))
                try:
                    retried = await service.simulate({**payload, "seed": 1})
                finally:
                    install_plan(None)
            finally:
                await service.stop()
            return cold, warm, retried

        service = PlacementService(ServeConfig(cache_dir=tmp_path / "cache"))
        service.runner._sleep = lambda _s: None
        cold, warm, retried = asyncio.run(scenario(service))
        assert not cold["cache_hit"] and warm["cache_hit"]
        assert warm["result"] == cold["result"]
        assert not retried["cache_hit"]
        assert retried["recovery"]["retries"] == 1
        assert service.runner.jobs == 1
        assert service.runner._pool is None
        assert service.runner._arena is None
        metrics = service.metrics_text()
        assert "repro_serve_runner_retries_total 1" in metrics
        assert "repro_serve_runner_pool_rebuilds_total" not in metrics
        assert "repro_serve_runner_degraded_serial_total" not in metrics
