"""The parallel sweep runner: determinism, caching, manifests.

The golden test of this module: a ``jobs=4`` run is *exactly* equal to
a serial run — not approximately, bit for bit — and a warm-cache rerun
reproduces the same results while executing zero simulations.
"""

import json

import numpy as np
import pytest

from repro.experiments import common
from repro.runner import (
    ResultCache,
    SweepRunner,
    active,
    bw_ratio_policy,
    configured,
    encode_result,
    make_spec,
)
from repro.runner import shm as runner_shm
from repro.runner import sweep as runner_sweep
from repro.runner.shm import planned_trace_keys, shm_available
from repro.runner.sweep import partition_misses
from repro.workloads import get_workload
from repro.workloads.base import clear_trace_cache

ACCESSES = 12_000
WORKLOADS = ("bfs", "lbm", "needle")
POLICIES = ("LOCAL", "INTERLEAVE", "BW-AWARE")


def grid_specs():
    return [
        make_spec(workload, policy, trace_accesses=ACCESSES)
        for workload in WORKLOADS
        for policy in POLICIES
    ]


def assert_results_equal(a, b):
    """Exact equality, field by field (ndarrays compared with ==)."""
    assert a.workload == b.workload
    assert a.policy == b.policy
    assert a.zone_page_counts == b.zone_page_counts
    assert a.sim.total_time_ns == b.sim.total_time_ns
    assert np.array_equal(a.sim.bytes_by_zone, b.sim.bytes_by_zone)
    assert encode_result(a) == encode_result(b)


def grouped_specs(sizes):
    """Consecutive trace groups of the given sizes (one workload each)."""
    names = ("bfs", "lbm", "needle", "srad", "kmeans", "spmv")
    return [
        make_spec(names[g], bw_ratio_policy(5 + 5 * point),
                  trace_accesses=ACCESSES)
        for g, size in enumerate(sizes)
        for point in range(size)
    ]


SHAPES = ((), (1,), (5,), (3, 1, 4), (2, 2, 2), (7, 1), (1, 1, 1, 1, 6))


class TestPartitionMisses:
    def test_covers_every_miss_once_in_order(self):
        for shape in SHAPES:
            specs = grouped_specs(shape)
            for jobs in (1, 2, 3, 4, 9):
                blocks = partition_misses(specs, jobs)
                flat = [i for block in blocks for i in block]
                assert flat == list(range(len(specs)))

    def test_trace_group_split_only_at_cap(self):
        for shape in SHAPES:
            specs = grouped_specs(shape)
            traces = [planned_trace_keys(spec) for spec in specs]
            for jobs in (1, 2, 3, 4, 9):
                cap = -(-len(specs) // jobs)
                blocks = partition_misses(specs, jobs)
                for block in blocks:
                    assert 1 <= len(block) <= cap
                    assert len({traces[i] for i in block}) == 1
                for earlier, later in zip(blocks, blocks[1:]):
                    if traces[earlier[0]] == traces[later[0]]:
                        assert len(earlier) == cap

    def test_single_trace_sweep_spreads_over_every_worker(self):
        for n in range(2, 13):
            assert len(partition_misses(grouped_specs((n,)), 2)) == 2
        sizes = [len(b) for b in partition_misses(grouped_specs((12,)), 4)]
        assert sizes == [3, 3, 3, 3]

    def test_extra_epoch_trace_is_its_own_group(self):
        specs = [make_spec("bfs", policy, trace_accesses=ACCESSES)
                 for policy in ("LOCAL", "BW-AWARE", "ONLINE@epochs=32")]
        assert partition_misses(specs, 1) == [range(0, 2), range(2, 3)]

    def test_deterministic(self):
        specs = grouped_specs((3, 1, 4))
        assert (partition_misses(specs, 3)
                == partition_misses(grouped_specs((3, 1, 4)), 3))


@pytest.mark.skipif(not shm_available(),
                    reason="no multiprocessing.shared_memory")
class TestStreamedFanOut:
    def test_first_block_submitted_before_last_trace_published(
            self, monkeypatch):
        """Workers start on workload 1 while the parent is still
        synthesizing later workloads' traces."""
        events = []

        def synthesize(key):
            events.append(("publish", key[0]))
            return runner_shm._synthesize(key)

        publish = runner_sweep.publish_for_specs
        monkeypatch.setattr(
            runner_sweep, "publish_for_specs",
            lambda arena, specs, **kw: publish(
                arena, specs, synthesize=synthesize, **kw))
        serial = SweepRunner(jobs=1, cache=False).run(grid_specs())
        clear_trace_cache()
        runner = SweepRunner(jobs=2, cache=False, shm=True)
        decide = runner._decide

        def record_submit(chunk_key):
            events.append(("submit", chunk_key))
            return decide(chunk_key)

        runner._decide = record_submit
        try:
            outcome = runner.run(grid_specs())
        finally:
            runner.close()
        kinds = [kind for kind, _ in events]
        published = [name for kind, name in events if kind == "publish"]
        assert published == list(WORKLOADS)
        last_publish = len(kinds) - 1 - kinds[::-1].index("publish")
        assert kinds.index("submit") < last_publish
        for a, b in zip(serial.results, outcome.results):
            assert_results_equal(a, b)


class TestGoldenSerialVsParallel:
    def test_parallel_bit_identical_to_serial(self):
        serial = SweepRunner(jobs=1, cache=False).run(grid_specs())
        parallel = SweepRunner(jobs=4, cache=False).run(grid_specs())
        assert len(serial.results) == len(WORKLOADS) * len(POLICIES)
        for a, b in zip(serial.results, parallel.results):
            assert_results_equal(a, b)

    def test_results_preserve_spec_order(self):
        outcome = SweepRunner(jobs=2, cache=False).run(grid_specs())
        labels = [(r.workload, r.policy) for r in outcome.results]
        assert labels == [(w, p) for w in WORKLOADS for p in POLICIES]


class TestCacheIntegration:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        specs = grid_specs()
        cold = SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(specs)
        assert cold.manifest.executed == len(specs)
        assert cold.manifest.cache_hits == 0

        warm = SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(specs)
        assert warm.manifest.executed == 0
        assert warm.manifest.cache_hits == len(specs)
        assert warm.manifest.hit_rate == 1.0
        for a, b in zip(cold.results, warm.results):
            assert_results_equal(a, b)

    def test_parallel_cold_matches_serial_warm(self, tmp_path):
        specs = grid_specs()
        parallel = SweepRunner(jobs=4,
                               cache=ResultCache(tmp_path)).run(specs)
        warm = SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(specs)
        assert warm.manifest.executed == 0
        for a, b in zip(parallel.results, warm.results):
            assert_results_equal(a, b)

    def test_salt_change_invalidates(self, tmp_path):
        specs = grid_specs()[:2]
        cache = ResultCache(tmp_path)
        SweepRunner(jobs=1, cache=cache, salt="a").run(specs)
        again = SweepRunner(jobs=1, cache=cache, salt="b").run(specs)
        assert again.manifest.executed == len(specs)
        assert again.manifest.cache_hits == 0

    def test_in_batch_dedup(self, tmp_path):
        spec = make_spec("bfs", "LOCAL", trace_accesses=ACCESSES)
        outcome = SweepRunner(jobs=1, cache=False).run([spec, spec, spec])
        assert outcome.manifest.executed == 1
        assert outcome.manifest.deduplicated == 2
        for result in outcome.results[1:]:
            assert_results_equal(outcome.results[0], result)


class TestManifest:
    def test_written_to_runs_dir(self, tmp_path):
        runner = SweepRunner(jobs=2, cache=ResultCache(tmp_path / "c"),
                             runs_dir=tmp_path / "runs")
        outcome = runner.run(grid_specs()[:4])
        path = outcome.manifest.path
        assert path is not None and path.exists()
        record = json.loads(path.read_text())
        assert record["n_specs"] == 4
        assert record["jobs"] == 2
        assert len(record["specs"]) == 4
        assert {r["label"] for r in record["specs"]} == {
            spec.label() for spec in grid_specs()[:4]
        }

    def test_summary_mentions_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        runner.run(grid_specs()[:2])
        summary = runner.run(grid_specs()[:2]).manifest.summary()
        assert "2" in summary and "hit" in summary.lower()


class TestActiveRunner:
    def test_configured_scopes_and_restores(self):
        before = active()
        with configured(jobs=3, cache=False) as runner:
            assert active() is runner
            assert runner.jobs == 3
        assert active() is before

    def test_default_runner_has_no_cache_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert SweepRunner().cache is None

    def test_env_enables_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = SweepRunner()
        assert runner.cache is not None
        assert runner.cache.root == tmp_path

    def test_env_sets_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert SweepRunner().jobs == 6


class TestWorkloadMemoization:
    def test_registry_returns_singletons(self):
        assert get_workload("bfs") is get_workload("bfs")

    def test_resolve_workloads_memoized(self):
        a = common.resolve_workloads(("bfs", "lbm"))
        b = common.resolve_workloads(("bfs", "lbm"))
        assert a is b
        default_a = common.resolve_workloads(None)
        default_b = common.resolve_workloads(None)
        assert default_a is default_b

    def test_repeat_runs_reuse_the_trace(self, monkeypatch):
        """Two runs of the same cell synthesize the raw trace once."""
        from repro.workloads import base as workload_base

        workload_base.clear_trace_cache()
        calls = {"n": 0}
        original = workload_base.TraceWorkload.raw_access_stream

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(workload_base.TraceWorkload,
                            "raw_access_stream", counting)
        with configured(jobs=1, cache=False):
            common.run("bfs", "LOCAL", trace_accesses=ACCESSES)
            first = calls["n"]
            assert first >= 1
            common.run("bfs", "INTERLEAVE", trace_accesses=ACCESSES)
        assert calls["n"] == first, (
            "second run re-synthesized the trace instead of reusing "
            "the memoized one"
        )


class TestCommonHelpers:
    def test_run_matches_runner_output(self):
        with configured(jobs=1, cache=False):
            via_common = common.run("bfs", "LOCAL",
                                    trace_accesses=ACCESSES)
        direct = SweepRunner(jobs=1, cache=False).run(
            [make_spec("bfs", "LOCAL", trace_accesses=ACCESSES)]
        ).results[0]
        assert_results_equal(via_common, direct)

    def test_uncacheable_policy_falls_back(self):
        from repro.policies.local import LocalPolicy

        with configured(jobs=1, cache=False):
            result = common.run("bfs", LocalPolicy(),
                                trace_accesses=ACCESSES)
        assert result.policy == "LOCAL"
