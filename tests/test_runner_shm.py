"""The zero-copy substrate: arena lifecycle, wire framing, golden runs.

The load-bearing guarantees tested here:

* a trace attached from a shared segment is **bit-identical** to the
  synthesized one (and read-only, so nobody can corrupt the shared
  copy);
* arena refcounting never leaks a segment — including under arbitrary
  retain/release/publish interleavings (hypothesis property);
* a multi-workload sweep returns byte-identical results over shm,
  over the legacy pickle transport, and serially;
* over shm, sweep workers never synthesize a trace themselves;
* every fallback (``REPRO_SHM=0``, platform without shared memory,
  a vanished segment) degrades to synthesis with identical results.
"""

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import RunnerError
from repro.gpu.trace import DramTrace
from repro.resilience.faults import FaultPlan, FaultRule
from repro.runner import (
    SharedTraceArena,
    SweepRunner,
    bw_ratio_policy,
    configured,
    encode_result,
    make_spec,
    pack_chunk,
    unpack_chunk,
)
from repro.runner.shm import (
    WorkerTraceProvider,
    attach_trace,
    list_repro_segments,
    planned_trace_keys,
    publish_for_specs,
    shm_available,
)
from repro.workloads import get_workload
from repro.workloads.base import (
    TraceWorkload,
    clear_trace_cache,
    install_trace_provider,
    trace_cache_key,
    uninstall_trace_provider,
)

ACCESSES = 12_000
WORKLOADS = ("bfs", "lbm", "needle")
POLICIES = ("LOCAL", "BW-AWARE", "ONLINE")

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="no multiprocessing.shared_memory")


def grid_specs():
    return [
        make_spec(workload, policy, trace_accesses=ACCESSES)
        for workload in WORKLOADS
        for policy in POLICIES
    ]


def sample_trace(seed=0, n=512, with_writes=True):
    rng = np.random.default_rng(seed)
    return DramTrace(
        page_indices=rng.integers(0, 64, size=n, dtype=np.int64),
        footprint_pages=64,
        n_raw_accesses=n * 4,
        n_epochs=8,
        is_write=(rng.random(n) < 0.3) if with_writes else None,
    )


@pytest.fixture
def arena():
    a = SharedTraceArena()
    yield a
    a.close()


@pytest.fixture(autouse=True)
def _clean_provider():
    yield
    uninstall_trace_provider()
    clear_trace_cache()


# ----------------------------------------------------------------------
# Arena + attach
# ----------------------------------------------------------------------

@needs_shm
class TestArena:
    def test_publish_attach_roundtrip(self, arena):
        for with_writes in (True, False):
            trace = sample_trace(seed=7, with_writes=with_writes)
            key = ("t", with_writes)
            handle = arena.publish(key, trace)
            got = attach_trace(handle)
            assert got is not None
            assert np.array_equal(got.page_indices, trace.page_indices)
            assert got.footprint_pages == trace.footprint_pages
            assert got.n_raw_accesses == trace.n_raw_accesses
            assert got.n_epochs == trace.n_epochs
            if with_writes:
                assert np.array_equal(got.is_write, trace.is_write)
            else:
                assert got.is_write is None

    def test_attached_views_are_read_only(self, arena):
        handle = arena.publish(("ro",), sample_trace())
        got = attach_trace(handle)
        with pytest.raises(ValueError):
            got.page_indices[0] = 99
        with pytest.raises(ValueError):
            got.is_write[0] = True

    def test_publish_is_idempotent(self, arena):
        trace = sample_trace()
        first = arena.publish(("k",), trace)
        second = arena.publish(("k",), trace)
        assert first is second
        assert len(arena) == 1
        assert arena.published == 1

    def test_release_to_zero_unlinks(self, arena):
        before = list_repro_segments()
        handle = arena.publish(("k",), sample_trace())
        assert handle.segment in list_repro_segments()
        arena.retain(("k",))
        arena.release(("k",))
        assert ("k",) in arena  # publisher's reference still held
        arena.release(("k",))
        assert ("k",) not in arena
        assert list_repro_segments() <= before

    def test_retain_unknown_key_raises(self, arena):
        with pytest.raises(RunnerError):
            arena.retain(("missing",))
        with pytest.raises(RunnerError):
            arena.release(("missing",))

    def test_close_unlinks_everything(self):
        arena = SharedTraceArena()
        names = {arena.publish((i,), sample_trace(seed=i)).segment
                 for i in range(3)}
        assert names <= list_repro_segments()
        arena.close()
        assert not (names & list_repro_segments())
        arena.close()  # idempotent

    def test_attach_vanished_segment_returns_none(self, arena):
        handle = arena.publish(("gone",), sample_trace())
        arena.close()
        assert attach_trace(handle) is None

    def test_byte_budget_evicts_idle_segments(self):
        trace = sample_trace(n=1024)
        arena = SharedTraceArena(max_bytes=3 * trace.page_indices.size * 9)
        try:
            for i in range(6):
                arena.publish((i,), sample_trace(seed=i, n=1024))
            assert arena.nbytes <= arena.max_bytes
            assert arena.evicted >= 3
            # Newest segment survives: eviction never touches the key
            # being published.
            assert (5,) in arena
        finally:
            arena.close()

    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["publish", "retain", "release"]),
                  st.integers(min_value=0, max_value=4)),
        max_size=40))
    def test_refcount_property(self, ops):
        """Model-checked refcounting: the arena's live set and counts
        always match a dict-based model, and close() leaks nothing."""
        arena = SharedTraceArena()
        model: dict[tuple, int] = {}
        try:
            for op, i in ops:
                key = (i,)
                if op == "publish":
                    arena.publish(key, sample_trace(seed=i, n=64))
                    model.setdefault(key, 1)
                elif key in model:
                    if op == "retain":
                        arena.retain(key)
                        model[key] += 1
                    else:
                        arena.release(key)
                        model[key] -= 1
                        if model[key] <= 0:
                            del model[key]
                assert set(arena.handles()) == set(model)
                for key, count in model.items():
                    assert arena.refcount(key) == count
        finally:
            names = {h.segment for h in arena.handles().values()}
            arena.close()
            assert not (names & list_repro_segments())


# ----------------------------------------------------------------------
# Worker provider hook
# ----------------------------------------------------------------------

@needs_shm
class TestProviderHook:
    def test_dram_trace_served_from_segment(self, arena):
        """With the provider installed and the memo cold, dram_trace
        returns the *published* array (zero-copy), bit-identical to
        what synthesis produces."""
        workload = get_workload("bfs")
        synthesized = workload.dram_trace("default", n_accesses=ACCESSES)
        key = trace_cache_key("bfs", "default", ACCESSES, 0)
        handle = arena.publish(key, synthesized)

        clear_trace_cache()
        provider = WorkerTraceProvider()
        provider.merge({key: handle})
        install_trace_provider(provider)
        served = workload.dram_trace("default", n_accesses=ACCESSES)
        assert not served.page_indices.flags.writeable  # the shm view
        assert np.array_equal(served.page_indices,
                              synthesized.page_indices)
        assert np.array_equal(served.is_write, synthesized.is_write)

    def test_unknown_key_falls_through_to_synthesis(self, arena):
        workload = get_workload("bfs")
        expected = workload.dram_trace("default", n_accesses=ACCESSES)
        clear_trace_cache()
        install_trace_provider(WorkerTraceProvider())  # knows nothing
        again = workload.dram_trace("default", n_accesses=ACCESSES)
        assert again.page_indices.flags.writeable  # synthesized fresh
        assert np.array_equal(again.page_indices, expected.page_indices)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------

class TestPlannedKeys:
    def test_static_policy_plans_base_key(self):
        spec = make_spec("bfs", "BW-AWARE", trace_accesses=ACCESSES)
        assert planned_trace_keys(spec) == (
            trace_cache_key("bfs", "default", ACCESSES, 0),)

    def test_online_policy_adds_epoch_key(self):
        spec = make_spec("bfs", "ONLINE@epochs=32",
                         trace_accesses=ACCESSES)
        keys = planned_trace_keys(spec)
        assert trace_cache_key("bfs", "default", ACCESSES, 0) in keys
        assert trace_cache_key("bfs", "default", ACCESSES, 0,
                               n_epochs=32) in keys

    def test_annotated_training_dataset_key(self):
        spec = make_spec("bfs", "ANNOTATED", trace_accesses=ACCESSES,
                         training_dataset="small")
        keys = planned_trace_keys(spec)
        assert trace_cache_key("bfs", "small", ACCESSES, 0) in keys

    @needs_shm
    def test_publish_for_specs_covers_grid(self, arena):
        handles = publish_for_specs(arena, grid_specs())
        assert handles  # one per unique (workload, epochs) need
        assert set(handles) == set(arena.handles())
        # each returned handle holds one reference for the caller
        assert all(arena.refcount(key) == 2 for key in handles)


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------

class TestWire:
    def test_empty_roundtrip(self):
        assert unpack_chunk(pack_chunk([])) == []

    def test_roundtrip_preserves_payload_and_seconds(self):
        pairs = [({"a": 1, "b": [1.5, None, "x"]}, 0.25),
                 ({"nested": {"k": -3}}, 1e-9)]
        assert unpack_chunk(pack_chunk(pairs)) == pairs

    @settings(deadline=None, max_examples=50)
    @given(values=st.lists(st.floats(allow_nan=False,
                                     allow_infinity=False),
                           max_size=8),
           seconds=st.floats(min_value=0, max_value=1e6))
    def test_floats_bit_exact(self, values, seconds):
        [(decoded, spent)] = unpack_chunk(
            pack_chunk([({"v": values}, seconds)]))
        assert decoded["v"] == values  # exact, not approximate
        assert spent == seconds

    @pytest.mark.parametrize("mutate", [
        lambda b: b[:-1],                      # truncated body
        lambda b: b"XXXX" + b[4:],             # bad magic
        lambda b: b + b"\x00",                 # trailing garbage
        lambda b: b[:6],                       # truncated header
    ])
    def test_malformed_frames_raise(self, mutate):
        frame = pack_chunk([({"a": 1}, 0.5)])
        with pytest.raises(RunnerError):
            unpack_chunk(mutate(bytes(frame)))


# ----------------------------------------------------------------------
# Golden end-to-end equivalence
# ----------------------------------------------------------------------

@needs_shm
class TestGoldenEquivalence:
    def test_shm_pickle_serial_bit_identical(self):
        """The headline guarantee: one multi-workload sweep, three
        transports, byte-identical results — and nothing left in
        /dev/shm afterwards."""
        specs = grid_specs()
        before = list_repro_segments()

        serial = [encode_result(r)
                  for r in SweepRunner(jobs=1, cache=False).run(specs)]

        clear_trace_cache()
        shm_runner = SweepRunner(jobs=3, cache=False, shm=True)
        try:
            assert shm_runner.shm_enabled
            over_shm = [encode_result(r) for r in shm_runner.run(specs)]
            assert shm_runner._arena is not None
            assert shm_runner._arena.published > 0
        finally:
            shm_runner.close()

        clear_trace_cache()
        pickle_runner = SweepRunner(jobs=3, cache=False, shm=False)
        try:
            assert not pickle_runner.shm_enabled
            over_pickle = [encode_result(r)
                           for r in pickle_runner.run(specs)]
            assert pickle_runner._arena is None
        finally:
            pickle_runner.close()

        assert serial == over_shm == over_pickle
        assert list_repro_segments() <= before

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the counting patch")
    def test_workers_never_synthesize_under_shm(self, monkeypatch):
        """A 12-point BW-AWARE ratio sweep on one bfs trace: over shm
        only the parent synthesizes; over pickle the workers do, which
        shows the count can see them."""
        parent = os.getpid()
        worker_calls = multiprocessing.Value("i", 0)
        synthesize = TraceWorkload.raw_access_stream

        def counting(self, *args, **kwargs):
            if os.getpid() != parent:
                with worker_calls.get_lock():
                    worker_calls.value += 1
            return synthesize(self, *args, **kwargs)

        monkeypatch.setattr(TraceWorkload, "raw_access_stream", counting)
        specs = [make_spec("bfs", bw_ratio_policy(co),
                           trace_accesses=ACCESSES)
                 for co in range(5, 65, 5)]

        def worker_syntheses(shm):
            clear_trace_cache()
            worker_calls.value = 0
            runner = SweepRunner(jobs=2, cache=False, shm=shm)
            try:
                runner.run(specs)
            finally:
                runner.close()
            return worker_calls.value

        assert worker_syntheses(shm=True) == 0
        assert worker_syntheses(shm=False) > 0

    def test_warm_pool_persists_across_runs(self):
        specs = grid_specs()
        runner = SweepRunner(jobs=2, cache=False, shm=True)
        try:
            first = [encode_result(r) for r in runner.run(specs)]
            pool = runner._pool
            assert pool is not None
            second = [encode_result(r) for r in runner.run(specs)]
            assert runner._pool is pool  # not rebuilt between runs
            assert first == second
        finally:
            runner.close()
        assert runner._pool is None

    def test_env_disables_shm(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        runner = SweepRunner(jobs=2, cache=False)
        assert runner.shm_policy is False
        assert not runner.shm_enabled

    def test_ctor_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        runner = SweepRunner(jobs=2, cache=False, shm=True)
        assert runner.shm_enabled

    def test_unavailable_platform_degrades_to_pickle(self, monkeypatch):
        import repro.runner.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "shm_available", lambda: False)
        runner = SweepRunner(jobs=2, cache=False, shm=True)
        try:
            assert not runner.shm_enabled  # forced-on degrades silently
            out = [encode_result(r)
                   for r in runner.run(grid_specs()[:4])]
            assert runner._arena is None
        finally:
            runner.close()
        clear_trace_cache()
        serial = [encode_result(r)
                  for r in SweepRunner(jobs=1, cache=False)
                  .run(grid_specs()[:4])]
        assert out == serial

    def test_configured_closes_runner_on_exit(self):
        with configured(jobs=2, cache=False, shm=True) as runner:
            runner.run(grid_specs()[:4])
            assert runner._pool is not None or runner._arena is not None
        assert runner._pool is None
        assert runner._arena is None


@needs_shm
class TestBudgetRetention:
    def test_tiny_budget_never_evicts_a_pending_chunks_trace(
            self, monkeypatch):
        """Under a budget smaller than any trace, the runner's
        references keep each pending chunk's segments alive until the
        chunk is harvested; only traces nobody is waiting on are
        evicted, and nothing survives close()."""
        monkeypatch.setenv("REPRO_SHM_MAX_BYTES", "1")
        before = list_repro_segments()
        first = [make_spec(w, p, trace_accesses=ACCESSES)
                 for w in WORKLOADS for p in ("LOCAL", "BW-AWARE")]
        second = [make_spec(w, "LOCAL", trace_accesses=ACCESSES)
                  for w in ("srad", "kmeans")]
        serial = [encode_result(r) for r in
                  SweepRunner(jobs=1, cache=False).run(first + second)]
        clear_trace_cache()
        # Every chunk sleeps first, so block 1 is still pending while
        # the parent publishes the later blocks' traces.
        plan = FaultPlan([FaultRule("runner.chunk", "hang", times=99,
                                    delay_s=0.2)])
        runner = SweepRunner(jobs=2, cache=False, shm=True,
                             fault_plan=plan)
        live_at_harvest = []
        harvest = runner._harvest

        def spy(specs, keys, block, *rest):
            live_at_harvest.extend(
                key in runner._arena
                for i in block for key in planned_trace_keys(specs[i]))
            return harvest(specs, keys, block, *rest)

        runner._harvest = spy
        try:
            out = [encode_result(r) for r in runner.run(first)]
            out += [encode_result(r) for r in runner.run(second)]
            evicted = runner._arena.evicted
        finally:
            runner.close()
        assert live_at_harvest and all(live_at_harvest)
        assert evicted >= len(WORKLOADS)  # the budget did bite
        assert out == serial
        assert list_repro_segments() <= before
