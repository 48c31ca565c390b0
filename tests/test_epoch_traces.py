"""Per-epoch sub-traces: built once per trace, views of its arrays.

:attr:`DramTrace.epoch_traces` replaces the one-epoch trace
:func:`repro.gpu.simulator.replay_epochs` used to build and validate
at every epoch of every replay.  Each memoised sub-trace must equal
that construction field by field and share memory with its parent;
empty epochs give ``None``; the memo never enters a pickle; and a
trace attached from shared memory replays to the same result.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpu.config import table1_config
from repro.gpu.engine import DetailedEngine
from repro.gpu.simulator import replay_epochs
from repro.gpu.throughput import ThroughputEngine
from repro.gpu.trace import DramTrace, WorkloadCharacteristics
from repro.memory.topology import simulated_baseline
from repro.runner.shm import SharedTraceArena, attach_trace, shm_available

TOPOLOGY = simulated_baseline()


def _trace(n, n_epochs, footprint=64, writes=True, seed=0, raw_extra=0):
    rng = np.random.default_rng(seed)
    return DramTrace(
        page_indices=rng.integers(0, footprint, n),
        footprint_pages=footprint,
        n_raw_accesses=n + raw_extra,
        n_epochs=n_epochs,
        is_write=rng.random(n) < 0.3 if writes else None,
    )


def _per_epoch_construction(trace, epoch_slice):
    """The one-epoch trace replay_epochs built before the memo."""
    raw_per_epoch = max(1, trace.n_raw_accesses // trace.n_epochs)
    pages = trace.page_indices[epoch_slice]
    if not pages.size:
        return None
    return DramTrace(
        page_indices=pages,
        footprint_pages=trace.footprint_pages,
        n_raw_accesses=max(raw_per_epoch, pages.size),
        n_epochs=1,
        bytes_per_access=trace.bytes_per_access,
        is_write=(trace.is_write[epoch_slice]
                  if trace.is_write is not None else None),
    )


def _sim_fields(result):
    return (result.engine, result.total_time_ns, result.dram_accesses,
            result.bytes_by_zone.tolist(), result.time_bandwidth_ns,
            result.time_latency_ns, result.time_compute_ns,
            result.mshr_merges)


def _flipper(zone_map, seen):
    """A boundary callback that records its arguments and flips the
    epoch's first page to the other zone."""
    def flip(pages, result, elapsed_ns, last):
        seen.append((pages.dtype, pages.tolist(), result is None,
                     elapsed_ns, last))
        if pages.size:
            zone_map[pages[0]] = 1 - zone_map[pages[0]]
    return flip


def _replay(trace, engine, zone_map):
    zone_map, seen = zone_map.copy(), []
    result = replay_epochs(trace, zone_map, engine, TOPOLOGY,
                           WorkloadCharacteristics(),
                           _flipper(zone_map, seen))
    return _sim_fields(result), seen


def _reference_replay(trace, engine, zone_map):
    """The replay loop as it ran before the memo: a fresh one-epoch
    trace per non-empty epoch, per replay."""
    zone_map, seen = zone_map.copy(), []
    flip = _flipper(zone_map, seen)
    results, elapsed_ns = [], 0.0
    slices = trace.epoch_slices()
    for epoch, epoch_slice in enumerate(slices):
        sub_trace = _per_epoch_construction(trace, epoch_slice)
        result = None
        if sub_trace is not None:
            result = engine.run(sub_trace, zone_map, TOPOLOGY,
                                WorkloadCharacteristics())
            results.append(result)
            elapsed_ns += result.total_time_ns
        flip(trace.page_indices[epoch_slice], result, elapsed_ns,
             epoch == len(slices) - 1)
    summed = (sum(r.total_time_ns for r in results),
              sum(r.dram_accesses for r in results),
              sum(r.bytes_by_zone for r in results).tolist(),
              sum(r.time_bandwidth_ns for r in results),
              sum(r.time_latency_ns for r in results),
              sum(r.time_compute_ns for r in results),
              sum(r.mshr_merges for r in results))
    return (engine.name,) + summed, seen


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(n=st.integers(1, 5_000), n_epochs=st.integers(1, 64),
       writes=st.booleans(), raw_extra=st.integers(0, 20_000),
       bytes_per_access=st.sampled_from((32, 64, 128)),
       seed=st.integers(0, 2**32 - 1))
def test_sub_traces_equal_per_epoch_construction(n, n_epochs, writes,
                                                 raw_extra,
                                                 bytes_per_access, seed):
    rng = np.random.default_rng(seed)
    trace = DramTrace(
        page_indices=rng.integers(0, 97, n), footprint_pages=97,
        n_raw_accesses=n + raw_extra, n_epochs=n_epochs,
        bytes_per_access=bytes_per_access,
        is_write=rng.random(n) < 0.3 if writes else None,
    )
    subs = trace.epoch_traces
    assert subs is trace.epoch_traces  # built once
    assert len(subs) == n_epochs
    for sub, epoch_slice in zip(subs, trace.epoch_slices()):
        want = _per_epoch_construction(trace, epoch_slice)
        if want is None:
            assert sub is None
            continue
        assert sub.page_indices.dtype == want.page_indices.dtype
        assert np.array_equal(sub.page_indices, want.page_indices)
        assert (sub.footprint_pages, sub.n_raw_accesses, sub.n_epochs,
                sub.bytes_per_access) == (
            want.footprint_pages, want.n_raw_accesses, want.n_epochs,
            want.bytes_per_access)
        assert np.shares_memory(sub.page_indices, trace.page_indices)
        if writes:
            assert np.array_equal(sub.is_write, want.is_write)
            assert np.shares_memory(sub.is_write, trace.is_write)
        else:
            assert sub.is_write is None


def test_empty_epochs_are_none():
    trace = _trace(3, 8)
    subs = trace.epoch_traces
    sizes = [s.stop - s.start for s in trace.epoch_slices()]
    assert [sub is None for sub in subs] == [size == 0 for size in sizes]
    assert sum(sub is not None for sub in subs) == 3


def test_memo_stays_out_of_pickles():
    trace = _trace(2_000, 16, seed=3)
    before = pickle.dumps(trace)
    _replay(trace, ThroughputEngine(table1_config()),
            np.zeros(trace.footprint_pages, dtype=np.int16))
    assert "epoch_traces" in vars(trace)
    assert pickle.dumps(trace) == before
    clone = pickle.loads(before)
    assert "epoch_traces" not in vars(clone)
    assert np.array_equal(clone.page_indices, trace.page_indices)
    assert np.array_equal(clone.is_write, trace.is_write)


@pytest.mark.parametrize("engine_cls", (ThroughputEngine, DetailedEngine))
def test_replay_matches_per_epoch_construction(engine_cls):
    """Through the memo, a replay gives the boundary callback the same
    arguments, and sums the same results, as the loop that built a
    fresh one-epoch trace at every epoch (empty epochs included)."""
    engine = engine_cls(table1_config())
    trace = _trace(40, 64, seed=5, raw_extra=100)
    zone_map = np.zeros(trace.footprint_pages, dtype=np.int16)
    want = _reference_replay(trace, engine, zone_map)
    assert any(empty for _, _, empty, _, _ in want[1])
    for _ in range(2):  # the second replay reads the built memo
        assert _replay(trace, engine, zone_map) == want


@pytest.mark.skipif(not shm_available(),
                    reason="multiprocessing.shared_memory unavailable")
def test_shm_attached_trace_replays_identically():
    trace = _trace(6_000, 16, seed=11)
    engine = ThroughputEngine(table1_config())
    zone_map = np.zeros(trace.footprint_pages, dtype=np.int16)
    want = _replay(trace, engine, zone_map)
    arena = SharedTraceArena()
    try:
        handle = arena.publish(("epoch-traces-test",), trace)
        attached = attach_trace(handle)
        assert attached is not None
        assert not attached.page_indices.flags.writeable
        assert _replay(attached, engine, zone_map) == want
        for sub in attached.epoch_traces:
            assert np.shares_memory(sub.page_indices,
                                    attached.page_indices)
            assert not sub.page_indices.flags.writeable
        # The segment carries the arrays only.
        assert handle.nbytes == trace.page_indices.size * 9
    finally:
        arena.close()
