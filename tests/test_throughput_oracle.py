"""The throughput engine against its first vectorized form, bit for bit.

``reference_throughput_run`` (``tests/reference_loops.py``) is the
epoch model as first written: an ``arange(n) * E // n`` epoch id per
access and boolean-mask write weights.  The engine builds the same
bins and weights more cheaply, so every :class:`SimResult` field must
be *equal* (``==``, not approximately) on random streams: 1 to 50k
accesses (including fewer accesses than epochs), 1 to 1024 epochs,
one to four zones and with or without write flags.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_loops import reference_throughput_run
from repro.gpu.config import table1_config
from repro.gpu.throughput import ThroughputEngine
from repro.gpu.trace import DramTrace, WorkloadCharacteristics
from repro.memory.topology import (
    SystemTopology,
    chiplet_topology,
    simulated_baseline,
    three_pool_topology,
)
from repro.workloads import get_workload

#: one to four zones; GDDR5 writes cost 1.15, DDR4 1.10, HBM 1.12, and
#: chiplet-3 carries an explicit distance matrix.
TOPOLOGIES = (
    SystemTopology("one-pool", simulated_baseline().zones[:1], 0),
    simulated_baseline(),
    three_pool_topology(),
    chiplet_topology(3),
)


def _fields(result):
    return (result.engine, result.total_time_ns, result.dram_accesses,
            result.bytes_by_zone.tolist(), result.time_bandwidth_ns,
            result.time_latency_ns, result.time_compute_ns,
            result.mshr_merges)


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 50_000), n_epochs=st.integers(1, 1024),
       topology=st.sampled_from(TOPOLOGIES),
       footprint=st.integers(1, 512), writes=st.booleans(),
       parallelism=st.floats(1.0, 2048.0),
       compute_ns=st.sampled_from((0.0, 0.05, 3.0)),
       seed=st.integers(0, 2**32 - 1))
def test_engine_equals_reference(n, n_epochs, topology, footprint, writes,
                                 parallelism, compute_ns, seed):
    rng = np.random.default_rng(seed)
    trace = DramTrace(
        page_indices=rng.integers(0, footprint, n),
        footprint_pages=footprint,
        n_raw_accesses=n + int(rng.integers(0, 4 * n + 1)),
        n_epochs=n_epochs,
        is_write=rng.random(n) < rng.random() if writes else None,
    )
    zone_map = rng.integers(0, len(topology), footprint)
    chars = WorkloadCharacteristics(parallelism=parallelism,
                                    compute_ns_per_access=compute_ns)
    config = table1_config()
    got = ThroughputEngine(config).run(trace, zone_map, topology, chars)
    want = reference_throughput_run(config, trace, zone_map, topology,
                                    chars)
    assert _fields(got) == _fields(want)


def _engine_epoch_starts(n: int, n_epochs: int) -> list[int]:
    """First access of each epoch under the engine's ``i * E // n``."""
    epoch_ids = np.arange(n, dtype=np.int64) * n_epochs // n
    return np.searchsorted(epoch_ids, np.arange(n_epochs)).tolist()


def _phase_shift_trace() -> DramTrace:
    return get_workload("phase_shift").dram_trace("default", seed=0,
                                                  n_epochs=16)


@pytest.mark.xfail(strict=True, reason=(
    "epoch_slices splits at int(linspace(0, n, E + 1)), the throughput "
    "engine at i * E // n; unifying them moves the replay digests, so "
    "it waits for the cache-format re-key (ROADMAP item 5)"))
@pytest.mark.parametrize("make_trace", [
    lambda: DramTrace(page_indices=np.zeros(10, dtype=np.int64),
                      footprint_pages=1, n_raw_accesses=10, n_epochs=3),
    _phase_shift_trace,
], ids=["n10-E3", "phase_shift-E16"])
def test_replay_and_engine_share_one_epoch_split(make_trace):
    trace = make_trace()
    starts = [piece.start for piece in trace.epoch_slices()]
    assert starts == _engine_epoch_starts(trace.n_accesses,
                                          trace.n_epochs)
