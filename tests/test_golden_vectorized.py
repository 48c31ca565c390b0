"""Golden equality: vectorized hot paths vs the reference loops.

The cache filter, the detailed engine and the banked engine were
rewritten from per-access Python loops into array kernels
(:mod:`repro.gpu.lru`, :mod:`repro.gpu.service`).  The original loops
survive in ``tests/reference_loops.py`` as the behavioural oracle;
this suite pins the vectorized implementations to them:

* filter: *bit-identical* miss-index streams (and identical hit/miss
  statistics) across workloads and seeds;
* engines: every :class:`SimResult` field within 1e-9 relative across
  workloads and placement shapes (local, interleave, random and the
  BW-AWARE map ``run_experiment`` builds), including the tiny-window
  regime that takes the sequential fallback;
* the windowed-service kernel: the batched numpy kernel and the compiled
  one within 1e-9 relative of the sequential replay.

Traces here are shorter than ``DEFAULT_RAW_ACCESSES`` so the reference
loops stay affordable.
"""

import numpy as np
import pytest

from conftest import bwaware_zone_map
from reference_loops import (
    ReferenceCacheHierarchy,
    reference_banked_run,
    reference_detailed_run,
)
from repro.gpu import _native
from repro.gpu.cache import CacheHierarchy
from repro.gpu.config import table1_config
from repro.gpu.engine import BankedEngine, DetailedEngine
from repro.gpu.service import (
    _MIN_BATCH_WINDOW,
    _simulate_numpy,
    _simulate_sequential,
    rank_within_groups,
)
from repro.memory.topology import simulated_baseline
from repro.workloads import get_workload
from repro.workloads.base import BASELINE_CHANNELS, FOOTPRINT_SCALE

#: five workloads spanning the stream regimes: graph frontier (bfs),
#: random table lookup (xsbench), dense streaming (sgemm — also the
#: one low-MLP workload), clustering (kmeans) and string matching
#: (mummergpu).
WORKLOADS = ("bfs", "xsbench", "sgemm", "kmeans", "mummergpu")

#: short traces keep the per-access reference loops affordable.
N_RAW = 30_000


def _zone_maps(footprint, n_zones):
    rng = np.random.default_rng(7)
    return {
        "local": np.zeros(footprint, dtype=np.int64),
        "interleave": np.arange(footprint, dtype=np.int64) % n_zones,
        "random": rng.integers(0, n_zones, size=footprint).astype(
            np.int64),
    }


def _relative(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestFilterGolden:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_miss_indices_bit_identical(self, name, seed):
        workload = get_workload(name)
        raw = workload.raw_line_trace("default", n_accesses=N_RAW,
                                      seed=seed)
        config = table1_config().scaled_caches(FOOTPRINT_SCALE)
        new = CacheHierarchy(config, BASELINE_CHANNELS)
        old = ReferenceCacheHierarchy(config, BASELINE_CHANNELS)
        assert np.array_equal(new.filter_stream_indices(raw),
                              old.filter_stream_indices(raw))
        for stat_new, stat_old in ((new.l1_stats(), old.l1_stats()),
                                   (new.l2_stats(), old.l2_stats())):
            assert stat_new.accesses == stat_old.accesses
            assert stat_new.hits == stat_old.hits


class TestEngineGolden:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_simresults_match_reference(self, name):
        workload = get_workload(name)
        trace = workload.dram_trace("default", n_accesses=N_RAW, seed=0)
        chars = workload.characteristics("default")
        topology = simulated_baseline()
        config = table1_config()
        zone_maps = _zone_maps(trace.footprint_pages, len(topology))
        zone_maps["bw-aware"] = bwaware_zone_map(workload, "default",
                                                 topology, 0)
        for tag, zone_map in zone_maps.items():
            pairs = (
                (DetailedEngine(config).run(trace, zone_map, topology,
                                            chars),
                 reference_detailed_run(config, trace, zone_map,
                                        topology, chars)),
                (BankedEngine(config).run(trace, zone_map, topology,
                                          chars),
                 reference_banked_run(config, trace, zone_map,
                                      topology, chars)),
            )
            for got, want in pairs:
                for field in ("total_time_ns", "time_bandwidth_ns",
                              "time_latency_ns", "time_compute_ns"):
                    assert _relative(getattr(got, field),
                                     getattr(want, field)) <= 1e-9, (
                        name, tag, field)
                assert got.dram_accesses == want.dram_accesses
                np.testing.assert_allclose(got.bytes_by_zone,
                                           want.bytes_by_zone,
                                           rtol=1e-12)

    def test_low_parallelism_takes_sequential_path(self):
        """sgemm's window (parallelism 20) sits under the batching
        threshold, so this run exercises the fallback replay."""
        chars = get_workload("sgemm").characteristics("default")
        assert chars.parallelism < _MIN_BATCH_WINDOW

    def test_busy_time_is_served_occupancy(self):
        """time_bandwidth_ns totals transfer time actually served on
        the busiest channel — not its last-free timestamp."""
        workload = get_workload("bfs")
        trace = workload.dram_trace("default", n_accesses=N_RAW, seed=0)
        chars = workload.characteristics("default")
        topology = simulated_baseline()
        zone_map = np.zeros(trace.footprint_pages, dtype=np.int64)
        result = DetailedEngine(table1_config()).run(
            trace, zone_map, topology, chars)
        local = topology.local
        per_channel_ns = (trace.bytes_per_access
                          / (local.usable_bandwidth / local.channels)
                          * 1e9)
        weights = trace.write_weights(
            np.array([z.technology.write_cost_factor
                      for z in topology]),
            np.zeros(trace.n_accesses, dtype=np.int64))
        # All accesses land in zone 0, spread round-robin over its
        # channels; the busiest channel serves ceil(n / channels) of
        # them (weighted), and never more than the whole stream.
        assert result.time_bandwidth_ns <= per_channel_ns * float(
            weights.sum())
        assert result.time_bandwidth_ns >= (
            per_channel_ns * float(weights.sum()) / local.channels
            * 0.99)


class TestServiceKernel:
    """The shared window kernel, numpy and (where the library builds)
    compiled, against its own sequential replay."""

    @pytest.mark.parametrize("window", (
        _MIN_BATCH_WINDOW - 1,  # fallback path
        _MIN_BATCH_WINDOW,      # smallest batched window
        64,
    ))
    def test_batched_equals_sequential(self, window):
        kernels = [kernel for kernel in (_simulate_numpy,
                                         _native.kernel("windowed"))
                   if kernel is not None]
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 400))
            n_channels = int(rng.integers(1, 9))
            ready = np.arange(n) * float(rng.uniform(0, 2.0))
            occupancy = rng.uniform(0.01, 5.0, n)
            if rng.random() < 0.3:
                occupancy = np.full(n, float(rng.uniform(0.5, 2.0)))
            latency = rng.uniform(0, 100, n)
            channels = rng.integers(0, n_channels, n).astype(np.int16)
            serial = _simulate_sequential(ready, occupancy, latency,
                                          channels, n_channels, window)
            for kernel in kernels:
                batched = kernel(ready, occupancy, latency, channels,
                                 n_channels, window)
                assert _relative(batched, serial) <= 1e-9

    def test_rank_within_groups(self):
        groups = np.array([2, 0, 2, 2, 1, 0, 2])
        assert rank_within_groups(groups, 3).tolist() == [
            0, 0, 1, 2, 0, 1, 3]
