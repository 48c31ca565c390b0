"""The vectorized hot paths agree with the reference on the bfs matrix.

One small case per hot path — the cache filter on the raw line trace,
and the detailed and banked engines on the DRAM trace under the
BW-AWARE zone map ``run_experiment`` builds — each compared with its
per-access loop in ``tests/reference_loops.py``.  The wider sweep over
workloads and placement shapes is ``tests/test_golden_vectorized.py``.
"""

import numpy as np
import pytest

from conftest import bwaware_zone_map
from reference_loops import (
    ReferenceCacheHierarchy,
    reference_banked_run,
    reference_detailed_run,
)
from repro.gpu.cache import CacheHierarchy
from repro.gpu.config import table1_config
from repro.gpu.engine import BankedEngine, DetailedEngine
from repro.memory.topology import simulated_baseline
from repro.workloads import get_workload
from repro.workloads.base import BASELINE_CHANNELS, FOOTPRINT_SCALE

N_RAW = 4_000


class TestRunBench:
    def test_vectorized_matches_reference(self):
        workload = get_workload("bfs")

        raw = workload.raw_line_trace("default", n_accesses=N_RAW, seed=0)
        filter_config = table1_config().scaled_caches(FOOTPRINT_SCALE)
        new = CacheHierarchy(filter_config, BASELINE_CHANNELS)
        old = ReferenceCacheHierarchy(filter_config, BASELINE_CHANNELS)
        assert np.array_equal(new.filter_stream_indices(raw),
                              old.filter_stream_indices(raw))

        topology = simulated_baseline()
        config = table1_config()
        trace = workload.dram_trace("default", n_accesses=N_RAW, seed=0)
        chars = workload.characteristics("default")
        zone_map = bwaware_zone_map(workload, "default", topology, 0)
        for engine, reference in ((DetailedEngine(config),
                                   reference_detailed_run),
                                  (BankedEngine(config),
                                   reference_banked_run)):
            got = engine.run(trace, zone_map, topology, chars)
            want = reference(config, trace, zone_map, topology, chars)
            assert got.total_time_ns == pytest.approx(want.total_time_ns,
                                                      rel=1e-9)
