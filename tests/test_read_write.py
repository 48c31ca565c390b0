"""Read/write asymmetry modeling.

The paper's motivation names "read versus write performance" among the
memory characteristics hidden from software; the engines price writes
with a per-technology channel-occupancy factor (turnaround + recovery).
"""

import numpy as np
import pytest

from repro.core.errors import ConfigError, SimulationError
from repro.gpu.config import table1_config
from repro.gpu.engine import DetailedEngine
from repro.gpu.throughput import ThroughputEngine
from repro.gpu.trace import DramTrace, WorkloadCharacteristics
from repro.ingest import parse_file, save_npz
from repro.memory.dram import DDR4, GDDR5, DramTechnology
from repro.memory.topology import simulated_baseline
from repro.workloads import get_workload

CHARS = WorkloadCharacteristics(parallelism=512)
N_PAGES = 256


def _trace(write_fraction, seed=0):
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, N_PAGES, size=20_000)
    flags = rng.random(pages.size) < write_fraction
    return DramTrace(page_indices=pages, footprint_pages=N_PAGES,
                     n_raw_accesses=pages.size, is_write=flags)


def _local():
    return np.zeros(N_PAGES, dtype=np.int16)


class TestTechnologyFactors:
    def test_catalog_factors_sane(self):
        assert GDDR5.write_cost_factor > DDR4.write_cost_factor >= 1.0

    def test_factor_below_one_rejected(self):
        with pytest.raises(ConfigError):
            DramTechnology("x", pin_rate_gbps=1.0, bus_width_bits=32,
                           energy_pj_per_bit=1.0, write_cost_factor=0.9)


class TestTraceFlags:
    def test_write_fraction(self):
        assert _trace(0.0).write_fraction() == 0.0
        assert _trace(1.0).write_fraction() == 1.0
        assert _trace(0.3).write_fraction() == pytest.approx(0.3,
                                                             abs=0.02)

    def test_unknown_direction_defaults_to_reads(self):
        trace = DramTrace(page_indices=np.zeros(4, dtype=np.int64),
                          footprint_pages=1, n_raw_accesses=4)
        assert trace.write_fraction() == 0.0
        weights = trace.write_weights(np.array([1.5, 1.5]),
                                      np.zeros(4, dtype=np.int64))
        assert weights.tolist() == [1.0] * 4

    def test_misaligned_flags_rejected(self):
        with pytest.raises(SimulationError):
            DramTrace(page_indices=np.zeros(4, dtype=np.int64),
                      footprint_pages=1, n_raw_accesses=4,
                      is_write=np.zeros(3, dtype=bool))

    def test_write_weights_use_zone_factor(self):
        trace = _trace(1.0)
        zones = np.zeros(trace.n_accesses, dtype=np.int64)
        weights = trace.write_weights(np.array([1.15, 1.10]), zones)
        assert np.all(weights == 1.15)


class TestEngineAsymmetry:
    @pytest.mark.parametrize("engine_cls",
                             [ThroughputEngine, DetailedEngine])
    def test_write_heavy_is_slower(self, engine_cls):
        engine = engine_cls(table1_config())
        topo = simulated_baseline()
        reads = engine.run(_trace(0.0), _local(), topo, CHARS)
        writes = engine.run(_trace(1.0), _local(), topo, CHARS)
        # All-write traffic pays the GDDR5 1.15x occupancy factor.
        assert writes.total_time_ns == pytest.approx(
            reads.total_time_ns * GDDR5.write_cost_factor, rel=0.03
        )

    def test_reported_bytes_are_true_bytes(self):
        engine = ThroughputEngine(table1_config())
        result = engine.run(_trace(1.0), _local(), simulated_baseline(),
                            CHARS)
        assert result.total_bytes == 20_000 * 128

    def test_flagless_trace_unaffected(self):
        engine = ThroughputEngine(table1_config())
        topo = simulated_baseline()
        flagged = _trace(0.0)
        bare = DramTrace(page_indices=flagged.page_indices,
                         footprint_pages=N_PAGES,
                         n_raw_accesses=flagged.n_raw_accesses)
        assert engine.run(flagged, _local(), topo, CHARS).total_time_ns \
            == pytest.approx(
                engine.run(bare, _local(), topo, CHARS).total_time_ns
            )


class TestWorkloadFlags:
    def test_traces_carry_flags(self):
        trace = get_workload("lbm").dram_trace(n_accesses=30_000)
        assert trace.is_write is not None
        # lbm writes the destination lattice: a large write share.
        assert 0.2 < trace.write_fraction() < 0.6

    def test_read_only_structures_produce_reads(self):
        workload = get_workload("lbm")
        trace = workload.dram_trace(n_accesses=30_000, filtered=False)
        ranges = workload.page_ranges()
        src = ranges["src_lattice"]
        src_mask = ((trace.page_indices >= src.start)
                    & (trace.page_indices < src.stop))
        assert trace.is_write[src_mask].mean() < 0.01

    def test_kernel_ir_flags_follow_is_store(self):
        from repro.kernelsim import spmv_workload

        workload = spmv_workload()
        trace = workload.dram_trace(n_accesses=30_000, filtered=False)
        ranges = workload.page_ranges()
        y = ranges["y_vec"]
        y_mask = ((trace.page_indices >= y.start)
                  & (trace.page_indices < y.stop))
        vals = ranges["csr_values"]
        v_mask = ((trace.page_indices >= vals.start)
                  & (trace.page_indices < vals.stop))
        assert trace.is_write[y_mask].all()
        assert not trace.is_write[v_mask].any()

    def test_trace_io_round_trips_flags(self, tmp_path):
        trace = _trace(0.4)
        parsed = parse_file(save_npz(trace, tmp_path / "t.npz"))
        assert np.array_equal(parsed.is_write, trace.is_write)

    def test_trace_io_without_flags(self, tmp_path):
        """A trace of unknown direction ingests as all reads, which is
        how the engines price ``is_write=None``."""
        bare = DramTrace(page_indices=np.zeros(4, dtype=np.int64),
                         footprint_pages=1, n_raw_accesses=4)
        parsed = parse_file(save_npz(bare, tmp_path / "b.npz"))
        assert not parsed.is_write.any()
