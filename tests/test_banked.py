"""Bank-level DRAM engine: row buffers and timing effects."""

import numpy as np
import pytest

from reference_loops import BankState
from repro.core.errors import SimulationError
from repro.core.units import gbps
from repro.gpu.config import table1_config
from repro.gpu.engine import BankedEngine
from repro.gpu.simulator import make_engine
from repro.gpu.trace import DramTrace, WorkloadCharacteristics
from repro.memory.topology import simulated_baseline

CHARS = WorkloadCharacteristics(parallelism=512)
N_PAGES = 512


def _sequential_trace():
    pages = np.repeat(np.arange(N_PAGES), 32)
    return DramTrace(page_indices=pages, footprint_pages=N_PAGES,
                     n_raw_accesses=pages.size)


def _random_trace(seed=0):
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, N_PAGES, size=N_PAGES * 32)
    return DramTrace(page_indices=pages, footprint_pages=N_PAGES,
                     n_raw_accesses=pages.size)


def _local_map():
    return np.zeros(N_PAGES, dtype=np.int16)


class TestBankState:
    def test_cold_miss_then_hit(self):
        bank = BankState(4)
        assert bank.access(0) is False
        assert bank.access(0) is True

    def test_conflicting_rows_in_one_bank(self):
        bank = BankState(4)
        bank.access(0)
        bank.access(4)  # same bank (4 % 4 == 0), different row
        assert bank.access(0) is False

    def test_distinct_banks_coexist(self):
        bank = BankState(4)
        bank.access(0)
        bank.access(1)
        assert bank.access(0) is True
        assert bank.access(1) is True

    def test_hit_rate(self):
        bank = BankState(4)
        bank.access(0)
        bank.access(0)
        assert bank.hit_rate == pytest.approx(0.5)
        assert BankState(4).hit_rate == 0.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            BankState(0)


class TestBankedEngine:
    def _engine(self):
        return BankedEngine(table1_config())

    def test_sequential_near_peak(self):
        result = self._engine().run(_sequential_trace(), _local_map(),
                                    simulated_baseline(), CHARS)
        assert result.achieved_bandwidth > 0.85 * gbps(200)

    def test_random_loses_bandwidth_to_row_misses(self):
        sequential = self._engine().run(
            _sequential_trace(), _local_map(), simulated_baseline(), CHARS
        )
        random = self._engine().run(
            _random_trace(), _local_map(), simulated_baseline(), CHARS
        )
        assert random.achieved_bandwidth < 0.7 * sequential.achieved_bandwidth

    def test_policy_ordering_survives_row_effects(self):
        # The Section 3 conclusion holds under row-buffer modeling.
        engine = self._engine()
        topo = simulated_baseline()
        trace = _random_trace()
        rng = np.random.default_rng(1)

        def zone_map(co_fraction):
            n_co = int(round(co_fraction * N_PAGES))
            zm = np.zeros(N_PAGES, dtype=np.int16)
            zm[rng.permutation(N_PAGES)[:n_co]] = 1
            return zm

        local = engine.run(trace, zone_map(0.0), topo, CHARS)
        interleave = engine.run(trace, zone_map(0.5), topo, CHARS)
        bwaware = engine.run(trace, zone_map(80 / 280), topo, CHARS)
        assert bwaware.total_time_ns < local.total_time_ns
        assert local.total_time_ns < interleave.total_time_ns

    def test_registered_in_engine_factory(self):
        engine = make_engine("banked", table1_config())
        assert engine.name == "banked"

    def test_zone_map_checked(self):
        with pytest.raises(SimulationError):
            self._engine().run(_sequential_trace(),
                               np.zeros(3, dtype=np.int16),
                               simulated_baseline(), CHARS)

    def test_experiment_harness_supports_banked(self):
        from repro.core.experiment import run_experiment

        result = run_experiment("lbm", policy="LOCAL", engine="banked",
                                trace_accesses=20_000)
        assert result.sim.engine == "banked"
