"""ACPI firmware tables: SRAT, SLIT and the proposed SBIT."""

import pytest

from repro.core.errors import ConfigError
from repro.memory.acpi import (
    SLIT_LOCAL_DISTANCE,
    TABLES_MEMO_SIZE,
    Sbit,
    Slit,
    Srat,
    SratEntry,
    enumerate_tables,
)
from repro.memory.topology import simulated_baseline, symmetric_topology
from repro.vm.process import Process


class TestSrat:
    def _srat(self):
        return Srat((
            SratEntry(0, 0, 1000),
            SratEntry(1, 1000, 2000),
        ))

    def test_domains(self):
        assert self._srat().domains() == (0, 1)

    def test_address_lookup(self):
        srat = self._srat()
        assert srat.domain_of_address(0) == 0
        assert srat.domain_of_address(999) == 0
        assert srat.domain_of_address(1000) == 1

    def test_uncovered_address_rejected(self):
        with pytest.raises(ConfigError):
            self._srat().domain_of_address(5000)

    def test_bad_entry_rejected(self):
        with pytest.raises(ConfigError):
            SratEntry(-1, 0, 10)
        with pytest.raises(ConfigError):
            SratEntry(0, 0, 0)


class TestSlit:
    def test_diagonal_must_be_local(self):
        with pytest.raises(ConfigError):
            Slit(((20, 30), (30, 10)))

    def test_matrix_must_be_square(self):
        with pytest.raises(ConfigError):
            Slit(((10, 20, 30), (20, 10, 30)))

    def test_remote_cannot_beat_local(self):
        with pytest.raises(ConfigError):
            Slit(((10, 5), (5, 10)))

    def test_nearest_domains_self_first(self):
        slit = Slit(((10, 40, 20), (40, 10, 30), (20, 30, 10)))
        assert slit.nearest_domains(0) == (0, 2, 1)
        assert slit.nearest_domains(1) == (1, 2, 0)

    def test_distance_lookup(self):
        slit = Slit(((10, 30), (30, 10)))
        assert slit.distance(0, 1) == 30


class TestSbit:
    def test_fractions_sum_to_one(self):
        sbit = Sbit((200.0, 80.0))
        assert sum(sbit.fractions()) == pytest.approx(1.0)

    def test_section31_fractions(self):
        sbit = Sbit((200.0, 80.0))
        assert sbit.fractions()[0] == pytest.approx(200 / 280)

    def test_ratio_percent_rounds_to_paper_notation(self):
        sbit = Sbit((200.0, 80.0))
        # 28.6% rounds to 29; the paper rounds 28C-72B to 30C-70B by
        # hand, but the table itself carries the true ratio.
        assert sbit.ratio_percent(1) == 29

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            Sbit(())

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            Sbit((200.0, 0.0))


class TestEnumerateTables:
    def test_baseline_sbit_carries_zone_bandwidths(self, baseline):
        tables = enumerate_tables(baseline)
        assert tables.sbit.bandwidth_gbps == pytest.approx((200.0, 80.0))

    def test_baseline_slit_prefers_local(self, baseline):
        tables = enumerate_tables(baseline)
        assert tables.slit.distance(0, 0) == SLIT_LOCAL_DISTANCE
        assert tables.slit.distance(0, 1) > SLIT_LOCAL_DISTANCE

    def test_srat_covers_all_capacity(self, baseline):
        tables = enumerate_tables(baseline)
        total = sum(e.length_bytes for e in tables.srat.entries)
        assert total == baseline.total_capacity_bytes

    def test_symmetric_remote_distance_reflects_hop(self, symmetric):
        tables = enumerate_tables(symmetric)
        # Zone 1 pays a 100-cycle hop: distance must exceed local.
        assert tables.slit.distance(0, 1) > SLIT_LOCAL_DISTANCE

    def test_tables_are_pure_firmware_data(self, baseline):
        # The OS consumes only numbers, never zone objects.
        tables = enumerate_tables(baseline)
        assert isinstance(tables.sbit.bandwidth_gbps[0], float)
        assert isinstance(tables.slit.distances[0][0], int)


class TestTablesMemo:
    def test_equal_topologies_share_one_table_set(self):
        first = Process(simulated_baseline(bo_capacity_gib=0.5))
        second = Process(simulated_baseline(bo_capacity_gib=0.5))
        assert first.topology is not second.topology
        assert first.tables is second.tables

    def test_topology_and_clock_both_key_the_tables(self):
        tables = enumerate_tables(simulated_baseline())
        assert enumerate_tables(simulated_baseline(), 1.4) is tables
        assert enumerate_tables(simulated_baseline(bo_capacity_gib=1.0)) \
            is not tables
        # The hop to CO memory is in core cycles: the clock sets SLIT.
        slow = enumerate_tables(simulated_baseline(), clock_ghz=0.7)
        assert slow.slit.distance(0, 1) > tables.slit.distance(0, 1)

    def test_memo_is_bounded(self):
        tables = enumerate_tables(symmetric_topology(bandwidth_gbps=1.0))
        for k in range(TABLES_MEMO_SIZE):
            enumerate_tables(symmetric_topology(bandwidth_gbps=2.0 + k))
        again = enumerate_tables(symmetric_topology(bandwidth_gbps=1.0))
        assert again == tables and again is not tables
