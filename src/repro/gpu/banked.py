"""Bank-level DRAM engine: row buffers and Table 1 timings.

The detailed engine treats each channel as a FIFO pipe at peak
bandwidth; real DRAM serves requests through banks whose open row makes
the difference between a CAS-only access (tCL) and a full
precharge-activate-CAS cycle (tRP + tRCD + tCL, bounded by tRC per
row activation).  This engine extends the event-driven model with
per-bank row-buffer state driven by the Table 1 timing parameters:

* sequential streams hit the open row and approach peak bandwidth;
* random streams thrash rows and lose bandwidth to activate/precharge,
  the classic effective-bandwidth gap GPGPU-Sim models.

It exists to validate that the placement conclusions are not an
artifact of the peak-bandwidth abstraction: the banked ablation bench
checks the Section 3 policy ordering survives row-buffer effects.

Row-buffer outcomes are a pure function of the access stream (a bank
hits iff its previous access touched the same row), so
:func:`_bank_row_hits` resolves every access with one grouping sort;
``run`` feeds the resulting occupancies through the batched window
kernel in :mod:`repro.gpu.service` and ``row_hit_rates`` reduces the
same per-access hit vector per zone.  The per-access loops survive in
the test suite as ``reference_banked_run`` and
``reference_row_hit_rates`` (``tests/reference_loops.py``) for the
golden suite.  :class:`BankState` remains the scalar building block the
reference (and its tests) use.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import SimulationError
from repro.core.units import LINE_SIZE, PAGE_SIZE
from repro.gpu.config import GpuConfig
from repro.obs import trace as obs_trace
from repro.gpu.service import (
    check_channel_count,
    kernel_path,
    simulate_windowed,
)
from repro.gpu.trace import (
    DramTrace,
    SimResult,
    WorkloadCharacteristics,
    validate_zone_map,
)
from repro.memory.topology import SystemTopology

LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE

#: DRAM row (page) size in lines; 2 KB rows of 128 B lines.
LINES_PER_ROW = 16


class BankState:
    """Open-row tracking for the banks of one channel."""

    def __init__(self, n_banks: int) -> None:
        if n_banks <= 0:
            raise SimulationError("n_banks must be positive")
        self.n_banks = n_banks
        self._open_rows = np.full(n_banks, -1, dtype=np.int64)
        self.row_hits = 0
        self.row_misses = 0

    def access(self, row: int) -> bool:
        """Access ``row``; returns True on a row-buffer hit."""
        bank = row % self.n_banks
        if self._open_rows[bank] == row:
            self.row_hits += 1
            return True
        self._open_rows[bank] = row
        self.row_misses += 1
        return False

    @property
    def hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


def _bank_row_hits(pages: np.ndarray, access_zones: np.ndarray,
                   zone_channels: np.ndarray, zone_offset: np.ndarray,
                   n_banks: int) -> tuple[np.ndarray, np.ndarray]:
    """Channel and row-buffer outcome of every access, vectorized.

    A bank's open row is always the row of its previous access, so
    access ``i`` hits iff the prior access to the same (zone, channel,
    bank) touched the same row — an adjacency test after one stable
    sort grouping the stream by bank.
    """
    n = pages.size
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=bool)
    # Lines interleave across channels; a DRAM row is a span of
    # *channel-local* lines, so sequential streams reuse rows.
    line = (pages * LINES_PER_PAGE
            + np.arange(n, dtype=np.int64) % LINES_PER_PAGE)
    per_zone = zone_channels[access_zones]
    channel = line % per_zone
    row = (line // per_zone) // LINES_PER_ROW
    bank_ids = ((zone_offset[access_zones] + channel) * n_banks
                + row % n_banks)
    if int(bank_ids.max()) < 1 << 15:
        bank_ids = bank_ids.astype(np.int16)
    order = np.argsort(bank_ids, kind="stable")
    bank_sorted = bank_ids[order]
    row_sorted = row[order]
    hit_sorted = np.empty(n, dtype=bool)
    hit_sorted[0] = False
    np.logical_and(bank_sorted[1:] == bank_sorted[:-1],
                   row_sorted[1:] == row_sorted[:-1],
                   out=hit_sorted[1:])
    row_hit = np.empty(n, dtype=bool)
    row_hit[order] = hit_sorted
    return channel, row_hit


class BankedEngine:
    """Event-driven engine with per-bank row-buffer timing."""

    name = "banked"

    def __init__(self, config: GpuConfig, banks_per_channel: int = 16,
                 bank_overlap: int = 4) -> None:
        self.config = config
        if banks_per_channel <= 0:
            raise SimulationError("banks_per_channel must be positive")
        if bank_overlap <= 0:
            raise SimulationError("bank_overlap must be positive")
        self.banks_per_channel = banks_per_channel
        #: average activates overlapped behind other banks' transfers;
        #: divides the visible row-miss penalty on the data bus.
        self.bank_overlap = bank_overlap

    def run(self, trace: DramTrace, zone_map: np.ndarray,
            topology: SystemTopology,
            chars: WorkloadCharacteristics) -> SimResult:
        with obs_trace.span("engine.banked", cat="gpu",
                            accesses=trace.n_accesses) as span:
            span.annotate(kernel=kernel_path())
            return self._simulate(trace, zone_map, topology, chars)

    def _simulate(self, trace: DramTrace, zone_map: np.ndarray,
                  topology: SystemTopology,
                  chars: WorkloadCharacteristics) -> SimResult:
        zone_map = validate_zone_map(zone_map, trace.footprint_pages,
                                     len(topology))
        if trace.n_accesses == 0:
            raise SimulationError("empty trace")

        n_zones = len(topology)
        zone_channels = np.array([zone.channels for zone in topology],
                                 dtype=np.int64)
        n_channels_total = int(zone_channels.sum())
        check_channel_count(n_channels_total)
        window = max(1, int(min(
            chars.parallelism,
            self.config.total_mshrs(n_channels_total),
            self.config.max_warps_outstanding,
        )))

        # Data-transfer occupancy of one line at channel peak rate,
        # using the GPU-viewpoint bandwidth from the distance matrix.
        usable_bw = topology.gpu_usable_bandwidths()
        burst_ns = np.array([
            trace.bytes_per_access
            / (usable_bw[zone.zone_id] / zone.channels) * 1e9
            for zone in topology
        ])
        # Row-miss command overhead from the zone's DRAM timings,
        # divided by the cross-bank overlap the controller extracts.
        miss_extra_ns = np.array([
            (zone.technology.timings.row_miss_cycles()
             - zone.technology.timings.row_hit_cycles())
            * zone.technology.timings.cycle_ns / self.bank_overlap
            for zone in topology
        ])
        latency_ns = np.array(
            topology.gpu_latencies_ns(self.config.clock_ghz)
        )

        access_zones, service_weights = trace.gather_zones(
            zone_map, topology.write_cost_factors)
        miss_rate = max(trace.miss_rate(), 1e-12)
        compute_step = chars.compute_ns_per_access / miss_rate

        zone_offset = np.concatenate(([0], np.cumsum(zone_channels)[:-1]))
        channel, row_hit = _bank_row_hits(trace.page_indices,
                                          access_zones, zone_channels,
                                          zone_offset,
                                          self.banks_per_channel)
        channel_ids = (zone_offset[access_zones] + channel
                       ).astype(np.int16)

        n = trace.n_accesses
        occupancy = burst_ns[access_zones]
        occupancy *= service_weights
        occupancy += np.where(row_hit, 0.0, miss_extra_ns[access_zones])
        latency = latency_ns[access_zones]
        ready_base = np.arange(n, dtype=np.float64) * compute_step
        last_completion = simulate_windowed(ready_base, occupancy,
                                            latency, channel_ids,
                                            n_channels_total, window)

        total_compute = trace.n_raw_accesses * chars.compute_ns_per_access
        total_time = max(last_completion, total_compute)
        if total_time <= 0:
            raise SimulationError("banked engine produced zero runtime")

        # Busy time per channel — transfer occupancy actually served,
        # not the last-free timestamp, so dominant_bound() can trust it.
        busy = np.bincount(channel_ids, weights=occupancy,
                           minlength=n_channels_total)
        bytes_by_zone = (np.bincount(access_zones, minlength=n_zones)
                         * float(trace.bytes_per_access))
        return SimResult(
            engine=self.name,
            total_time_ns=total_time,
            dram_accesses=trace.n_accesses,
            bytes_by_zone=bytes_by_zone,
            time_bandwidth_ns=float(busy.max()),
            time_latency_ns=float(latency_ns.sum() / n_zones),
            time_compute_ns=total_compute,
        )

    def row_hit_rates(self, trace: DramTrace, zone_map: np.ndarray,
                      topology: SystemTopology,
                      chars: WorkloadCharacteristics
                      ) -> tuple[float, ...]:
        """Per-zone row-buffer hit rates for one replay (diagnostics)."""
        del chars  # outcomes depend only on the stream, kept for API
        n_zones = len(topology)
        zone_map = validate_zone_map(zone_map, trace.footprint_pages,
                                     n_zones)
        zone_channels = np.array([zone.channels for zone in topology],
                                 dtype=np.int64)
        zone_offset = np.concatenate(([0], np.cumsum(zone_channels)[:-1]))
        access_zones, _ = trace.gather_zones(
            zone_map, topology.write_cost_factors)
        _, row_hit = _bank_row_hits(trace.page_indices, access_zones,
                                    zone_channels, zone_offset,
                                    self.banks_per_channel)
        totals = np.bincount(access_zones, minlength=n_zones)
        hits = np.bincount(access_zones, weights=row_hit,
                           minlength=n_zones)
        return tuple(
            float(h) / int(t) if t else 0.0
            for h, t in zip(hits, totals)
        )
