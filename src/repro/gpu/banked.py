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
hits iff its previous access touched the same row).  ``run`` hands the
per-access work — zone, line-interleaved channel, row-buffer outcome,
occupancy, the windowed replay, busy time and zone counts — to
:func:`repro.gpu.service.event_pass`, which runs its compiled pass
(``_passes.c``: a per-bank open-row table) or the bit-identical numpy
one (:func:`repro.gpu.service.bank_row_hits`: one grouping sort);
``row_hit_rates`` reduces the numpy hit vector per zone.  The
per-access loops survive in the test suite as ``reference_banked_run``
and ``reference_row_hit_rates`` (``tests/reference_loops.py``) for the
golden suite.  :class:`BankState` remains the scalar building block the
reference (and its tests) use.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import SimulationError
from repro.gpu.config import GpuConfig
from repro.obs import trace as obs_trace
from repro.gpu.service import (
    bank_row_hits,
    check_channel_count,
    event_pass,
    kernel_path,
)
from repro.gpu.trace import (
    DramTrace,
    SimResult,
    WorkloadCharacteristics,
    validate_zone_map,
)
from repro.memory.topology import SystemTopology

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

        miss_rate = max(trace.miss_rate(), 1e-12)
        compute_step = chars.compute_ns_per_access / miss_rate

        # busy is the transfer occupancy each channel actually served,
        # not its last-free timestamp, so dominant_bound() can trust it.
        last_completion, busy, zone_counts = event_pass(
            trace, zone_map, topology.write_cost_factors, zone_channels,
            burst_ns, latency_ns, compute_step, window,
            row_miss_ns=miss_extra_ns,
            banks_per_channel=self.banks_per_channel)

        total_compute = trace.n_raw_accesses * chars.compute_ns_per_access
        total_time = max(last_completion, total_compute)
        if total_time <= 0:
            raise SimulationError("banked engine produced zero runtime")

        bytes_by_zone = zone_counts * float(trace.bytes_per_access)
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
        _, row_hit = bank_row_hits(trace.page_indices, access_zones,
                                   zone_channels, zone_offset,
                                   self.banks_per_channel)
        totals = np.bincount(access_zones, minlength=n_zones)
        hits = np.bincount(access_zones, weights=row_hit,
                           minlength=n_zones)
        return tuple(
            float(h) / int(t) if t else 0.0
            for h, t in zip(hits, totals)
        )
