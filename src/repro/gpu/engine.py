"""Event-driven detailed performance engine.

Where :class:`repro.gpu.throughput.ThroughputEngine` applies the
Section 3.1 service model per epoch, this engine replays the DRAM access
stream request by request:

* a bounded window of outstanding requests (workload parallelism capped
  by the Table 1 MSHR file) — a request issues only when a window slot
  and an MSHR entry are free;
* per-channel FIFO service — each zone spreads requests across its
  channels round-robin, a channel transfers one line at a time at the
  channel's share of pool bandwidth;
* per-request latency — DRAM device latency plus the interconnect hop
  for remote zones, paid on top of queueing delay;
* a compute throttle — the SMs cannot feed misses faster than the
  kernel's compute intensity allows.

The replay itself runs through the batched array kernel in
:mod:`repro.gpu.service`: this module only precomputes the per-access
zone / channel / occupancy / latency arrays and reduces the result.
The original per-access heap loop survives in the test suite as
``reference_detailed_run`` (``tests/reference_loops.py``), which the
golden suite holds this engine to at 1e-9 relative.

The engine exists to validate the analytic model: the ablation bench
(`benchmarks/test_ablation_engines.py`) checks both engines rank
placement policies identically and agree on magnitudes.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import SimulationError
from repro.gpu.config import GpuConfig
from repro.obs import trace as obs_trace
from repro.gpu.service import (
    check_channel_count,
    kernel_path,
    rank_within_groups,
    simulate_windowed,
)
from repro.gpu.trace import (
    DramTrace,
    SimResult,
    WorkloadCharacteristics,
    validate_zone_map,
)
from repro.memory.topology import SystemTopology


class DetailedEngine:
    """Request-level event-driven simulation."""

    name = "detailed"

    def __init__(self, config: GpuConfig) -> None:
        self.config = config

    def run(self, trace: DramTrace, zone_map: np.ndarray,
            topology: SystemTopology,
            chars: WorkloadCharacteristics) -> SimResult:
        with obs_trace.span("engine.detailed", cat="gpu",
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
        window = int(min(
            chars.parallelism,
            self.config.total_mshrs(n_channels_total),
            self.config.max_warps_outstanding,
        ))
        window = max(window, 1)

        # Per-zone cost from the GPU's viewpoint via the distance
        # matrix; equals the per-zone scalars on legacy topologies.
        usable_bw = topology.gpu_usable_bandwidths()
        service_ns = np.array([
            trace.bytes_per_access
            / (usable_bw[zone.zone_id] / zone.channels) * 1e9
            for zone in topology
        ])
        latency_ns = np.array(
            topology.gpu_latencies_ns(self.config.clock_ghz)
        )

        access_zones, service_weights = trace.gather_zones(
            zone_map, topology.write_cost_factors)

        # Compute throttle: DRAM access i corresponds (on average) to raw
        # access i / miss_rate, each costing compute_ns_per_access.
        miss_rate = max(trace.miss_rate(), 1e-12)
        compute_step = chars.compute_ns_per_access / miss_rate

        # Requests spread over a zone's channels round-robin: the k-th
        # access to a zone lands on channel k mod that zone's count.
        zone_offset = np.concatenate(([0], np.cumsum(zone_channels)[:-1]))
        ranks = rank_within_groups(access_zones, n_zones)
        channel_ids = (zone_offset[access_zones]
                       + ranks % zone_channels[access_zones]
                       ).astype(np.int16)

        n = trace.n_accesses
        occupancy = service_ns[access_zones]
        occupancy *= service_weights
        latency = latency_ns[access_zones]
        ready_base = np.arange(n, dtype=np.float64) * compute_step
        last_completion = simulate_windowed(ready_base, occupancy,
                                            latency, channel_ids,
                                            n_channels_total, window)

        total_compute = trace.n_raw_accesses * chars.compute_ns_per_access
        total_time = max(last_completion, total_compute)
        if total_time <= 0:
            raise SimulationError("detailed engine produced zero runtime")

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
