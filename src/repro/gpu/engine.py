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

The per-access work — each access's zone, round-robin channel,
occupancy, latency and ready time, the batched windowed replay, and the
per-channel busy time and per-zone counts — is one call,
:func:`repro.gpu.service.event_pass`, which runs its compiled pass
(``_passes.c``) or the bit-identical numpy one; this module only builds
the per-zone tables and reduces the result.  The original per-access
heap loop survives in the test suite as ``reference_detailed_run``
(``tests/reference_loops.py``), which the golden suite holds this
engine to at 1e-9 relative.

The engine exists to validate the analytic model: the ablation bench
(`benchmarks/test_ablation_engines.py`) checks both engines rank
placement policies identically and agree on magnitudes.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import SimulationError
from repro.gpu.config import GpuConfig
from repro.obs import trace as obs_trace
from repro.gpu.service import check_channel_count, event_pass, kernel_path
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

        # Compute throttle: DRAM access i corresponds (on average) to raw
        # access i / miss_rate, each costing compute_ns_per_access.
        miss_rate = max(trace.miss_rate(), 1e-12)
        compute_step = chars.compute_ns_per_access / miss_rate

        # Requests spread over a zone's channels round-robin: the k-th
        # access to a zone lands on channel k mod that zone's count.
        # busy is the transfer occupancy each channel actually served,
        # not its last-free timestamp, so dominant_bound() can trust it.
        last_completion, busy, zone_counts = event_pass(
            trace, zone_map, topology.write_cost_factors, zone_channels,
            service_ns, latency_ns, compute_step, window)

        total_compute = trace.n_raw_accesses * chars.compute_ns_per_access
        total_time = max(last_completion, total_compute)
        if total_time <= 0:
            raise SimulationError("detailed engine produced zero runtime")

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
