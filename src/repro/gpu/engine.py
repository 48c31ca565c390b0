"""Event-driven engines: detailed (channel FIFOs) and banked (row buffers).

Where :class:`repro.gpu.throughput.ThroughputEngine` applies the
Section 3.1 service model per epoch, these engines replay the DRAM
access stream request by request:

* a bounded window of outstanding requests (workload parallelism capped
  by the Table 1 MSHR file) — a request issues only when a window slot
  and an MSHR entry are free;
* per-channel FIFO service — a channel transfers one line at a time at
  the channel's share of pool bandwidth;
* per-request latency — DRAM device latency plus the interconnect hop
  for remote zones, paid on top of queueing delay;
* a compute throttle — the SMs cannot feed misses faster than the
  kernel's compute intensity allows.

The two engines differ only in how a request finds its channel and what
a transfer costs:

* :class:`DetailedEngine` spreads each zone's requests over its
  channels round-robin and charges every transfer at peak bandwidth;
* :class:`BankedEngine` interleaves lines across channels and keeps the
  open row of each of a channel's :data:`BANKS_PER_CHANNEL` banks.  A
  row miss adds the zone's precharge + activate cost from its Table 1
  timings (tRP + tRCD on top of tCL), divided by the
  :data:`BANK_OVERLAP` activates the controller hides behind other
  banks' transfers.  Sequential streams hit the open row and approach
  peak bandwidth; random streams thrash rows and lose bandwidth, the
  effective-bandwidth gap GPGPU-Sim models.

The per-access work — each access's zone, channel, row-buffer outcome,
occupancy, latency and ready time, the batched windowed replay, and the
per-channel busy time and per-zone counts — is one call of
:func:`repro.gpu.service.bind_event_pass`'s binding, which runs its
compiled pass (``_passes.c``) or the bit-identical numpy one; this
module only builds the per-zone tables, once per binding
(:meth:`~repro.gpu.trace.BindingEngine.bind`; ``run`` is a binding
plus one call), and reduces each call's result.  The
original per-access heap loops survive in the test suite as
``reference_detailed_run`` and
``reference_banked_run`` (``tests/reference_loops.py``), which the
golden suite holds these engines to at 1e-9 relative.

The engines exist to validate the analytic model: the ablation benches
(``benchmarks/test_ablation_engines.py``,
``benchmarks/test_ablation_banked.py``) check that the engines rank
placement policies identically, agree on magnitudes, and that the
Section 3 policy ordering survives row-buffer effects.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import SimulationError
from repro.gpu.config import GpuConfig
from repro.obs import trace as obs_trace
from repro.gpu.service import bind_event_pass, check_bound_trace
from repro.gpu.trace import (
    BindingEngine,
    DramTrace,
    SimResult,
    WorkloadCharacteristics,
)
from repro.memory.topology import SystemTopology

#: banks per channel of the banked engine's open-row table.
BANKS_PER_CHANNEL = 16

#: average activates the banked engine's controller overlaps behind
#: other banks' transfers; divides the visible row-miss penalty on the
#: data bus.
BANK_OVERLAP = 4


class _EventEngine(BindingEngine):
    """Request-level event-driven simulation over one event pass."""

    name: str
    #: banks per channel; 0 means round-robin channels and no row model.
    banks_per_channel: int

    def __init__(self, config: GpuConfig) -> None:
        self.config = config

    def _span(self, trace: DramTrace):
        return obs_trace.span(f"engine.{self.name}", cat="gpu",
                              accesses=trace.n_accesses)

    def _compute(self, topology: SystemTopology,
                 chars: WorkloadCharacteristics, bytes_per_access: int):
        n_zones = len(topology)
        zone_channels = np.array([zone.channels for zone in topology],
                                 dtype=np.int64)
        window = max(1, int(self.config.effective_parallelism(
            chars.parallelism, int(zone_channels.sum()))))

        # Data-transfer occupancy of one line at channel peak rate,
        # using the GPU-viewpoint bandwidth from the distance matrix
        # (equal to the per-zone scalars on legacy topologies).
        usable_bw = topology.gpu_usable_bandwidths()
        service_ns = np.array([
            bytes_per_access
            / (usable_bw[zone.zone_id] / zone.channels) * 1e9
            for zone in topology
        ])
        latency_ns = np.array(
            topology.gpu_latencies_ns(self.config.clock_ghz)
        )
        row_miss_ns = None
        if self.banks_per_channel:
            # Row-miss command overhead from the zone's DRAM timings,
            # divided by the cross-bank overlap the controller extracts.
            row_miss_ns = np.array([
                (zone.technology.timings.row_miss_cycles()
                 - zone.technology.timings.row_hit_cycles())
                * zone.technology.timings.cycle_ns / BANK_OVERLAP
                for zone in topology
            ])
        # busy is the transfer occupancy each channel actually served,
        # not its last-free timestamp, so dominant_bound() can trust it.
        event_pass = bind_event_pass(
            topology.write_cost_factors, zone_channels, service_ns,
            latency_ns, window, row_miss_ns=row_miss_ns,
            banks_per_channel=self.banks_per_channel)
        time_latency = float(latency_ns.sum() / n_zones)
        compute_ns = chars.compute_ns_per_access
        line = float(bytes_per_access)
        name = self.name

        def compute(trace: DramTrace, zone_map: np.ndarray) -> SimResult:
            check_bound_trace(trace, zone_map, n_zones, bytes_per_access)
            # Compute throttle: DRAM access i corresponds (on average)
            # to raw access i / miss_rate, each costing
            # compute_ns_per_access.
            miss_rate = max(trace.miss_rate(), 1e-12)
            last_completion, busy, zone_counts = event_pass(
                trace, zone_map, compute_ns / miss_rate)

            total_compute = trace.n_raw_accesses * compute_ns
            total_time = max(last_completion, total_compute)
            if total_time <= 0:
                raise SimulationError(f"{name} engine produced zero runtime")
            return SimResult(
                engine=name,
                total_time_ns=total_time,
                dram_accesses=trace.n_accesses,
                bytes_by_zone=zone_counts * line,
                time_bandwidth_ns=float(busy.max()),
                time_latency_ns=time_latency,
                time_compute_ns=total_compute,
            )

        compute.kernel = event_pass.kernel
        return compute


class DetailedEngine(_EventEngine):
    """Event-driven engine with round-robin channel FIFOs."""

    name = "detailed"
    banks_per_channel = 0


class BankedEngine(_EventEngine):
    """Event-driven engine with per-bank row-buffer timing."""

    name = "banked"
    banks_per_channel = BANKS_PER_CHANNEL
