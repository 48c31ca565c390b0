"""Epoch-based analytic performance engine.

This is the primary engine behind the paper-figure sweeps.  It applies
the Section 3.1 service model per execution epoch and in vectorized
form, so a full 19-workload x 11-ratio sweep runs in milliseconds:

* **bandwidth bound** — pools serve their epoch traffic in parallel, so
  the epoch needs ``max_z(bytes_z / bw_z)`` seconds of DRAM time.  This
  is exactly the paper's ``T = max(N*f_B/b_B, N*(1-f_B)/b_C)``.
* **latency bound** — by Little's law a workload sustaining ``P``
  outstanding requests cannot exceed ``P / avg_latency`` requests per
  second; the epoch needs at least ``accesses * avg_latency / P``.
  ``P`` is clipped by the chip's MSHR capacity (Table 1) and warp
  budget.  This term is what makes sgemm latency sensitive while the
  highly threaded workloads shrug off the 100-cycle hop (Figure 2b).
* **compute bound** — ``raw_accesses * compute_ns_per_access``; kernels
  like comd sit on this bound and show no memory sensitivity.

Epoch time is the max of the three bounds; total time sums epochs, so
phase behaviour (a latency-bound epoch followed by a bandwidth-bound
one) is preserved rather than averaged away.

The whole call — each access's zone and write weight, summed into
(epoch, zone) counts and occupancy, then the bound tail above over the
``E x Z`` bins — is one call of
:func:`repro.gpu.service.bind_throughput_pass`'s binding, which runs
its compiled pass (``_passes.c``, the tail in numpy's summation order)
or the bit-identical numpy one (a zone gather, a write-weight gather,
two ``np.bincount`` calls and the tail's reductions).
:meth:`ThroughputEngine.bind` binds the per-zone tables and the kernel
once, so an epoch replay pays them once, not once per epoch;
:meth:`ThroughputEngine.run` is that binding plus one call.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import SimulationError
from repro.gpu.config import GpuConfig
from repro.obs import trace as obs_trace
from repro.gpu.service import bind_throughput_pass, check_bound_trace
from repro.gpu.trace import (
    BindingEngine,
    DramTrace,
    SimResult,
    WorkloadCharacteristics,
)
from repro.memory.topology import SystemTopology


class ThroughputEngine(BindingEngine):
    """Vectorized epoch-level performance model; see the module
    docstring for the model."""

    name = "throughput"

    def __init__(self, config: GpuConfig) -> None:
        self.config = config

    @staticmethod
    def _span(trace: DramTrace):
        return obs_trace.span("engine.throughput", cat="gpu",
                              accesses=trace.n_accesses,
                              epochs=trace.n_epochs)

    def _compute(self, topology: SystemTopology,
                 chars: WorkloadCharacteristics, bytes_per_access: int):
        # Per-zone cost as seen from the GPU: pairwise distance-matrix
        # latency/bandwidth (equal to the per-zone scalars on legacy
        # topologies, per-pair on chiplet systems).
        bandwidths = np.array(topology.gpu_usable_bandwidths())
        latencies = np.array(topology.gpu_latencies_ns(self.config.clock_ghz))
        parallelism = self.config.effective_parallelism(
            chars.parallelism, sum(zone.channels for zone in topology))
        # counts[e, z]: DRAM accesses in epoch e served by zone z;
        # occupancy[e, z]: the same, with writes weighted by the zone
        # technology's write cost (turnaround + recovery overhead).
        # Epoch e starts at access ceil(e * n / E).  The bound tail
        # reduces them to the epoch bounds and their sums.
        epoch_pass = bind_throughput_pass(
            topology.write_cost_factors, bandwidths, latencies,
            float(bytes_per_access), parallelism)
        compute_ns = chars.compute_ns_per_access
        n_zones = len(topology)
        name = self.name

        def compute(trace: DramTrace, zone_map: np.ndarray) -> SimResult:
            check_bound_trace(trace, zone_map, n_zones, bytes_per_access)
            # Compute bound per epoch: raw work spread evenly.
            epoch_compute = (trace.n_raw_accesses / trace.n_epochs
                             * compute_ns)
            bytes_by_zone, (t_bandwidth, t_latency, t_compute,
                            total_time) = epoch_pass(trace, zone_map,
                                                     epoch_compute)
            if total_time <= 0:
                raise SimulationError("model produced non-positive runtime")
            return SimResult(
                engine=name,
                total_time_ns=total_time,
                dram_accesses=trace.n_accesses,
                bytes_by_zone=bytes_by_zone,
                time_bandwidth_ns=t_bandwidth,
                time_latency_ns=t_latency,
                time_compute_ns=t_compute,
            )

        compute.kernel = epoch_pass.kernel
        return compute
