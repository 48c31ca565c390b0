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

The per-access work — each access's zone and write weight, summed into
(epoch, zone) counts and occupancy — is one call,
:func:`repro.gpu.service.throughput_pass`, which runs its compiled pass
(``_passes.c``) or the bit-identical numpy one (a zone gather, a
write-weight gather and two ``np.bincount`` calls); everything after it
works on the ``E x Z`` bins.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import SimulationError
from repro.gpu.config import GpuConfig
from repro.obs import trace as obs_trace
from repro.gpu.service import kernel_path, throughput_pass
from repro.gpu.trace import (
    DramTrace,
    SimResult,
    WorkloadCharacteristics,
    validate_zone_map,
)
from repro.memory.topology import SystemTopology


class ThroughputEngine:
    """Vectorized epoch-level performance model."""

    name = "throughput"

    def __init__(self, config: GpuConfig) -> None:
        self.config = config

    def run(self, trace: DramTrace, zone_map: np.ndarray,
            topology: SystemTopology,
            chars: WorkloadCharacteristics) -> SimResult:
        """Simulate one execution; see module docstring for the model."""
        with obs_trace.span("engine.throughput", cat="gpu",
                            accesses=trace.n_accesses,
                            epochs=trace.n_epochs) as span:
            span.annotate(kernel=kernel_path())
            return self._simulate(trace, zone_map, topology, chars)

    def _simulate(self, trace: DramTrace, zone_map: np.ndarray,
                  topology: SystemTopology,
                  chars: WorkloadCharacteristics) -> SimResult:
        zone_map = validate_zone_map(zone_map, trace.footprint_pages,
                                     len(topology))
        n_accesses = trace.n_accesses
        if n_accesses == 0:
            raise SimulationError("empty trace")

        # counts[e, z]: DRAM accesses in epoch e served by zone z;
        # occupancy[e, z]: the same, with writes weighted by the zone
        # technology's write cost (turnaround + recovery overhead).
        # Epoch e starts at access ceil(e * n / E).
        counts, occupancy = throughput_pass(trace, zone_map,
                                            topology.write_cost_factors)
        n_epochs = trace.n_epochs

        # Per-zone cost as seen from the GPU: pairwise distance-matrix
        # latency/bandwidth (equal to the per-zone scalars on legacy
        # topologies, per-pair on chiplet systems).
        bandwidths = np.array(topology.gpu_usable_bandwidths())
        latencies = np.array(topology.gpu_latencies_ns(self.config.clock_ghz))
        line = float(trace.bytes_per_access)

        # Bandwidth bound per epoch: parallel pool service (Section 3.1).
        epoch_bytes = counts * line
        t_bandwidth = (occupancy * line / bandwidths).max(axis=1) * 1e9

        # Latency bound per epoch: Little's law at effective parallelism.
        epoch_accesses = counts.sum(axis=1)
        parallelism = self.config.effective_parallelism(
            chars.parallelism, sum(zone.channels for zone in topology))
        # A zero-access epoch has a zero row: it divides by 1 to 0.0.
        fractions = counts / np.maximum(epoch_accesses, 1.0)[:, None]
        avg_latency = (fractions * latencies).sum(axis=1)
        t_latency = epoch_accesses * avg_latency / parallelism

        # Compute bound per epoch: raw work spread evenly across epochs.
        raw_per_epoch = trace.n_raw_accesses / n_epochs
        t_compute = np.full(n_epochs,
                            raw_per_epoch * chars.compute_ns_per_access)

        epoch_time = np.maximum(np.maximum(t_bandwidth, t_latency),
                                t_compute)
        total_time = float(epoch_time.sum())
        if total_time <= 0:
            raise SimulationError("model produced non-positive runtime")

        return SimResult(
            engine=self.name,
            total_time_ns=total_time,
            dram_accesses=n_accesses,
            bytes_by_zone=epoch_bytes.sum(axis=0),
            time_bandwidth_ns=float(t_bandwidth.sum()),
            time_latency_ns=float(t_latency.sum()),
            time_compute_ns=float(t_compute.sum()),
        )
