"""System memory topologies.

A :class:`SystemTopology` bundles the set of NUMA zones visible to the
GPU, identifies which zone is GPU-local, and knows the aggregate and
per-zone bandwidths the BW-AWARE policy needs.  Factory functions build
the three system classes of Figure 1 (HPC, desktop, mobile) plus the
Table 1 simulated baseline and a bandwidth-symmetric SMP reference.

Figure 1's point is the spread of BO:CO bandwidth ratios across likely
systems — from ~2x up to ~12x — and the factories below are pinned to the
ratios the paper quotes:

* desktop / simulated baseline: 200 GB/s GDDR5 vs 80 GB/s DDR4 (2.5x),
* mobile: WIO2 with LPDDR4 adding "31% additional bandwidth" (~3.2x),
* HPC: 4 HBM stacks with DDR expanders adding "just 8%" (~12.5x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence

from repro.core.errors import ConfigError
from repro.core.units import GIB, PAGE_SIZE, gbps
from repro.memory.distance import DistanceMatrix
from repro.memory.dram import DDR4, GDDR5, HBM1, LPDDR4, WIO2, DramTechnology
from repro.memory.zone import MemoryZone, ZoneKind


@dataclass(frozen=True)
class SystemTopology:
    """An immutable description of the zones reachable from the GPU."""

    name: str
    zones: tuple[MemoryZone, ...]
    #: zone_id of the GPU-local zone (target of the LOCAL policy).
    gpu_local_zone: int
    #: pairwise interconnect description.  ``None`` derives the matrix
    #: the per-zone ``hop_cycles``/``link_bandwidth`` scalars imply —
    #: the legacy two-pool model, bit-identical by construction.
    distance: Optional[DistanceMatrix] = None

    def __post_init__(self) -> None:
        if not self.zones:
            raise ConfigError("topology needs at least one zone")
        ids = [zone.zone_id for zone in self.zones]
        if sorted(ids) != list(range(len(ids))):
            raise ConfigError(f"zone ids must be 0..n-1, got {ids}")
        if self.gpu_local_zone not in ids:
            raise ConfigError(
                f"gpu_local_zone {self.gpu_local_zone} not in {ids}"
            )
        if self.distance is not None \
                and self.distance.n_zones != len(self.zones):
            raise ConfigError(
                f"distance matrix covers {self.distance.n_zones} zones, "
                f"topology {self.name} has {len(self.zones)}"
            )
        # Keep zones sorted by id so zone_id doubles as a tuple index.
        object.__setattr__(
            self, "zones", tuple(sorted(self.zones, key=lambda z: z.zone_id))
        )

    def __iter__(self) -> Iterator[MemoryZone]:
        return iter(self.zones)

    def __len__(self) -> int:
        return len(self.zones)

    def zone(self, zone_id: int) -> MemoryZone:
        """The zone with id ``zone_id``."""
        # Reject negative ids explicitly: Python's negative indexing
        # would silently hand back the *last* zone for -1.
        try:
            index = int(zone_id)
        except (TypeError, ValueError):
            raise ConfigError(f"no zone {zone_id!r} in topology {self.name}")
        if index < 0 or index >= len(self.zones):
            raise ConfigError(f"no zone {zone_id} in topology {self.name}")
        return self.zones[index]

    @property
    def local(self) -> MemoryZone:
        """The GPU-local zone."""
        return self.zones[self.gpu_local_zone]

    @property
    def total_bandwidth(self) -> float:
        """Aggregate bandwidth across all zones, bytes/second."""
        return sum(zone.bandwidth for zone in self.zones)

    @property
    def total_capacity_bytes(self) -> int:
        return sum(zone.capacity_bytes for zone in self.zones)

    def bandwidth_fractions(self) -> tuple[float, ...]:
        """Per-zone share of aggregate bandwidth, indexed by zone_id.

        This is the optimal placement vector derived in Section 3.1:
        ``f_B = b_B / (b_B + b_C)`` generalized to any zone count.
        """
        total = self.total_bandwidth
        if not total > 0:
            # Name the topology instead of letting the division raise a
            # bare ZeroDivisionError with no context.
            raise ConfigError(
                f"topology {self.name} has zero total bandwidth; "
                "cannot derive placement fractions"
            )
        return tuple(zone.bandwidth / total for zone in self.zones)

    def bo_zones(self) -> tuple[MemoryZone, ...]:
        """Bandwidth-optimized zones, highest bandwidth first."""
        picked = [z for z in self.zones if z.kind is ZoneKind.BANDWIDTH_OPTIMIZED]
        return tuple(sorted(picked, key=lambda z: -z.bandwidth))

    def co_zones(self) -> tuple[MemoryZone, ...]:
        """Capacity-optimized zones, highest bandwidth first."""
        picked = [z for z in self.zones if z.kind is ZoneKind.CAPACITY_OPTIMIZED]
        return tuple(sorted(picked, key=lambda z: -z.bandwidth))

    def bw_ratio(self) -> float:
        """BO:CO aggregate bandwidth ratio (the y-axis of Figure 1)."""
        bo = sum(z.bandwidth for z in self.bo_zones())
        co = sum(z.bandwidth for z in self.co_zones())
        if co == 0:
            raise ConfigError(f"topology {self.name} has no CO bandwidth")
        return bo / co

    @cached_property
    def write_cost_factors(self) -> tuple[float, ...]:
        """Per-zone write occupancy factor of the zone's technology,
        by zone_id (the engines' write weights)."""
        return tuple(zone.technology.write_cost_factor
                     for zone in self.zones)

    def replace_zone(self, zone: MemoryZone) -> "SystemTopology":
        """A topology with the same shape but ``zone`` swapped in by id.

        Raises :class:`ConfigError` when ``zone.zone_id`` matches no
        existing zone — silently returning the unchanged topology made
        capacity-constraint misconfigurations invisible.
        """
        if all(z.zone_id != zone.zone_id for z in self.zones):
            raise ConfigError(
                f"replace_zone: no zone {zone.zone_id} in topology "
                f"{self.name} (ids: {[z.zone_id for z in self.zones]})"
            )
        zones = tuple(
            zone if z.zone_id == zone.zone_id else z for z in self.zones
        )
        return SystemTopology(self.name, zones, self.gpu_local_zone,
                              distance=self.distance)

    def with_bo_capacity(self, capacity_bytes: int) -> "SystemTopology":
        """Shrink/grow the GPU-local BO zone to ``capacity_bytes``.

        Convenience for the capacity-constraint experiments.
        """
        return self.replace_zone(self.local.resized(capacity_bytes))

    # ------------------------------------------------------------------
    # per-pair distances (N-pool generalization)
    # ------------------------------------------------------------------

    @cached_property
    def distances(self) -> DistanceMatrix:
        """The effective inter-zone distance matrix.

        Explicit when the topology carries one (chiplet systems);
        otherwise derived from the per-zone ``hop_cycles`` /
        ``link_bandwidth`` scalars — every observer pays the
        destination zone's cost, exactly the legacy model.  Built once
        per topology: the object is frozen, and every engine call asks
        for it per zone.  It is not a field, so equality, hashing and
        the cache key's description ignore it.
        """
        if self.distance is not None:
            return self.distance
        return DistanceMatrix.from_zones(self.zones)

    def access_latency_ns(self, zone_id: int, clock_ghz: float,
                          from_zone: Optional[int] = None) -> float:
        """Unloaded latency of ``from_zone`` reaching ``zone_id``, ns.

        Device latency of the target pool plus the pairwise
        interconnect hop converted from core cycles.  ``from_zone``
        defaults to the GPU-local zone — the observer every engine
        simulates from.
        """
        if clock_ghz <= 0:
            raise ConfigError("clock_ghz must be positive")
        if from_zone is None:
            from_zone = self.gpu_local_zone
        target = self.zone(zone_id)
        hops = self.distances.hops(from_zone, zone_id)
        return target.device_latency_ns + hops / clock_ghz

    def gpu_latencies_ns(self, clock_ghz: float) -> tuple[float, ...]:
        """Per-zone unloaded access latency from the GPU, by zone_id.

        Built once per topology and clock (every engine call asks).
        """
        latencies = self._gpu_latency_memo.get(clock_ghz)
        if latencies is None:
            latencies = tuple(
                self.access_latency_ns(zone.zone_id, clock_ghz)
                for zone in self.zones
            )
            self._gpu_latency_memo[clock_ghz] = latencies
        return latencies

    @cached_property
    def _gpu_latency_memo(self) -> dict[float, tuple[float, ...]]:
        return {}

    def usable_bandwidth_from(self, zone_id: int,
                              from_zone: Optional[int] = None) -> float:
        """Bandwidth of ``zone_id`` as seen from ``from_zone``, bytes/s.

        The device pool capped by the zone's own link *and* the
        pairwise path of the distance matrix; for derived matrices the
        two caps coincide and this equals ``zone.usable_bandwidth``.
        """
        if from_zone is None:
            from_zone = self.gpu_local_zone
        target = self.zone(zone_id)
        pair_link = self.distances.link_bandwidth(from_zone, zone_id)
        return min(target.bandwidth, target.link_bandwidth, pair_link)

    def gpu_usable_bandwidths(self) -> tuple[float, ...]:
        """Per-zone usable bandwidth from the GPU, by zone_id (built once
        per topology, like :attr:`distances`)."""
        return self._gpu_usable_bandwidths

    @cached_property
    def _gpu_usable_bandwidths(self) -> tuple[float, ...]:
        return tuple(
            self.usable_bandwidth_from(zone.zone_id)
            for zone in self.zones
        )


def _zone(zone_id: int, name: str, kind: ZoneKind, tech: DramTechnology,
          capacity_gib: float, bandwidth_gbps: float,
          device_latency_ns: float, hop_cycles: int,
          channels: int = 0) -> MemoryZone:
    capacity_bytes = int(capacity_gib * GIB)
    capacity_bytes -= capacity_bytes % PAGE_SIZE  # keep page aligned
    if channels <= 0:
        channels = max(1, round(gbps(bandwidth_gbps) / tech.channel_bandwidth))
    return MemoryZone(
        zone_id=zone_id,
        name=name,
        kind=kind,
        technology=tech,
        capacity_bytes=capacity_bytes,
        bandwidth=gbps(bandwidth_gbps),
        channels=channels,
        device_latency_ns=device_latency_ns,
        hop_cycles=hop_cycles,
    )


def simulated_baseline(bo_capacity_gib: float = 6.0,
                       co_capacity_gib: float = 32.0) -> SystemTopology:
    """The Table 1 system: 200 GB/s GDDR5 local + 80 GB/s DDR4 remote.

    The remote pool pays the fixed, pessimistic 100 GPU-core-cycle
    interconnect hop from Table 1.  Capacities are parameters because the
    paper's capacity-constraint studies resize the BO pool relative to
    each workload's footprint.
    """
    return SystemTopology(
        name="simulated-baseline",
        zones=(
            _zone(0, "GPU-GDDR5", ZoneKind.BANDWIDTH_OPTIMIZED, GDDR5,
                  bo_capacity_gib, 200.0, device_latency_ns=36.0,
                  hop_cycles=0, channels=8),
            _zone(1, "CPU-DDR4", ZoneKind.CAPACITY_OPTIMIZED, DDR4,
                  co_capacity_gib, 80.0, device_latency_ns=36.0,
                  hop_cycles=100, channels=4),
        ),
        gpu_local_zone=0,
    )


def desktop_topology() -> SystemTopology:
    """Figure 1 'desktop': discrete GPU with GDDR5 + CPU DDR4 (2.5x)."""
    return simulated_baseline()


def hpc_topology() -> SystemTopology:
    """Figure 1 'HPC': 4 on-package HBM stacks + DDR4 capacity expanders.

    The paper quotes the expanders as adding "just 8% additional memory
    bandwidth" over the 4-stack HBM pool, i.e. a ~12.5x BO:CO ratio.
    """
    return SystemTopology(
        name="hpc",
        zones=(
            _zone(0, "GPU-HBM", ZoneKind.BANDWIDTH_OPTIMIZED, HBM1,
                  16.0, 512.0, device_latency_ns=40.0, hop_cycles=0),
            _zone(1, "CPU-DDR4", ZoneKind.CAPACITY_OPTIMIZED, DDR4,
                  256.0, 41.0, device_latency_ns=36.0, hop_cycles=100),
        ),
        gpu_local_zone=0,
    )


def mobile_topology() -> SystemTopology:
    """Figure 1 'mobile': on-package WIO2 + LPDDR4.

    The paper quotes LPDDR4 as adding "an additional 31% in memory
    bandwidth to the GPU versus using the bandwidth-optimized memory
    alone" (~3.2x ratio).
    """
    return SystemTopology(
        name="mobile",
        zones=(
            _zone(0, "SoC-WIO2", ZoneKind.BANDWIDTH_OPTIMIZED, WIO2,
                  2.0, 68.0, device_latency_ns=45.0, hop_cycles=0),
            _zone(1, "SoC-LPDDR4", ZoneKind.CAPACITY_OPTIMIZED, LPDDR4,
                  8.0, 21.0, device_latency_ns=45.0, hop_cycles=60),
        ),
        gpu_local_zone=0,
    )


def symmetric_topology(bandwidth_gbps: float = 80.0,
                       capacity_gib: float = 16.0) -> SystemTopology:
    """A bandwidth-symmetric two-socket SMP reference system.

    On this topology BW-AWARE degenerates to 50C-50B and must behave
    identically to Linux INTERLEAVE — the property that lets the paper
    argue BW-AWARE could simply replace INTERLEAVE.
    """
    return SystemTopology(
        name="symmetric-smp",
        zones=(
            _zone(0, "socket0-DDR4", ZoneKind.SYMMETRIC, DDR4,
                  capacity_gib, bandwidth_gbps, device_latency_ns=36.0,
                  hop_cycles=0),
            _zone(1, "socket1-DDR4", ZoneKind.SYMMETRIC, DDR4,
                  capacity_gib, bandwidth_gbps, device_latency_ns=36.0,
                  hop_cycles=100),
        ),
        gpu_local_zone=0,
    )


def three_pool_topology() -> SystemTopology:
    """A three-technology system: HBM + GDDR5 + CPU DDR4.

    Section 3.1 notes BW-AWARE "will generalize to an optimal policy
    where there are more than two technologies by placing pages in the
    bandwidth ratio of all memory pools"; this future-leaning topology
    (on-package stack, board GDDR, remote DDR behind the interconnect)
    exercises that generalization in the extension experiments.
    """
    return SystemTopology(
        name="three-pool",
        zones=(
            _zone(0, "GPU-HBM", ZoneKind.BANDWIDTH_OPTIMIZED, HBM1,
                  4.0, 256.0, device_latency_ns=40.0, hop_cycles=0),
            _zone(1, "GPU-GDDR5", ZoneKind.BANDWIDTH_OPTIMIZED, GDDR5,
                  8.0, 160.0, device_latency_ns=36.0, hop_cycles=20),
            _zone(2, "CPU-DDR4", ZoneKind.CAPACITY_OPTIMIZED, DDR4,
                  64.0, 80.0, device_latency_ns=36.0, hop_cycles=100),
        ),
        gpu_local_zone=0,
    )


def chiplet_topology(n_chiplets: int = 2,
                     hbm_gbps: float = 160.0,
                     hbm_capacity_gib: float = 4.0,
                     ddr_gbps: float = 80.0,
                     ddr_capacity_gib: float = 64.0,
                     xlink_cycles: int = 60,
                     xlink_gbps: float = 128.0,
                     ddr_hop_cycles: int = 100) -> SystemTopology:
    """An N-chiplet GPU: per-chiplet HBM + far CPU DDR, explicit matrix.

    Zones ``0..n_chiplets-1`` are the chiplets' local HBM stacks; zone
    ``n_chiplets`` is the CPU's DDR4 pool.  The GPU-local zone is
    chiplet 0's stack (the chiplet the simulated SMs sit on).  The
    distance matrix is where this topology differs from everything the
    scalar model could express:

    * chiplet *i* reaches its own stack at 0 extra cycles,
    * a *remote* chiplet's stack costs ``xlink_cycles`` and is capped
      by the ``xlink_gbps`` cross-chiplet link,
    * the DDR pool costs ``ddr_hop_cycles`` from every chiplet (the
      package interconnect), uncapped like the paper's coherent fabric.

    This is the local-HBM-plus-remote-chiplet shape of the chiplet-GEMM
    paper in PAPERS.md, with Table 1-class constants.
    """
    if n_chiplets < 1:
        raise ConfigError("chiplet_topology needs n_chiplets >= 1")
    if xlink_cycles < 0 or ddr_hop_cycles < 0:
        raise ConfigError("hop cycle counts must be >= 0")
    zones = [
        _zone(i, f"chiplet{i}-HBM", ZoneKind.BANDWIDTH_OPTIMIZED, HBM1,
              hbm_capacity_gib, hbm_gbps, device_latency_ns=40.0,
              hop_cycles=0 if i == 0 else xlink_cycles)
        for i in range(n_chiplets)
    ]
    ddr_id = n_chiplets
    zones.append(
        _zone(ddr_id, "CPU-DDR4", ZoneKind.CAPACITY_OPTIMIZED, DDR4,
              ddr_capacity_gib, ddr_gbps, device_latency_ns=36.0,
              hop_cycles=ddr_hop_cycles)
    )
    n = n_chiplets + 1

    def hop(i: int, j: int) -> float:
        if i == j:
            return 0.0
        if ddr_id in (i, j):
            return float(ddr_hop_cycles)
        return float(xlink_cycles)

    def link(i: int, j: int) -> float:
        if i == j or ddr_id in (i, j):
            return math.inf
        return float(xlink_gbps)

    distance = DistanceMatrix(
        hop_cycles=tuple(
            tuple(hop(i, j) for j in range(n)) for i in range(n)
        ),
        link_gbps=tuple(
            tuple(link(i, j) for j in range(n)) for i in range(n)
        ),
    )
    return SystemTopology(
        name=f"chiplet-{n_chiplets}",
        zones=tuple(zones),
        gpu_local_zone=0,
        distance=distance,
    )


def link_limited_baseline(link_gbps: float) -> SystemTopology:
    """The Table 1 system with the CPU pool behind a finite link.

    The paper assumes a cache-coherent fabric whose bandwidth never
    binds (remote traffic is limited by the 80 GB/s DDR4 pool).  This
    factory models PCIe-/NVLink-class links instead, for the extension
    study of when the interconnect, not the DRAM, caps BW-AWARE's gain.
    """
    base = simulated_baseline()
    return base.replace_zone(
        base.zone(1).with_link_bandwidth(gbps(link_gbps))
    )


def figure1_systems() -> tuple[SystemTopology, ...]:
    """The system classes plotted in Figure 1, for the Fig. 1 regenerator."""
    return (hpc_topology(), desktop_topology(), mobile_topology())


#: the topologies addressable by short name from the CLI and the serve
#: daemon's JSON requests.  Keys are the user-facing spellings; the
#: factories' own ``.name`` fields stay untouched.
NAMED_TOPOLOGIES = {
    "baseline": simulated_baseline,
    "hpc": hpc_topology,
    "mobile": mobile_topology,
    "symmetric": symmetric_topology,
    "three-pool": three_pool_topology,
    "chiplet-2": lambda: chiplet_topology(2),
    "chiplet-4": lambda: chiplet_topology(4),
}


def topology_names() -> tuple[str, ...]:
    """Sorted short names accepted by :func:`topology_by_name`."""
    return tuple(sorted(NAMED_TOPOLOGIES))


def topology_by_name(name: str) -> SystemTopology:
    """Build a registered topology from its short name.

    Raises :class:`~repro.core.errors.ConfigError` for unknown names so
    both the CLI and the daemon report the same catalogue.
    """
    try:
        factory = NAMED_TOPOLOGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown topology {name!r}; known: {sorted(NAMED_TOPOLOGIES)}"
        )
    return factory()
