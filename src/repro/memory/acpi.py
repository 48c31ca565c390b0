"""ACPI-style firmware tables: SRAT, SLIT and the proposed SBIT.

Linux learns NUMA topology from the ACPI System Resource Affinity Table
(SRAT) and relative memory latencies from the System Locality Information
Table (SLIT).  The paper's first contribution argues that bandwidth
information must be exposed the same way, proposing a *System Bandwidth
Information Table* (SBIT).  This module implements all three as plain
data objects, plus :func:`enumerate_tables` which plays the role of
firmware by deriving them from a :class:`SystemTopology`.

The OS/runtime layers (``repro.vm.mempolicy``,
``repro.runtime``) consume only these tables — never the topology
directly — mirroring the real software stack's information flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.core.errors import ConfigError
from repro.core.units import to_gbps
from repro.memory.topology import SystemTopology

#: SLIT normalizes local access distance to 10 (ACPI specification).
SLIT_LOCAL_DISTANCE = 10


@dataclass(frozen=True)
class SratEntry:
    """One SRAT affinity record: a memory range bound to a domain."""

    proximity_domain: int
    base_address: int
    length_bytes: int

    def __post_init__(self) -> None:
        if self.proximity_domain < 0:
            raise ConfigError("proximity_domain must be >= 0")
        if self.length_bytes <= 0:
            raise ConfigError("SRAT range must have positive length")


@dataclass(frozen=True)
class Srat:
    """System Resource Affinity Table: memory ranges per NUMA domain."""

    entries: tuple[SratEntry, ...]

    def domains(self) -> tuple[int, ...]:
        return tuple(sorted({e.proximity_domain for e in self.entries}))

    def domain_of_address(self, address: int) -> int:
        """Proximity domain owning physical ``address``."""
        for entry in self.entries:
            if entry.base_address <= address < entry.base_address + entry.length_bytes:
                return entry.proximity_domain
        raise ConfigError(f"address {address:#x} not covered by SRAT")


@dataclass(frozen=True)
class Slit:
    """System Locality Information Table: pairwise relative distances.

    ``distance[i][j]`` is the relative latency for domain *i* accessing
    domain *j*'s memory, normalized so local access is 10.
    """

    distances: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.distances)
        for row in self.distances:
            if len(row) != n:
                raise ConfigError("SLIT matrix must be square")
        for i in range(n):
            if self.distances[i][i] != SLIT_LOCAL_DISTANCE:
                raise ConfigError("SLIT diagonal must be the local distance 10")
            for j in range(n):
                if self.distances[i][j] < SLIT_LOCAL_DISTANCE:
                    raise ConfigError("SLIT distances cannot beat local")

    def distance(self, from_domain: int, to_domain: int) -> int:
        return self.distances[from_domain][to_domain]

    def nearest_domains(self, from_domain: int) -> tuple[int, ...]:
        """Domains sorted by distance from ``from_domain`` (self first)."""
        return self._nearest[from_domain]

    @cached_property
    def _nearest(self) -> tuple[tuple[int, ...], ...]:
        # Every zonelist of a placement asks for the same few rows.
        return tuple(
            tuple(sorted(range(len(row)), key=lambda j: (row[j], j)))
            for row in self.distances
        )


@dataclass(frozen=True)
class Sbit:
    """System Bandwidth Information Table — the paper's proposal.

    Per-domain aggregate bandwidth, the one piece of information current
    firmware does not expose and without which an OS cannot implement
    BW-AWARE placement.  Stored in GB/s like a firmware table would
    quote it.
    """

    bandwidth_gbps: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.bandwidth_gbps:
            raise ConfigError("SBIT must cover at least one domain")
        if any(bw <= 0 for bw in self.bandwidth_gbps):
            raise ConfigError("SBIT bandwidths must be positive")

    def fractions(self) -> tuple[float, ...]:
        """Optimal BW-AWARE placement fractions per domain (Section 3.1)."""
        total = sum(self.bandwidth_gbps)
        return tuple(bw / total for bw in self.bandwidth_gbps)

    def ratio_percent(self, domain: int) -> int:
        """The domain's share as an integer percentage (paper's xC-yB)."""
        return round(self.fractions()[domain] * 100)


@dataclass(frozen=True)
class FirmwareTables:
    """The bundle the OS boots with."""

    srat: Srat
    slit: Slit
    sbit: Sbit


#: topologies whose tables :func:`enumerate_tables` keeps (LRU).
TABLES_MEMO_SIZE = 256


def enumerate_tables(topology: SystemTopology,
                     clock_ghz: float = 1.4) -> FirmwareTables:
    """Derive SRAT/SLIT/SBIT from a hardware topology (firmware's job).

    SLIT distances are scaled from unloaded access latencies: the local
    zone gets 10 and remote zones get ``10 * latency_remote /
    latency_local`` rounded, exactly how BIOS vendors derive SLIT from
    measured latencies.  SBIT carries each zone's aggregate bandwidth.

    The tables are frozen and a function of ``(topology, clock_ghz)``
    alone, so equal topologies share one :class:`FirmwareTables`: the
    last :data:`TABLES_MEMO_SIZE` are kept.
    """
    return _enumerate_tables(topology, float(clock_ghz))


@lru_cache(maxsize=TABLES_MEMO_SIZE)
def _enumerate_tables(topology: SystemTopology,
                      clock_ghz: float) -> FirmwareTables:
    zones = topology.zones
    entries = []
    base = 0
    for zone in zones:
        entries.append(SratEntry(zone.zone_id, base, zone.capacity_bytes))
        base += zone.capacity_bytes
    srat = Srat(tuple(entries))

    n = len(zones)
    local = topology.gpu_local_zone
    distances = []
    if topology.distance is not None:
        # An explicit distance matrix IS the fabric description: seed
        # SLIT from pairwise access latencies (device latency of the
        # target plus the i→j hop), normalized to the local zone's own
        # access like BIOS vendors do.  May be directed — SLIT allows
        # asymmetric matrices and so do real fabrics.
        lat_local = topology.access_latency_ns(local, clock_ghz,
                                               from_zone=local)
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(SLIT_LOCAL_DISTANCE)
                else:
                    lat_ij = topology.access_latency_ns(
                        j, clock_ghz, from_zone=i)
                    ratio = lat_ij / lat_local
                    row.append(max(SLIT_LOCAL_DISTANCE + 1,
                                   round(SLIT_LOCAL_DISTANCE * ratio)))
            distances.append(tuple(row))
    else:
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(SLIT_LOCAL_DISTANCE)
                else:
                    # Distance between i and j approximated from each
                    # zone's GPU-relative latency; symmetric by
                    # construction.
                    lat_i = zones[i].latency_ns(clock_ghz)
                    lat_j = zones[j].latency_ns(clock_ghz)
                    lat_local = zones[local].latency_ns(clock_ghz)
                    ratio = max(lat_i, lat_j) / lat_local
                    row.append(max(SLIT_LOCAL_DISTANCE + 1,
                                   round(SLIT_LOCAL_DISTANCE * ratio)))
            distances.append(tuple(row))
    slit = Slit(tuple(distances))

    # SBIT reports the bandwidth *usable from the GPU*: the device pool
    # capped by its interconnect link — for matrix topologies, by the
    # GPU-local zone's pairwise path.  Reporting raw pool bandwidth for
    # a link-limited zone would make BW-AWARE oversubscribe the link.
    sbit = Sbit(tuple(
        to_gbps(topology.usable_bandwidth_from(zone.zone_id))
        for zone in zones
    ))
    return FirmwareTables(srat=srat, slit=slit, sbit=sbit)
