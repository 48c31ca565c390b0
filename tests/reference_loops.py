"""Reference (per-access loop) implementations of the hot paths.

These are the original pure-Python simulation loops that
:mod:`repro.gpu.cache`, :mod:`repro.gpu.engine` and
:mod:`repro.gpu.banked` replaced with kernels, plus the first
vectorized form of :mod:`repro.gpu.throughput`
(:func:`reference_throughput_run`), which
``tests/test_throughput_oracle.py`` holds the engine to with ``==``
on every field, and the migration planner's page-at-a-time budget trim
(:func:`reference_trim_to_budget`, held ``==`` to its closed form by
``tests/test_migration.py``).  They are kept here, in the test suite, as the
behavioural oracle: the golden equality suite
(``tests/test_golden_vectorized.py``) and the kernel differential tests
(``tests/test_lru_native.py``) check the native and numpy cache filters
are *bit-identical* to :class:`ReferenceCacheHierarchy`, and the
vectorized engines reproduce the reference
:class:`~repro.gpu.trace.SimResult` fields to 1e-9 relative, on local,
interleaved, random and BW-AWARE placements.  They are not timed: the
kernels' absolute cost per access is read from the per-layer ledger of
``benchmarks/e2e`` (``--trace 1``).

The only intentional divergence from the seed code is the
``time_bandwidth_ns`` accounting fix (see the engine modules): both the
reference and the vectorized engines accumulate per-channel *busy time*
(sum of transfer occupancies) instead of summing per-channel last-free
timestamps, so ``SimResult.dominant_bound()`` is trustworthy.  Every
other quantity follows the seed loops operation for operation.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

import numpy as np

from repro.core.errors import SimulationError
from repro.gpu.cache import CacheStats
from repro.gpu.config import GpuConfig
from repro.gpu.trace import (
    DramTrace,
    SimResult,
    WorkloadCharacteristics,
    validate_zone_map,
)
from repro.memory.topology import SystemTopology


class ReferenceSetAssocCache:
    """Verbatim port of the seed ``SetAssocCache`` per-access loop.

    One set-associative LRU cache over line addresses, kept operation
    for operation (OrderedDict membership + ``move_to_end`` +
    ``popitem``, per-access :class:`CacheStats` increments through
    ``self.stats``).  Misses allocate; there is no write-back.
    """

    def __init__(self, size_bytes: int, line_size: int, assoc: int) -> None:
        n_lines = size_bytes // line_size
        self.assoc = assoc
        self.n_sets = n_lines // assoc
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.stats = CacheStats()

    def access(self, line_addr: int) -> bool:
        """Access one line; returns True on hit."""
        index = line_addr % self.n_sets
        cache_set = self._sets[index]
        self.stats.accesses += 1
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            self.stats.hits += 1
            return True
        if len(cache_set) >= self.assoc:
            cache_set.popitem(last=False)
        cache_set[line_addr] = None
        return False


class ReferenceCacheHierarchy:
    """Per-access OrderedDict replay of the Table 1 cache hierarchy."""

    def __init__(self, config: GpuConfig, n_channels: int) -> None:
        self.config = config
        self.n_channels = n_channels
        self._l1s = [
            ReferenceSetAssocCache(config.l1_bytes_per_sm,
                                   config.line_size, config.l1_assoc)
            for _ in range(config.n_sms)
        ]
        self._l2s = [
            ReferenceSetAssocCache(config.l2_bytes_per_channel,
                                   config.line_size, config.l2_assoc)
            for _ in range(n_channels)
        ]

    def access(self, line_addr: int, sm: int) -> bool:
        """One access from SM ``sm``; True if served on chip."""
        if self._l1s[sm % len(self._l1s)].access(line_addr):
            return True
        slice_index = line_addr % self.n_channels
        return self._l2s[slice_index].access(line_addr)

    def filter_stream_indices(self, line_addrs: np.ndarray) -> np.ndarray:
        """Positions of accesses that miss both cache levels."""
        misses = []
        append = misses.append
        n_sms = len(self._l1s)
        for position, line_addr in enumerate(line_addrs.tolist()):
            if not self.access(line_addr, position % n_sms):
                append(position)
        return np.asarray(misses, dtype=np.int64)

    def l1_stats(self) -> CacheStats:
        total = CacheStats()
        for cache in self._l1s:
            total = total.merge(cache.stats)
        return total

    def l2_stats(self) -> CacheStats:
        total = CacheStats()
        for cache in self._l2s:
            total = total.merge(cache.stats)
        return total


def _mask_write_weights(trace: DramTrace, write_factors: np.ndarray,
                        access_zones: np.ndarray) -> np.ndarray:
    """The seed ``DramTrace.write_weights``: boolean-mask indexing.

    Kept here so no oracle shares the weight gather of the engines it
    checks."""
    if trace.is_write is None:
        return np.ones(trace.n_accesses)
    factors = np.asarray(write_factors, dtype=np.float64)
    weights = np.ones(trace.n_accesses)
    weights[trace.is_write] = factors[access_zones[trace.is_write]]
    return weights


def reference_throughput_run(config: GpuConfig, trace: DramTrace,
                             zone_map: np.ndarray,
                             topology: SystemTopology,
                             chars: WorkloadCharacteristics) -> SimResult:
    """The :class:`ThroughputEngine` epoch model as first vectorized:
    one ``arange(n) * E // n`` epoch id and two ``bincount``s over the
    whole stream."""
    zone_map = validate_zone_map(zone_map, trace.footprint_pages,
                                 len(topology))
    n_zones = len(topology)
    n_accesses = trace.n_accesses
    if n_accesses == 0:
        raise SimulationError("empty trace")

    access_zones = zone_map[trace.page_indices].astype(np.int64)
    epoch_ids = (
        np.arange(n_accesses, dtype=np.int64) * trace.n_epochs
        // n_accesses
    )
    counts = np.bincount(
        epoch_ids * n_zones + access_zones,
        minlength=trace.n_epochs * n_zones,
    ).reshape(trace.n_epochs, n_zones).astype(np.float64)
    write_factors = np.array([
        zone.technology.write_cost_factor for zone in topology
    ])
    weights = _mask_write_weights(trace, write_factors, access_zones)
    occupancy = np.bincount(
        epoch_ids * n_zones + access_zones,
        weights=weights,
        minlength=trace.n_epochs * n_zones,
    ).reshape(trace.n_epochs, n_zones)

    bandwidths = np.array(topology.gpu_usable_bandwidths())
    latencies = np.array(topology.gpu_latencies_ns(config.clock_ghz))
    line = float(trace.bytes_per_access)

    epoch_bytes = counts * line
    t_bandwidth = ((occupancy * line)
                   / bandwidths[None, :]).max(axis=1) * 1e9

    epoch_accesses = counts.sum(axis=1)
    n_channels = sum(zone.channels for zone in topology)
    parallelism = min(
        chars.parallelism,
        float(config.total_mshrs(n_channels)),
        float(config.max_warps_outstanding),
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        fractions = np.where(
            epoch_accesses[:, None] > 0,
            counts / np.maximum(epoch_accesses, 1.0)[:, None],
            0.0,
        )
    avg_latency = (fractions * latencies[None, :]).sum(axis=1)
    t_latency = epoch_accesses * avg_latency / parallelism

    raw_per_epoch = trace.n_raw_accesses / trace.n_epochs
    t_compute = np.full(trace.n_epochs,
                        raw_per_epoch * chars.compute_ns_per_access)

    epoch_time = np.maximum.reduce([t_bandwidth, t_latency, t_compute])
    total_time = float(epoch_time.sum())
    if total_time <= 0:
        raise SimulationError("model produced non-positive runtime")

    return SimResult(
        engine="throughput",
        total_time_ns=total_time,
        dram_accesses=n_accesses,
        bytes_by_zone=epoch_bytes.sum(axis=0),
        time_bandwidth_ns=float(t_bandwidth.sum()),
        time_latency_ns=float(t_latency.sum()),
        time_compute_ns=float(t_compute.sum()),
    )


def reference_detailed_run(config: GpuConfig, trace: DramTrace,
                           zone_map: np.ndarray,
                           topology: SystemTopology,
                           chars: WorkloadCharacteristics) -> SimResult:
    """The seed :class:`DetailedEngine` request loop."""
    zone_map = validate_zone_map(zone_map, trace.footprint_pages,
                                 len(topology))
    if trace.n_accesses == 0:
        raise SimulationError("empty trace")

    n_zones = len(topology)
    n_channels_total = sum(zone.channels for zone in topology)
    window = max(1, int(min(
        chars.parallelism,
        config.total_mshrs(n_channels_total),
        config.max_warps_outstanding,
    )))

    channel_free = [np.zeros(zone.channels) for zone in topology]
    channel_busy = [np.zeros(zone.channels) for zone in topology]
    channel_cursor = [0] * n_zones
    usable_bw = topology.gpu_usable_bandwidths()
    service_ns = [
        trace.bytes_per_access
        / (usable_bw[zone.zone_id] / zone.channels) * 1e9
        for zone in topology
    ]
    latency_ns = list(topology.gpu_latencies_ns(config.clock_ghz))

    access_zones = zone_map[trace.page_indices].astype(np.int64)
    write_factors = np.array([
        zone.technology.write_cost_factor for zone in topology
    ])
    service_weights = _mask_write_weights(trace, write_factors,
                                          access_zones)

    miss_rate = max(trace.miss_rate(), 1e-12)
    compute_step = chars.compute_ns_per_access / miss_rate

    inflight: list[float] = []
    bytes_by_zone = np.zeros(n_zones)
    last_completion = 0.0

    for i in range(trace.n_accesses):
        zone_id = int(access_zones[i])
        ready = i * compute_step
        while len(inflight) >= window:
            ready = max(ready, heapq.heappop(inflight))

        zone_channels = channel_free[zone_id]
        cursor = channel_cursor[zone_id] % zone_channels.size
        channel_cursor[zone_id] += 1
        occupancy = service_ns[zone_id] * service_weights[i]
        start = max(ready, zone_channels[cursor])
        finish_transfer = start + occupancy
        zone_channels[cursor] = finish_transfer
        channel_busy[zone_id][cursor] += occupancy
        completion = finish_transfer + latency_ns[zone_id]

        heapq.heappush(inflight, completion)
        bytes_by_zone[zone_id] += trace.bytes_per_access
        last_completion = max(last_completion, completion)

    total_compute = trace.n_raw_accesses * chars.compute_ns_per_access
    total_time = max(last_completion, total_compute)
    if total_time <= 0:
        raise SimulationError("detailed engine produced zero runtime")

    busiest = max(float(busy.max()) for busy in channel_busy)
    return SimResult(
        engine="detailed",
        total_time_ns=total_time,
        dram_accesses=trace.n_accesses,
        bytes_by_zone=bytes_by_zone,
        time_bandwidth_ns=busiest,
        time_latency_ns=float(sum(latency_ns) / n_zones),
        time_compute_ns=total_compute,
    )


def reference_banked_run(config: GpuConfig, trace: DramTrace,
                         zone_map: np.ndarray,
                         topology: SystemTopology,
                         chars: WorkloadCharacteristics,
                         banks_per_channel: int = 16,
                         bank_overlap: int = 4) -> SimResult:
    """The seed :class:`BankedEngine` request loop."""
    from repro.gpu.banked import BankState
    from repro.gpu.service import LINES_PER_PAGE, LINES_PER_ROW

    zone_map = validate_zone_map(zone_map, trace.footprint_pages,
                                 len(topology))
    if trace.n_accesses == 0:
        raise SimulationError("empty trace")

    n_zones = len(topology)
    n_channels_total = sum(zone.channels for zone in topology)
    window = max(1, int(min(
        chars.parallelism,
        config.total_mshrs(n_channels_total),
        config.max_warps_outstanding,
    )))

    channel_free = [np.zeros(zone.channels) for zone in topology]
    channel_busy = [np.zeros(zone.channels) for zone in topology]
    banks = [
        [BankState(banks_per_channel) for _ in range(zone.channels)]
        for zone in topology
    ]
    usable_bw = topology.gpu_usable_bandwidths()
    burst_ns = [
        trace.bytes_per_access
        / (usable_bw[zone.zone_id] / zone.channels) * 1e9
        for zone in topology
    ]
    miss_extra_ns = [
        (zone.technology.timings.row_miss_cycles()
         - zone.technology.timings.row_hit_cycles())
        * zone.technology.timings.cycle_ns / bank_overlap
        for zone in topology
    ]
    latency_ns = list(topology.gpu_latencies_ns(config.clock_ghz))

    access_zones = zone_map[trace.page_indices].astype(np.int64)
    write_factors = np.array([
        zone.technology.write_cost_factor for zone in topology
    ])
    service_weights = _mask_write_weights(trace, write_factors,
                                          access_zones)
    pages = trace.page_indices
    miss_rate = max(trace.miss_rate(), 1e-12)
    compute_step = chars.compute_ns_per_access / miss_rate

    inflight: list[float] = []
    bytes_by_zone = np.zeros(n_zones)
    last_completion = 0.0

    for i in range(trace.n_accesses):
        zone_id = int(access_zones[i])
        ready = i * compute_step
        while len(inflight) >= window:
            ready = max(ready, heapq.heappop(inflight))

        zone_channels = channel_free[zone_id]
        line = int(pages[i]) * LINES_PER_PAGE + (i % LINES_PER_PAGE)
        channel = line % zone_channels.size
        row = (line // zone_channels.size) // LINES_PER_ROW
        row_hit = banks[zone_id][channel].access(row)

        occupancy = burst_ns[zone_id] * service_weights[i] + (
            0.0 if row_hit else miss_extra_ns[zone_id]
        )
        start = max(ready, zone_channels[channel])
        finish = start + occupancy
        zone_channels[channel] = finish
        channel_busy[zone_id][channel] += occupancy
        completion = finish + latency_ns[zone_id]

        heapq.heappush(inflight, completion)
        bytes_by_zone[zone_id] += trace.bytes_per_access
        last_completion = max(last_completion, completion)

    total_compute = trace.n_raw_accesses * chars.compute_ns_per_access
    total_time = max(last_completion, total_compute)
    if total_time <= 0:
        raise SimulationError("banked engine produced zero runtime")

    busiest = max(float(busy.max()) for busy in channel_busy)
    return SimResult(
        engine="banked",
        total_time_ns=total_time,
        dram_accesses=trace.n_accesses,
        bytes_by_zone=bytes_by_zone,
        time_bandwidth_ns=busiest,
        time_latency_ns=float(sum(latency_ns) / n_zones),
        time_compute_ns=total_compute,
    )


def reference_row_hit_rates(trace: DramTrace, zone_map: np.ndarray,
                            topology: SystemTopology,
                            banks_per_channel: int = 16
                            ) -> tuple[float, ...]:
    """The seed per-access ``BankedEngine.row_hit_rates`` loop."""
    from repro.gpu.banked import BankState
    from repro.gpu.service import LINES_PER_PAGE, LINES_PER_ROW

    zone_map = np.asarray(zone_map)
    n_channels = [zone.channels for zone in topology]
    banks = [
        [BankState(banks_per_channel) for _ in range(count)]
        for count in n_channels
    ]
    access_zones = zone_map[trace.page_indices].astype(np.int64)
    for i in range(trace.n_accesses):
        zone_id = int(access_zones[i])
        line = (int(trace.page_indices[i]) * LINES_PER_PAGE
                + (i % LINES_PER_PAGE))
        channel = line % n_channels[zone_id]
        row = (line // n_channels[zone_id]) // LINES_PER_ROW
        banks[zone_id][channel].access(row)
    rates = []
    for zone_banks in banks:
        hits = sum(bank.row_hits for bank in zone_banks)
        total = hits + sum(bank.row_misses for bank in zone_banks)
        rates.append(hits / total if total else 0.0)
    return tuple(rates)


def reference_trim_to_budget(n_promote: int, n_demote: int,
                             budget: int) -> tuple[int, int]:
    """The seed ``EpochMigrationPolicy.plan`` budget trim: one page per
    iteration, a promotion then a demotion, until the pair fits."""
    while n_promote + n_demote > budget:
        if n_promote > 0:
            n_promote -= 1
        if n_promote + n_demote > budget and n_demote > 0:
            n_demote -= 1
        if n_promote == 0 and n_demote == 0:
            break
    return n_promote, n_demote
