"""Reference (per-access loop) implementations of the hot paths.

These are the original pure-Python simulation loops that
:mod:`repro.gpu.cache` and :mod:`repro.gpu.engine` (both event
engines) replaced with kernels, plus the first
vectorized form of :mod:`repro.gpu.throughput`
(:func:`reference_throughput_run`), which
``tests/test_throughput_oracle.py`` holds the engine to with ``==``
on every field, the migration planner's page-at-a-time budget trim
(:func:`reference_trim_to_budget`, held ``==`` to its closed form by
``tests/test_migration.py``) and its hottest-first page walk
(:func:`reference_desired_bo_set`, held ``==`` to the partitioned
selection there too), and the first forms of trace synthesis:
the two dynamic access patterns (:func:`reference_phase_shift`,
:func:`reference_sliding_window`) and the per-phase interleave
(:func:`reference_raw_access_stream`), held ``==`` to
:mod:`repro.workloads` by ``tests/test_synth_native.py``, and the
page-at-a-time frame allocator walk (:func:`reference_allocate_pages`),
held ``==`` to ``PhysicalMemory.allocate_pages`` and
``Process.place_all`` by ``tests/test_allocator.py``.  They are
kept here, in the test suite, as the behavioural oracle: the golden
equality suite (``tests/test_golden_vectorized.py``) and the kernel
differential tests (``tests/test_lru_native.py``) check the native
and numpy cache filters are *bit-identical* to
:class:`ReferenceCacheHierarchy`, and the vectorized engines reproduce
the reference
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
import zlib
from collections import OrderedDict

import numpy as np

from repro.core.errors import (
    ConfigError,
    OutOfMemoryError,
    SimulationError,
    WorkloadError,
)
from repro.gpu.cache import CacheStats
from repro.gpu.config import GpuConfig
from repro.gpu.trace import (
    DramTrace,
    SimResult,
    WorkloadCharacteristics,
    validate_zone_map,
)
from repro.memory.topology import SystemTopology
from repro.workloads.patterns import (
    PATTERNS,
    _require_positive,
    phase_shift_period,
    phase_shift_window,
)


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


class BankState:
    """Open-row tracking for the banks of one channel: the scalar
    building block of :func:`reference_banked_run`."""

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


def reference_banked_run(config: GpuConfig, trace: DramTrace,
                         zone_map: np.ndarray,
                         topology: SystemTopology,
                         chars: WorkloadCharacteristics,
                         banks_per_channel: int = 16,
                         bank_overlap: int = 4) -> SimResult:
    """The seed :class:`BankedEngine` request loop."""
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


def reference_desired_bo_set(scores: np.ndarray, bo_traffic_fraction: float,
                             bo_capacity_pages: int) -> list[int]:
    """The seed ``EpochMigrationPolicy._desired_bo_set`` as a loop: walk
    every page hottest first (a stable sort, so ties go by page index),
    taking pages until their running score reaches the BO traffic share
    or BO capacity is full."""
    total = float(np.asarray(scores).sum())
    if total <= 0:
        return []
    values = np.asarray(scores).tolist()
    order = sorted(range(len(values)), key=lambda page: -values[page])
    target = bo_traffic_fraction * total
    chosen: list[int] = []
    running = 0.0
    for page in order:
        if len(chosen) == bo_capacity_pages:
            break
        chosen.append(page)
        running += values[page]
        if running >= target:
            break
    return chosen


def reference_phase_shift(rng: np.random.Generator, n_accesses: int,
                          n_lines: int, params: dict) -> np.ndarray:
    """The first ``patterns.phase_shift``: every access's window start
    from its index (``//`` and ``%`` over the whole stream), then a
    boolean gather of the hot ones."""
    _require_positive(n_accesses, n_lines)
    n_phases = int(params.get("n_phases", 4))
    hot_fraction = float(params.get("hot_fraction", 0.1))
    hot_traffic = float(params.get("hot_traffic", 0.85))
    if not 0.0 < hot_fraction < 1.0:
        raise WorkloadError("hot_fraction must be in (0,1)")
    if not 0.0 < hot_traffic <= 1.0:
        raise WorkloadError("hot_traffic must be in (0,1]")
    period = phase_shift_period(n_accesses, n_phases)
    _, n_hot = phase_shift_window(0, n_lines, hot_fraction)
    index = np.arange(n_accesses, dtype=np.int64)
    starts = (index // period) * n_hot % n_lines
    is_hot = rng.random(n_accesses) < hot_traffic
    addrs = rng.integers(0, n_lines, size=n_accesses, dtype=np.int64)
    n_hot_accesses = int(is_hot.sum())
    offsets = rng.integers(0, n_hot, size=n_hot_accesses, dtype=np.int64)
    addrs[is_hot] = (starts[is_hot] + offsets) % n_lines
    return addrs


def reference_sliding_window(rng: np.random.Generator, n_accesses: int,
                             n_lines: int, params: dict) -> np.ndarray:
    """The first ``patterns.sliding_window``: integer access indices
    into the window-start float expression, ``%`` on every sum."""
    _require_positive(n_accesses, n_lines)
    window_fraction = float(params.get("window_fraction", 0.25))
    passes = float(params.get("passes", 1.0))
    if not 0.0 < window_fraction <= 1.0:
        raise WorkloadError("window_fraction must be in (0,1]")
    if passes <= 0:
        raise WorkloadError("passes must be positive")
    n_window = max(1, int(round(n_lines * window_fraction)))
    index = np.arange(n_accesses, dtype=np.int64)
    starts = (index * passes * n_lines / max(1, n_accesses)).astype(
        np.int64
    ) % n_lines
    offsets = rng.integers(0, n_window, size=n_accesses, dtype=np.int64)
    return (starts + offsets) % n_lines


def reference_raw_access_stream(workload, dataset: str, n_accesses: int,
                                seed: int
                                ) -> tuple[np.ndarray, np.ndarray]:
    """The first ``TraceWorkload.raw_access_stream`` loop: in every
    phase, ``rng.permutation`` of the labels, a stable ``argsort`` and
    two scatters, with the reference dynamic patterns."""
    workload._check_dataset(dataset)
    if n_accesses <= 0:
        raise WorkloadError("n_accesses must be positive")
    specs = workload.data_structures(dataset)
    key = f"{workload.name}/{dataset}/{seed}".encode()
    rng = np.random.default_rng(zlib.crc32(key))
    phase_list = workload.phases(dataset)
    phase_total = sum(p.duration_weight for p in phase_list)
    line_base = np.cumsum([0] + [s.n_lines for s in specs])
    generators = dict(PATTERNS, phase_shift=reference_phase_shift,
                      sliding_window=reference_sliding_window)

    pieces: list[np.ndarray] = []
    flag_pieces: list[np.ndarray] = []
    for phase in phase_list:
        n_phase = max(1, int(round(
            n_accesses * phase.duration_weight / phase_total
        )))
        weights = np.array([
            s.traffic_weight
            * (phase.weight_overrides or {}).get(s.name, 1.0)
            for s in specs
        ], dtype=np.float64)
        if weights.sum() <= 0:
            raise WorkloadError("no positive traffic weight")
        counts = rng.multinomial(n_phase, weights / weights.sum())
        streams = [
            line_base[i] + generators[spec.pattern](
                rng, int(counts[i]), spec.n_lines,
                dict(spec.pattern_params))
            for i, spec in enumerate(specs)
        ]
        flags = [
            rng.random(int(counts[i])) >= spec.read_fraction
            for i, spec in enumerate(specs)
        ]
        order = rng.permutation(np.repeat(
            np.arange(len(specs),
                      dtype=np.min_scalar_type(len(specs) - 1)),
            counts))
        slots = np.argsort(order, kind="stable")
        phase_stream = np.empty(int(counts.sum()), dtype=np.int64)
        phase_flags = np.empty(int(counts.sum()), dtype=bool)
        phase_stream[slots] = np.concatenate(streams)
        phase_flags[slots] = np.concatenate(flags)
        pieces.append(phase_stream)
        flag_pieces.append(phase_flags)
    return np.concatenate(pieces), np.concatenate(flag_pieces)


def reference_allocate_pages(physical, first, spill_order, strict=False):
    """The page-by-page ``PhysicalMemory.allocate`` walk: every page
    builds its own chain (``spill_order`` of its first zone, completed
    with the missing zones in id order unless ``strict``), takes one
    frame from the first zone in it with a free frame through
    ``ZoneAllocator.allocate``, and the first page that cannot be
    placed stops the walk.  Returns ``(zones, frames, error)`` as
    ``allocate_pages`` does."""
    zones: list[int] = []
    frames: list[int] = []
    for zone in np.asarray(first).tolist():
        chain = list(spill_order(zone))
        if not strict:
            chain += [z for z in range(len(physical.topology))
                      if z not in chain]
        try:
            for zone_id in chain:
                allocator = physical.allocator(zone_id)
                if not allocator.full:
                    break
            else:
                raise OutOfMemoryError(
                    f"zones {chain} exhausted in topology "
                    f"{physical.topology.name}"
                )
        except (ConfigError, OutOfMemoryError) as error:
            return (np.array(zones, dtype=np.int16),
                    np.array(frames, dtype=np.int64), error)
        zones.append(zone_id)
        frames.append(allocator.allocate())
    return (np.array(zones, dtype=np.int16),
            np.array(frames, dtype=np.int64), None)
