"""Property-based tests (hypothesis) on core invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_context
from reference_loops import ReferenceSetAssocCache
from repro.core.metrics import geomean
from repro.core.units import PAGE_SIZE, bytes_to_pages, pages_to_bytes
from repro.gpu import _native, cache
from repro.gpu.cache import CacheHierarchy
from repro.gpu.config import GpuConfig, table1_config
from repro.gpu.simulator import GpuSystemSimulator
from repro.gpu.throughput import ThroughputEngine
from repro.gpu.trace import DramTrace, WorkloadCharacteristics
from repro.memory.acpi import Sbit
from repro.memory.distance import DistanceMatrix
from repro.memory.topology import (SystemTopology, simulated_baseline,
                                   topology_by_name)
from repro.policies.bwaware import BwAwarePolicy, two_zone_fractions
from repro.policies.oracle import OraclePolicy
from repro.profiling.cdf import AccessCdf
from repro.vm.allocator import ZoneAllocator
from repro.vm.page import Allocation
from repro.vm.process import Process

COMMON = settings(deadline=None, max_examples=50,
                  suppress_health_check=[HealthCheck.too_slow])
#: example counts from the conftest ``ci``/``dev`` profile.
PROFILED = settings(deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestUnitProperties:
    @given(st.integers(min_value=0, max_value=2**40))
    @COMMON
    def test_pages_cover_bytes(self, n_bytes):
        pages = bytes_to_pages(n_bytes)
        assert pages_to_bytes(pages) >= n_bytes
        assert pages_to_bytes(pages) - n_bytes < PAGE_SIZE


class TestSbitProperties:
    @given(st.lists(st.floats(min_value=0.1, max_value=2000.0),
                    min_size=1, max_size=6))
    @COMMON
    def test_fractions_always_a_distribution(self, bandwidths):
        fractions = Sbit(tuple(bandwidths)).fractions()
        assert all(f >= 0 for f in fractions)
        assert sum(fractions) == pytest.approx(1.0)

    @given(st.floats(min_value=0.1, max_value=2000.0),
           st.floats(min_value=0.1, max_value=2000.0))
    @COMMON
    def test_higher_bandwidth_higher_fraction(self, a, b):
        fractions = Sbit((a, b)).fractions()
        assert (fractions[0] >= fractions[1]) == (a >= b)


class TestAllocatorProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @COMMON
    def test_used_plus_free_is_capacity(self, ops):
        allocator = ZoneAllocator(0, 64)
        live = []
        for is_alloc in ops:
            if is_alloc and not allocator.full:
                live.append(allocator.allocate())
            elif live:
                allocator.free(live.pop())
            assert allocator.used_pages + allocator.free_pages == 64
            assert allocator.used_pages == len(live)

    @given(st.integers(min_value=1, max_value=64))
    @COMMON
    def test_frames_unique_while_live(self, count):
        allocator = ZoneAllocator(0, 64)
        frames = [allocator.allocate() for _ in range(count)]
        assert len(set(frames)) == count


class TestCdfProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=500).filter(lambda c: sum(c) > 0))
    @COMMON
    def test_cdf_monotone_and_normalized(self, counts):
        cdf = AccessCdf.from_counts(np.asarray(counts, dtype=float))
        cumulative = cdf.cumulative()
        assert np.all(np.diff(cumulative) >= -1e-12)
        assert cumulative[-1] == pytest.approx(1.0)

    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=2, max_size=500).filter(lambda c: sum(c) > 0))
    @COMMON
    def test_cdf_dominates_uniform_diagonal(self, counts):
        # Sorting hot-to-cold means the CDF is always at or above the
        # diagonal; skew is therefore non-negative.
        cdf = AccessCdf.from_counts(np.asarray(counts, dtype=float))
        cumulative = cdf.cumulative()
        diagonal = np.arange(1, len(counts) + 1) / len(counts)
        assert np.all(cumulative >= diagonal - 1e-9)
        assert cdf.skew() >= -1e-9

    @given(st.lists(st.integers(min_value=1, max_value=100),
                    min_size=1, max_size=200),
           st.floats(min_value=0.0, max_value=1.0))
    @COMMON
    def test_footprint_for_traffic_inverts(self, counts, target):
        cdf = AccessCdf.from_counts(np.asarray(counts, dtype=float))
        footprint = cdf.footprint_for_traffic(target)
        assert cdf.traffic_at_footprint(footprint) >= target - 1e-9


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=63),
                    min_size=1, max_size=400))
    @COMMON
    def test_small_working_set_eventually_all_hits(self, addrs):
        # 64 lines fit entirely in a 64-line cache: after one cold miss
        # per distinct line, everything hits.
        cache = ReferenceSetAssocCache(64 * 128, 128, 64)  # fully associative
        misses = sum(0 if cache.access(a) else 1 for a in addrs)
        assert misses == len(set(addrs))

    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=400))
    @COMMON
    def test_resident_lines_bounded_by_capacity(self, addrs):
        cache = ReferenceSetAssocCache(1024, 128, 2)
        for addr in addrs:
            cache.access(addr)
        assert sum(len(cache_set) for cache_set in cache._sets) <= 8
        assert cache.stats.accesses == len(addrs)


class TestPlacementProperties:
    @given(st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=2**31 - 1))
    @COMMON
    def test_bwaware_ratio_converges(self, co_percent, seed):
        topo = simulated_baseline()
        process = Process(topo, seed=seed)
        process.reserve(3000 * PAGE_SIZE)
        zone_map = process.place_all(
            BwAwarePolicy(two_zone_fractions(co_percent))
        )
        co_share = float((zone_map == 1).mean())
        assert co_share == pytest.approx(co_percent / 100, abs=0.04)

    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=8, max_size=256))
    @COMMON
    def test_oracle_bo_set_is_hottest_prefix_under_capacity(self, counts):
        accesses = np.asarray(counts, dtype=float)
        bo_pages = max(1, len(counts) // 10)
        topo = simulated_baseline(
            bo_capacity_gib=bo_pages * PAGE_SIZE / 2**30
        )
        ctx = make_context(topo)
        alloc = Allocation(alloc_id=0, name="a",
                           va_start=PAGE_SIZE * 4096,
                           size_bytes=len(counts) * PAGE_SIZE)
        policy = OraclePolicy(accesses)
        policy.prepare((alloc,), ctx)
        zones = np.array([
            policy.preferred_zones(alloc, k, ctx)[0]
            for k in range(len(counts))
        ])
        if (zones == 0).any() and (zones == 1).any():
            # Every BO page must be at least as hot as every CO page.
            assert accesses[zones == 0].min() >= accesses[zones == 1].max() - 1e-9


class TestEngineProperties:
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2**31 - 1))
    @COMMON
    def test_runtime_positive_and_bandwidth_bounded(self, co_fraction,
                                                    seed):
        rng = np.random.default_rng(seed)
        n_pages = 128
        trace = DramTrace(
            page_indices=rng.integers(0, n_pages, size=2000),
            footprint_pages=n_pages,
            n_raw_accesses=2000,
        )
        n_co = int(round(co_fraction * n_pages))
        zone_map = np.zeros(n_pages, dtype=np.int16)
        zone_map[:n_co] = 1
        topo = simulated_baseline()
        result = ThroughputEngine(table1_config()).run(
            trace, zone_map, topo, WorkloadCharacteristics()
        )
        assert result.total_time_ns > 0
        # Achieved bandwidth can never exceed the aggregate peak.
        assert result.achieved_bandwidth <= topo.total_bandwidth * 1.001

    @given(st.floats(min_value=0.01, max_value=1.0))
    @COMMON
    def test_optimal_split_is_at_bandwidth_fraction(self, scale):
        # For uniform traffic, no split beats the Section 3.1 ratio.
        rng = np.random.default_rng(1)
        n_pages = 1000
        trace = DramTrace(
            page_indices=rng.permutation(
                np.repeat(np.arange(n_pages), 20)
            ),
            footprint_pages=n_pages,
            n_raw_accesses=20 * n_pages,
        )
        topo = simulated_baseline()
        engine = ThroughputEngine(table1_config())

        def time_at(co_share):
            n_co = int(round(co_share * n_pages))
            zone_map = np.zeros(n_pages, dtype=np.int16)
            zone_map[rng.permutation(n_pages)[:n_co]] = 1
            return engine.run(trace, zone_map, topo,
                              WorkloadCharacteristics()).total_time_ns

        optimal = time_at(80 / 280)
        other = time_at(80 / 280 * scale)
        assert optimal <= other * 1.05


class TestMigrationProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=8, max_size=128),
           st.integers(min_value=1, max_value=32),
           st.integers(min_value=0, max_value=64))
    @COMMON
    def test_plan_never_overfills_bo(self, counts, capacity, budget):
        from repro.migration.policy import EpochMigrationPolicy
        from repro.migration.tracker import HotnessTracker

        n = len(counts)
        tracker = HotnessTracker(n, decay=1.0)
        tracker.observe_epoch(
            np.repeat(np.arange(n), np.asarray(counts))
        )
        policy = EpochMigrationPolicy(
            bo_zone=0, co_zone=1,
            bo_capacity_pages=capacity,
            bo_traffic_fraction=200 / 280,
            budget_pages_per_epoch=budget,
        )
        zone_map = np.ones(n, dtype=np.int16)
        plan = policy.plan(zone_map, tracker)
        # Budget respected; applying the plan stays within capacity.
        assert plan.n_pages <= budget
        zone_map[plan.demote] = 1
        zone_map[plan.promote] = 0
        assert int((zone_map == 0).sum()) <= capacity
        # A page is never both promoted and demoted.
        assert not set(plan.promote.tolist()) & set(plan.demote.tolist())

    @given(st.floats(min_value=0.001, max_value=1.0),
           st.integers(min_value=0, max_value=10_000))
    @COMMON
    def test_cost_model_monotone_in_pages(self, scale, n_pages):
        from repro.core.units import gbps
        from repro.migration.cost import MigrationCostModel

        model = MigrationCostModel(migration_bandwidth=gbps(4.0) / scale)
        assert model.total_time_ns(n_pages) <= model.total_time_ns(
            n_pages + 1
        )


class TestKernelsimProperties:
    @given(st.integers(min_value=1, max_value=4096),
           st.integers(min_value=1, max_value=3))
    @COMMON
    def test_executor_lines_stay_in_footprint(self, n_threads, n_refs):
        from repro.kernelsim.executor import KernelExecutor
        from repro.kernelsim.ir import (ArrayDecl, Kernel, MemoryRef,
                                        UniformIndex)

        arrays = (ArrayDecl("a", 4096, 4), ArrayDecl("b", 128, 8))
        refs = tuple(
            MemoryRef("a" if i % 2 == 0 else "b", UniformIndex())
            for i in range(n_refs)
        )
        executor = KernelExecutor(arrays)
        trace = executor.line_trace([
            Kernel("k", refs, n_threads=n_threads)
        ])
        lines_per_page = 32
        assert trace.min() >= 0
        assert trace.max() < executor.footprint_pages * lines_per_page

    @given(st.integers(min_value=32, max_value=2048))
    @COMMON
    def test_coalescing_never_inflates_transactions(self, n_threads):
        from repro.kernelsim.executor import WARP_SIZE, KernelExecutor
        from repro.kernelsim.ir import (ArrayDecl, Kernel, MemoryRef,
                                        UniformIndex)

        executor = KernelExecutor((ArrayDecl("a", 65536, 4),))
        trace = executor.line_trace([
            Kernel("k", (MemoryRef("a", UniformIndex()),),
                   n_threads=n_threads)
        ])
        # At most one transaction per lane, at least one per warp.
        assert trace.size <= n_threads
        assert trace.size >= -(-n_threads // WARP_SIZE)


class TestMetricsProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=100.0),
                    min_size=1, max_size=50))
    @COMMON
    def test_geomean_between_min_and_max(self, values):
        mean = geomean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0),
                    min_size=1, max_size=50),
           st.floats(min_value=0.01, max_value=100.0))
    @COMMON
    def test_geomean_scale_invariance(self, values, factor):
        scaled = geomean([v * factor for v in values])
        assert scaled == pytest.approx(geomean(values) * factor, rel=1e-6)


def _random_trace(seed: int, n_pages: int = 256,
                  n_accesses: int = 3000) -> DramTrace:
    rng = np.random.default_rng(seed)
    return DramTrace(page_indices=rng.integers(0, n_pages, n_accesses),
                     footprint_pages=n_pages, n_raw_accesses=n_accesses,
                     is_write=rng.random(n_accesses) < 0.3)


def _relabelled(topology: SystemTopology, perm) -> SystemTopology:
    """``topology`` with zone ``i`` renamed ``perm[i]``: zones, the
    GPU-local id and an explicit distance matrix move together."""
    old = np.argsort(perm)  # old[new id] = old id

    def moved(rows):
        if rows is None:
            return None
        return tuple(tuple(rows[i][j] for j in old) for i in old)

    distance = topology.distance
    if distance is not None:
        distance = DistanceMatrix(hop_cycles=moved(distance.hop_cycles),
                                  link_gbps=moved(distance.link_gbps))
    zones = tuple(replace(zone, zone_id=int(perm[zone.zone_id]))
                  for zone in topology.zones)
    return SystemTopology(topology.name, zones,
                          int(perm[topology.gpu_local_zone]),
                          distance=distance)


#: the line size of the drawn cache geometries.
LINE = 128


def _filter(config: GpuConfig, n_channels: int, lines: np.ndarray,
            kernel: str) -> tuple:
    """Miss indices and L1/L2 stats of one fresh hierarchy on the
    ``"native"`` or the ``"numpy"`` kernel."""
    hierarchy = CacheHierarchy(config, n_channels)
    saved = cache._native_filter
    if kernel == "numpy":
        cache._native_filter = lambda: None
    try:
        misses = hierarchy.filter_stream_indices(lines)
    finally:
        cache._native_filter = saved
    return misses.tolist(), hierarchy.l1_stats(), hierarchy.l2_stats()


class TestMetamorphicRelations:
    """Relations between two runs of the same engine.  A bug that moves
    every engine (and every frozen digest) alike still breaks them."""

    @pytest.mark.parametrize("topology_name",
                             ["baseline", "three-pool", "chiplet-4"])
    @pytest.mark.parametrize("engine", ["throughput", "detailed", "banked"])
    @given(st.data(), st.integers(min_value=0, max_value=2**31 - 1))
    @PROFILED
    def test_zone_relabelling_permutes_pools_and_keeps_time(
            self, engine, topology_name, data, seed):
        topology = topology_by_name(topology_name)
        perm = np.array(data.draw(st.permutations(range(len(topology)))))
        trace = _random_trace(seed)
        zone_map = np.random.default_rng(seed).integers(
            0, len(topology), trace.footprint_pages).astype(np.int16)
        chars = WorkloadCharacteristics()

        base = GpuSystemSimulator(topology, None, engine).simulate(
            trace, zone_map, chars)
        moved = GpuSystemSimulator(
            _relabelled(topology, perm), None, engine).simulate(
            trace, perm[zone_map].astype(np.int16), chars)

        np.testing.assert_array_equal(moved.bytes_by_zone[perm],
                                      base.bytes_by_zone)
        for part in ("total_time_ns", "time_bandwidth_ns",
                     "time_latency_ns", "time_compute_ns"):
            assert getattr(moved, part) == pytest.approx(
                getattr(base, part), rel=1e-9, abs=0.0), part

    @pytest.mark.parametrize("topology_name",
                             ["baseline", "three-pool", "chiplet-4"])
    @pytest.mark.parametrize("engine", ["throughput", "detailed"])
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.sampled_from([2, 7, 256]))
    @PROFILED
    def test_page_relabelling_keeps_the_result(self, engine,
                                               topology_name, seed,
                                               n_pages):
        """Renaming pages in the trace and the zone map together leaves
        every access in its zone, so the result is the same float.  The
        banked engine is left out: its line, row and bank maths read
        the page id itself."""
        topology = topology_by_name(topology_name)
        trace = _random_trace(seed, n_pages=n_pages)
        rng = np.random.default_rng(seed)
        zone_map = rng.integers(0, len(topology), n_pages).astype(np.int16)
        relabel = rng.permutation(n_pages)  # page p is renamed relabel[p]
        moved_map = np.empty_like(zone_map)
        moved_map[relabel] = zone_map
        moved_trace = DramTrace(page_indices=relabel[trace.page_indices],
                                footprint_pages=n_pages,
                                n_raw_accesses=trace.n_raw_accesses,
                                is_write=trace.is_write)
        simulator = GpuSystemSimulator(topology, None, engine)
        chars = WorkloadCharacteristics()

        base = simulator.simulate(trace, zone_map, chars)
        moved = simulator.simulate(moved_trace, moved_map, chars)

        assert vars(moved).keys() == vars(base).keys()
        for field, value in vars(base).items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(vars(moved)[field], value,
                                              err_msg=field)
            else:
                assert vars(moved)[field] == value, field

    @pytest.mark.parametrize("kernel", ["native", "numpy"])
    @given(st.data(), st.integers(min_value=0, max_value=2**32 - 1))
    @PROFILED
    def test_filter_translation_keeps_the_miss_stream(self, kernel, data,
                                                      seed):
        """A line's L1 set, L2 channel and L2 set repeat with period
        lcm(L1 sets, channels, L2 sets).  Shifting every line by a
        multiple of it keeps each access in its sets beside the same
        neighbours, so the same accesses miss; the shifts also carry
        the stream across 2**16, 2**31 and 2**40."""
        if kernel == "native" and _native.kernel("lru") is None:
            pytest.skip("no native library on this host")
        if data.draw(st.booleans(), label="table1"):
            config, n_channels = table1_config(), 12
        else:
            l1_assoc = data.draw(st.integers(1, 8))
            l2_assoc = data.draw(st.integers(1, 8))
            config = GpuConfig(
                n_sms=data.draw(st.integers(1, 20)),
                l1_bytes_per_sm=data.draw(
                    st.sampled_from([1, 2, 3, 4, 6, 7, 8, 12, 32]))
                * l1_assoc * LINE,
                l2_bytes_per_channel=data.draw(
                    st.sampled_from([1, 3, 4, 5, 7, 16, 128]))
                * l2_assoc * LINE,
                line_size=LINE, l1_assoc=l1_assoc,
                l2_assoc=l2_assoc)
            n_channels = data.draw(st.sampled_from([1, 5, 7, 12, 16]))
        period = math.lcm(
            config.l1_bytes_per_sm // config.line_size // config.l1_assoc,
            n_channels,
            config.l2_bytes_per_channel // config.line_size
            // config.l2_assoc)
        # Random reuse or a cyclic sweep (LRU's worst case) over a span
        # placed anywhere below 2**20.
        n = data.draw(st.sampled_from([1, 300, 3000]))
        span = data.draw(st.sampled_from([50, 500, 5000]))
        if data.draw(st.booleans(), label="sweep"):
            lines = np.arange(n) % span
        else:
            lines = np.random.default_rng(seed).integers(0, span, n)
        lines += data.draw(st.integers(0, 2**20), label="base")
        # A few periods up, then across each boundary where a kernel
        # changes its path or dtype.
        middle = int(lines.min() + lines.max()) // 2
        multiples = [data.draw(st.integers(1, 4))] + [
            max(1, (boundary - middle) // period)
            for boundary in (2**16, 2**31, 2**40)]
        expected = _filter(config, n_channels, lines, kernel)
        for k in multiples:
            assert _filter(config, n_channels, lines + k * period,
                           kernel) == expected, k

    @given(st.floats(min_value=0.125, max_value=8.0),
           st.floats(min_value=0.05, max_value=0.95),
           st.integers(min_value=0, max_value=2**31 - 1))
    @PROFILED
    def test_bandwidth_scaling_scales_bandwidth_time(self, k, co_share,
                                                     seed):
        topology = simulated_baseline()
        scaled = SystemTopology(
            topology.name,
            tuple(zone.rescaled_bandwidth(zone.bandwidth * k)
                  for zone in topology.zones),
            topology.gpu_local_zone)
        trace = _random_trace(seed)
        rng = np.random.default_rng(seed)
        zone_map = (rng.random(trace.footprint_pages)
                    < co_share).astype(np.int16)
        engine = ThroughputEngine(table1_config())
        chars = WorkloadCharacteristics()

        base = engine.run(trace, zone_map, topology, chars)
        assert base.dominant_bound() == "bandwidth"
        faster = engine.run(trace, zone_map, scaled, chars)
        assert faster.time_bandwidth_ns == pytest.approx(
            base.time_bandwidth_ns / k, rel=1e-9, abs=0.0)
