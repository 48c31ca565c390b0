"""N-pool topology properties, golden equivalence, and bugfix pins.

The distance-matrix generalization (PR 10) must not perturb any
two-pool result: ``DistanceMatrix.from_zones`` is *defined* as the
matrix the legacy scalar model implies, so attaching it explicitly has
to be bit-identical to leaving ``distance=None``.  The hypothesis
properties then pin the contracts the N-pool machinery leans on:

* zone ids are always ``0..n-1`` after construction (and the topology
  re-sorts, so ``zone_id`` doubles as a tuple index);
* distance matrices are symmetric-or-explicitly-directed — directed
  entries survive round trips, symmetric ones report symmetric;
* ``bandwidth_fractions()`` always sums to 1.0;
* BW-AWARE on a bandwidth-symmetric N-pool degenerates to 1/N
  INTERLEAVE (the Section 3.1 argument, generalized past two zones).
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.core.experiment import run_experiment
from repro.core.units import GIB, PAGE_SIZE, gbps
from repro.memory.acpi import enumerate_tables
from repro.memory.distance import DistanceMatrix
from repro.memory.topology import (
    NAMED_TOPOLOGIES,
    SystemTopology,
    chiplet_topology,
    simulated_baseline,
    three_pool_topology,
    topology_by_name,
)
from repro.memory.dram import DDR4
from repro.memory.zone import MemoryZone, ZoneKind
from repro.policies.bwaware import CounterBwAwarePolicy
from repro.vm.process import Process

COMMON = settings(deadline=None, max_examples=25,
                  suppress_health_check=[HealthCheck.too_slow])


def make_zone(zone_id, bandwidth_gbps=80.0, hop_cycles=0,
              kind=ZoneKind.SYMMETRIC, capacity_gib=16.0):
    capacity = int(capacity_gib * GIB)
    return MemoryZone(
        zone_id=zone_id,
        name=f"pool{zone_id}",
        kind=kind,
        technology=DDR4,
        capacity_bytes=capacity - capacity % PAGE_SIZE,
        bandwidth=gbps(bandwidth_gbps),
        channels=4,
        device_latency_ns=36.0,
        hop_cycles=hop_cycles,
    )


def npool_topology(bandwidths_gbps, name="npool"):
    zones = tuple(
        make_zone(i, bw, hop_cycles=0 if i == 0 else 100)
        for i, bw in enumerate(bandwidths_gbps)
    )
    return SystemTopology(name, zones, gpu_local_zone=0)


#: per-zone bandwidths for 1..6-pool systems, GB/s.
bandwidth_lists = st.lists(
    st.floats(min_value=1.0, max_value=1024.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6,
)

#: square hop matrices with a zero diagonal, 2..5 zones.
hop_matrices = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=500),
                 min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


class TestNPoolProperties:
    @given(bandwidths=bandwidth_lists, seed=st.integers(0, 2**16))
    @COMMON
    def test_zone_ids_always_contiguous(self, bandwidths, seed):
        """Construction accepts any zone order but always yields 0..n-1
        sorted, so zone_id doubles as a tuple index."""
        zones = [
            make_zone(i, bw, hop_cycles=0 if i == 0 else 100)
            for i, bw in enumerate(bandwidths)
        ]
        random.Random(seed).shuffle(zones)
        topology = SystemTopology("shuffled", tuple(zones),
                                  gpu_local_zone=0)
        assert [z.zone_id for z in topology.zones] \
            == list(range(len(bandwidths)))
        for i in range(len(bandwidths)):
            assert topology.zone(i).zone_id == i

    @given(bandwidths=bandwidth_lists)
    @COMMON
    def test_gapped_zone_ids_rejected(self, bandwidths):
        zones = tuple(
            make_zone(i + 1, bw) for i, bw in enumerate(bandwidths)
        )
        with pytest.raises(ConfigError, match="0..n-1"):
            SystemTopology("gapped", zones, gpu_local_zone=1)

    @given(hops=hop_matrices)
    @COMMON
    def test_matrix_symmetric_or_explicitly_directed(self, hops):
        """Directed entries are preserved verbatim; ``is_symmetric``
        reports exactly whether the fabric is undirected."""
        matrix = DistanceMatrix(
            hop_cycles=tuple(tuple(row) for row in hops)
        )
        n = matrix.n_zones
        for i in range(n):
            for j in range(n):
                assert matrix.hops(i, j) == float(hops[i][j])
        expected = all(
            hops[i][j] == hops[j][i]
            for i in range(n) for j in range(i + 1, n)
        )
        assert matrix.is_symmetric() == expected

    @given(bandwidths=bandwidth_lists)
    @COMMON
    def test_bandwidth_fractions_sum_to_one(self, bandwidths):
        fractions = npool_topology(bandwidths).bandwidth_fractions()
        assert len(fractions) == len(bandwidths)
        assert all(f > 0 for f in fractions)
        assert math.isclose(sum(fractions), 1.0, rel_tol=1e-12)

    @given(n=st.integers(min_value=2, max_value=5),
           bandwidth=st.floats(min_value=10.0, max_value=512.0,
                               allow_nan=False, allow_infinity=False),
           n_pages=st.integers(min_value=16, max_value=512))
    @COMMON
    def test_bwaware_degenerates_to_interleave_on_symmetric(
            self, n, bandwidth, n_pages):
        """Section 3.1: equal per-pool bandwidth means the SBIT split is
        exactly 1/N, so BW-AWARE behaves as INTERLEAVE."""
        topology = npool_topology([bandwidth] * n, name=f"sym-{n}")
        sbit = enumerate_tables(topology).sbit
        assert sbit.fractions() == pytest.approx([1.0 / n] * n)
        process = Process(topology, seed=0)
        process.reserve(n_pages * PAGE_SIZE, name="a")
        zone_map = process.place_all(CounterBwAwarePolicy())
        counts = np.bincount(zone_map, minlength=n)
        assert int(counts.max()) - int(counts.min()) <= 1


class TestGoldenEquivalence:
    """Attaching the derived matrix explicitly must change nothing."""

    @pytest.mark.parametrize("factory", [simulated_baseline,
                                         three_pool_topology])
    @pytest.mark.parametrize("policy", ["LOCAL", "INTERLEAVE", "BW-AWARE"])
    def test_explicit_derived_matrix_is_bit_identical(
            self, factory, policy):
        base = factory()
        explicit = dataclasses.replace(
            base, distance=DistanceMatrix.from_zones(base.zones)
        )
        before = run_experiment("xsbench", policy=policy, topology=base,
                                trace_accesses=4_000)
        after = run_experiment("xsbench", policy=policy,
                               topology=explicit, trace_accesses=4_000)
        assert before.sim.total_time_ns == after.sim.total_time_ns
        assert np.array_equal(before.sim.bytes_by_zone,
                              after.sim.bytes_by_zone)
        assert before.zone_page_counts == after.zone_page_counts

    def test_derived_matrix_matches_legacy_scalars(self):
        base = simulated_baseline()
        matrix = base.distances
        assert matrix.is_symmetric() is False or all(
            z.hop_cycles == base.zones[0].hop_cycles for z in base.zones
        )
        for i, _ in enumerate(base.zones):
            for j, zone in enumerate(base.zones):
                assert matrix.hops(i, j) == float(zone.hop_cycles)
                assert matrix.link_bandwidth(i, j) == zone.link_bandwidth

    def test_memoised_vectors_leave_identity_alone(self):
        """``distances``, ``write_cost_factors``,
        ``gpu_usable_bandwidths()`` and ``gpu_latencies_ns(clock)`` are
        built once per topology (and clock) and are not fields: reading
        them changes neither equality, hash nor the cache key's
        description, and a replaced zone gets values of its own."""
        import pickle

        from repro.runner.spec import describe_topology

        read, fresh = simulated_baseline(), simulated_baseline()
        described = describe_topology(fresh)
        assert read.distances is read.distances
        assert read.write_cost_factors == (1.15, 1.10)
        bandwidths = read.gpu_usable_bandwidths()
        assert read.gpu_usable_bandwidths() is bandwidths
        assert bandwidths == tuple(read.usable_bandwidth_from(z.zone_id)
                                   for z in read.zones)
        latencies = read.gpu_latencies_ns(1.0)
        assert read.gpu_latencies_ns(1.0) is latencies
        assert read.gpu_latencies_ns(2.0) == tuple(
            read.access_latency_ns(z.zone_id, 2.0) for z in read.zones)
        assert read.gpu_latencies_ns(2.0) != latencies
        with pytest.raises(ConfigError):
            read.gpu_latencies_ns(0.0)
        assert read == fresh and hash(read) == hash(fresh)
        assert describe_topology(read) == described
        assert describe_topology(fresh) == described
        assert pickle.loads(pickle.dumps(read)) == fresh
        far = read.replace_zone(
            dataclasses.replace(read.zones[1], hop_cycles=300))
        assert far.distances.hops(0, 1) == 300.0
        assert read.distances.hops(0, 1) == 100.0
        assert far.gpu_latencies_ns(1.0)[1] == latencies[1] + 200.0
        assert read.gpu_latencies_ns(1.0) is latencies
        assert read.with_bo_capacity(GIB).distances is not read.distances
        slow = read.replace_zone(dataclasses.replace(
            read.zones[0], bandwidth=read.zones[0].bandwidth / 2))
        assert slow.gpu_usable_bandwidths()[0] == bandwidths[0] / 2
        assert read.gpu_usable_bandwidths() is bandwidths

    def test_gpu_helpers_match_legacy_scalars(self):
        for name in NAMED_TOPOLOGIES:
            topology = topology_by_name(name)
            if topology.distance is not None:
                continue  # chiplet systems are intentionally new
            clock = 1.0
            for zone in topology.zones:
                assert topology.access_latency_ns(zone.zone_id, clock) \
                    == zone.latency_ns(clock)
                assert topology.usable_bandwidth_from(zone.zone_id) \
                    == zone.usable_bandwidth


class TestChipletTopology:
    def test_registered_names_round_trip(self):
        for name in ("chiplet-2", "chiplet-4"):
            topology = topology_by_name(name)
            assert topology.name == name
            assert topology.distance is not None
            assert topology.distance.is_symmetric()

    def test_chiplet_distance_shape(self):
        topology = chiplet_topology(3, xlink_cycles=60,
                                    ddr_hop_cycles=100, xlink_gbps=128.0)
        assert len(topology) == 4
        matrix = topology.distances
        # own stack free, remote chiplet one xlink, DDR behind the
        # package interconnect from every chiplet.
        assert matrix.hops(0, 0) == 0.0
        assert matrix.hops(0, 1) == 60.0
        assert matrix.hops(1, 2) == 60.0
        assert matrix.hops(2, 3) == 100.0
        assert matrix.link_bandwidth(0, 1) == 128.0e9
        assert math.isinf(matrix.link_bandwidth(0, 3))
        # remote-chiplet HBM is capped by the cross-link as seen from
        # the simulated chiplet 0; local HBM and DDR are not.
        usable = topology.gpu_usable_bandwidths()
        assert usable[1] == 128.0e9
        assert usable[0] == topology.zone(0).bandwidth
        assert usable[3] == topology.zone(3).bandwidth

    def test_chiplet_needs_at_least_one(self):
        with pytest.raises(ConfigError):
            chiplet_topology(0)


class TestBugfixRegressions:
    """The three satellite bugfixes, pinned."""

    def test_zone_negative_index_rejected(self):
        topology = simulated_baseline()
        # zone(-1) used to fall through to Python's negative indexing
        # and silently return the *last* zone.
        with pytest.raises(ConfigError, match="no zone -1"):
            topology.zone(-1)

    def test_zone_index_boundaries(self):
        topology = simulated_baseline()
        assert topology.zone(0).zone_id == 0
        assert topology.zone(len(topology) - 1).zone_id \
            == len(topology) - 1
        with pytest.raises(ConfigError):
            topology.zone(len(topology))
        with pytest.raises(ConfigError):
            topology.zone("not-an-id")

    def test_replace_zone_unknown_id_raises(self):
        topology = simulated_baseline()
        stranger = make_zone(5)
        # Silently returning the unchanged topology hid capacity
        # misconfigurations; now it's a ConfigError naming the ids.
        with pytest.raises(ConfigError, match="replace_zone"):
            topology.replace_zone(stranger)

    def test_replace_zone_known_id_still_works(self):
        topology = simulated_baseline()
        swapped = topology.replace_zone(
            topology.zone(1).resized(1 * GIB)
        )
        assert swapped.zone(1).capacity_bytes == 1 * GIB
        assert swapped.zone(0) == topology.zone(0)

    def test_bandwidth_fractions_zero_total_guard(self):
        # NaN bandwidth slips past the per-zone positivity check (NaN
        # comparisons are False); the fractions guard must still name
        # the topology instead of dividing through.
        zones = (make_zone(0, 80.0), make_zone(1, float("nan")))
        topology = SystemTopology("broken", zones, gpu_local_zone=0)
        with pytest.raises(ConfigError, match="broken"):
            topology.bandwidth_fractions()
