"""Physical frame allocators and the spill chain.

``TestAgainstPageWalk`` holds the batch allocator
(``PhysicalMemory.allocate_pages``) and the placement path built on it
(``Process.place_all``) to the page-by-page walk in
``tests/reference_loops.py``: zones, frames, the error (type and
message) and every allocator's state after each step.  The number of
examples follows the hypothesis profile (see ``conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_loops import reference_allocate_pages
from repro.core.errors import ConfigError, OutOfMemoryError
from repro.core.units import PAGE_SIZE
from repro.memory.acpi import enumerate_tables
from repro.memory.topology import (
    SystemTopology,
    chiplet_topology,
    simulated_baseline,
    three_pool_topology,
)
from repro.policies.base import PlacementContext, spill_chain
from repro.policies.registry import make_policy
from repro.vm.allocator import PhysicalMemory, ZoneAllocator
from repro.vm.mempolicy import BindPolicy, PreferredPolicy
from repro.vm.page import PageMapping
from repro.vm.process import Process


class TestZoneAllocator:
    def test_fresh_allocator_all_free(self):
        alloc = ZoneAllocator(0, 10)
        assert alloc.free_pages == 10
        assert alloc.used_pages == 0
        assert not alloc.full

    def test_allocate_unique_frames(self):
        alloc = ZoneAllocator(0, 5)
        frames = {alloc.allocate() for _ in range(5)}
        assert frames == set(range(5))
        assert alloc.full

    def test_exhaustion_raises(self):
        alloc = ZoneAllocator(0, 1)
        alloc.allocate()
        with pytest.raises(OutOfMemoryError):
            alloc.allocate()

    def test_free_recycles(self):
        alloc = ZoneAllocator(0, 1)
        frame = alloc.allocate()
        alloc.free(frame)
        assert alloc.allocate() == frame

    def test_double_free_rejected(self):
        alloc = ZoneAllocator(0, 2)
        frame = alloc.allocate()
        alloc.free(frame)
        with pytest.raises(ConfigError):
            alloc.free(frame)

    def test_free_of_never_allocated_rejected(self):
        alloc = ZoneAllocator(0, 2)
        with pytest.raises(ConfigError):
            alloc.free(1)

    def test_allocate_many_all_or_nothing(self):
        alloc = ZoneAllocator(0, 4)
        alloc.allocate()
        with pytest.raises(OutOfMemoryError):
            alloc.allocate_many(4)
        # Nothing was taken by the failed bulk call.
        assert alloc.free_pages == 3
        assert len(alloc.allocate_many(3)) == 3

    def test_allocate_many_matches_repeated_allocate(self):
        batch, single = ZoneAllocator(0, 8), ZoneAllocator(0, 8)
        for alloc in (batch, single):
            for _ in range(5):
                alloc.allocate()
            for frame in (3, 1, 4):
                alloc.free(frame)
        # Recycled frames last-freed first, then the bump pointer.
        assert batch.allocate_many(5).tolist() == [4, 1, 3, 5, 6]
        assert [single.allocate() for _ in range(5)] == [4, 1, 3, 5, 6]
        assert batch.used_pages == single.used_pages == 7

    def test_free_many_keeps_errors_and_is_all_or_nothing(self):
        alloc = ZoneAllocator(0, 4)
        alloc.allocate_many(3)
        with pytest.raises(ConfigError, match="frame 3 was never allocated"):
            alloc.free_many([0, 3])
        with pytest.raises(ConfigError, match="double free of frame 1"):
            alloc.free_many([1, 2, 1])
        assert alloc.used_pages == 3
        alloc.free_many([2, 0])
        with pytest.raises(ConfigError, match="double free of frame 0"):
            alloc.free(0)
        assert alloc.allocate() == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ZoneAllocator(0, 0)


class TestPhysicalMemory:
    def _physical(self, bo_gib=0.001, co_gib=0.001):
        return PhysicalMemory(
            simulated_baseline(bo_capacity_gib=bo_gib,
                               co_capacity_gib=co_gib)
        )

    def test_preference_honored_when_space(self):
        physical = self._physical()
        mapping = physical.allocate([1, 0])
        assert mapping.zone_id == 1

    def test_spill_to_next_when_full(self):
        physical = self._physical()
        capacity = physical.allocator(0).capacity_pages
        for _ in range(capacity):
            physical.allocate([0])
        assert physical.allocator(0).full
        spilled = physical.allocate([0, 1])
        assert spilled.zone_id == 1

    def test_unlisted_zones_appended_as_last_resort(self):
        physical = self._physical()
        capacity = physical.allocator(0).capacity_pages
        for _ in range(capacity):
            physical.allocate([0])
        # Preference lists only the full zone; the allocator must still
        # find zone 1 rather than OOM.
        assert physical.allocate([0]).zone_id == 1

    def test_strict_mode_raises_instead_of_spilling(self):
        physical = self._physical()
        capacity = physical.allocator(0).capacity_pages
        for _ in range(capacity):
            physical.allocate([0])
        with pytest.raises(OutOfMemoryError):
            physical.allocate([0], strict=True)

    def test_total_exhaustion_raises(self):
        physical = self._physical()
        total = physical.total_free_pages()
        for _ in range(total):
            physical.allocate([0, 1])
        with pytest.raises(OutOfMemoryError):
            physical.allocate([0, 1])

    def test_generator_preference_lists_each_zone_once(self):
        # Regression: a generator argument was exhausted by the chain
        # copy, so every zone was appended a second time.
        physical = self._physical()
        assert physical.allocate(z for z in [1]).zone_id == 1
        for _ in range(physical.total_free_pages()):
            physical.allocate([0, 1])
        with pytest.raises(OutOfMemoryError, match=r"zones \[0, 1\] "):
            physical.allocate(z for z in [0])

    def test_allocate_pages_spills_in_page_order(self):
        physical = self._physical()
        capacity = physical.allocator(0).capacity_pages
        first = np.zeros(capacity + 2, dtype=np.int64)
        zones, frames, error = physical.allocate_pages(
            first, lambda zone: [zone])
        assert error is None
        assert zones.tolist() == [0] * capacity + [1, 1]
        assert frames.tolist() == list(range(capacity)) + [0, 1]

    def test_allocate_pages_returns_prefix_and_error_on_oom(self):
        physical = self._physical()
        capacity = physical.allocator(0).capacity_pages
        first = np.zeros(capacity + 1, dtype=np.int64)
        zones, frames, error = physical.allocate_pages(
            first, lambda zone: [zone], strict=True)
        assert zones.size == frames.size == capacity
        assert isinstance(error, OutOfMemoryError)
        assert str(error).startswith("zones [0] exhausted")
        assert physical.allocator(0).full

    def test_free_returns_frame(self):
        physical = self._physical()
        mapping = physical.allocate([0])
        used_before = physical.used_pages(0)
        physical.free(mapping)
        assert physical.used_pages(0) == used_before - 1

    def test_occupancy_snapshot(self):
        physical = self._physical()
        physical.allocate([0])
        physical.allocate([1])
        occupancy = physical.occupancy()
        assert occupancy[0][0] == 1
        assert occupancy[1][0] == 1

    def test_unknown_zone_rejected(self):
        physical = self._physical()
        with pytest.raises(ConfigError):
            physical.allocator(5)

    def test_has_space(self):
        physical = self._physical()
        assert physical.has_space(0)
        capacity = physical.allocator(0).capacity_pages
        for _ in range(capacity):
            physical.allocate([0])
        assert not physical.has_space(0)


# ----------------------------------------------------------------------
# Differential: the batch allocator against the page-by-page walk
# ----------------------------------------------------------------------

def one_zone_topology() -> SystemTopology:
    return SystemTopology(name="one-zone",
                          zones=simulated_baseline().zones[:1],
                          gpu_local_zone=0)


#: 1-, 2-, 3- and 5-zone topologies (chiplet-4: four HBM stacks + DDR).
TOPOLOGIES = {
    "one-zone": one_zone_topology,
    "two-pool": simulated_baseline,
    "three-pool": three_pool_topology,
    "chiplet-4": lambda: chiplet_topology(4),
}


def sized(name: str, capacities) -> SystemTopology:
    """Topology ``name`` with zone ``i`` resized to ``capacities[i]``
    pages."""
    topology = TOPOLOGIES[name]()
    for zone, pages in zip(topology.zones, capacities):
        topology = topology.replace_zone(zone.resized(pages * PAGE_SIZE))
    return topology


def chain_rule(kind: str, topology: SystemTopology):
    """``(spill_order, strict)`` for one of the chain shapes policies
    produce: the SLIT zonelist behind the first zone (``spill``), a
    fixed nodemask that ignores the first zone, strict (``bind``,
    MPOL_BIND) or completed (``fixed``), and the reversed zonelist."""
    ctx = PlacementContext(tables=enumerate_tables(topology),
                           physical=PhysicalMemory(topology),
                           local_zone=topology.gpu_local_zone)
    n_zones = len(topology)
    mask = [n_zones - 1, 0, n_zones + 2]
    if kind == "spill":
        return (lambda zone: spill_chain(zone, ctx)), False
    if kind == "reversed":
        return (lambda zone: spill_chain(zone, ctx)[::-1]), False
    if kind == "bind":
        return (lambda zone: mask), True
    return (lambda zone: mask[:2]), False


def allocator_state(physical: PhysicalMemory) -> list:
    return [(a._next_frame, list(a._free_list), sorted(a._free_set))
            for a in physical._allocators.values()]


def first_zone_lists(n_zones: int):
    """First zones, mostly valid, some outside the topology."""
    zone = st.one_of(st.integers(0, n_zones - 1),
                     st.sampled_from([-1, n_zones, 7]))
    return st.lists(zone, max_size=60) | st.builds(
        lambda z, n: [z] * n, st.integers(0, n_zones - 1),
        st.integers(0, 60))


@st.composite
def allocator_scenarios(draw):
    name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    n_zones = len(TOPOLOGIES[name]())
    capacities = draw(st.lists(st.integers(1, 12), min_size=n_zones,
                               max_size=n_zones))
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("allocate"), first_zone_lists(n_zones),
                  st.sampled_from(["spill", "reversed", "bind", "fixed"])),
        st.tuples(st.just("free"), st.randoms(use_true_random=False)),
    ), min_size=1, max_size=8))
    return name, capacities, steps


def assert_batch_matches_walk(name, capacities, steps):
    """Run ``steps`` on two physical memories, one through
    ``allocate_pages`` and one through the page walk."""
    topology = sized(name, capacities)
    batch, walk = PhysicalMemory(topology), PhysicalMemory(topology)
    held: list[tuple[int, int]] = []
    outcomes = []
    for step in steps:
        if step[0] == "free":
            picked = step[1].sample(held, step[1].randint(0, len(held)))
            held = [page for page in held if page not in picked]
            zones = np.array([z for z, _ in picked], dtype=np.int16)
            frames = np.array([f for _, f in picked], dtype=np.int64)
            batch.free_many(zones, frames)
            walk.free_many(zones, frames)
        else:
            first = np.array(step[1], dtype=np.int64)
            spill_order, strict = chain_rule(step[2], topology)
            got = batch.allocate_pages(first, spill_order, strict)
            want = reference_allocate_pages(walk, first, spill_order,
                                            strict)
            for array, expected in zip(got[:2], want[:2]):
                assert array.dtype == expected.dtype
                assert array.tolist() == expected.tolist(), step
            assert (type(got[2]), str(got[2])) == \
                (type(want[2]), str(want[2])), step
            held += list(zip(got[0].tolist(), got[1].tolist()))
            outcomes.append(want)
        assert allocator_state(batch) == allocator_state(walk), step
    return outcomes


class PagedProcess(Process):
    """A process that asks its policy, and places, one page at a time."""

    def fault_in(self, allocation):
        policy = self._vma_policies.get(allocation.alloc_id, self._policy)
        self._ensure_prepared(policy)
        for page in self.space.unmapped_pages(allocation).tolist():
            first = policy.first_zones(allocation, np.array([page]),
                                       self.context)
            zones, frames, error = reference_allocate_pages(
                self.physical, first,
                lambda zone: policy.spill_order(zone, self.context),
                policy.strict)
            if error is not None:
                raise error
            self.space.map_page(allocation.first_vpn + page,
                                PageMapping(int(zones[0]), int(frames[0])))


def build_policy(spec):
    if spec == "BIND-0-5":
        return BindPolicy([0, 5])
    if spec == "PREFERRED-7":
        return PreferredPolicy(7)
    return make_policy(spec)


PROCESS_POLICIES = ("LOCAL", "INTERLEAVE", "BW-AWARE", "BW-AWARE-COUNTER",
                    "BIND-0-5", "PREFERRED-7")


@st.composite
def process_scenarios(draw):
    name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    n_zones = len(TOPOLOGIES[name]())
    capacities = draw(st.lists(st.integers(1, 24), min_size=n_zones,
                               max_size=n_zones))
    rounds = draw(st.lists(st.tuples(
        st.lists(st.integers(1, 30), max_size=3),
        st.sampled_from(PROCESS_POLICIES),
        st.lists(st.integers(0, 7), max_size=3)),
        min_size=1, max_size=3))
    return name, capacities, rounds, draw(st.integers(0, 2**16))


def assert_place_all_matches_walk(name, capacities, rounds, seed):
    """Each round reserves allocations, runs ``place_all`` with one
    policy, then frees some allocations (their frames recycle in the
    next round); page tables, errors and allocators must match."""
    topology = sized(name, capacities)
    batch = Process(topology, seed=seed)
    paged = PagedProcess(topology, seed=seed)
    outcomes = []
    for sizes, spec, frees in rounds:
        errors = []
        for process in (batch, paged):
            for pages in sizes:
                process.reserve(pages * PAGE_SIZE)
            try:
                process.place_all(build_policy(spec))
                errors.append(None)
            except Exception as exc:  # compared, not swallowed
                errors.append((type(exc).__name__, str(exc)))
            allocations = process.space.allocations
            for index in frees:
                if allocations:
                    process.free(allocations[index % len(allocations)])
        assert errors[0] == errors[1], spec
        assert batch.space._zone.tolist() == paged.space._zone.tolist()
        assert batch.space._frame.tolist() == paged.space._frame.tolist()
        assert allocator_state(batch.physical) == \
            allocator_state(paged.physical)
        outcomes.append(errors[0])
    return outcomes


class TestAgainstPageWalk:
    @given(allocator_scenarios())
    def test_allocate_pages_matches_page_walk(self, scenario):
        assert_batch_matches_walk(*scenario)

    @given(process_scenarios())
    def test_place_all_matches_page_walk(self, scenario):
        assert_place_all_matches_walk(*scenario)

    # Pinned cases: each runs on every invocation.

    def test_empty_allocation(self):
        for name in TOPOLOGIES:
            (zones, frames, error), = assert_batch_matches_walk(
                name, [3] * 5, [("allocate", [], "spill")])
            assert zones.size == frames.size == 0 and error is None

    def test_one_fill_then_spill(self):
        (zones, _, error), = assert_batch_matches_walk(
            "two-pool", [4, 6], [("allocate", [0] * 7, "spill")])
        assert zones.tolist() == [0] * 4 + [1] * 3 and error is None

    def test_several_fills_in_one_allocation(self):
        first = [0, 1, 2, 3, 4] * 4 + [2] * 6
        (zones, _, error), = assert_batch_matches_walk(
            "chiplet-4", [2, 3, 1, 4, 20], [("allocate", first, "spill")])
        assert error is None and len(set(zones.tolist())) == 5

    def test_recycled_frames_after_free_many(self):
        import random
        steps = [("allocate", [0, 1] * 6, "spill"),
                 ("free", random.Random(3)),
                 ("allocate", [1, 0] * 7, "reversed"),
                 ("free", random.Random(5)),
                 ("allocate", [0] * 12, "fixed")]
        assert_batch_matches_walk("two-pool", [8, 9], steps)

    def test_strict_chain_runs_out(self):
        (zones, _, error), = assert_batch_matches_walk(
            "three-pool", [3, 2, 5], [("allocate", [1] * 9, "bind")])
        assert zones.tolist() == [2] * 5 + [0] * 3
        assert isinstance(error, ConfigError)
        assert str(error) == "no zone 5 in three-pool"

    def test_bind_to_a_missing_zone(self):
        outcomes = assert_place_all_matches_walk(
            "two-pool", [3, 4], [([2, 3], "BIND-0-5", [])], seed=1)
        assert outcomes == [
            ("ConfigError", "no zone 5 in simulated-baseline")]

    def test_preferred_zone_outside_the_topology(self):
        outcomes = assert_place_all_matches_walk(
            "three-pool", [3, 4, 5], [([2], "PREFERRED-7", [])], seed=1)
        assert outcomes == [("ConfigError", "no zone 7 in three-pool")]

    def test_total_oom_then_refault_after_free(self):
        outcomes = assert_place_all_matches_walk(
            "two-pool", [5, 4],
            [([6, 5], "BW-AWARE", [0]), ([3], "INTERLEAVE", [1, 2])],
            seed=9)
        assert outcomes[0] == (
            "OutOfMemoryError",
            "zones [0, 1] exhausted in topology simulated-baseline")
