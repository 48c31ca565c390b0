"""Physical frame allocators and the spill chain."""

import numpy as np
import pytest

from repro.core.errors import ConfigError, OutOfMemoryError
from repro.memory.topology import simulated_baseline
from repro.vm.allocator import PhysicalMemory, ZoneAllocator
from repro.vm.page import PageMapping


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
