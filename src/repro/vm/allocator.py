"""Physical frame allocators.

:class:`ZoneAllocator` hands out frames from one NUMA zone;
:class:`PhysicalMemory` aggregates one allocator per zone of a topology
and implements the fallback chain semantics Linux uses: try the preferred
zones in order, and only raise :class:`OutOfMemoryError` once *every*
zone is exhausted.  This fallback is load-bearing for the paper's
capacity-constraint experiments — when the BO pool fills, placement
policies silently spill to the CO pool exactly as ``mbind`` does.

:meth:`PhysicalMemory.allocate_pages` applies that chain to a whole
batch of pages at once, with the result of the page-by-page walk.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.core.errors import ConfigError, OutOfMemoryError
from repro.memory.topology import SystemTopology
from repro.vm.page import PageMapping


class ZoneAllocator:
    """Frame allocator for a single zone.

    Frames are integers in ``[0, capacity_pages)``.  A simple bump
    pointer plus an explicit LIFO free list is enough: the simulator
    never cares about physical frame adjacency, only about which *zone*
    backs each page.  A set mirrors the free list so the double-free
    check is O(1).
    """

    def __init__(self, zone_id: int, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ConfigError("capacity_pages must be positive")
        self.zone_id = zone_id
        self.capacity_pages = capacity_pages
        self._next_frame = 0
        self._free_list: list[int] = []
        self._free_set: set[int] = set()

    @property
    def used_pages(self) -> int:
        """Frames currently handed out."""
        return self._next_frame - len(self._free_list)

    @property
    def free_pages(self) -> int:
        """Frames still available."""
        return self.capacity_pages - self._next_frame + len(self._free_list)

    @property
    def full(self) -> bool:
        return self.free_pages == 0

    def allocate(self) -> int:
        """Take one frame; raises :class:`OutOfMemoryError` when full."""
        if self._free_list:
            frame = self._free_list.pop()
            self._free_set.discard(frame)
            return frame
        if self._next_frame >= self.capacity_pages:
            raise OutOfMemoryError(
                f"zone {self.zone_id} exhausted "
                f"({self.capacity_pages} pages)"
            )
        frame = self._next_frame
        self._next_frame += 1
        return frame

    def allocate_many(self, count: int) -> np.ndarray:
        """Take ``count`` frames (all-or-nothing).

        The frames come in the order ``count`` calls to :meth:`allocate`
        would return them: recycled frames last-freed first, then fresh
        ones from the bump pointer.
        """
        if count < 0:
            raise ConfigError("count must be >= 0")
        if count > self.free_pages:
            raise OutOfMemoryError(
                f"zone {self.zone_id}: requested {count} frames, "
                f"{self.free_pages} free"
            )
        fresh = max(0, count - len(self._free_list))
        # The last ``fresh`` entries are the bump pointer's frames; the
        # ones before them are overwritten with the recycled frames.
        frames = np.arange(self._next_frame + fresh - count,
                           self._next_frame + fresh, dtype=np.int64)
        if fresh < count:
            keep = len(self._free_list) - (count - fresh)
            recycled = self._free_list[keep:]
            del self._free_list[keep:]
            self._free_set.difference_update(recycled)
            frames[:count - fresh] = recycled[::-1]
        self._next_frame += fresh
        return frames

    def free(self, frame: int) -> None:
        """Return a frame to the pool."""
        self.free_many((frame,))

    def free_many(self, frames: Iterable[int]) -> None:
        """Return frames to the pool in order (all-or-nothing).

        Raises :class:`ConfigError` for the first frame that was never
        allocated or is already free, before returning any.
        """
        listed = [int(frame) for frame in frames]
        batch: set[int] = set()
        for frame in listed:
            if not 0 <= frame < self._next_frame:
                raise ConfigError(f"frame {frame} was never allocated")
            if frame in self._free_set or frame in batch:
                raise ConfigError(f"double free of frame {frame}")
            batch.add(frame)
        self._free_list.extend(listed)
        self._free_set.update(batch)


class PhysicalMemory:
    """All physical frames in the system, one allocator per zone."""

    def __init__(self, topology: SystemTopology) -> None:
        self.topology = topology
        self._allocators = {
            zone.zone_id: ZoneAllocator(zone.zone_id, zone.capacity_pages)
            for zone in topology
        }

    def allocator(self, zone_id: int) -> ZoneAllocator:
        try:
            return self._allocators[zone_id]
        except KeyError:
            raise ConfigError(f"no zone {zone_id} in {self.topology.name}")

    def free_pages(self, zone_id: int) -> int:
        return self.allocator(zone_id).free_pages

    def used_pages(self, zone_id: int) -> int:
        return self.allocator(zone_id).used_pages

    def total_free_pages(self) -> int:
        return sum(a.free_pages for a in self._allocators.values())

    def has_space(self, zone_id: int) -> bool:
        return not self.allocator(zone_id).full

    def allocate(self, preferred: Iterable[int],
                 strict: bool = False) -> PageMapping:
        """Allocate one frame following a zone preference chain.

        ``preferred`` lists zone ids most-preferred first.  By default,
        zones missing from the list are appended in id order as a last
        resort so a policy bug can never fail an allocation the machine
        could serve.  With ``strict=True`` (MPOL_BIND semantics) only
        the listed zones are tried and exhaustion raises.  This is a
        one-page call of :meth:`allocate_pages`.
        """
        chain = self._chain(preferred, strict)
        zones, frames, error = self.allocate_pages(
            np.zeros(1, dtype=np.int64), lambda _: chain, strict)
        if error is not None:
            raise error
        return PageMapping(int(zones[0]), int(frames[0]))

    def allocate_pages(self, first: np.ndarray,
                       spill_order: Callable[[int], Sequence[int]],
                       strict: bool = False
                       ) -> tuple[np.ndarray, np.ndarray,
                                  Optional[Exception]]:
        """Allocate one frame per page, pages in order.

        ``first[i]`` is page ``i``'s first-choice zone and
        ``spill_order(zone)`` the preference chain behind a first zone
        (completed as in :meth:`allocate`).  The outcome is exactly that
        of calling :meth:`allocate` once per page, in order, with the
        page's chain.

        Until a zone fills, a page's zone depends only on its first
        zone, so the pages are placed in segments, one per zone that
        fills (at most one more than there are zones), each costing a
        handful of array operations over its pages: every first zone
        is redirected to where its chain lands, the segment is cut
        after the page that takes some zone's last free frame, and
        each zone hands its frames to its pages in page order.
        ``spill_order`` is asked once per distinct first zone.

        Returns ``(zones, frames, error)``.  ``zones`` and ``frames``
        cover the placed prefix of the pages.  ``error`` is what the
        next page raised (its chain exhausted, or a zone the topology
        lacks), or ``None`` when every page was placed.  The prefix
        stays allocated either way, as it would page by page.
        """
        first = np.asarray(first, dtype=np.intp)
        n_pages = first.size
        zones = np.empty(n_pages, dtype=np.int16)
        frames = np.empty(n_pages, dtype=np.int64)
        if not n_pages:
            return zones, frames, None
        allocators = self._allocators
        n_zones = len(allocators)
        # Zone ids are 0..n_zones-1, so a first zone of the topology is
        # its own slot.  (Viewed unsigned, a negative id is past them.)
        if first.view(np.uintp).max() < n_zones:
            index = first
            counts = np.bincount(first, minlength=n_zones).tolist()
            keys = slots = [zone for zone in range(n_zones) if counts[zone]]
        else:
            found, index = np.unique(first, return_inverse=True)
            keys, slots = found.tolist(), range(found.size)
        chains = [(slot, self._chain(spill_order(key), strict))
                  for slot, key in zip(slots, keys)]
        # Where each slot's pages land while no zone fills; -1 marks a
        # chain that cannot be served.
        redirect = [-1] * max(n_zones, len(keys))
        start = 0
        while True:
            errors: dict[int, Exception] = {}
            for slot, chain in chains:
                try:
                    redirect[slot] = self._first_free(chain)
                except (ConfigError, OutOfMemoryError) as exc:
                    redirect[slot] = -1
                    errors[slot] = exc
            # While every first zone lands on itself, the first zones
            # are the targets.
            identity = index is first and all(
                redirect[slot] == slot for slot in slots)
            if identity:
                target = index[start:]
            else:
                target = np.array(redirect)[index[start:]]
            stop = n_pages
            if errors:
                blocked = (target < 0).nonzero()[0]
                if blocked.size:
                    stop = start + int(blocked[0])
                    if stop == start:
                        return (zones[:start], frames[:start],
                                errors[int(index[start])])
            segment = target[:stop - start]
            if start or not identity:
                counts = np.bincount(segment, minlength=n_zones).tolist()
            # Cut the segment after the page that takes a zone's last
            # free frame: the pages behind it see a different chain.
            cut = stop
            taken = [(zone_id, count) for zone_id, count
                     in enumerate(counts) if count]
            for zone_id, count in taken:
                free = allocators[zone_id].free_pages
                if count >= free:
                    fill = int((segment == zone_id).nonzero()[0][free - 1])
                    cut = min(cut, start + fill + 1)
            if cut < stop:
                stop, segment = cut, segment[:cut - start]
                taken = [(zone_id, count) for zone_id, count in enumerate(
                    np.bincount(segment, minlength=n_zones).tolist())
                    if count]
            zones[start:stop] = segment
            handed = [allocators[zone_id].allocate_many(count)
                      for zone_id, count in taken]
            if len(handed) == 1:
                frames[start:stop] = handed[0]
            else:
                # A stable sort by zone lines the pages up with their
                # zones' frames, each zone's in page order.
                order = zones[start:stop].argsort(kind="stable")
                frames[start:stop][order] = np.concatenate(handed)
            if stop == n_pages:
                return zones, frames, None
            start = stop

    def _chain(self, preferred: Iterable[int], strict: bool) -> list[int]:
        chain = list(preferred)
        if not strict:
            chain += [z for z in self._allocators if z not in chain]
        return chain

    def _first_free(self, chain: list[int]) -> int:
        for zone_id in chain:
            if self.allocator(zone_id).free_pages:
                return zone_id
        raise OutOfMemoryError(
            f"zones {chain} exhausted in topology {self.topology.name}"
        )

    def free(self, mapping: PageMapping) -> None:
        """Return one frame."""
        self.allocator(mapping.zone_id).free(mapping.frame)

    def free_many(self, zones: np.ndarray, frames: np.ndarray) -> None:
        """Return the frames ``frames[i]`` of zones ``zones[i]``.

        Each zone's free list receives its frames in the given order,
        as freeing them one by one would.
        """
        for zone_id in np.unique(zones).tolist():
            self.allocator(zone_id).free_many(frames[zones == zone_id])

    def occupancy(self) -> dict[int, tuple[int, int]]:
        """``{zone_id: (used_pages, capacity_pages)}`` snapshot."""
        return {
            zone_id: (alloc.used_pages, alloc.capacity_pages)
            for zone_id, alloc in self._allocators.items()
        }
