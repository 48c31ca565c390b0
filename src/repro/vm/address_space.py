"""Per-process virtual address space and page table.

The address space hands out page-aligned virtual ranges with a bump
allocator (heap grows upward from :data:`HEAP_BASE`) and records the
physical mapping of every virtual page.  Mappings are stored in dense
numpy arrays indexed by virtual page number, which makes the hot
experiment path — "which zone serves this page?" for a few hundred
thousand trace entries — a single fancy-index operation.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.errors import AllocationError, TranslationError
from repro.core.units import PAGE_SIZE, bytes_to_pages
from repro.vm.page import Allocation, PageMapping, vpn_of

#: Bottom of the simulated heap.  Non-zero so that address zero stays an
#: obviously invalid pointer, as on a real machine.
HEAP_BASE = 0x1000_0000

#: Sentinel in the zone array for unmapped pages.
UNMAPPED = -1


class AddressSpace:
    """Virtual address space of one process."""

    def __init__(self) -> None:
        self._next_va = HEAP_BASE
        self._allocations: list[Allocation] = []
        base_vpn = HEAP_BASE // PAGE_SIZE
        self._base_vpn = base_vpn
        self._zone = np.full(0, UNMAPPED, dtype=np.int16)
        self._frame = np.full(0, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Virtual range management
    # ------------------------------------------------------------------

    @property
    def allocations(self) -> tuple[Allocation, ...]:
        """All live allocations in program order."""
        return tuple(self._allocations)

    @property
    def footprint_bytes(self) -> int:
        """Sum of allocation sizes (page-rounded)."""
        return sum(a.n_pages * PAGE_SIZE for a in self._allocations)

    @property
    def footprint_pages(self) -> int:
        return sum(a.n_pages for a in self._allocations)

    def reserve(self, size_bytes: int, name: str = "",
                hint: Optional[object] = None,
                hotness: float = 1.0) -> Allocation:
        """Reserve a page-aligned virtual range without mapping it."""
        if size_bytes <= 0:
            raise AllocationError("allocation size must be positive")
        allocation = Allocation(
            alloc_id=len(self._allocations),
            name=name or f"alloc{len(self._allocations)}",
            va_start=self._next_va,
            size_bytes=size_bytes,
            hint=hint,
            hotness=hotness,
        )
        self._next_va = allocation.va_end
        self._allocations.append(allocation)
        self._grow_tables(allocation.first_vpn + allocation.n_pages)
        return allocation

    def allocation_of(self, virtual_address: int) -> Allocation:
        """The allocation containing ``virtual_address``."""
        for allocation in self._allocations:
            if allocation.contains(virtual_address):
                return allocation
        raise TranslationError(
            f"address {virtual_address:#x} is not in any allocation"
        )

    # ------------------------------------------------------------------
    # Page table
    # ------------------------------------------------------------------

    def _grow_tables(self, end_vpn: int) -> None:
        needed = end_vpn - self._base_vpn
        if needed <= len(self._zone):
            return
        grow = needed - len(self._zone)
        self._zone = np.concatenate(
            [self._zone, np.full(grow, UNMAPPED, dtype=np.int16)]
        )
        self._frame = np.concatenate(
            [self._frame, np.full(grow, -1, dtype=np.int64)]
        )

    def _index(self, vpn: int) -> int:
        idx = vpn - self._base_vpn
        if idx < 0 or idx >= len(self._zone):
            raise TranslationError(f"vpn {vpn} outside managed range")
        return idx

    def map_page(self, vpn: int, mapping: PageMapping) -> None:
        """Install the physical mapping for one virtual page."""
        idx = self._index(vpn)
        if self._zone[idx] != UNMAPPED:
            raise TranslationError(f"vpn {vpn} is already mapped")
        self._zone[idx] = mapping.zone_id
        self._frame[idx] = mapping.frame

    def unmap_page(self, vpn: int) -> PageMapping:
        """Remove and return the mapping for one virtual page."""
        idx = self._index(vpn)
        if self._zone[idx] == UNMAPPED:
            raise TranslationError(f"vpn {vpn} is not mapped")
        mapping = PageMapping(int(self._zone[idx]), int(self._frame[idx]))
        self._zone[idx] = UNMAPPED
        self._frame[idx] = -1
        return mapping

    def _span(self, allocation: Allocation) -> slice:
        start = allocation.first_vpn - self._base_vpn
        return slice(start, start + allocation.n_pages)

    def allocation_zones(self, allocation: Allocation) -> np.ndarray:
        """Read-only zone id per page of ``allocation`` (``UNMAPPED``
        where a page is not faulted in)."""
        view = self._zone[self._span(allocation)]
        view.flags.writeable = False
        return view

    def unmapped_pages(self, allocation: Allocation) -> np.ndarray:
        """Indices, within ``allocation``, of its unmapped pages."""
        return np.flatnonzero(self._zone[self._span(allocation)] == UNMAPPED)

    def map_pages(self, allocation: Allocation, pages: np.ndarray,
                  zones: np.ndarray, frames: np.ndarray) -> None:
        """Install mappings for pages ``pages`` of ``allocation``."""
        span = self._span(allocation)
        zone_view = self._zone[span]
        taken = np.flatnonzero(zone_view[pages] != UNMAPPED)
        if taken.size:
            vpn = allocation.first_vpn + int(pages[taken[0]])
            raise TranslationError(f"vpn {vpn} is already mapped")
        zone_view[pages] = zones
        self._frame[span][pages] = frames

    def unmap_pages(self, allocation: Allocation
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Unmap every mapped page of ``allocation``.

        Returns the released ``(zones, frames)`` in page order.
        """
        span = self._span(allocation)
        zone_view = self._zone[span]
        frame_view = self._frame[span]
        mapped = zone_view != UNMAPPED
        released = zone_view[mapped], frame_view[mapped]
        zone_view[mapped] = UNMAPPED
        frame_view[mapped] = -1
        return released

    def is_mapped(self, vpn: int) -> bool:
        idx = vpn - self._base_vpn
        if idx < 0 or idx >= len(self._zone):
            return False
        return self._zone[idx] != UNMAPPED

    def translate(self, virtual_address: int) -> PageMapping:
        """Zone and frame backing ``virtual_address``."""
        idx = self._index(vpn_of(virtual_address))
        if self._zone[idx] == UNMAPPED:
            raise TranslationError(
                f"page fault: {virtual_address:#x} is unmapped"
            )
        return PageMapping(int(self._zone[idx]), int(self._frame[idx]))

    def zone_of_vpns(self, vpns: np.ndarray) -> np.ndarray:
        """Vectorized translation of virtual page numbers to zone ids.

        Raises :class:`TranslationError` if any page is unmapped — a
        trace touching an unmapped page is a simulator bug, not a
        recoverable fault.
        """
        idx = np.asarray(vpns, dtype=np.int64) - self._base_vpn
        if idx.size and (idx.min() < 0 or idx.max() >= len(self._zone)):
            raise TranslationError("vpn outside managed range")
        zones = self._zone[idx]
        if idx.size and zones.min() == UNMAPPED:
            bad = int(np.asarray(vpns)[zones == UNMAPPED][0])
            raise TranslationError(f"page fault: vpn {bad} is unmapped")
        return zones.astype(np.int64)

    def zone_map(self) -> np.ndarray:
        """Zone id per *allocated* page, in allocation/program order.

        This is the canonical "placement vector" the experiment harness
        and the analytic engines consume: entry ``k`` is the zone backing
        the ``k``-th page of the program footprint.
        """
        pieces = [self._zone[self._span(a)] for a in self._allocations]
        if not pieces:
            return np.empty(0, dtype=np.int16)
        flat = np.concatenate(pieces)
        if flat.size and flat.min() == UNMAPPED:
            raise TranslationError("zone_map() on partially mapped space")
        return flat
