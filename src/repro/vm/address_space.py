"""Per-process virtual address space and page table.

The address space hands out page-aligned virtual ranges with a bump
allocator (heap grows upward from :data:`HEAP_BASE`) and records the
physical mapping of every virtual page.  Mappings are stored in dense
numpy arrays indexed by virtual page number, which makes the hot
experiment path — "which zone serves this page?" for a few hundred
thousand trace entries — a single fancy-index operation.  Reserving a
range only moves the bump pointer; the tables grow to cover every
reserved page when they are next read, so a program that reserves all
its allocations before placing any grows them once.
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
        self._base_vpn = HEAP_BASE // PAGE_SIZE
        #: pages reserved so far; :meth:`_tables` grows the page
        #: tables to this length.
        self._n_pages = 0
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
        self._n_pages = allocation.first_vpn + allocation.n_pages \
            - self._base_vpn
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

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The zone and frame tables, grown to cover every reserved
        page."""
        grow = self._n_pages - len(self._zone)
        if grow:
            self._zone = np.concatenate(
                [self._zone, np.full(grow, UNMAPPED, dtype=np.int16)]
            )
            self._frame = np.concatenate(
                [self._frame, np.full(grow, -1, dtype=np.int64)]
            )
        return self._zone, self._frame

    def _index(self, vpn: int) -> int:
        idx = vpn - self._base_vpn
        if idx < 0 or idx >= self._n_pages:
            raise TranslationError(f"vpn {vpn} outside managed range")
        return idx

    def map_page(self, vpn: int, mapping: PageMapping) -> None:
        """Install the physical mapping for one virtual page."""
        idx = self._index(vpn)
        zone, frame = self._tables()
        if zone[idx] != UNMAPPED:
            raise TranslationError(f"vpn {vpn} is already mapped")
        zone[idx] = mapping.zone_id
        frame[idx] = mapping.frame

    def unmap_page(self, vpn: int) -> PageMapping:
        """Remove and return the mapping for one virtual page."""
        idx = self._index(vpn)
        zone, frame = self._tables()
        if zone[idx] == UNMAPPED:
            raise TranslationError(f"vpn {vpn} is not mapped")
        mapping = PageMapping(int(zone[idx]), int(frame[idx]))
        zone[idx] = UNMAPPED
        frame[idx] = -1
        return mapping

    def _span(self, allocation: Allocation) -> slice:
        start = allocation.first_vpn - self._base_vpn
        return slice(start, start + allocation.n_pages)

    def allocation_zones(self, allocation: Allocation) -> np.ndarray:
        """Read-only zone id per page of ``allocation`` (``UNMAPPED``
        where a page is not faulted in)."""
        view = self._tables()[0][self._span(allocation)]
        view.flags.writeable = False
        return view

    def unmapped_pages(self, allocation: Allocation) -> np.ndarray:
        """Indices, within ``allocation``, of its unmapped pages."""
        zone = self._tables()[0][self._span(allocation)]
        return (zone == UNMAPPED).nonzero()[0]

    def map_pages(self, allocation: Allocation, pages: np.ndarray,
                  zones: np.ndarray, frames: np.ndarray) -> None:
        """Install mappings for pages ``pages`` (increasing indices)
        of ``allocation``."""
        start = allocation.first_vpn - self._base_vpn
        if pages.size and pages[-1] - pages[0] + 1 == pages.size:
            # A run, such as every page of a fresh allocation.
            start += int(pages[0])
            where = slice(start, start + pages.size)
        else:
            where = start + pages
        zone, frame = self._tables()
        taken = (zone[where] != UNMAPPED).nonzero()[0]
        if taken.size:
            vpn = allocation.first_vpn + int(pages[taken[0]])
            raise TranslationError(f"vpn {vpn} is already mapped")
        zone[where] = zones
        frame[where] = frames

    def unmap_pages(self, allocation: Allocation
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Unmap every mapped page of ``allocation``.

        Returns the released ``(zones, frames)`` in page order.
        """
        span = self._span(allocation)
        zone, frame = self._tables()
        zone_view = zone[span]
        frame_view = frame[span]
        mapped = zone_view != UNMAPPED
        released = zone_view[mapped], frame_view[mapped]
        zone_view[mapped] = UNMAPPED
        frame_view[mapped] = -1
        return released

    def is_mapped(self, vpn: int) -> bool:
        idx = vpn - self._base_vpn
        if idx < 0 or idx >= self._n_pages:
            return False
        return self._tables()[0][idx] != UNMAPPED

    def translate(self, virtual_address: int) -> PageMapping:
        """Zone and frame backing ``virtual_address``."""
        idx = self._index(vpn_of(virtual_address))
        zone, frame = self._tables()
        if zone[idx] == UNMAPPED:
            raise TranslationError(
                f"page fault: {virtual_address:#x} is unmapped"
            )
        return PageMapping(int(zone[idx]), int(frame[idx]))

    def zone_of_vpns(self, vpns: np.ndarray) -> np.ndarray:
        """Vectorized translation of virtual page numbers to zone ids.

        Raises :class:`TranslationError` if any page is unmapped — a
        trace touching an unmapped page is a simulator bug, not a
        recoverable fault.
        """
        idx = np.asarray(vpns, dtype=np.int64) - self._base_vpn
        if idx.size and (idx.min() < 0 or idx.max() >= self._n_pages):
            raise TranslationError("vpn outside managed range")
        zones = self._tables()[0][idx]
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
        # Allocations tile the table in program order, with no gaps.
        flat = self._tables()[0].copy()
        if flat.size and flat.min() == UNMAPPED:
            raise TranslationError("zone_map() on partially mapped space")
        return flat
