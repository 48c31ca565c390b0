"""``/proc/<pid>/numa_maps``-style placement introspection.

On Linux, `numa_maps` is how administrators verify where a process's
pages actually landed; debugging placement policies without it is
guesswork.  This module renders the same view for a simulated
:class:`repro.vm.process.Process`: one line per allocation with its
policy-relevant metadata and per-node page counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vm.address_space import UNMAPPED
from repro.vm.process import Process


@dataclass(frozen=True)
class AllocationPlacement:
    """Placement breakdown of one allocation."""

    name: str
    va_start: int
    n_pages: int
    pages_by_zone: tuple[int, ...]
    mapped_pages: int

    @property
    def dominant_zone(self) -> int:
        """Zone holding the most pages of this allocation."""
        return int(np.argmax(self.pages_by_zone))

    def zone_fraction(self, zone_id: int) -> float:
        if self.mapped_pages == 0:
            return 0.0
        return self.pages_by_zone[zone_id] / self.mapped_pages


def allocation_breakdown(process: Process) -> tuple[AllocationPlacement, ...]:
    """Per-allocation zone page counts, in program order."""
    n_zones = len(process.topology)
    breakdown = []
    for allocation in process.space.allocations:
        zones = process.space.allocation_zones(allocation)
        mapped = zones[zones != UNMAPPED]
        counts = np.bincount(mapped, minlength=n_zones)
        breakdown.append(AllocationPlacement(
            name=allocation.name,
            va_start=allocation.va_start,
            n_pages=allocation.n_pages,
            pages_by_zone=tuple(int(c) for c in counts),
            mapped_pages=int(mapped.size),
        ))
    return tuple(breakdown)


def numa_maps(process: Process) -> str:
    """Render the process's placement in numa_maps style.

    One line per allocation::

        10000000 policy=<task policy> name=<alloc> anon=<pages> N0=.. N1=..

    plus a summary line with per-zone totals and occupancy.
    """
    lines = []
    policy_name = process.policy.name
    for item in allocation_breakdown(process):
        node_counts = " ".join(
            f"N{zone}={count}"
            for zone, count in enumerate(item.pages_by_zone)
            if count
        ) or "unmapped"
        lines.append(
            f"{item.va_start:012x} policy={policy_name} "
            f"name={item.name} anon={item.mapped_pages} {node_counts}"
        )
    totals = process.physical.occupancy()
    summary = " ".join(
        f"N{zone}: {used}/{capacity} pages"
        for zone, (used, capacity) in sorted(totals.items())
    )
    lines.append(f"total: {summary}")
    return "\n".join(lines)
