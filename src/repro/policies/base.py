"""Placement policy framework.

A placement policy answers one question, at allocation time, for every
page of every allocation: *which zone should back this page?*  The
answer is a preference chain, not a single zone — when the preferred
zone is full the physical allocator falls through to the next entry,
reproducing the spill semantics of Linux ``mbind``/``set_mempolicy``
that drive the paper's capacity-constraint results.

Policies answer in batches: :meth:`PlacementPolicy.first_zones` gives
the first-choice zone of many pages of one allocation at once, and
:meth:`PlacementPolicy.spill_order` the chain behind each first zone.
Together they define the per-page chain
(:meth:`PlacementPolicy.preferred_zones`).

Policies are deliberately thin decision objects: they see only the
firmware tables (SRAT/SLIT/SBIT), current zone occupancy and the
allocation metadata.  They never touch the page table; the
:class:`repro.vm.process.Process` drives the actual mapping.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.errors import PolicyError
from repro.memory.acpi import FirmwareTables

if TYPE_CHECKING:  # break the policies <-> vm import cycle
    from repro.vm.allocator import PhysicalMemory
    from repro.vm.page import Allocation


@dataclass
class PlacementContext:
    """Everything a policy may consult when placing a page.

    ``tables`` is the firmware view (the paper's point is that policies
    must work from *exposed* information — SBIT for bandwidth — rather
    than from omniscient knowledge of the hardware).  ``rng`` provides
    the randomness for the paper's random-draw BW-AWARE implementation
    and is seeded by the experiment harness for reproducibility.
    """

    tables: FirmwareTables
    physical: PhysicalMemory
    local_zone: int
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )

    @property
    def n_zones(self) -> int:
        return len(self.tables.sbit.bandwidth_gbps)

    def zones_by_distance(self) -> tuple[int, ...]:
        """All zone ids ordered by SLIT distance from the local zone."""
        return self.tables.slit.nearest_domains(self.local_zone)

    def free_pages(self, zone_id: int) -> int:
        return self.physical.free_pages(zone_id)


class PlacementPolicy(abc.ABC):
    """Base class for page placement policies.

    Lifecycle: the process calls :meth:`prepare` once with the full
    allocation list (GPU programs hoist allocations to kernel start, per
    the CUDA best-practices guidance the paper cites), then
    :meth:`first_zones` once per allocation it faults in, with that
    allocation's unmapped pages in program order.

    The batch contract: a policy must answer a batch exactly as it
    would answer the same pages asked one at a time, in order.
    Stateful policies (random draws, round-robin counters) advance once
    per page asked.  The process asks for no page beyond the one that
    exhausts memory, so state after an out-of-memory error matches the
    page-by-page walk too.  ``ctx.free_pages`` reflects occupancy at
    the start of the allocation.
    """

    #: short identifier used in reports and the policy registry.
    name: str = "base"
    #: MPOL_BIND semantics: only zones in :meth:`spill_order` are tried
    #: and their exhaustion raises :class:`OutOfMemoryError`.
    strict: bool = False

    def prepare(self, allocations: Sequence[Allocation],
                ctx: PlacementContext) -> None:
        """Hook for policies needing whole-program knowledge (oracle)."""

    @abc.abstractmethod
    def first_zones(self, allocation: Allocation, pages: np.ndarray,
                    ctx: PlacementContext) -> np.ndarray:
        """First-choice zone for each of ``pages`` of ``allocation``.

        ``pages`` holds page indices (counting from 0 within the
        allocation) in increasing order; the result has one zone id per
        entry, in the same order.
        """

    def spill_order(self, first: int,
                    ctx: PlacementContext) -> Sequence[int]:
        """Zone preference chain for a page whose first choice is
        ``first``.

        The first zone with a free frame wins; zones absent from the
        chain are appended by the allocator as a final fallback unless
        the policy is :attr:`strict`.  Default: :func:`spill_chain`.
        """
        return spill_chain(first, ctx)

    def preferred_zones(self, allocation: Allocation, page_index: int,
                        ctx: PlacementContext) -> Sequence[int]:
        """Zone preference chain for page ``page_index`` of
        ``allocation``: a one-page :meth:`first_zones` call followed by
        :meth:`spill_order`."""
        first = self.first_zones(allocation, np.array([page_index]), ctx)
        return self.spill_order(int(first[0]), ctx)

    def describe(self) -> str:
        """One-line human description for reports."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


def spill_chain(first: int, ctx: PlacementContext) -> list[int]:
    """Preference chain starting at ``first`` then SLIT-nearest order.

    This mirrors the kernel's zonelist construction: the explicitly
    requested zone first, then remaining zones by increasing distance.
    """
    chain = [first]
    for zone_id in ctx.zones_by_distance():
        if zone_id != first:
            chain.append(zone_id)
    return chain


def validate_fractions(fractions: Sequence[float]) -> tuple[float, ...]:
    """Check that per-zone fractions are a probability vector."""
    fractions = tuple(float(f) for f in fractions)
    if not fractions:
        raise PolicyError("empty placement fraction vector")
    if any(f < 0 for f in fractions):
        raise PolicyError(f"negative placement fraction in {fractions}")
    total = sum(fractions)
    if abs(total - 1.0) > 1e-9:
        raise PolicyError(f"placement fractions sum to {total}, not 1")
    return fractions
