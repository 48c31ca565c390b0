"""The process: where address space, physical memory and policy meet.

A :class:`Process` owns one :class:`AddressSpace`, shares the system's
:class:`PhysicalMemory`, and applies placement policies at allocation
time — the paper studies *initial* placement, explicitly deferring page
migration (Section 5.5), so pages are placed once, when faulted in.

Two usage styles are supported, matching the two software layers in the
paper:

* the **OS style** — ``set_mempolicy`` + ``mmap`` with the task policy,
  ``mbind`` to override a specific range (Section 2.2);
* the **bulk style** used by the experiment harness — reserve every
  allocation, then :meth:`place_all` with one policy, which gives
  whole-program policies (the oracle) their two-phase ``prepare`` hook.

Both styles fault pages in through :meth:`Process.fault_in`, the one
placement path, which works an allocation at a time: it asks the
effective policy once for the first-choice zone of every unmapped page
(in page order), then lets :meth:`PhysicalMemory.allocate_pages` apply
the spill chains and hand out frames for the whole batch.  Zones,
frames and policy state (random draws, round-robin counters) come out
exactly as if each page had been faulted in on its own.

A process is cheap to build: its firmware tables come from
:func:`~repro.memory.acpi.enumerate_tables`, which keeps one
:class:`~repro.memory.acpi.FirmwareTables` per (topology, clock), and
reserving a range only moves the address space's bump pointer.  A
fault-in then costs a few array passes over the allocation's pages, in
the policy and in ``allocate_pages``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.errors import AllocationError, PolicyError
from repro.memory.acpi import FirmwareTables, enumerate_tables
from repro.memory.topology import SystemTopology
from repro.policies.base import PlacementContext, PlacementPolicy
from repro.policies.local import LocalPolicy
from repro.vm.address_space import UNMAPPED, AddressSpace
from repro.vm.allocator import PhysicalMemory
from repro.vm.page import Allocation


class Process:
    """A GPU-side process with allocation-time page placement.

    ``tables`` defaults to the memoised firmware view of ``topology``
    (shared with every process built on an equal topology);
    ``physical`` defaults to a fresh :class:`PhysicalMemory`.
    """

    def __init__(self, topology: SystemTopology,
                 physical: Optional[PhysicalMemory] = None,
                 tables: Optional[FirmwareTables] = None,
                 policy: Optional[PlacementPolicy] = None,
                 seed: int = 0) -> None:
        self.topology = topology
        self.physical = physical if physical is not None else PhysicalMemory(topology)
        self.tables = tables if tables is not None else enumerate_tables(topology)
        self.space = AddressSpace()
        self._policy = policy if policy is not None else LocalPolicy()
        self._vma_policies: dict[int, PlacementPolicy] = {}
        self._ctx = PlacementContext(
            tables=self.tables,
            physical=self.physical,
            local_zone=topology.gpu_local_zone,
            rng=np.random.default_rng(seed),
        )
        self._prepared_policies: set[int] = set()

    @property
    def context(self) -> PlacementContext:
        """The placement context policies are evaluated in."""
        return self._ctx

    @property
    def policy(self) -> PlacementPolicy:
        """The task-wide default policy."""
        return self._policy

    # ------------------------------------------------------------------
    # Linux-shaped API
    # ------------------------------------------------------------------

    def set_mempolicy(self, policy: PlacementPolicy) -> None:
        """Replace the task default policy (affects future faults only)."""
        self._policy = policy
        self._prepared_policies.discard(id(policy))

    def mbind(self, allocation: Allocation,
              policy: PlacementPolicy) -> None:
        """Attach a per-range policy, as ``mbind(2)`` does for a VMA.

        Must run before the range is faulted in: this model places pages
        exactly once (no migration), mirroring the paper's focus on
        initial placement.
        """
        if (self.space.allocation_zones(allocation) != UNMAPPED).any():
            raise PolicyError(
                f"mbind on {allocation.name!r} after pages were placed; "
                "this model does not migrate pages"
            )
        self._vma_policies[allocation.alloc_id] = policy
        self._prepared_policies.discard(id(policy))

    def reserve(self, size_bytes: int, name: str = "",
                hint: Optional[object] = None,
                hotness: float = 1.0) -> Allocation:
        """Reserve a virtual range without faulting pages in."""
        return self.space.reserve(size_bytes, name=name, hint=hint,
                                  hotness=hotness)

    def mmap(self, size_bytes: int, name: str = "",
             hint: Optional[object] = None,
             hotness: float = 1.0) -> Allocation:
        """Reserve and immediately fault in a range with the task policy."""
        allocation = self.reserve(size_bytes, name=name, hint=hint,
                                  hotness=hotness)
        self.fault_in(allocation)
        return allocation

    def fault_in(self, allocation: Allocation) -> None:
        """Place every unmapped page of ``allocation`` with its
        effective policy.

        The policy answers once, for the unmapped pages in order.  On a
        non-strict policy every zone backs every chain, so memory runs
        out exactly at the page after the last free frame; the policy is
        asked for no page beyond that one.  When a page cannot be
        placed, the pages before it stay mapped and its
        :class:`OutOfMemoryError` propagates.
        """
        policy = self._vma_policies.get(allocation.alloc_id, self._policy)
        self._ensure_prepared(policy)
        pages = self.space.unmapped_pages(allocation)
        if not policy.strict:
            pages = pages[:self.physical.total_free_pages() + 1]
        if not pages.size:
            return
        first = np.asarray(policy.first_zones(allocation, pages, self._ctx))
        if first.shape != pages.shape:
            raise PolicyError(
                f"{policy.name} answered {first.size} zones for "
                f"{pages.size} pages"
            )
        zones, frames, error = self.physical.allocate_pages(
            first, lambda zone: policy.spill_order(zone, self._ctx),
            strict=policy.strict)
        self.space.map_pages(allocation, pages[:zones.size], zones, frames)
        if error is not None:
            raise error

    def _ensure_prepared(self, policy: PlacementPolicy) -> None:
        if id(policy) not in self._prepared_policies:
            policy.prepare(self.space.allocations, self._ctx)
            self._prepared_policies.add(id(policy))

    # ------------------------------------------------------------------
    # Bulk style for the experiment harness
    # ------------------------------------------------------------------

    def place_all(self, policy: Optional[PlacementPolicy] = None) -> np.ndarray:
        """Fault in every reserved-but-unmapped allocation.

        Runs the policy's two-phase ``prepare`` over the complete
        allocation list first, then places pages in program order.
        Returns the footprint zone map (zone id per page, program
        order) — the vector the performance engines consume.
        """
        if policy is not None:
            self.set_mempolicy(policy)
        active = self._policy
        active.prepare(self.space.allocations, self._ctx)
        self._prepared_policies.add(id(active))
        for allocation in self.space.allocations:
            self.fault_in(allocation)
        return self.zone_map()

    def zone_map(self) -> np.ndarray:
        """Zone id per footprint page, program order."""
        return self.space.zone_map()

    def free(self, allocation: Allocation) -> None:
        """Release the physical frames of ``allocation``.

        The virtual range stays reserved (no VA reuse), which keeps
        trace virtual addresses stable across the run.
        """
        self.physical.free_many(*self.space.unmap_pages(allocation))

    def occupancy_fraction(self, zone_id: int) -> float:
        """Fraction of a zone's frames currently used."""
        used, capacity = self.physical.occupancy()[zone_id]
        return used / capacity
