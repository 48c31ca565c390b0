"""Annotation-driven placement (Section 5).

Programmers (or the :func:`repro.runtime.hints.get_allocation` helper fed
by the profiler) attach a :class:`PlacementHint` to each allocation:

* ``BO`` — best-effort placement in bandwidth-optimized memory,
* ``CO`` — best-effort placement in capacity-optimized memory,
* ``BW`` — fall back to application-agnostic BW-AWARE placement.

Hints are advisory, not functional: when the hinted pool is full the
allocator spills to the other pool, and unannotated allocations use
BW-AWARE — both behaviours straight from Section 5.2 ("memory hints are
honored unless the memory pool is filled to capacity").
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.errors import PolicyError
from repro.policies.base import PlacementContext, PlacementPolicy
from repro.policies.bwaware import BwAwarePolicy

if TYPE_CHECKING:
    from repro.vm.page import Allocation


class PlacementHint(enum.Enum):
    """The Section 5.2 ``cudaMalloc`` hint argument.

    Abstract by design: the hint names a *pool class*, not a machine
    zone, so annotated programs stay performance portable — the runtime
    maps the hint onto whatever topology it discovers.
    """

    BANDWIDTH_OPTIMIZED = "BO"
    CAPACITY_OPTIMIZED = "CO"
    BW_AWARE = "BW"


def coerce_hint(value: object) -> Optional[PlacementHint]:
    """Accept an enum member, its value string, or None."""
    if value is None or isinstance(value, PlacementHint):
        return value
    if isinstance(value, str):
        try:
            return PlacementHint(value.upper())
        except ValueError:
            raise PolicyError(f"unknown placement hint {value!r}")
    raise PolicyError(f"unknown placement hint {value!r}")


class AnnotatedPolicy(PlacementPolicy):
    """Honor per-allocation hints, BW-AWARE for everything else."""

    name = "ANNOTATED"

    def __init__(self,
                 fallback: Optional[BwAwarePolicy] = None) -> None:
        self._fallback = fallback if fallback is not None else BwAwarePolicy()
        self._bo_zone: Optional[int] = None
        self._co_zone: Optional[int] = None
        self._bo_quota: dict[int, int] = {}

    def prepare(self, allocations: Sequence[Allocation],
                ctx: PlacementContext) -> None:
        self._fallback.prepare(allocations, ctx)
        # Map abstract hints onto this machine: BO = the highest
        # bandwidth zone, CO = the highest *capacity* of the remaining
        # zones.  This is the topology classification Section 5.2 makes
        # the runtime (not the programmer) responsible for.
        sbit = ctx.tables.sbit
        zones = list(range(ctx.n_zones))
        self._bo_zone = max(zones, key=lambda z: sbit.bandwidth_gbps[z])
        others = [z for z in zones if z != self._bo_zone]
        if others:
            self._co_zone = max(
                others, key=lambda z: ctx.physical.allocator(z).capacity_pages
            )
        else:
            self._co_zone = self._bo_zone
        # Pre-partition the scarce BO frames among the BO-hinted
        # allocations in *hotness* order.  Without quotas, placement
        # runs in program order and a colder structure allocated early
        # would fill BO before a hotter one gets its turn — first-come
        # instead of hottest-first.
        self._bo_quota = {}
        bo_hinted = [
            a for a in allocations
            if coerce_hint(a.hint) is PlacementHint.BANDWIDTH_OPTIMIZED
        ]
        # Ties in hotness fall back to allocation id (program order), so
        # quota assignment is deterministic for any input ordering.
        remaining = ctx.free_pages(self._bo_zone)
        for allocation in sorted(bo_hinted,
                                 key=lambda a: (-a.hotness, a.alloc_id)):
            quota = min(allocation.n_pages, remaining)
            self._bo_quota[allocation.alloc_id] = quota
            remaining -= quota

    def first_zones(self, allocation: Allocation, pages: np.ndarray,
                    ctx: PlacementContext) -> np.ndarray:
        if self._bo_zone is None or self._co_zone is None:
            self.prepare((), ctx)
        hint = coerce_hint(allocation.hint)
        if hint is PlacementHint.BANDWIDTH_OPTIMIZED:
            quota = self._bo_quota.get(allocation.alloc_id,
                                       allocation.n_pages)
            return np.where(pages < quota, self._bo_zone, self._co_zone)
        if hint is PlacementHint.CAPACITY_OPTIMIZED:
            return np.full(len(pages), self._co_zone)
        # BW hint and unannotated allocations both use BW-AWARE.
        return self._fallback.first_zones(allocation, pages, ctx)

    def describe(self) -> str:
        return "ANNOTATED (program hints + BW-AWARE fallback)"
