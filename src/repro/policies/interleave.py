"""The Linux INTERLEAVE placement policy.

Pages are handed out round-robin across all (or a subset of) NUMA zones
(Section 2.2).  On a bandwidth-symmetric SMP this spreads load evenly;
on a heterogeneous system its fixed 1/N split oversubscribes the
capacity-optimized pool — the 50C-50B point of Figure 3 — which is why
the paper can beat it by 35%.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.errors import PolicyError
from repro.policies.base import PlacementContext, PlacementPolicy

if TYPE_CHECKING:
    from repro.vm.page import Allocation


class InterleavePolicy(PlacementPolicy):
    """Round-robin placement across a zone set.

    ``zone_subset`` restricts interleaving to specific zones (the Linux
    API takes a nodemask); the default uses every zone in the system.
    The round-robin counter is global across allocations, matching the
    kernel's per-task ``il_next`` behaviour.
    """

    name = "INTERLEAVE"

    def __init__(self, zone_subset: Optional[Sequence[int]] = None) -> None:
        if zone_subset is not None:
            subset = tuple(dict.fromkeys(int(z) for z in zone_subset))
            if not subset:
                raise PolicyError("zone_subset must not be empty")
            self._subset: Optional[tuple[int, ...]] = subset
        else:
            self._subset = None
        self._counter = 0

    def prepare(self, allocations, ctx: PlacementContext) -> None:
        self._counter = 0
        if self._subset is not None:
            for zone_id in self._subset:
                if zone_id >= ctx.n_zones or zone_id < 0:
                    raise PolicyError(
                        f"zone {zone_id} not present in this system"
                    )

    def _zones(self, ctx: PlacementContext) -> tuple[int, ...]:
        if self._subset is not None:
            return self._subset
        return tuple(range(ctx.n_zones))

    def first_zones(self, allocation: Allocation, pages: np.ndarray,
                    ctx: PlacementContext) -> np.ndarray:
        zones = np.asarray(self._zones(ctx))
        turns = self._counter + np.arange(len(pages))
        self._counter += len(pages)
        return zones[turns % len(zones)]

    def describe(self) -> str:
        if self._subset is not None:
            return f"INTERLEAVE over zones {list(self._subset)}"
        return "INTERLEAVE (Linux round-robin, 50C-50B on two zones)"
