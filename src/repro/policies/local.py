"""The Linux LOCAL (default) placement policy.

Every page goes to the NUMA zone local to the executing processor —
for a GPU process, the GPU-attached bandwidth-optimized pool — spilling
to the SLIT-nearest remote zone only when local capacity runs out
(Section 2.2).  LOCAL minimizes latency and is the best CPU default, but
for GPU workloads it leaves every byte/second of remote bandwidth on the
table, which is exactly the gap BW-AWARE closes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.policies.base import PlacementContext, PlacementPolicy

if TYPE_CHECKING:
    from repro.vm.page import Allocation


class LocalPolicy(PlacementPolicy):
    """Allocate from the local zone, spill by SLIT distance when full."""

    name = "LOCAL"

    def first_zones(self, allocation: Allocation, pages: np.ndarray,
                    ctx: PlacementContext) -> np.ndarray:
        return np.full(len(pages), ctx.local_zone)

    def describe(self) -> str:
        return "LOCAL (latency-optimized Linux default)"
