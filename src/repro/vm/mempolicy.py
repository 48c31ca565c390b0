"""Linux-shaped memory policy API.

The paper frames BW-AWARE as "adding another mode (MPOL_BWAWARE) to the
set_mempolicy() system call"; this module provides that system-call
surface.  :class:`MemPolicyMode` mirrors the kernel's mode constants
plus the proposed mode, :func:`policy_for_mode` builds the matching
decision object, and two small kernel policies (MPOL_BIND,
MPOL_PREFERRED) that the paper's libNUMA discussion references are
implemented here directly.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

import numpy as np

from repro.core.errors import PolicyError
from repro.policies.base import PlacementContext, PlacementPolicy
from repro.policies.bwaware import BwAwarePolicy
from repro.policies.interleave import InterleavePolicy
from repro.policies.local import LocalPolicy
from repro.vm.page import Allocation


class MemPolicyMode(enum.Enum):
    """``set_mempolicy`` modes, including the paper's MPOL_BWAWARE."""

    MPOL_DEFAULT = "default"      # LOCAL allocation
    MPOL_PREFERRED = "preferred"  # one preferred zone, then nearest
    MPOL_BIND = "bind"            # strict nodemask, OOM when exhausted
    MPOL_INTERLEAVE = "interleave"
    MPOL_BWAWARE = "bwaware"      # the proposed mode (Section 3.1)


class BindPolicy(PlacementPolicy):
    """MPOL_BIND: allocate only from the nodemask, strictly."""

    name = "BIND"
    strict = True

    def __init__(self, nodemask: Sequence[int]) -> None:
        zones = tuple(dict.fromkeys(int(z) for z in nodemask))
        if not zones:
            raise PolicyError("MPOL_BIND needs a non-empty nodemask")
        self._zones = zones

    def first_zones(self, allocation: Allocation, pages: np.ndarray,
                    ctx: PlacementContext) -> np.ndarray:
        return np.full(len(pages), self._zones[0])

    def spill_order(self, first: int,
                    ctx: PlacementContext) -> Sequence[int]:
        return self._zones

    def describe(self) -> str:
        return f"BIND {list(self._zones)} (strict)"


class PreferredPolicy(PlacementPolicy):
    """MPOL_PREFERRED: one preferred zone, graceful fallback."""

    name = "PREFERRED"

    def __init__(self, zone_id: int) -> None:
        if zone_id < 0:
            raise PolicyError("preferred zone must be >= 0")
        self._zone = int(zone_id)

    def first_zones(self, allocation: Allocation, pages: np.ndarray,
                    ctx: PlacementContext) -> np.ndarray:
        return np.full(len(pages), self._zone)

    def describe(self) -> str:
        return f"PREFERRED zone {self._zone}"


def policy_for_mode(mode: MemPolicyMode,
                    nodemask: Optional[Sequence[int]] = None,
                    fractions: Optional[Sequence[float]] = None
                    ) -> PlacementPolicy:
    """Build the decision object for a ``set_mempolicy``-style request.

    ``nodemask`` is required for MPOL_BIND and MPOL_PREFERRED and
    optional for MPOL_INTERLEAVE (defaults to all zones).  ``fractions``
    optionally pins MPOL_BWAWARE to an explicit split instead of the
    SBIT-derived one.
    """
    if mode is MemPolicyMode.MPOL_DEFAULT:
        return LocalPolicy()
    if mode is MemPolicyMode.MPOL_INTERLEAVE:
        return InterleavePolicy(zone_subset=nodemask)
    if mode is MemPolicyMode.MPOL_BWAWARE:
        return BwAwarePolicy(fractions=fractions)
    if mode is MemPolicyMode.MPOL_BIND:
        if not nodemask:
            raise PolicyError("MPOL_BIND requires a nodemask")
        return BindPolicy(nodemask)
    if mode is MemPolicyMode.MPOL_PREFERRED:
        if not nodemask or len(list(nodemask)) != 1:
            raise PolicyError("MPOL_PREFERRED takes exactly one zone")
        return PreferredPolicy(list(nodemask)[0])
    raise PolicyError(f"unhandled mode {mode}")
