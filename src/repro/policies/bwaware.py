"""BW-AWARE placement — the paper's primary contribution (Section 3).

Pages are distributed across zones in the ratio of aggregate zone
bandwidths, read from the proposed SBIT firmware table:
``f_B = b_B / (b_B + b_C)`` for two pools, generalizing to the bandwidth
fraction vector for any pool count.  Section 3.1 derives that this
fraction minimizes ``T = max(N*f_B/b_B, N*(1-f_B)/b_C)`` under uniform
page access, i.e. it balances service time across pools that operate in
parallel.

Two implementations are provided:

* :class:`BwAwarePolicy` — the paper's fast-path implementation: draw a
  random number per page and compare against the cumulative fraction
  vector.  Stateless, no placement history, converges to the target
  ratio quickly (Section 3.2.2 describes exactly this for 30C-70B).
* :class:`CounterBwAwarePolicy` — an ablation variant that tracks
  placement counts and always picks the most-underweight zone, hitting
  the target ratio exactly at every prefix.  Used by the ablation bench
  to quantify how much the paper's random draw costs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.errors import PolicyError
from repro.policies.base import (
    PlacementContext,
    PlacementPolicy,
    validate_fractions,
)

if TYPE_CHECKING:
    from repro.vm.page import Allocation


def ratio_label(fractions: Sequence[float], bo_zone: int = 0) -> str:
    """Render a two-zone fraction vector in the paper's xC-yB notation.

    ``30C-70B`` means 30% of pages in capacity-optimized memory and 70%
    in bandwidth-optimized memory.
    """
    if len(fractions) != 2:
        raise PolicyError("xC-yB notation is defined for two zones")
    co_zone = 1 - bo_zone
    x = round(fractions[co_zone] * 100)
    y = round(fractions[bo_zone] * 100)
    return f"{x}C-{y}B"


def two_zone_fractions(co_percent: float, bo_zone: int = 0,
                       co_zone: int = 1) -> tuple[float, ...]:
    """Fraction vector for an explicit xC-yB split."""
    if not 0.0 <= co_percent <= 100.0:
        raise PolicyError(f"co_percent out of [0,100]: {co_percent}")
    fractions = [0.0, 0.0]
    fractions[co_zone] = co_percent / 100.0
    fractions[bo_zone] = 1.0 - co_percent / 100.0
    return tuple(fractions)


class BwAwarePolicy(PlacementPolicy):
    """Random-draw BW-AWARE placement (MPOL_BWAWARE).

    ``fractions`` fixes an explicit per-zone split (the xC-yB sweeps of
    Figure 3); when ``None`` the policy reads the SBIT at prepare time
    and uses the true bandwidth fractions — the deployment behaviour the
    paper proposes, where the ratio comes from firmware rather than the
    programmer.
    """

    name = "BW-AWARE"

    def __init__(self, fractions: Optional[Sequence[float]] = None) -> None:
        self._explicit = (
            validate_fractions(fractions) if fractions is not None else None
        )
        self._cumulative: Optional[np.ndarray] = None
        self._fractions: Optional[tuple[float, ...]] = self._explicit

    @classmethod
    def from_ratio(cls, co_percent: float, bo_zone: int = 0,
                   co_zone: int = 1) -> "BwAwarePolicy":
        """Policy for an explicit xC-yB split (e.g. ``from_ratio(30)``)."""
        return cls(two_zone_fractions(co_percent, bo_zone, co_zone))

    @property
    def fractions(self) -> tuple[float, ...]:
        if self._fractions is None:
            raise PolicyError("policy not prepared and no explicit ratio")
        return self._fractions

    @property
    def explicit_fractions(self) -> Optional[tuple[float, ...]]:
        """The constructor-pinned fraction vector, or ``None`` when the
        policy reads the SBIT at prepare time.  This is the policy's
        entire configuration, which is what lets the sweep runner
        serialize BW-AWARE instances into canonical spec strings."""
        return self._explicit

    def prepare(self, allocations, ctx: PlacementContext) -> None:
        if self._explicit is not None:
            fractions = self._explicit
            if len(fractions) != ctx.n_zones:
                raise PolicyError(
                    f"{len(fractions)} fractions for {ctx.n_zones} zones"
                )
        else:
            fractions = ctx.tables.sbit.fractions()
        self._fractions = tuple(fractions)
        self._cumulative = np.cumsum(np.asarray(fractions, dtype=float))

    def first_zones(self, allocation: Allocation, pages: np.ndarray,
                    ctx: PlacementContext) -> np.ndarray:
        if self._cumulative is None:
            self.prepare((), ctx)
        # The paper's implementation: draw in [0, 1), find the bucket.
        # A LOCAL-style shortcut when some fraction is zero falls out
        # naturally because a zero-width bucket can never be drawn.
        # One vector draw is the same stream as one scalar draw per page.
        draws = ctx.rng.random(len(pages))
        zones = np.searchsorted(self._cumulative, draws, side="right")
        return np.minimum(zones, ctx.n_zones - 1)

    def describe(self) -> str:
        if self._fractions is not None and len(self._fractions) == 2:
            return f"BW-AWARE {ratio_label(self._fractions)}"
        if self._explicit is None:
            return "BW-AWARE (SBIT bandwidth ratio)"
        return f"BW-AWARE {self._explicit}"


class CounterBwAwarePolicy(BwAwarePolicy):
    """Deterministic BW-AWARE: place each page in the most-underweight zone.

    Tracks how many pages each zone has received and assigns the next
    page to the zone whose achieved share lags its target share the
    most.  Exact at every prefix, at the cost of per-task state — the
    trade-off the paper avoids by using random draws on the allocation
    fast path.
    """

    name = "BW-AWARE-COUNTER"

    def __init__(self, fractions: Optional[Sequence[float]] = None) -> None:
        super().__init__(fractions)
        self._placed: Optional[np.ndarray] = None

    def prepare(self, allocations, ctx: PlacementContext) -> None:
        super().prepare(allocations, ctx)
        self._placed = np.zeros(ctx.n_zones, dtype=np.int64)

    def first_zones(self, allocation: Allocation, pages: np.ndarray,
                    ctx: PlacementContext) -> np.ndarray:
        if self._placed is None:
            self.prepare((), ctx)
        target = np.asarray(self.fractions)
        zones = np.empty(len(pages), dtype=np.int64)
        # Each pick depends on every earlier one: loop page by page.
        for k in range(len(pages)):
            total = self._placed.sum() + 1
            deficit = target * total - self._placed
            zones[k] = np.argmax(deficit)
            self._placed[zones[k]] += 1
        return zones

    def describe(self) -> str:
        return super().describe().replace("BW-AWARE", "BW-AWARE-COUNTER")
