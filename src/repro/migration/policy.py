"""Online migration planning.

At each epoch boundary the migrator compares the hotness tracker's
current estimate against the placement and plans page moves toward the
oracle-shaped target: the hottest pages into BO until either the SBIT
bandwidth share of (estimated) traffic is captured or BO capacity is
full.  A per-epoch page budget models the limited migration rate.

Two TPP-style refinements (used by the ONLINE placement policy):

* **hysteresis** — a candidate promotion must be clearly hotter than
  the coldest resident BO page it would displace, damping ping-pong on
  near-ties;
* **watermarks** — when BO occupancy crosses the *high* watermark,
  cold pages are proactively demoted down to the *low* watermark, so
  later promotion bursts find free frames instead of spending their
  budget on paired demotions (TPP's "proactive demotion keeps a
  promotion headroom").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.errors import PolicyError
from repro.migration.tracker import HotnessTracker


@dataclass(frozen=True)
class MigrationPlan:
    """Pages to move this epoch boundary (footprint page indices)."""

    promote: np.ndarray  # -> BO
    demote: np.ndarray   # -> CO

    @property
    def n_pages(self) -> int:
        return int(self.promote.size + self.demote.size)


def validate_watermarks(watermarks) -> Optional[tuple[float, float]]:
    """Check a ``(low, high)`` BO-occupancy watermark pair.

    ``None`` disables proactive demotion.  Otherwise both values are
    occupancy fractions with ``0 < low <= high <= 1``.
    """
    if watermarks is None:
        return None
    try:
        low, high = (float(w) for w in watermarks)
    except (TypeError, ValueError):
        raise PolicyError(
            f"watermarks must be a (low, high) pair, got {watermarks!r}"
        )
    if not 0.0 < low <= high <= 1.0:
        raise PolicyError(
            f"watermarks need 0 < low <= high <= 1, got ({low}, {high})"
        )
    return (low, high)


def trim_to_budget(n_promote: int, n_demote: int,
                   budget: int) -> tuple[int, int]:
    """Cut a boundary's promotions and demotions to ``budget`` pages.

    The cut alternates, one promotion then one demotion, until the
    pair fits or one side runs out; then the other side alone shrinks.
    With ``excess = n_promote + n_demote - budget``, the alternation
    covers it when ``excess <= 2 * min(n_promote, n_demote)``
    (promotions give up the odd page); otherwise the smaller side ends
    at 0 and the larger keeps ``budget``.
    """
    excess = n_promote + n_demote - budget
    if excess <= 0:
        return n_promote, n_demote
    if excess <= 2 * min(n_promote, n_demote):
        return n_promote - (excess + 1) // 2, n_demote - excess // 2
    if n_promote > n_demote:
        return budget, 0
    return 0, budget


class EpochMigrationPolicy:
    """Greedy hottest-first migration toward the bandwidth target.

    ``budget_pages_per_epoch`` caps the pages moved per boundary
    (``None`` = unlimited); ``hysteresis`` requires a candidate
    promotion to be at least that factor hotter than the coldest
    resident BO page it would displace, damping thrash on near-ties.
    ``watermarks=(low, high)`` adds proactive demotion: whenever BO
    occupancy would end the boundary above ``high * capacity``, the
    coldest non-desired resident pages are demoted until occupancy
    falls to ``low * capacity`` (still within the budget).
    """

    def __init__(self, bo_zone: int, co_zone: int,
                 bo_capacity_pages: int, bo_traffic_fraction: float,
                 budget_pages_per_epoch: Optional[int] = None,
                 hysteresis: float = 1.25,
                 watermarks: Optional[tuple[float, float]] = None) -> None:
        if bo_zone == co_zone:
            raise PolicyError("BO and CO zones must differ")
        if bo_capacity_pages < 0:
            raise PolicyError("bo_capacity_pages must be >= 0")
        if not 0.0 < bo_traffic_fraction <= 1.0:
            raise PolicyError("bo_traffic_fraction out of (0,1]")
        if budget_pages_per_epoch is not None and budget_pages_per_epoch < 0:
            raise PolicyError("budget must be >= 0 or None")
        if hysteresis < 1.0:
            raise PolicyError("hysteresis must be >= 1")
        self.bo_zone = bo_zone
        self.co_zone = co_zone
        self.bo_capacity_pages = bo_capacity_pages
        self.bo_traffic_fraction = bo_traffic_fraction
        self.budget = budget_pages_per_epoch
        self.hysteresis = hysteresis
        self.watermarks = validate_watermarks(watermarks)

    def _desired_bo_set(self, tracker: HotnessTracker) -> np.ndarray:
        """The hottest pages, hottest first (ties by page index), until
        they carry the BO traffic share or fill BO capacity.

        At most ``bo_capacity_pages`` pages can be taken, so only those
        are ranked: a partition selects them, ties at the cut going to
        the lowest indices, and a stable sort orders the selection.
        That is the head of the whole footprint's stable hottest-first
        order, and so are its running sums.
        """
        scores = tracker.scores
        total = float(scores.sum())
        keep = min(self.bo_capacity_pages, scores.size)
        if total <= 0 or keep == 0:
            return np.empty(0, dtype=np.int64)
        neg = -scores
        if keep < scores.size:
            part = np.argpartition(neg, keep - 1)
            cut = neg[part[keep - 1]]
            hotter = part[:keep][neg[part[:keep]] < cut]
            tied = np.flatnonzero(neg == cut)[:keep - hotter.size]
            selected = np.sort(np.concatenate((hotter, tied)))
        else:
            selected = np.arange(scores.size)
        order = selected[np.argsort(neg[selected], kind="stable")]
        cumulative = np.cumsum(scores[order])
        target = self.bo_traffic_fraction * total
        take = int(np.searchsorted(cumulative, target)) + 1
        return order[:min(take, keep)]

    def plan(self, zone_map: np.ndarray, tracker: HotnessTracker,
             budget_pages: Optional[int] = None) -> MigrationPlan:
        """Plan this boundary's moves given the current placement.

        ``budget_pages`` further caps this boundary's moves below the
        policy's per-epoch budget (the ONLINE policy derives it from an
        execution-time overhead cap); the effective budget is the
        minimum of the two.  A zero effective budget returns an empty
        plan without ranking any page.
        """
        zone_map = np.asarray(zone_map)
        if zone_map.size != tracker.n_pages:
            raise PolicyError("zone map and tracker footprint mismatch")
        budget = self.budget
        if budget_pages is not None:
            if budget_pages < 0:
                raise PolicyError("budget_pages must be >= 0")
            budget = (budget_pages if budget is None
                      else min(budget, budget_pages))
        if budget == 0:
            # Exact shortcut: trim_to_budget(p, d, 0) is (0, 0) and
            # proactive demotion is capped by the same spent budget.
            return MigrationPlan(promote=np.empty(0, dtype=np.int64),
                                 demote=np.empty(0, dtype=np.int64))
        scores = tracker.scores
        desired = self._desired_bo_set(tracker)
        in_bo = zone_map == self.bo_zone

        desired_mask = np.zeros(zone_map.size, dtype=bool)
        desired_mask[desired] = True
        candidates = desired[~in_bo[desired]]          # want in, not in
        evictable = np.flatnonzero(in_bo & ~desired_mask)

        # Hysteresis: drop promotions that are not clearly hotter than
        # the pages they would displace.
        if candidates.size and evictable.size:
            floor = scores[evictable].min() * self.hysteresis
            candidates = candidates[scores[candidates] >= floor]

        # Hottest promotions first, coldest evictions first.  The
        # candidates already are: they are a filtered subsequence of
        # the desired set's stable hottest-first order.
        evictable = evictable[np.argsort(scores[evictable],
                                         kind="stable")]

        free_bo = self.bo_capacity_pages - int(in_bo.sum())
        n_promote = candidates.size
        n_demote = max(0, n_promote - free_bo)
        n_demote = min(n_demote, evictable.size)
        n_promote = min(n_promote, free_bo + n_demote)
        if budget is not None:
            n_promote, n_demote = trim_to_budget(n_promote, n_demote,
                                                 budget)
            # Never demote more than needed for the kept promotions.
            n_demote = min(n_demote,
                           max(0, n_promote - free_bo))
        n_demote = self._proactive_demotions(
            in_bo, evictable, n_promote, n_demote, budget)
        return MigrationPlan(
            promote=candidates[:n_promote],
            demote=evictable[:n_demote],
        )

    def _proactive_demotions(self, in_bo: np.ndarray,
                             evictable: np.ndarray, n_promote: int,
                             n_demote: int,
                             budget: Optional[int]) -> int:
        """Extend demotions down to the low watermark when occupancy
        would end the boundary above the high watermark."""
        if self.watermarks is None:
            return n_demote
        low, high = self.watermarks
        occupancy = int(in_bo.sum()) + n_promote - n_demote
        high_pages = int(high * self.bo_capacity_pages)
        if occupancy <= high_pages:
            return n_demote
        low_pages = int(low * self.bo_capacity_pages)
        extra = occupancy - low_pages
        extra = min(extra, evictable.size - n_demote)
        if budget is not None:
            extra = min(extra, budget - n_promote - n_demote)
        return n_demote + max(0, extra)
