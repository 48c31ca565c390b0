"""Oracle page placement (Section 4.2).

Given *perfect knowledge* of per-page access frequency (the paper
obtains it with a two-phase simulation; we obtain it from a profiling
pass over the same trace), the oracle allocates the hottest pages into
the bandwidth-optimized memory until either

* the target bandwidth service ratio is satisfied — the BO pool should
  serve the SBIT bandwidth fraction of all accesses, no more — or
* BO capacity is exhausted.

Everything else goes to capacity-optimized memory.  The oracle therefore
achieves the ideal bandwidth distribution with the *smallest possible*
BO footprint, which is what lets it nearly double BW-AWARE's throughput
under a 10% capacity constraint on workloads with skewed CDFs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.errors import PolicyError
from repro.policies.base import PlacementContext, PlacementPolicy

if TYPE_CHECKING:
    from repro.vm.page import Allocation


class OraclePolicy(PlacementPolicy):
    """Two-phase oracle placement driven by a page-access profile.

    ``page_accesses[k]`` must be the DRAM access count of the ``k``-th
    page of the program footprint, in program allocation order — the
    same ordering as :meth:`repro.vm.address_space.AddressSpace.zone_map`
    and as produced by
    :class:`repro.profiling.profiler.PageAccessProfiler`.
    """

    name = "ORACLE"

    def __init__(self, page_accesses: Sequence[float] | np.ndarray) -> None:
        accesses = np.asarray(page_accesses, dtype=np.float64)
        if accesses.ndim != 1:
            raise PolicyError("page_accesses must be one-dimensional")
        if accesses.size == 0:
            raise PolicyError("page_accesses must not be empty")
        if np.any(accesses < 0):
            raise PolicyError("page access counts must be >= 0")
        self._accesses = accesses
        self._decision: np.ndarray | None = None
        self._offsets: dict[int, int] = {}

    def prepare(self, allocations: Sequence[Allocation],
                ctx: PlacementContext) -> None:
        total_pages = sum(a.n_pages for a in allocations)
        if total_pages != self._accesses.size:
            raise PolicyError(
                f"profile covers {self._accesses.size} pages but the "
                f"program allocates {total_pages}"
            )
        self._offsets = {}
        offset = 0
        for allocation in allocations:
            self._offsets[allocation.alloc_id] = offset
            offset += allocation.n_pages
        self._decision = self._solve(ctx)

    def _solve(self, ctx: PlacementContext) -> np.ndarray:
        """Assign each footprint page to a zone.

        Zones are filled in descending bandwidth order.  Each zone takes
        the hottest unassigned pages until it has either its bandwidth
        fraction of total accesses or no free capacity; the final zone
        takes the remainder.
        """
        fractions = ctx.tables.sbit.fractions()
        # Break count ties randomly: for streaming workloads many pages
        # share one count, and index-order ties would correlate the BO
        # set with execution time (early pages BO, late pages CO),
        # starving the tail of the run.  A random permutation keeps
        # tied pages temporally uncorrelated, like the paper's oracle.
        permutation = ctx.rng.permutation(self._accesses.size)
        order = permutation[np.argsort(-self._accesses[permutation],
                                       kind="stable")]
        total_accesses = float(self._accesses.sum())
        decision = np.full(self._accesses.size, -1, dtype=np.int16)

        zone_order = sorted(
            range(ctx.n_zones),
            key=lambda z: -ctx.tables.sbit.bandwidth_gbps[z],
        )
        cursor = 0
        for rank, zone_id in enumerate(zone_order):
            remaining = order[cursor:]
            if remaining.size == 0:
                break
            if rank == len(zone_order) - 1:
                take = remaining.size
            else:
                capacity = ctx.free_pages(zone_id)
                if total_accesses > 0:
                    target = fractions[zone_id] * total_accesses
                    cumulative = np.cumsum(self._accesses[remaining])
                    # Smallest page count reaching the target share.
                    take = int(np.searchsorted(cumulative, target)) + 1
                else:
                    take = int(round(fractions[zone_id] * remaining.size))
                take = min(take, capacity, remaining.size)
            decision[remaining[:take]] = zone_id
            cursor += take
        return decision

    def first_zones(self, allocation: Allocation, pages: np.ndarray,
                    ctx: PlacementContext) -> np.ndarray:
        if self._decision is None:
            raise PolicyError("OraclePolicy used before prepare()")
        offset = self._offsets.get(allocation.alloc_id)
        if offset is None:
            raise PolicyError(
                f"allocation {allocation.name!r} not seen at prepare()"
            )
        return self._decision[offset + pages]

    def describe(self) -> str:
        return "ORACLE (perfect page-access knowledge, two-phase)"
