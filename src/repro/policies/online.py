"""ONLINE: TPP-style dynamic promotion/demotion as a placement policy.

The paper stops at static placement and argues software migration
rarely pays at measured costs; this policy is the natural headline
extension — epoch-driven hot-page promotion into BO plus
watermark-driven proactive demotion to CO, in the style of TPP
("Transparent Page Placement for CXL-Enabled Tiered-Memory").  It
starts from a configurable *initial* static placement (default
BW-AWARE — the paper's recommendation stays the starting point, online
refinement is layered on top) and then lets the
:mod:`repro.migration` substrate move pages at epoch boundaries:

* hotness comes from :class:`repro.migration.tracker.HotnessTracker`
  (EMA access counters, knob ``decay``);
* the per-boundary plan comes from
  :class:`repro.migration.policy.EpochMigrationPolicy` (knobs
  ``budget_pages_per_epoch``, ``hysteresis``, ``watermarks``);
* moves are charged through the Section 5.5 cost model, scaled by
  ``cost_scale`` (1.0 = paper-measured costs, 0.0 = free);
* ``max_overhead`` rate-limits cumulative migration time to a fraction
  of execution time, which bounds how far ONLINE can degrade below its
  initial static policy on stationary workloads.

Because ONLINE's outcome depends on history, it cannot answer the
static per-page question alone: :meth:`first_zones` delegates to
the initial policy (that *is* ONLINE's placement at allocation time),
and the experiment harness detects ``dynamic = True`` and replays the
trace through :class:`repro.migration.engine.MigrationSimulator`.

Its spec is ``ONLINE`` or ``ONLINE@k=v,...``; the keys, their keywords
and defaults are declared once, in
:data:`repro.policies.registry.ONLINE_OPTIONS` (docs/api.md tabulates
them).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.errors import PolicyError
from repro.core.limits import DEFAULT_REQUEST_LIMITS
from repro.migration.policy import validate_watermarks
from repro.policies.base import (
    PlacementContext,
    PlacementPolicy,
)
from repro.policies.registry import (
    make_policy,
    online_kwargs,
    online_spec,
    parse_initial,
)


class OnlinePolicy(PlacementPolicy):
    """First-class registry policy wrapping the migration substrate."""

    name = "ONLINE"
    #: sentinel the experiment harness keys on: this policy's result
    #: depends on trace history, not just the allocation-time answer.
    dynamic = True

    def __init__(self, **options: object) -> None:
        """Keywords and defaults: the ``kwarg`` and ``default`` columns
        of :data:`repro.policies.registry.ONLINE_OPTIONS`."""
        knobs = online_kwargs(options)
        initial = knobs["initial"]
        if isinstance(initial, str):
            initial = parse_initial(initial)
        elif not isinstance(initial, PlacementPolicy):
            raise PolicyError(
                f"initial must be a policy spec or object, "
                f"got {type(initial).__name__}"
            )
        epochs = int(knobs["epochs"])
        if epochs < 1:
            raise PolicyError("epochs must be >= 1")
        DEFAULT_REQUEST_LIMITS.check_epochs(epochs)
        budget = knobs["budget_pages_per_epoch"]
        budget = None if budget is None else int(budget)
        if budget is not None and budget < 0:
            raise PolicyError("budget_pages_per_epoch must be >= 0 or None")
        hysteresis = float(knobs["hysteresis"])
        if not hysteresis >= 1.0:
            raise PolicyError("hysteresis must be >= 1")
        decay = float(knobs["decay"])
        if not 0.0 < decay <= 1.0:
            raise PolicyError("decay out of (0, 1]")
        cost_scale = float(knobs["cost_scale"])
        if not 0 <= cost_scale < float("inf"):
            raise PolicyError("cost_scale must be finite and >= 0")
        max_overhead = knobs["max_overhead"]
        max_overhead = None if max_overhead is None else float(max_overhead)
        if max_overhead is not None and not max_overhead >= 0:
            raise PolicyError("max_overhead must be >= 0 or None")
        self.initial = initial
        self.epochs = epochs
        self.budget_pages_per_epoch = budget
        self.hysteresis = hysteresis
        self.watermarks = validate_watermarks(knobs["watermarks"])
        self.decay = decay
        self.cost_scale = cost_scale
        self.max_overhead = max_overhead
        self.oracle_hotness = bool(knobs["oracle_hotness"])
        self._initial_obj: Optional[PlacementPolicy] = None

    # -- static-placement interface: delegate to the initial policy ----

    def initial_policy(self) -> PlacementPolicy:
        """The static policy ONLINE starts from, as an object.

        Raises :class:`PolicyError` for initials that need a profiling
        pass (ORACLE/ANNOTATED) — those are resolved by the experiment
        harness, which knows the workload being run.
        """
        if isinstance(self.initial, PlacementPolicy):
            return self.initial
        if self._initial_obj is None:
            self._initial_obj = make_policy(self.initial)
        return self._initial_obj

    def prepare(self, allocations, ctx: PlacementContext) -> None:
        self.initial_policy().prepare(allocations, ctx)

    def first_zones(self, allocation, pages,
                    ctx: PlacementContext):
        return self.initial_policy().first_zones(allocation, pages, ctx)

    def spill_order(self, first: int,
                    ctx: PlacementContext) -> Sequence[int]:
        return self.initial_policy().spill_order(first, ctx)

    # -- canonical description -----------------------------------------

    def describe(self) -> str:
        return online_spec(self)
