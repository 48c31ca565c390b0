"""Epoch-driven dynamic migration simulation.

Replays a workload trace one execution epoch at a time; between epochs
the migration policy may move pages, paying the Section 5.5 cost model.
This is the experiment the paper *argues about* without running —
"software-based page migration is a very expensive operation ...
focusing on online page migration before finding an optimized initial
placement policy is putting the cart before the horse" — made
quantitative: the extension bench compares static BW-AWARE/oracle
placement against online migration from good and bad starting points,
under measured and idealized migration costs.

The simulator doubles as the execution engine behind the first-class
ONLINE placement policy (:mod:`repro.policies.online`), which needs a
few extras beyond the original ext_migration study:

* any performance engine (throughput/detailed/banked), not just the
  analytic one;
* ``oracle_scores`` — prefill the tracker with a full-trace profile
  (the differential tests' "oracle hotness" configuration) instead of
  learning hotness online;
* ``plan_before_start`` — allow one migration boundary before the
  first epoch runs (meaningful only with oracle scores: it models a
  profiling pass followed by a re-placed run, i.e. the two-phase
  oracle realized through the migration engine);
* ``max_overhead`` — a cumulative rate limit: migration time may never
  exceed this fraction of execution time so far, which is what lets
  ONLINE guarantee bounded degradation on stationary workloads.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.errors import SimulationError
from repro.gpu.config import GpuConfig, table1_config
from repro.gpu.simulator import EngineName, make_engine, replay_epochs
from repro.gpu.trace import DramTrace, SimResult, WorkloadCharacteristics
from repro.memory.topology import SystemTopology
from repro.migration.cost import MigrationCostModel, paper_migration
from repro.migration.policy import EpochMigrationPolicy
from repro.migration.tracker import HotnessTracker


@dataclass(frozen=True)
class MigrationResult:
    """Outcome of one migrated execution."""

    total_time_ns: float
    execution_time_ns: float
    migration_time_ns: float
    pages_migrated: int
    epochs: int
    final_zone_map: np.ndarray
    #: pages moved at each epoch boundary (ping-pong diagnostics).
    moves_per_epoch: tuple[int, ...] = ()
    #: aggregate engine result with the migration overhead folded into
    #: the total (``None`` only for legacy constructions).
    sim: Optional[SimResult] = field(default=None, repr=False)

    @property
    def throughput(self) -> float:
        return 1e9 / self.total_time_ns

    @property
    def overhead_fraction(self) -> float:
        """Share of total time spent migrating."""
        return self.migration_time_ns / self.total_time_ns


class MigrationSimulator:
    """Run a trace with epoch-boundary page migration."""

    def __init__(self, topology: SystemTopology,
                 config: GpuConfig | None = None,
                 cost_model: MigrationCostModel | None = None,
                 engine: EngineName = "throughput") -> None:
        self.topology = topology
        self.config = config if config is not None else table1_config()
        self.cost_model = (cost_model if cost_model is not None
                           else paper_migration())
        self.engine_name = engine
        self._engine = make_engine(engine, self.config)

    def _boundary_budget(self, max_overhead: Optional[float],
                         execution_ns: float,
                         migration_ns: float) -> Optional[int]:
        """Pages affordable at this boundary under the overhead cap."""
        if max_overhead is None:
            return None
        per_page = self.cost_model.total_time_ns(1)
        if per_page <= 0:
            return None  # free migration: the cap cannot bind
        affordable = (max_overhead * execution_ns - migration_ns) / per_page
        if not math.isfinite(affordable):
            return None  # an infinite cap (inf * 0 is nan) cannot bind
        return max(0, int(affordable))

    def run(self, trace: DramTrace, initial_zone_map: np.ndarray,
            chars: WorkloadCharacteristics,
            policy: EpochMigrationPolicy,
            tracker_decay: float = 0.5,
            oracle_scores: Optional[np.ndarray] = None,
            plan_before_start: bool = False,
            max_overhead: Optional[float] = None) -> MigrationResult:
        if max_overhead is not None and max_overhead < 0:
            raise SimulationError("max_overhead must be >= 0 or None")
        zone_map = np.array(initial_zone_map, dtype=np.int16, copy=True)
        if zone_map.size != trace.footprint_pages:
            raise SimulationError(
                "initial zone map does not cover the trace footprint"
            )
        bo_used = int((zone_map == policy.bo_zone).sum())
        if bo_used > policy.bo_capacity_pages:
            raise SimulationError(
                f"initial placement holds {bo_used} BO pages, capacity "
                f"is {policy.bo_capacity_pages}"
            )

        tracker = HotnessTracker(trace.footprint_pages,
                                 decay=tracker_decay)
        if oracle_scores is not None:
            scores = np.asarray(oracle_scores, dtype=np.float64)
            if scores.shape != (trace.footprint_pages,):
                raise SimulationError(
                    "oracle_scores must cover the trace footprint"
                )
            tracker.observe_epoch(
                np.repeat(np.arange(trace.footprint_pages),
                          np.maximum(scores, 0).astype(np.int64))
            )
        migration_ns = 0.0
        moved = 0
        moves_per_epoch: list[int] = []

        def apply_boundary(execution_ns: float) -> None:
            nonlocal migration_ns, moved
            budget = self._boundary_budget(max_overhead, execution_ns,
                                           migration_ns)
            plan = policy.plan(zone_map, tracker, budget_pages=budget)
            moves_per_epoch.append(plan.n_pages)
            if plan.n_pages:
                zone_map[plan.demote] = policy.co_zone
                zone_map[plan.promote] = policy.bo_zone
                if int((zone_map == policy.bo_zone).sum()) \
                        > policy.bo_capacity_pages:
                    raise SimulationError(
                        "migration plan exceeded BO capacity"
                    )
                migration_ns += self.cost_model.total_time_ns(plan.n_pages)
                moved += plan.n_pages

        def on_boundary(pages, result, execution_ns, last) -> None:
            if result is not None and oracle_scores is None:
                tracker.observe_epoch(pages)
            if not last:  # after the last epoch migrating would be waste
                apply_boundary(execution_ns)

        if plan_before_start:
            if oracle_scores is None:
                raise SimulationError(
                    "plan_before_start requires oracle_scores (there is "
                    "nothing to plan from before the first epoch)"
                )
            apply_boundary(0.0)

        execution = replay_epochs(trace, zone_map, self._engine,
                                  self.topology, chars, on_boundary)
        total = execution.total_time_ns + migration_ns
        sim = dataclasses.replace(
            execution, engine=f"{self.engine_name}+migration",
            total_time_ns=total)
        return MigrationResult(
            total_time_ns=total,
            execution_time_ns=execution.total_time_ns,
            migration_time_ns=migration_ns,
            pages_migrated=moved,
            epochs=trace.n_epochs,
            final_zone_map=zone_map,
            moves_per_epoch=tuple(moves_per_epoch),
            sim=sim,
        )
