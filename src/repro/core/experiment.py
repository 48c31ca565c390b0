"""The experiment runner: one workload, one placement policy, one system.

Every paper figure reduces to sweeps over this function:

1. synthesize (or fetch memoized) the workload's DRAM trace;
2. build the system — optionally shrinking the BO pool to a fraction of
   the workload footprint (the capacity-constraint studies);
3. reserve the program's allocations and place every page with the
   policy under test (two-phase policies get their profiling pass here);
4. replay the trace on the GPU simulator and report timing.

Policy-spec strings (any form of :mod:`repro.policies.registry`'s
grammar) are resolved through the registry; ``"ORACLE"`` and
``"ANNOTATED"`` trigger the extra profiling pass they need (the paper's
two-phase simulation and compiler workflow respectively).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from repro.core.errors import ConfigError
from repro.core.units import PAGE_SIZE
from repro.gpu.config import GpuConfig
from repro.gpu.simulator import EngineName, GpuSystemSimulator
from repro.gpu.trace import SimResult
from repro.memory.topology import SystemTopology, simulated_baseline
from repro.policies.base import PlacementPolicy
from repro.policies.registry import make_policy
from repro.vm.process import Process
from repro.workloads.base import TraceWorkload
from repro.workloads.suite import get_workload


@dataclass(frozen=True)
class ExperimentResult:
    """One (workload, policy, system) measurement."""

    workload: str
    dataset: str
    policy: str
    sim: SimResult
    zone_page_counts: tuple[int, ...]
    topology_name: str
    #: dynamic-placement accounting (pages moved, migration time, ...);
    #: ``None`` for static policies.
    migration: Optional[Mapping[str, object]] = None

    @property
    def time_ns(self) -> float:
        return self.sim.total_time_ns

    @property
    def throughput(self) -> float:
        """Inverse runtime; meaningful only as ratios between runs."""
        return self.sim.throughput

    def placement_fractions(self) -> tuple[float, ...]:
        """Fraction of footprint pages in each zone."""
        total = sum(self.zone_page_counts)
        return tuple(count / total for count in self.zone_page_counts)

    def describe(self) -> str:
        fractions = ", ".join(
            f"z{idx}={frac:.0%}"
            for idx, frac in enumerate(self.placement_fractions())
        )
        return (f"{self.workload}/{self.dataset} under {self.policy}: "
                f"{self.time_ns / 1e6:.3f} ms [{fractions}]")


def constrained_topology(base: SystemTopology, footprint_pages: int,
                         bo_capacity_fraction: Optional[float]
                         ) -> SystemTopology:
    """Shrink the GPU-local BO pool to a fraction of the footprint.

    The capacity-constraint experiments (Figures 4, 8, 10, 11) express
    BO capacity relative to the application footprint; ``None`` leaves
    the base topology untouched (footprint fits, the common case of
    Section 3).
    """
    if bo_capacity_fraction is None:
        return base
    if not 0.0 < bo_capacity_fraction:
        raise ConfigError("bo_capacity_fraction must be positive")
    pages = max(1, int(round(footprint_pages * bo_capacity_fraction)))
    return base.with_bo_capacity(pages * PAGE_SIZE)


def resolve_policy(policy: Union[str, PlacementPolicy],
                   workload: TraceWorkload, dataset: str,
                   trace_accesses: Optional[int], seed: int,
                   topology: SystemTopology,
                   process: Process,
                   training_dataset: Optional[str] = None
                   ) -> tuple[PlacementPolicy, Optional[Mapping[str, object]]]:
    """Build the policy object, running profiling passes where needed.

    Returns ``(policy, hints)``; ``hints`` is non-None only for
    annotated placement (it must be applied at reservation time).
    ``training_dataset`` lets the Figure 11 study train annotations on
    one dataset and run on another; profile-driven policies default to
    training on the dataset under test (the paper's Figure 10 setup).
    """
    if isinstance(policy, PlacementPolicy):
        return policy, None
    name = policy.upper()
    kwargs = {} if trace_accesses is None else {"n_accesses": trace_accesses}
    if name == "ORACLE":
        # Perfect knowledge is per-run: profile the dataset under test.
        trace = workload.dram_trace(dataset, seed=seed, **kwargs)
        return make_policy(
            "ORACLE", page_accesses=trace.page_access_counts()
        ), None
    if name == "ANNOTATED":
        from repro.profiling.profiler import PageAccessProfiler
        from repro.runtime.hints import hints_from_profile

        train = training_dataset if training_dataset is not None else dataset
        profile = PageAccessProfiler().profile(
            workload, train, n_accesses=trace_accesses, seed=seed
        )
        bo_zone = topology.local
        hints = hints_from_profile(
            workload, profile, process.tables,
            bo_capacity_bytes=bo_zone.capacity_bytes, dataset=dataset,
        )
        return make_policy("ANNOTATED"), hints
    return make_policy(policy), None


def run_experiment(workload: Union[str, TraceWorkload],
                   dataset: str = "default",
                   policy: Union[str, PlacementPolicy] = "BW-AWARE",
                   topology: Optional[SystemTopology] = None,
                   bo_capacity_fraction: Optional[float] = None,
                   engine: EngineName = "throughput",
                   config: Optional[GpuConfig] = None,
                   trace_accesses: Optional[int] = None,
                   seed: int = 0,
                   training_dataset: Optional[str] = None
                   ) -> ExperimentResult:
    """Run one placement experiment end to end (see module docstring)."""
    if isinstance(workload, str):
        workload = get_workload(workload)
    base = topology if topology is not None else simulated_baseline()
    footprint = workload.footprint_pages(dataset)
    system = constrained_topology(base, footprint, bo_capacity_fraction)

    process = Process(system, seed=seed)
    resolved, hints = resolve_policy(
        policy, workload, dataset, trace_accesses, seed, system, process,
        training_dataset=training_dataset,
    )
    online = resolved if getattr(resolved, "dynamic", False) else None
    if online is not None:
        # ONLINE places with its *initial* static policy (resolved
        # through the same path, so ORACLE/ANNOTATED initials get their
        # profiling passes), then migrates at epoch boundaries.
        resolved, hints = resolve_policy(
            online.initial, workload, dataset, trace_accesses, seed, system,
            process, training_dataset=training_dataset,
        )
    workload.reserve_in(process, dataset, hints=hints)
    zone_map = process.place_all(resolved)

    kwargs = {} if trace_accesses is None else {"n_accesses": trace_accesses}
    migration = None
    if online is not None:
        trace = workload.dram_trace(dataset, seed=seed,
                                    n_epochs=online.epochs, **kwargs)
        sim, zone_map, migration = _simulate_online(
            online, system, config, engine, trace,
            workload.characteristics(dataset), zone_map,
        )
    else:
        trace = workload.dram_trace(dataset, seed=seed, **kwargs)
        simulator = GpuSystemSimulator(system, config, engine)
        sim = simulator.simulate(trace, zone_map,
                                 workload.characteristics(dataset))

    counts = np.bincount(zone_map, minlength=len(system))
    return ExperimentResult(
        workload=workload.name,
        dataset=dataset,
        policy=(policy if isinstance(policy, str)
                else (online or resolved).name),
        sim=sim,
        zone_page_counts=tuple(int(c) for c in counts),
        topology_name=system.name,
        migration=migration,
    )


def _simulate_online(online, system: SystemTopology,
                     config: Optional[GpuConfig], engine: EngineName,
                     trace, chars, zone_map: np.ndarray):
    """Replay the trace through the migration engine for ONLINE.

    The CO target is the largest non-BO pool (on the two-zone baseline
    simply "the other zone"); migration traffic is charged through the
    Section 5.5 cost model scaled by the policy's ``cost_scale``.
    """
    from repro.migration.cost import scaled_migration
    from repro.migration.engine import MigrationSimulator
    from repro.migration.policy import EpochMigrationPolicy

    bo_zone = system.gpu_local_zone
    # Largest non-BO pool; among equals, the one nearest the GPU by the
    # distance matrix (matters on chiplet systems where several remote
    # HBM stacks tie on capacity).
    distances = system.distances
    co_zone = max(
        (zone for zone in system.zones if zone.zone_id != bo_zone),
        key=lambda zone: (zone.capacity_bytes,
                          -distances.hops(bo_zone, zone.zone_id)),
    ).zone_id
    mig_policy = EpochMigrationPolicy(
        bo_zone=bo_zone,
        co_zone=co_zone,
        bo_capacity_pages=system.local.capacity_pages,
        bo_traffic_fraction=system.bandwidth_fractions()[bo_zone],
        budget_pages_per_epoch=online.budget_pages_per_epoch,
        hysteresis=online.hysteresis,
        watermarks=online.watermarks,
    )
    simulator = MigrationSimulator(
        system, config, scaled_migration(online.cost_scale), engine=engine
    )
    result = simulator.run(
        trace, zone_map, chars, mig_policy,
        tracker_decay=online.decay,
        oracle_scores=(trace.page_access_counts()
                       if online.oracle_hotness else None),
        plan_before_start=online.oracle_hotness,
        max_overhead=online.max_overhead,
    )
    migration = {
        "pages_migrated": int(result.pages_migrated),
        "migration_time_ns": float(result.migration_time_ns),
        "execution_time_ns": float(result.execution_time_ns),
        "moves_per_epoch": [int(n) for n in result.moves_per_epoch],
    }
    return result.sim, result.final_zone_map, migration


def compare_policies(workload: Union[str, TraceWorkload],
                     policies: tuple[Union[str, PlacementPolicy], ...],
                     **kwargs: object) -> dict[str, ExperimentResult]:
    """Run several policies on one workload with shared settings."""
    results = {}
    for policy in policies:
        result = run_experiment(workload, policy=policy, **kwargs)
        results[result.policy] = result
    return results
