"""Simulation facade tying topology, GPU config, placement and trace.

:class:`GpuSystemSimulator` is the one-stop entry point the experiment
harness and examples use: construct it with a topology and a GPU config,
then call :meth:`simulate` with a workload trace and a placement vector.
Engine selection is a string so sweeps can flip between the analytic and
event-driven engines without touching call sites.
"""

from __future__ import annotations

from typing import Callable, Literal, Optional, Union

import numpy as np

from repro.core.errors import SimulationError
from repro.gpu.config import GpuConfig, table1_config
from repro.gpu.engine import BankedEngine, DetailedEngine
from repro.gpu.throughput import ThroughputEngine
from repro.gpu.trace import DramTrace, SimResult, WorkloadCharacteristics
from repro.memory.topology import SystemTopology

EngineName = Literal["throughput", "detailed", "banked"]

#: ``on_boundary(pages, result, elapsed_ns, last)`` -> next zone map.
BoundaryFn = Callable[[np.ndarray, Optional[SimResult], float, bool],
                      Optional[np.ndarray]]

#: SimResult fields :func:`replay_epochs` adds up, one epoch at a time.
_SUMMED = ("total_time_ns", "dram_accesses", "time_bandwidth_ns",
           "time_latency_ns", "time_compute_ns", "mshr_merges")


def make_engine(name: EngineName, config: GpuConfig
                ) -> Union[ThroughputEngine, DetailedEngine, BankedEngine]:
    """Instantiate a performance engine by name."""
    if name == "throughput":
        return ThroughputEngine(config)
    if name == "detailed":
        return DetailedEngine(config)
    if name == "banked":
        return BankedEngine(config)
    raise SimulationError(f"unknown engine {name!r}")


def replay_epochs(trace: DramTrace, zone_map: np.ndarray, engine,
                  topology: SystemTopology,
                  chars: WorkloadCharacteristics,
                  on_boundary: BoundaryFn) -> SimResult:
    """Replay ``trace`` one epoch at a time under a changing zone map.

    Each epoch runs on ``engine`` as a one-epoch sub-trace (raw accesses
    pro-rated) against the current zone map; the sub-traces are
    :attr:`DramTrace.epoch_traces`, built once per trace and reused by
    every later replay of it.  The engine is bound to ``(topology,
    chars, trace.bytes_per_access)`` once per replay, so each epoch
    pays its kernel and a small fixed cost, and every epoch's result
    equals ``engine.run`` on its sub-trace.  After every epoch, empty or not,
    ``on_boundary(pages, result, elapsed_ns, last)`` gets the epoch's
    pages, its result (``None`` if the epoch had no accesses), the
    execution time so far and whether it was the last epoch.  It
    returns the next epoch's zone map, or ``None`` to keep the current
    one (which it may have changed in place).  Returns the per-epoch
    results summed in epoch order.
    """
    run = engine.bind(topology, chars, trace.bytes_per_access)
    results: list[SimResult] = []
    elapsed_ns = 0.0
    sub_traces = trace.epoch_traces
    last_epoch = len(sub_traces) - 1
    for epoch, sub_trace in enumerate(sub_traces):
        if sub_trace is None:
            pages = trace.page_indices[:0]
            result = None
        else:
            pages = sub_trace.page_indices
            result = run(sub_trace, zone_map)
            results.append(result)
            elapsed_ns += result.total_time_ns
        next_map = on_boundary(pages, result, elapsed_ns,
                               epoch == last_epoch)
        if next_map is not None:
            zone_map = next_map
    if not results:
        raise SimulationError("epoch replay ran no DRAM accesses")
    totals = dict.fromkeys(_SUMMED, 0)
    bytes_by_zone = np.zeros(len(topology), dtype=np.float64)
    for result in results:
        bytes_by_zone += result.bytes_by_zone
        for name in _SUMMED:
            totals[name] += getattr(result, name)
    return SimResult(engine=engine.name, bytes_by_zone=bytes_by_zone,
                     **totals)


class GpuSystemSimulator:
    """A GPU attached to a heterogeneous memory system."""

    def __init__(self, topology: SystemTopology,
                 config: Optional[GpuConfig] = None,
                 engine: EngineName = "throughput") -> None:
        self.topology = topology
        self.config = config if config is not None else table1_config()
        self.engine = make_engine(engine, self.config)

    def simulate(self, trace: DramTrace, zone_map: np.ndarray,
                 chars: Optional[WorkloadCharacteristics] = None
                 ) -> SimResult:
        """Replay ``trace`` with pages placed per ``zone_map``.

        ``zone_map[k]`` is the zone id backing the ``k``-th footprint
        page (the output of :meth:`repro.vm.process.Process.place_all`).
        """
        if chars is None:
            chars = WorkloadCharacteristics()
        return self.engine.run(trace, zone_map, self.topology, chars)

    def peak_bandwidth(self) -> float:
        """Aggregate system bandwidth, bytes/second."""
        return self.topology.total_bandwidth

    def describe(self) -> str:
        zones = ", ".join(
            f"{zone.name}={zone.bandwidth_gbps:.0f}GB/s" for zone in self.topology
        )
        return (f"{self.config.name} on {self.topology.name} "
                f"[{zones}] via {self.engine.name} engine")
