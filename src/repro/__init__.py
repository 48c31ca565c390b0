"""repro — reproduction of "Page Placement Strategies for GPUs within
Heterogeneous Memory Systems" (Agarwal et al., ASPLOS 2015).

The library models a cache-coherent GPU/CPU system with heterogeneous
memory pools (bandwidth-optimized + capacity-optimized), the OS page
placement policies the paper studies (Linux LOCAL and INTERLEAVE, the
proposed BW-AWARE), an oracle, and the profile-driven annotation
workflow of Section 5 — all on top of a trace-driven GPU memory system
simulator.

Quickstart::

    from repro import (
        simulated_baseline, make_policy, get_workload, run_experiment,
    )

    topo = simulated_baseline()
    wl = get_workload("bfs")
    for name in ("LOCAL", "INTERLEAVE", "BW-AWARE"):
        result = run_experiment(wl, topology=topo,
                                policy=make_policy(name))
        print(name, result.relative_performance)
"""

from repro.core.errors import ReproError
from repro.core.lazy import lazy_exports
from repro.core.units import GB, GIB, PAGE_SIZE

__version__ = "1.0.0"

# Re-export the primary public API lazily to keep import time low and
# avoid import cycles while subpackages are assembled.
_API = {
    # memory
    "SystemTopology": "repro.memory.topology",
    "MemoryZone": "repro.memory.zone",
    "ZoneKind": "repro.memory.zone",
    "simulated_baseline": "repro.memory.topology",
    "desktop_topology": "repro.memory.topology",
    "hpc_topology": "repro.memory.topology",
    "mobile_topology": "repro.memory.topology",
    "symmetric_topology": "repro.memory.topology",
    "figure1_systems": "repro.memory.topology",
    "enumerate_tables": "repro.memory.acpi",
    # vm
    "Process": "repro.vm.process",
    "PhysicalMemory": "repro.vm.allocator",
    "AddressSpace": "repro.vm.address_space",
    "MemPolicyMode": "repro.vm.mempolicy",
    # policies
    "make_policy": "repro.policies.registry",
    "policy_names": "repro.policies.registry",
    "BwAwarePolicy": "repro.policies.bwaware",
    "LocalPolicy": "repro.policies.local",
    "InterleavePolicy": "repro.policies.interleave",
    "OraclePolicy": "repro.policies.oracle",
    "AnnotatedPolicy": "repro.policies.annotated",
    "PlacementHint": "repro.policies.annotated",
    # gpu
    "GpuConfig": "repro.gpu.config",
    "table1_config": "repro.gpu.config",
    # workloads
    "get_workload": "repro.workloads.suite",
    "scenario_names": "repro.workloads.suite",
    "workload_names": "repro.workloads.suite",
    "TraceWorkload": "repro.workloads.base",
    "DataStructureSpec": "repro.workloads.base",
    # profiling
    "PageAccessProfiler": "repro.profiling.profiler",
    "AccessCdf": "repro.profiling.cdf",
    # runtime
    "CudaRuntime": "repro.runtime.cuda",
    "get_allocation": "repro.runtime.hints",
    # experiments
    "run_experiment": "repro.core.experiment",
    "compare_policies": "repro.core.experiment",
    "ExperimentResult": "repro.core.experiment",
    # extension topologies
    "three_pool_topology": "repro.memory.topology",
    "link_limited_baseline": "repro.memory.topology",
    "chiplet_topology": "repro.memory.topology",
    "topology_by_name": "repro.memory.topology",
    "DistanceMatrix": "repro.memory.distance",
    # closed-loop ratio tuning
    "RatioController": "repro.tuning",
    "autotune": "repro.tuning",
    "AutotuneReport": "repro.tuning",
    # migration (Section 5.5 extension)
    "MigrationSimulator": "repro.migration.engine",
    "EpochMigrationPolicy": "repro.migration.policy",
    "HotnessTracker": "repro.migration.tracker",
    "MigrationCostModel": "repro.migration.cost",
    # kernel IR (Section 5.1 substrate)
    "KernelWorkload": "repro.kernelsim.workload",
    "profile_program": "repro.kernelsim.instrument",
    # traces
    "DramTrace": "repro.gpu.trace",
    # energy
    "energy_report": "repro.analysis.energy",
    # libNUMA shim
    "LibNuma": "repro.vm.libnuma",
    # observability & harness utilities
    "numa_maps": "repro.vm.numa_maps",
    "allocation_breakdown": "repro.vm.numa_maps",
    "SweepRunner": "repro.analysis.sweep",
    "run_scorecard": "repro.analysis.calibration",
}

__all__ = sorted(_API) + ["GB", "GIB", "PAGE_SIZE", "ReproError",
                          "__version__"]


__getattr__, __dir__ = lazy_exports(__name__, _API)
