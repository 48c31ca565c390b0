"""GPU substrate: config, caches, engines."""

from repro.gpu.cache import CacheHierarchy, CacheStats
from repro.gpu.config import GpuConfig, table1_config
from repro.gpu.engine import BankedEngine, DetailedEngine
from repro.gpu.simulator import GpuSystemSimulator, make_engine
from repro.gpu.throughput import ThroughputEngine
from repro.gpu.trace import DramTrace, SimResult, WorkloadCharacteristics

__all__ = [
    "BankedEngine",
    "CacheHierarchy",
    "CacheStats",
    "GpuConfig",
    "table1_config",
    "DetailedEngine",
    "GpuSystemSimulator",
    "make_engine",
    "ThroughputEngine",
    "DramTrace",
    "SimResult",
    "WorkloadCharacteristics",
]
