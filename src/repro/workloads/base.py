"""Workload base class: data structures, phases, trace synthesis.

A :class:`TraceWorkload` models one GPU benchmark as

* a list of :class:`DataStructureSpec` — the program's ``cudaMalloc``
  calls, in program order, each with a size, an access pattern and a
  traffic weight (the Figure 7 decomposition);
* one or more :class:`AccessPhase` — kernel phases that can shift
  traffic between structures over time;
* :class:`repro.gpu.trace.WorkloadCharacteristics` — memory-level
  parallelism and compute intensity, which set where the workload lands
  in the Figure 2 sensitivity space.

``raw_line_trace`` synthesizes the SM-issued line-address stream;
``dram_trace`` filters it through the Table 1 cache hierarchy and
returns the placement-independent :class:`DramTrace` every experiment
replays.  Traces are memoized per (workload, dataset, size, seed)
because the cache filter is the only expensive step in the pipeline.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.errors import WorkloadError
from repro.core.units import LINE_SIZE, PAGE_SIZE, bytes_to_pages
from repro.gpu.cache import CacheHierarchy
from repro.gpu.config import GpuConfig, table1_config
from repro.gpu.trace import DramTrace, WorkloadCharacteristics
from repro.workloads import patterns
from repro.workloads.interleave import interleave

#: 128-byte lines per 4 KiB page.
LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE

#: Channels of the Table 1 baseline (8 GDDR5 + 4 DDR4); traces are
#: filtered through this fixed hierarchy so they stay comparable across
#: the topology sweeps, which vary bandwidths but not cache geometry.
BASELINE_CHANNELS = 12

#: Default raw (pre-cache) trace length for experiments.
DEFAULT_RAW_ACCESSES = 240_000

#: Global scale applied to authored workload footprints.  Workload
#: modules author their data-structure sizes at the benchmarks' native
#: scale (tens of MiB); traces are replayed against footprints scaled
#: down by this factor so that the default trace length covers every
#: page several times — the same reduced-input approach GPGPU-Sim
#: studies (including the paper's) use.  Placement behaviour depends on
#: *relative* structure sizes and traffic shares, which scaling
#: preserves.
FOOTPRINT_SCALE = 1.0 / 8.0


def mib(nominal_mib: float) -> int:
    """Bytes for an authored size of ``nominal_mib`` MiB, scaled by
    :data:`FOOTPRINT_SCALE` and kept page-aligned (min one page)."""
    if nominal_mib <= 0:
        raise WorkloadError(f"size must be positive, got {nominal_mib}")
    n_bytes = int(nominal_mib * 1024 * 1024 * FOOTPRINT_SCALE)
    return max(PAGE_SIZE, n_bytes - n_bytes % PAGE_SIZE)


@dataclass(frozen=True)
class DataStructureSpec:
    """One program data structure (one ``cudaMalloc`` call)."""

    name: str
    size_bytes: int
    #: unnormalized share of raw accesses directed at this structure.
    traffic_weight: float
    pattern: str = "uniform"
    pattern_params: Mapping[str, float] = field(default_factory=dict)
    read_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise WorkloadError(f"{self.name}: size must be positive")
        if self.traffic_weight < 0:
            raise WorkloadError(f"{self.name}: traffic_weight must be >= 0")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError(f"{self.name}: read_fraction out of [0,1]")
        if self.pattern not in patterns.PATTERNS:
            raise WorkloadError(
                f"{self.name}: unknown pattern {self.pattern!r}"
            )

    @property
    def n_pages(self) -> int:
        return bytes_to_pages(self.size_bytes)

    @property
    def n_lines(self) -> int:
        return self.n_pages * LINES_PER_PAGE

    @property
    def hotness_density(self) -> float:
        """Traffic per page — the quantity the profiler reports and the
        annotation workflow ranks structures by."""
        return self.traffic_weight / self.n_pages


@dataclass(frozen=True)
class AccessPhase:
    """One kernel phase: a traffic mix over the data structures.

    ``weight_overrides`` multiplies the per-structure traffic weights
    for this phase, letting multi-kernel workloads (backprop's forward
    and backward passes, bfs iterations) shift hotness over time.
    """

    name: str
    duration_weight: float = 1.0
    weight_overrides: Optional[Mapping[str, float]] = None

    def __post_init__(self) -> None:
        if self.duration_weight <= 0:
            raise WorkloadError(f"phase {self.name}: weight must be > 0")


class TraceWorkload(abc.ABC):
    """Base class for the 19 benchmark models."""

    #: benchmark name as the paper uses it (lowercase).
    name: str = "base"
    #: originating suite: "rodinia", "parboil" or "hpc".
    suite: str = "unknown"
    description: str = ""
    #: sensitivity labels from the Figure 2 characterization, used for
    #: reporting and to sanity check the model in tests.
    bandwidth_sensitive: bool = True
    latency_sensitive: bool = False
    #: sustained outstanding memory requests (memory-level parallelism).
    parallelism: float = 384.0
    #: chip-aggregate compute time per raw access, ns.
    compute_ns_per_access: float = 0.0

    # ------------------------------------------------------------------
    # Per-workload definition
    # ------------------------------------------------------------------

    #: problem-size scale per generic dataset.  Workloads that model
    #: datasets explicitly (bfs, xsbench, minife, mummergpu) override
    #: ``datasets()``/``define_structures`` instead and ignore this.
    dataset_scales: Mapping[str, float] = {
        "default": 1.0,
        "large": 1.5,
        "small": 0.6,
    }

    @abc.abstractmethod
    def define_structures(self, dataset: str = "default"
                          ) -> tuple[DataStructureSpec, ...]:
        """The program's allocations, in program order (pre-scaling)."""

    def data_structures(self, dataset: str = "default"
                        ) -> tuple[DataStructureSpec, ...]:
        """Allocations with the dataset's problem-size scale applied.

        Generic datasets ("large", "small") scale every structure's
        size while keeping traffic shares and patterns — the common way
        benchmark inputs grow.  Datasets named by the workload itself
        pass through unscaled (the workload already sized them).
        """
        specs = self.define_structures(dataset)
        scale = float(self.dataset_scales.get(dataset, 1.0))
        if scale == 1.0:
            return specs
        return tuple(
            DataStructureSpec(
                name=spec.name,
                size_bytes=max(
                    PAGE_SIZE,
                    int(spec.size_bytes * scale) // PAGE_SIZE * PAGE_SIZE,
                ),
                traffic_weight=spec.traffic_weight,
                pattern=spec.pattern,
                pattern_params=spec.pattern_params,
                read_fraction=spec.read_fraction,
            )
            for spec in specs
        )

    def datasets(self) -> tuple[str, ...]:
        """Available input datasets; the first is the training set used
        by the Figure 11 cross-dataset study."""
        return tuple(self.dataset_scales)

    def phases(self, dataset: str = "default") -> tuple[AccessPhase, ...]:
        """Kernel phases; single steady phase unless overridden."""
        return (AccessPhase("main"),)

    def characteristics(self, dataset: str = "default"
                        ) -> WorkloadCharacteristics:
        """Execution characteristics for the performance model."""
        specs = self.data_structures(dataset)
        total = sum(s.traffic_weight for s in specs)
        write_fraction = 0.25
        if total > 0:
            write_fraction = sum(
                s.traffic_weight * (1.0 - s.read_fraction) for s in specs
            ) / total
        return WorkloadCharacteristics(
            parallelism=self.parallelism,
            compute_ns_per_access=self.compute_ns_per_access,
            write_fraction=write_fraction,
        )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------

    def _check_dataset(self, dataset: str) -> None:
        if dataset not in self.datasets():
            raise WorkloadError(
                f"{self.name}: unknown dataset {dataset!r}; "
                f"available: {self.datasets()}"
            )

    def footprint_pages(self, dataset: str = "default") -> int:
        """Total 4 KiB pages across all data structures."""
        return sum(s.n_pages for s in self.data_structures(dataset))

    def footprint_bytes(self, dataset: str = "default") -> int:
        return self.footprint_pages(dataset) * PAGE_SIZE

    def page_ranges(self, dataset: str = "default"
                    ) -> dict[str, range]:
        """Footprint page-index range of each data structure."""
        ranges: dict[str, range] = {}
        start = 0
        for spec in self.data_structures(dataset):
            ranges[spec.name] = range(start, start + spec.n_pages)
            start += spec.n_pages
        return ranges

    # ------------------------------------------------------------------
    # Trace synthesis
    # ------------------------------------------------------------------

    def raw_access_stream(self, dataset: str = "default",
                          n_accesses: int = DEFAULT_RAW_ACCESSES,
                          seed: int = 0
                          ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """SM-issued stream: (global line indices, per-access is_write).

        Phases run back to back; within a phase, per-structure streams
        are interleaved by a random permutation that preserves each
        structure's internal access order (so sequential streams stay
        sequential while mixing with gathers, as warps from different
        thread blocks interleave on real hardware; see
        :mod:`repro.workloads.interleave`).  Write flags are drawn per
        structure from its ``read_fraction``.  When only one structure
        draws accesses in the last phase, that phase is its stream and
        the permutation is not drawn: it would be constant, and ``rng``
        is local to this call.  Earlier phases always draw it, so every
        later draw is unchanged.
        """
        self._check_dataset(dataset)
        if n_accesses <= 0:
            raise WorkloadError("n_accesses must be positive")
        specs = self.data_structures(dataset)
        if not specs:
            raise WorkloadError(f"{self.name}: no data structures")
        # A stable digest, not builtin hash(): string hashing is
        # randomized per process and would make traces differ from run
        # to run.
        key = f"{self.name}/{dataset}/{seed}".encode()
        rng = np.random.default_rng(zlib.crc32(key))
        phase_list = self.phases(dataset)
        phase_total = sum(p.duration_weight for p in phase_list)
        line_base = np.cumsum([0] + [s.n_lines for s in specs])

        pieces: list[np.ndarray] = []
        flag_pieces: list[np.ndarray] = []
        for index, phase in enumerate(phase_list):
            n_phase = max(1, int(round(
                n_accesses * phase.duration_weight / phase_total
            )))
            weights = np.array([
                s.traffic_weight
                * (phase.weight_overrides or {}).get(s.name, 1.0)
                for s in specs
            ], dtype=np.float64)
            if weights.sum() <= 0:
                raise WorkloadError(
                    f"{self.name}/{phase.name}: no positive traffic weight"
                )
            counts = rng.multinomial(n_phase, weights / weights.sum())
            offsets = [
                patterns.generate(spec.pattern, rng, int(counts[i]),
                                  spec.n_lines, dict(spec.pattern_params))
                for i, spec in enumerate(specs)
            ]
            flags = [
                rng.random(int(counts[i])) >= spec.read_fraction
                for i, spec in enumerate(specs)
            ]
            drawn = np.flatnonzero(counts)
            if drawn.size == 1 and index == len(phase_list) - 1:
                # One structure takes the whole phase: every order of
                # its labels is the same, and rng is not read again.
                i = int(drawn[0])
                pieces.append(np.add(offsets[i], line_base[i],
                                     out=offsets[i]))
                flag_pieces.append(flags[i])
                continue
            phase_stream, phase_flags = interleave(rng, offsets,
                                                   line_base[:-1], flags)
            pieces.append(phase_stream)
            flag_pieces.append(phase_flags)
        if len(pieces) == 1:
            return pieces[0], flag_pieces[0]
        return np.concatenate(pieces), np.concatenate(flag_pieces)

    def raw_line_trace(self, dataset: str = "default",
                       n_accesses: int = DEFAULT_RAW_ACCESSES,
                       seed: int = 0) -> np.ndarray:
        """SM-issued line-address stream (addresses only).

        This is the pre-cache stream that
        :meth:`repro.gpu.cache.CacheHierarchy.filter_stream_indices`
        consumes.
        """
        return self.raw_access_stream(dataset, n_accesses, seed)[0]

    def dram_trace(self, dataset: str = "default",
                   n_accesses: int = DEFAULT_RAW_ACCESSES,
                   seed: int = 0, filtered: bool = True,
                   config: Optional[GpuConfig] = None,
                   n_epochs: int = 16) -> DramTrace:
        """Post-cache trace in footprint-page coordinates (memoized)."""
        key = trace_cache_key(self.name, dataset, n_accesses, seed,
                              filtered=filtered,
                              config_repr=(repr(config)
                                           if config is not None else None),
                              n_epochs=n_epochs)
        cached = lookup_trace(key)
        if cached is not None:
            return cached

        raw, raw_flags = self.raw_access_stream(dataset, n_accesses, seed)
        if filtered:
            # Caches shrink with the footprint so the cache:footprint
            # ratio (and thus post-cache hotness) matches the unscaled
            # benchmark; see FOOTPRINT_SCALE.
            if config is None:
                config = table1_config().scaled_caches(FOOTPRINT_SCALE)
            hierarchy = CacheHierarchy(config, BASELINE_CHANNELS)
            miss_positions = hierarchy.filter_stream_indices(raw)
        else:
            miss_positions = np.arange(raw.size, dtype=np.int64)
        if miss_positions.size == 0:
            # Fully cache-resident: keep one access so engines always
            # have DRAM work to time (the compute bound dominates).
            miss_positions = np.zeros(1, dtype=np.int64)
        misses = raw[miss_positions]
        trace = DramTrace(
            page_indices=misses // LINES_PER_PAGE,
            footprint_pages=self.footprint_pages(dataset),
            n_raw_accesses=int(raw.size),
            n_epochs=n_epochs,
            is_write=(raw_flags[miss_positions]
                      if raw_flags is not None else None),
        )
        store_trace(key, trace)
        return trace

    # ------------------------------------------------------------------
    # Integration helpers
    # ------------------------------------------------------------------

    def reserve_in(self, process, dataset: str = "default",
                   hints: Optional[Mapping[str, object]] = None) -> list:
        """Reserve this workload's allocations in ``process``.

        ``hints`` optionally maps structure names to placement hints
        (the annotation workflow's output).  Returns the allocations in
        program order.
        """
        hints = hints or {}
        allocations = []
        for spec in self.data_structures(dataset):
            allocations.append(process.reserve(
                spec.size_bytes,
                name=spec.name,
                hint=hints.get(spec.name),
                hotness=spec.hotness_density,
            ))
        return allocations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<workload {self.name} ({self.suite})>"


_TRACE_CACHE: dict[tuple, DramTrace] = {}

#: optional hook consulted on a memo miss *before* synthesis.  Takes
#: the memo key, returns a :class:`DramTrace` or ``None`` (= fall
#: through to synthesis).  The runner's shared-memory substrate
#: installs one in worker processes so a published trace is mapped,
#: not recomputed; any provider MUST return traces bit-identical to
#: synthesis for the same key.
_TRACE_PROVIDER = None


def trace_cache_key(name: str, dataset: str, n_accesses: int, seed: int,
                    filtered: bool = True,
                    config_repr: Optional[str] = None,
                    n_epochs: int = 16) -> tuple:
    """The memo key :meth:`TraceWorkload.dram_trace` uses for a call."""
    return (name, dataset, n_accesses, seed, filtered, config_repr,
            n_epochs)


def lookup_trace(key: tuple) -> Optional[DramTrace]:
    """Memoized trace for *key*: local memo first, then the installed
    provider (shm arena in sweep workers), else ``None``.

    Any workload whose traces should flow through the shm arena and
    result cache (including :mod:`repro.ingest` adapters) consults this
    before synthesizing, and publishes via :func:`store_trace` after.
    """
    cached = _TRACE_CACHE.get(key)
    if cached is not None:
        return cached
    if _TRACE_PROVIDER is not None:
        provided = _TRACE_PROVIDER(key)
        if provided is not None:
            _TRACE_CACHE[key] = provided
            return provided
    return None


def store_trace(key: tuple, trace: DramTrace) -> None:
    """Publish a synthesized trace into the local memo."""
    _TRACE_CACHE[key] = trace


def trace_provider():
    """The currently installed trace provider (or ``None``)."""
    return _TRACE_PROVIDER


def install_trace_provider(provider) -> None:
    """Install ``provider`` as this process's trace source hook."""
    global _TRACE_PROVIDER
    _TRACE_PROVIDER = provider


def uninstall_trace_provider() -> None:
    global _TRACE_PROVIDER
    _TRACE_PROVIDER = None


def clear_trace_cache() -> None:
    """Drop all memoized traces (tests use this to bound memory)."""
    _TRACE_CACHE.clear()
