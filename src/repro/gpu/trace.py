"""Trace schema shared by workload generators and simulation engines.

A :class:`DramTrace` is the post-cache (DRAM-level) memory access stream
of one workload execution, expressed over *footprint page indices*:
page ``k`` is the ``k``-th 4 kB page of the program footprint in
allocation order, the same ordering as the placement vector produced by
:meth:`repro.vm.process.Process.place_all`.  Keeping traces in footprint
coordinates makes them placement-independent: one trace can be replayed
under every policy, which is how the paper's two-phase oracle works.

:class:`WorkloadCharacteristics` carries the per-workload execution
parameters the performance model needs beyond the address stream:
sustainable memory-level parallelism and compute intensity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.errors import SimulationError, WorkloadError
from repro.core.units import LINE_SIZE


@dataclass(frozen=True)
class WorkloadCharacteristics:
    """Execution characteristics that shape the performance model.

    ``parallelism``
        Average outstanding memory requests the workload sustains.
        Highly threaded streaming kernels keep hundreds of requests in
        flight and hide any latency (Figure 2b); kernels with dependent
        accesses and high reuse (sgemm) sustain few and become latency
        sensitive.
    ``compute_ns_per_access``
        Core-side compute time per *raw* (pre-cache) memory access, in
        nanoseconds at the Table 1 clock.  Sets the compute bound that
        makes kernels like comd insensitive to the memory system.
    ``write_fraction``
        Fraction of DRAM accesses that are writes (reporting only; both
        directions consume channel bandwidth in this model).
    """

    parallelism: float = 256.0
    compute_ns_per_access: float = 0.0
    write_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.parallelism <= 0:
            raise WorkloadError("parallelism must be positive")
        if self.compute_ns_per_access < 0:
            raise WorkloadError("compute_ns_per_access must be >= 0")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError("write_fraction out of [0,1]")


@dataclass(frozen=True)
class DramTrace:
    """Post-cache access stream in footprint-page coordinates."""

    #: footprint page index per DRAM access, in execution order.
    page_indices: np.ndarray
    #: total pages in the program footprint (>= page_indices.max()+1).
    footprint_pages: int
    #: raw (pre-cache) access count, for compute-time scaling.
    n_raw_accesses: int
    #: number of equal-length execution epochs the stream divides into.
    n_epochs: int = 16
    #: bytes moved per DRAM access (one line).
    bytes_per_access: int = LINE_SIZE
    #: optional per-access write flag (same length as page_indices).
    #: ``None`` means direction is unknown and engines price every
    #: access as a read.
    is_write: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        indices = np.asarray(self.page_indices, dtype=np.int64)
        object.__setattr__(self, "page_indices", indices)
        if indices.ndim != 1:
            raise SimulationError("page_indices must be one-dimensional")
        if self.is_write is not None:
            flags = np.asarray(self.is_write, dtype=bool)
            object.__setattr__(self, "is_write", flags)
            if flags.shape != indices.shape:
                raise SimulationError(
                    "is_write must align with page_indices"
                )
        if self.footprint_pages <= 0:
            raise SimulationError("footprint_pages must be positive")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.footprint_pages:
                raise SimulationError(
                    "page index outside footprint "
                    f"[0, {self.footprint_pages})"
                )
        if self.n_raw_accesses < indices.size:
            raise SimulationError(
                "raw access count cannot be below DRAM access count"
            )
        if self.n_epochs <= 0:
            raise SimulationError("n_epochs must be positive")
        if self.bytes_per_access <= 0:
            raise SimulationError("bytes_per_access must be positive")

    @property
    def n_accesses(self) -> int:
        """DRAM-level access count."""
        return int(self.page_indices.size)

    @property
    def total_bytes(self) -> int:
        """Total DRAM traffic in bytes."""
        return self.n_accesses * self.bytes_per_access

    def epoch_slices(self) -> list[slice]:
        """Index ranges of each execution epoch, in order."""
        edges = np.linspace(0, self.n_accesses, self.n_epochs + 1,
                            dtype=np.int64)
        return [slice(int(edges[i]), int(edges[i + 1]))
                for i in range(self.n_epochs)]

    @cached_property
    def epoch_traces(self) -> tuple[Optional["DramTrace"], ...]:
        """Each execution epoch as a one-epoch trace (``None`` when the
        epoch has no accesses), split at :meth:`epoch_slices` with the
        raw accesses pro-rated: ``max(n_raw_accesses // n_epochs, 1)``,
        raised to the epoch's DRAM access count.

        Built once per trace.  Each sub-trace's arrays are views of
        this trace's, and the memo never enters a pickle (see
        :meth:`__getstate__`).
        """
        raw_per_epoch = max(1, self.n_raw_accesses // self.n_epochs)
        sub_traces: list[Optional[DramTrace]] = []
        for epoch_slice in self.epoch_slices():
            pages = self.page_indices[epoch_slice]
            sub_traces.append(DramTrace(
                page_indices=pages,
                footprint_pages=self.footprint_pages,
                n_raw_accesses=max(raw_per_epoch, pages.size),
                n_epochs=1,
                bytes_per_access=self.bytes_per_access,
                is_write=(self.is_write[epoch_slice]
                          if self.is_write is not None else None),
            ) if pages.size else None)
        return tuple(sub_traces)

    @cached_property
    def stream_arrays(self) -> tuple[int, Optional[int], tuple]:
        """The compiled passes' view of the stream: the addresses of the
        page indices as contiguous int64 and of the write flags as
        contiguous one-byte bools (``None`` without flags), then the
        arrays themselves, which keep those addresses valid.

        Taken once per trace, so a replay that runs each
        :attr:`epoch_traces` sub-trace many times takes its pointers
        once; like that memo, it never enters a pickle.
        """
        pages = np.ascontiguousarray(self.page_indices, dtype=np.int64)
        flags = (None if self.is_write is None
                 else np.ascontiguousarray(self.is_write, dtype=np.bool_))
        return (pages.ctypes.data,
                None if flags is None else flags.ctypes.data,
                (pages, flags))

    def __getstate__(self) -> dict:
        # Pickle the fields only: the memos are rebuilt on demand, so a
        # trace pickles to the same bytes before and after a replay.
        state = dict(self.__dict__)
        state.pop("epoch_traces", None)
        state.pop("stream_arrays", None)
        return state

    def page_access_counts(self) -> np.ndarray:
        """DRAM accesses per footprint page (the oracle/profiler input)."""
        return np.bincount(self.page_indices,
                           minlength=self.footprint_pages).astype(np.int64)

    def miss_rate(self) -> float:
        """Fraction of raw accesses that reached DRAM."""
        if self.n_raw_accesses == 0:
            return 0.0
        return self.n_accesses / self.n_raw_accesses

    def coarsened(self, pages_per_block: int) -> "DramTrace":
        """The same stream re-binned to larger placement blocks.

        Placement at huge-page granularity (e.g. 512 x 4 KiB = 2 MiB)
        is modeled by grouping consecutive footprint pages into blocks:
        the returned trace's "pages" are blocks, so any policy placed
        on it decides once per block.  Access counts, ordering, write
        flags and bytes are unchanged — only the placement granularity
        coarsens.
        """
        if pages_per_block <= 0:
            raise SimulationError("pages_per_block must be positive")
        if pages_per_block == 1:
            return self
        return DramTrace(
            page_indices=self.page_indices // pages_per_block,
            footprint_pages=-(-self.footprint_pages // pages_per_block),
            n_raw_accesses=self.n_raw_accesses,
            n_epochs=self.n_epochs,
            bytes_per_access=self.bytes_per_access,
            is_write=self.is_write,
        )

    def write_fraction(self) -> float:
        """Fraction of DRAM accesses that are writes (0 when unknown)."""
        if self.is_write is None or self.n_accesses == 0:
            return 0.0
        return float(self.is_write.mean())

    def write_weights(self, write_cost_factors: np.ndarray,
                      access_zones: np.ndarray) -> np.ndarray:
        """Per-access channel-occupancy weight (1 for reads, the zone
        technology's write factor for writes)."""
        if self.is_write is None:
            return np.ones(self.n_accesses)
        factors = np.asarray(write_cost_factors, dtype=np.float64)
        # One gather: reads index the leading 1s, writes the factors.
        table = np.concatenate((np.ones(factors.size), factors))
        return table[access_zones + factors.size * self.is_write]

    def gather_zones(self, zone_map: np.ndarray,
                     write_cost_factors: Sequence[float]
                     ) -> tuple[np.ndarray, np.ndarray]:
        """The numpy engine passes' prologue
        (:mod:`repro.gpu.service`): the zone of every access and its
        channel-occupancy weight (see :meth:`write_weights`).

        ``zone_map`` must have passed :func:`validate_zone_map`; it is
        widened to int64 before the gather (footprint-sized, not
        access-sized).
        """
        zones = np.asarray(zone_map, dtype=np.int64)[self.page_indices]
        return zones, self.write_weights(write_cost_factors, zones)


def validate_zone_map(zone_map: np.ndarray, footprint_pages: int,
                      n_zones: int) -> np.ndarray:
    """Check a placement vector against a trace and a topology.

    Engines call this before replaying: the zone map must cover the
    footprint exactly and name only zones that exist.
    """
    zone_map = np.asarray(zone_map)
    if zone_map.ndim != 1:
        raise SimulationError("zone map must be one-dimensional")
    if zone_map.size != footprint_pages:
        raise SimulationError(
            f"zone map covers {zone_map.size} pages, trace footprint "
            f"is {footprint_pages}"
        )
    if zone_map.size and (zone_map.min() < 0
                          or zone_map.max() >= n_zones):
        raise SimulationError(
            f"zone map names zone {int(zone_map.max())} but the "
            f"topology has zones 0..{n_zones - 1}"
        )
    return zone_map


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated execution."""

    engine: str
    total_time_ns: float
    dram_accesses: int
    bytes_by_zone: np.ndarray
    time_bandwidth_ns: float
    time_latency_ns: float
    time_compute_ns: float
    mshr_merges: int = 0

    def __post_init__(self) -> None:
        if self.total_time_ns <= 0:
            raise SimulationError("total_time_ns must be positive")
        object.__setattr__(
            self, "bytes_by_zone",
            np.asarray(self.bytes_by_zone, dtype=np.float64),
        )

    @property
    def total_bytes(self) -> float:
        return float(self.bytes_by_zone.sum())

    @property
    def achieved_bandwidth(self) -> float:
        """Aggregate DRAM bandwidth achieved, bytes/second."""
        return self.total_bytes / (self.total_time_ns / 1e9)

    @property
    def throughput(self) -> float:
        """Work per unit time (inverse runtime), arbitrary units.

        All paper figures report performance *relative* to a baseline,
        so only ratios of this value are meaningful.
        """
        return 1e9 / self.total_time_ns

    def zone_byte_fractions(self) -> np.ndarray:
        """Share of DRAM traffic served by each zone."""
        total = self.bytes_by_zone.sum()
        if total == 0:
            return np.zeros_like(self.bytes_by_zone)
        return self.bytes_by_zone / total

    def dominant_bound(self) -> str:
        """Which time component bounds this run ('bandwidth',
        'latency' or 'compute')."""
        parts = {
            "bandwidth": self.time_bandwidth_ns,
            "latency": self.time_latency_ns,
            "compute": self.time_compute_ns,
        }
        return max(parts, key=parts.get)


#: ``run(trace, zone_map)`` of an engine bound to one topology,
#: workload and line size (``engine.bind``).
BoundRun = Callable[[DramTrace, np.ndarray], SimResult]


class BindingEngine:
    """An engine whose :meth:`run` is one binding plus one call.

    A subclass gives ``_compute(topology, chars, bytes_per_access)``,
    which builds the per-zone tables and resolves the kernel and returns
    ``compute(trace, zone_map)`` with a ``kernel`` attribute naming it,
    and ``_span(trace)``, the ``engine.<name>`` span of one call.
    """

    def run(self, trace: DramTrace, zone_map: np.ndarray, topology,
            chars: WorkloadCharacteristics) -> SimResult:
        """Simulate one execution.  The span covers the binding too, so
        a one-shot call counts its table building and kernel
        resolution; a bound call (:meth:`bind`) counts only the call."""
        with self._span(trace) as span:
            compute = self._compute(topology, chars,
                                    trace.bytes_per_access)
            span.annotate(kernel=compute.kernel)
            return compute(trace, zone_map)

    def bind(self, topology, chars: WorkloadCharacteristics,
             bytes_per_access: int) -> BoundRun:
        """The engine bound to one topology, workload and line size:
        ``run(trace, zone_map)`` equals :meth:`run` on the same
        arguments, with the per-zone tables, their checks and the
        kernel resolved once (an epoch replay calls it once per
        epoch)."""
        compute = self._compute(topology, chars, bytes_per_access)
        span, kernel = self._span, compute.kernel

        def run(trace: DramTrace, zone_map: np.ndarray) -> SimResult:
            with span(trace) as handle:
                handle.annotate(kernel=kernel)
                return compute(trace, zone_map)

        return run
