"""GPU configuration (Table 1).

The paper simulates an NVIDIA GTX-480 (Fermi)-like GPU in GPGPU-Sim,
modernized with more MSHRs and a higher clock.  :func:`table1_config`
reproduces that configuration; the dataclass keeps every knob the
engines and sweeps need.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.errors import ConfigError
from repro.core.units import KIB, LINE_SIZE


@dataclass(frozen=True)
class GpuConfig:
    """Static GPU core/cache parameters.

    The memory side (pools, channels, bandwidths, interconnect hop)
    lives in :class:`repro.memory.topology.SystemTopology`; this object
    covers the chip itself.
    """

    name: str = "GTX480-like"
    n_sms: int = 15
    clock_ghz: float = 1.4
    warp_size: int = 32
    l1_bytes_per_sm: int = 16 * KIB
    l2_bytes_per_channel: int = 128 * KIB
    mshrs_per_l2_slice: int = 128
    line_size: int = LINE_SIZE
    l1_assoc: int = 4
    l2_assoc: int = 8
    #: peak outstanding memory requests the SMs can sustain chip-wide;
    #: bounds the memory-level parallelism any workload can express.
    max_warps_outstanding: int = 48 * 15

    def __post_init__(self) -> None:
        if self.n_sms <= 0:
            raise ConfigError("n_sms must be positive")
        if self.clock_ghz <= 0:
            raise ConfigError("clock_ghz must be positive")
        if self.warp_size <= 0:
            raise ConfigError("warp_size must be positive")
        for field_name in ("l1_bytes_per_sm", "l2_bytes_per_channel",
                           "mshrs_per_l2_slice", "line_size",
                           "l1_assoc", "l2_assoc", "max_warps_outstanding"):
            if getattr(self, field_name) <= 0:
                raise ConfigError(f"{field_name} must be positive")
        if self.l1_bytes_per_sm % (self.line_size * self.l1_assoc):
            raise ConfigError("L1 size must be a multiple of assoc*line")
        if self.l2_bytes_per_channel % (self.line_size * self.l2_assoc):
            raise ConfigError("L2 slice size must be a multiple of assoc*line")

    @property
    def l1_total_bytes(self) -> int:
        """Aggregate L1 capacity across SMs."""
        return self.l1_bytes_per_sm * self.n_sms

    def l2_total_bytes(self, n_channels: int) -> int:
        """Aggregate memory-side L2 capacity for ``n_channels``."""
        if n_channels <= 0:
            raise ConfigError("n_channels must be positive")
        return self.l2_bytes_per_channel * n_channels

    def total_mshrs(self, n_channels: int) -> int:
        """Chip-wide outstanding-miss capacity (128 per L2 slice)."""
        if n_channels <= 0:
            raise ConfigError("n_channels must be positive")
        return self.mshrs_per_l2_slice * n_channels

    def effective_parallelism(self, parallelism: float,
                              n_channels: int) -> float:
        """Outstanding requests a workload of ``parallelism`` actually
        sustains on ``n_channels``: capped by the MSHR file and the
        chip's warp budget."""
        return min(parallelism, float(self.total_mshrs(n_channels)),
                   float(self.max_warps_outstanding))

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles / self.clock_ghz

    def ns_to_cycles(self, ns: float) -> float:
        return ns * self.clock_ghz

    def scaled_clock(self, factor: float) -> "GpuConfig":
        """A copy with the core clock scaled by ``factor``."""
        if factor <= 0:
            raise ConfigError("clock scale factor must be positive")
        return replace(self, clock_ghz=self.clock_ghz * factor)

    def scaled_caches(self, factor: float) -> "GpuConfig":
        """A copy with L1/L2 capacities scaled by ``factor``.

        Used when workload footprints are scaled down (see
        :data:`repro.workloads.base.FOOTPRINT_SCALE`): shrinking the
        caches by the same factor preserves the cache-to-footprint
        ratio, so miss rates and post-cache hotness match the unscaled
        system.  Sizes are rounded down to legal geometries (multiples
        of ``assoc * line_size``), never below one set.
        """
        if factor <= 0:
            raise ConfigError("cache scale factor must be positive")
        l1_quantum = self.line_size * self.l1_assoc
        l2_quantum = self.line_size * self.l2_assoc
        l1 = max(l1_quantum,
                 int(self.l1_bytes_per_sm * factor) // l1_quantum * l1_quantum)
        l2 = max(l2_quantum,
                 int(self.l2_bytes_per_channel * factor) // l2_quantum
                 * l2_quantum)
        return replace(self, l1_bytes_per_sm=l1, l2_bytes_per_channel=l2)


def table1_config() -> GpuConfig:
    """The exact simulated configuration from Table 1."""
    return GpuConfig()
