"""The GPU cache hierarchy as a one-shot L1/L2 filter.

The hierarchy filters a raw (SM-issued) line-address stream down to the
DRAM-level stream the placement study operates on: Figure 6's CDFs count
accesses to each 4 kB page "after being filtered by on-chip caches".

The model follows Table 1: a 16 kB L1 per SM (accesses striped across
SMs round-robin, as warps are) and a memory-side 128 kB L2 slice per
DRAM channel, indexed by line address.  Replacement is LRU;
allocate-on-miss, no write-back modeling (DRAM traffic is counted per
access, matching a sectored streaming cache).

``filter_stream_indices`` replays a whole stream from empty caches, on
the compiled one-pass filter (``_lru.c``, loaded by
:mod:`repro.gpu._native`) where the native library is available, else
on the vectorized LRU kernel (:mod:`repro.gpu.lru`).  Both miss-index
streams are bit-identical to a sequential per-access replay; the test
suite keeps that loop as the oracle both kernels are pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.errors import ConfigError
from repro.gpu.config import GpuConfig

#: memoized L1 set-id bases, keyed by (n_sms, n_sets, length, dtype).
_SM_BASES: dict[tuple[int, int, int, type], np.ndarray] = {}

#: memoized line -> L2 (slice, set) key tables, keyed by
#: (line_top, n_channels, n_sets).
_L2_KEY_TABLES: dict[tuple[int, int, int], np.ndarray] = {}


def _sm_base(n_sms: int, n_sets: int, n: int, dtype: type) -> np.ndarray:
    """``(position % n_sms) * n_sets`` for the whole stream, cached."""
    key = (n_sms, n_sets, n, dtype)
    pattern = _SM_BASES.get(key)
    if pattern is None:
        if len(_SM_BASES) > 8:
            _SM_BASES.clear()
        pattern = np.resize(np.arange(n_sms, dtype=dtype) * dtype(n_sets),
                            n)
        pattern.flags.writeable = False
        _SM_BASES[key] = pattern
    return pattern


def _l2_key_table(line_top: int, n_channels: int,
                  n_sets: int) -> np.ndarray:
    """Line -> packed (slice, set) id, one byte-wide gather per stream.

    Precomputing the modulo pair over the line universe turns the
    per-call ``% channels`` / ``% sets`` arithmetic (three stream-wide
    integer ops, one a true division) into a single table gather.
    """
    key = (line_top, n_channels, n_sets)
    table = _L2_KEY_TABLES.get(key)
    if table is None:
        if len(_L2_KEY_TABLES) > 4:
            _L2_KEY_TABLES.clear()
        span = np.arange(line_top + 1, dtype=np.int32)
        table = ((span % n_channels) * n_sets
                 + (span % n_sets)).astype(np.uint8)
        table.flags.writeable = False
        _L2_KEY_TABLES[key] = table
    return table


def _set_index(lines: np.ndarray, n_sets: int) -> np.ndarray:
    """``line % n_sets`` with a bit-mask fast path for power-of-two."""
    if n_sets & (n_sets - 1) == 0:
        return lines & lines.dtype.type(n_sets - 1)
    return lines % lines.dtype.type(n_sets)


def _native_filter():
    from repro.gpu import _native  # deferred: loads on first filter

    return _native.kernel("lru")


def _numpy_filter(line_addrs: np.ndarray, n_sms: int, l1_sets: int,
                  l1_assoc: int, n_channels: int, l2_sets: int,
                  l2_assoc: int) -> tuple[np.ndarray, int, int, int]:
    """The vectorized hierarchy filter, with the native kernel's
    signature: ``(misses, l1_hits, l2_accesses, l2_hits)`` of one
    replay from empty caches."""
    from repro.gpu.lru import lru_filter  # deferred: the fallback only

    n = int(line_addrs.size)
    line_top = int(line_addrs.max())
    dtype = np.int32 if line_top < 2 ** 31 else np.int64
    lines = line_addrs.astype(dtype, copy=False)

    # L1: one LRU set per (SM, set index); SM striping follows the
    # round-robin warp scheduler.  Byte-wide ids, where they fit, keep
    # the grouping sort on the radix path with no widening casts
    # downstream.
    g1_dtype = np.int8 if n_sms * l1_sets <= 127 else np.int32
    g1 = _set_index(lines, l1_sets).astype(g1_dtype)
    g1 += _sm_base(n_sms, l1_sets, n, g1_dtype)
    l1_hits = lru_filter(g1, lines, l1_assoc, n_groups=n_sms * l1_sets,
                         line_top=line_top)

    # L2: memory-side slices selected by line address, so the set id is
    # a pure function of the line (``line_keyed``).
    l1_miss_positions = np.nonzero(~l1_hits)[0]
    l2_lines = lines[l1_miss_positions]
    if line_top < 1 << 16 and n_channels * l2_sets < 1 << 8:
        g2 = _l2_key_table(line_top, n_channels, l2_sets)[l2_lines]
    else:
        g2 = (_set_index(l2_lines, n_channels) * np.int32(l2_sets)
              + _set_index(l2_lines, l2_sets))
    l2_hits = lru_filter(g2, l2_lines, l2_assoc, line_keyed=True,
                         n_groups=n_channels * l2_sets, line_top=line_top)
    return (l1_miss_positions[~l2_hits], n - int(l1_miss_positions.size),
            int(l2_lines.size), int(np.count_nonzero(l2_hits)))


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(self.accesses + other.accesses,
                          self.hits + other.hits)


class CacheHierarchy:
    """L1-per-SM + memory-side L2, as in Table 1.

    ``filter_stream_indices`` pushes a raw line-address stream through
    empty caches and returns the positions that reach DRAM.  SM
    affinity for L1s is modeled by striping consecutive accesses across
    SMs, the steady-state behaviour of a round-robin warp scheduler.
    Per-level statistics add up over calls.
    """

    def __init__(self, config: GpuConfig, n_channels: int) -> None:
        if n_channels <= 0:
            raise ConfigError("n_channels must be positive")
        self.config = config
        self.n_channels = n_channels
        # GpuConfig guarantees whole, non-empty sets.
        self._l1_sets = (config.l1_bytes_per_sm // config.line_size
                         // config.l1_assoc)
        self._l2_sets = (config.l2_bytes_per_channel // config.line_size
                         // config.l2_assoc)
        self._l1 = CacheStats()
        self._l2 = CacheStats()

    def filter_stream_indices(self, line_addrs: np.ndarray) -> np.ndarray:
        """Positions (into the raw stream) of accesses that miss on chip.

        Every call starts from empty caches.  Returning indices rather
        than addresses lets callers carry any per-access metadata
        (write flags, thread ids) through the filter.
        """
        line_addrs = np.asarray(line_addrs)
        if line_addrs.size == 0:
            return np.empty(0, dtype=np.int64)
        # The kernels index sets by ``line % n_sets``; a negative line
        # would select a set outside their arrays.
        if int(line_addrs.min()) < 0:
            raise ConfigError("line addresses must be non-negative")
        config = self.config
        kernel = _native_filter() or _numpy_filter
        misses, l1_hits, l2_accesses, l2_hits = kernel(
            line_addrs, config.n_sms, self._l1_sets, config.l1_assoc,
            self.n_channels, self._l2_sets, config.l2_assoc)
        self._l1 = self._l1.merge(CacheStats(int(line_addrs.size), l1_hits))
        self._l2 = self._l2.merge(CacheStats(l2_accesses, l2_hits))
        return misses

    def l1_stats(self) -> CacheStats:
        return replace(self._l1)

    def l2_stats(self) -> CacheStats:
        return replace(self._l2)
