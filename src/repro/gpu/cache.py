"""Set-associative caches and the GPU cache hierarchy.

The hierarchy filters a raw (SM-issued) line-address stream down to the
DRAM-level stream the placement study operates on: Figure 6's CDFs count
accesses to each 4 kB page "after being filtered by on-chip caches".

The model follows Table 1: a 16 kB L1 per SM (accesses striped across
SMs round-robin, as warps are) and a memory-side 128 kB L2 slice per
DRAM channel, indexed by line address.  Replacement is LRU.

``filter_stream_indices`` routes whole streams through a kernel
instead of the per-access OrderedDict walk: the compiled one-pass
filter (``_lru.c``, loaded by :mod:`repro.gpu._native`) where the
native library is available, else the vectorized LRU kernel
(:mod:`repro.gpu.lru`), which is also the native kernel's oracle.
Both miss-index streams are bit-identical to the sequential replay
(the original loop survives as
:class:`repro.gpu._reference.ReferenceCacheHierarchy`, pinned by the
golden tests).  Scalar ``access`` calls still run the OrderedDict
path, so the paths interoperate: dict state seeds a kernel as its
warm-start, and the kernel's final state is written back lazily —
materialized only when a scalar access, flush, or state inspection
actually needs it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from repro.core.errors import ConfigError
from repro.gpu.config import GpuConfig
from repro.gpu.lru import lru_filter, lru_final_state

#: memoized round-robin SM id pattern, keyed by (n_sms, length).
_SM_PATTERNS: dict[tuple[int, int], np.ndarray] = {}


def _sm_pattern(n_sms: int, n: int) -> np.ndarray:
    """``position % n_sms`` for the whole stream, cached per shape."""
    key = (n_sms, n)
    pattern = _SM_PATTERNS.get(key)
    if pattern is None:
        if len(_SM_PATTERNS) > 8:
            _SM_PATTERNS.clear()
        pattern = np.resize(np.arange(n_sms, dtype=np.int32), n)
        pattern.flags.writeable = False
        _SM_PATTERNS[key] = pattern
    return pattern


#: memoized byte-wide L1 set-id base (sm * sets_per_sm), per shape.
_SM_SCALED: dict[tuple[int, int, int], np.ndarray] = {}

#: memoized line -> L2 (slice, set) key tables, keyed by
#: (line_top, n_channels, n_sets).
_L2_KEY_TABLES: dict[tuple[int, int, int], np.ndarray] = {}


def _sm_scaled(n_sms: int, n_sets: int, n: int) -> np.ndarray:
    """``(position % n_sms) * n_sets`` as a byte pattern, cached."""
    key = (n_sms, n_sets, n)
    pattern = _SM_SCALED.get(key)
    if pattern is None:
        if len(_SM_SCALED) > 8:
            _SM_SCALED.clear()
        pattern = np.resize(
            np.arange(n_sms, dtype=np.int8) * np.int8(n_sets), n)
        pattern.flags.writeable = False
        _SM_SCALED[key] = pattern
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


class _TagState(NamedTuple):
    """One level's residents in the native filter's own form."""

    tags: np.ndarray  # (n_units * n_sets, assoc) int64, LRU to MRU
    fill: np.ndarray  # (n_units * n_sets,) int64 resident count


#: deferred kernel state of one level: the numpy kernel's set-sorted
#: access chain or the native kernel's tag arrays.
_Pending = Union[tuple[np.ndarray, np.ndarray], _TagState, None]


@dataclass
class CacheStats:
    """Hit/miss counters for one cache (or one group of slices)."""

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


class SetAssocCache:
    """A set-associative LRU cache over line addresses.

    Addresses are *line* numbers (byte address / line size); the cache
    never sees byte offsets.  ``access`` returns True on hit and updates
    recency; misses fill (allocate-on-miss, no write-back modeling —
    DRAM traffic is counted per access, matching a sectored streaming
    cache).
    """

    def __init__(self, size_bytes: int, line_size: int, assoc: int) -> None:
        if size_bytes <= 0 or line_size <= 0 or assoc <= 0:
            raise ConfigError("cache geometry must be positive")
        n_lines = size_bytes // line_size
        if n_lines == 0 or n_lines % assoc:
            raise ConfigError(
                f"cache of {size_bytes}B / {line_size}B lines cannot be "
                f"{assoc}-way"
            )
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.assoc = assoc
        self.n_sets = n_lines // assoc
        # One LRU-ordered dict per set: keys are line tags.
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.stats = CacheStats()

    def access(self, line_addr: int) -> bool:
        """Access one line; returns True on hit."""
        index = line_addr % self.n_sets
        cache_set = self._sets[index]
        self.stats.accesses += 1
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            self.stats.hits += 1
            return True
        if len(cache_set) >= self.assoc:
            cache_set.popitem(last=False)
        cache_set[line_addr] = None
        return False

    def flush(self) -> None:
        """Invalidate all lines, keep statistics."""
        for cache_set in self._sets:
            cache_set.clear()

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)


class CacheHierarchy:
    """L1-per-SM + memory-side L2, as in Table 1.

    ``filter_stream`` pushes a raw line-address stream through the
    hierarchy and returns the DRAM-level miss stream.  SM affinity for
    L1s is modeled by striping consecutive accesses across SMs, the
    steady-state behaviour of a round-robin warp scheduler.
    """

    def __init__(self, config: GpuConfig, n_channels: int) -> None:
        if n_channels <= 0:
            raise ConfigError("n_channels must be positive")
        self.config = config
        self.n_channels = n_channels
        self._l1s = [
            SetAssocCache(config.l1_bytes_per_sm, config.line_size,
                          config.l1_assoc)
            for _ in range(config.n_sms)
        ]
        self._l2s = [
            SetAssocCache(config.l2_bytes_per_channel, config.line_size,
                          config.l2_assoc)
            for _ in range(n_channels)
        ]
        # Deferred kernel state of each level, not yet written back
        # into the OrderedDicts.  ``None`` means the dicts are
        # authoritative.
        self._pending_l1: _Pending = None
        self._pending_l2: _Pending = None

    def access(self, line_addr: int, sm: int) -> bool:
        """One access from SM ``sm``; True if served on chip."""
        self._materialize()
        if self._l1s[sm % len(self._l1s)].access(line_addr):
            return True
        slice_index = line_addr % self.n_channels
        return self._l2s[slice_index].access(line_addr)

    # ----- deferred state plumbing ---------------------------------

    def _materialize(self) -> None:
        """Write any pending kernel state back into the OrderedDicts."""
        if self._pending_l1 is not None:
            self._rebuild(self._l1s, self._pending_l1)
            self._pending_l1 = None
        if self._pending_l2 is not None:
            self._rebuild(self._l2s, self._pending_l2)
            self._pending_l2 = None

    @classmethod
    def _rebuild(cls, caches: list[SetAssocCache],
                 pending: _Pending) -> None:
        n_sets = caches[0].n_sets
        groups, lines = cls._warm_state(caches, pending)
        for cache in caches:
            for cache_set in cache._sets:
                cache_set.clear()
        # Residents arrive LRU-to-MRU per set: plain insertion order.
        for group, line in zip(groups.tolist(), lines.tolist()):
            caches[group // n_sets]._sets[group % n_sets][line] = None

    @staticmethod
    def _warm_state(caches: list[SetAssocCache], pending: _Pending,
                    ) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Current contents of ``caches`` as ``(set ids, lines)``, LRU
        to MRU within each set (the numpy kernel's warm-start form)."""
        if isinstance(pending, _TagState):
            groups, ranks = np.nonzero(
                np.arange(caches[0].assoc) < pending.fill[:, None])
            return groups, pending.tags[groups, ranks]
        if pending is not None:
            return lru_final_state(pending[0], pending[1],
                                   caches[0].assoc)
        n_sets = caches[0].n_sets
        groups: list[int] = []
        lines: list[int] = []
        for index, cache in enumerate(caches):
            base = index * n_sets
            for set_index, cache_set in enumerate(cache._sets):
                for line in cache_set:
                    groups.append(base + set_index)
                    lines.append(line)
        if not groups:
            return None, None
        return (np.asarray(groups, dtype=np.int64),
                np.asarray(lines, dtype=np.int64))

    @classmethod
    def _tag_state(cls, caches: list[SetAssocCache],
                   pending: _Pending) -> _TagState:
        """Current contents of ``caches`` in the native warm-start form
        (the pending tag arrays themselves, when there are some)."""
        if isinstance(pending, _TagState):
            return pending
        n_groups = len(caches) * caches[0].n_sets
        tags = np.zeros((n_groups, caches[0].assoc), dtype=np.int64)
        fill = np.zeros(n_groups, dtype=np.int64)
        groups, lines = cls._warm_state(caches, pending)
        if groups is not None and groups.size:
            order = np.argsort(groups, kind="stable")
            groups = groups[order]
            fill = np.bincount(groups, minlength=n_groups)
            ranks = np.arange(groups.size) - (np.cumsum(fill) - fill)[groups]
            tags[groups, ranks] = lines[order]
        return _TagState(tags, fill.astype(np.int64, copy=False))

    @staticmethod
    def _add_stats(caches: list[SetAssocCache], accesses: np.ndarray,
                   hits: np.ndarray) -> None:
        """Fold per-cache counts in — one batched update per level."""
        for cache, n_acc, n_hit in zip(caches, accesses.tolist(),
                                       hits.tolist()):
            cache.stats.accesses += n_acc
            cache.stats.hits += n_hit

    # ----- stream filtering ----------------------------------------

    def filter_stream_indices(self, line_addrs: np.ndarray) -> np.ndarray:
        """Positions (into the raw stream) of accesses that miss on chip.

        Returning indices rather than addresses lets callers carry any
        per-access metadata (write flags, thread ids) through the
        filter.
        """
        line_addrs = np.asarray(line_addrs)
        n = int(line_addrs.size)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if int(line_addrs.min()) < 0:
            return self._filter_loop(line_addrs)  # degenerate input
        n_sms = len(self._l1s)
        l1_sets = self._l1s[0].n_sets
        l2_sets = self._l2s[0].n_sets
        l1_accesses = np.full(n_sms, n // n_sms, dtype=np.int64)
        l1_accesses[:n % n_sms] += 1

        native = _native_filter()
        if native is not None:
            l1 = self._tag_state(self._l1s, self._pending_l1)
            l2 = self._tag_state(self._l2s, self._pending_l2)
            misses, l1_hits, l2_accesses, l2_hits = native(
                line_addrs, l1.tags, l1.fill, l1_sets,
                l2.tags, l2.fill, l2_sets)
            self._pending_l1, self._pending_l2 = l1, l2
            self._add_stats(self._l1s, l1_accesses, l1_hits)
            self._add_stats(self._l2s, l2_accesses, l2_hits)
            return misses

        line_top = int(line_addrs.max())
        dtype = np.int32 if line_top < 2 ** 31 else np.int64
        lines = line_addrs.astype(dtype, copy=False)
        sms = _sm_pattern(n_sms, n)

        # L1: one LRU set per (SM, set index); SM striping follows the
        # round-robin warp scheduler, as in the scalar path.
        if n_sms * l1_sets <= 127:
            # Byte-wide ids keep the grouping sort on the radix path
            # with no widening casts downstream.
            g1 = _set_index(lines, l1_sets).astype(np.int8)
            g1 += _sm_scaled(n_sms, l1_sets, n)
        else:
            g1 = sms * np.int32(l1_sets) + _set_index(lines, l1_sets)
        warm_sets, warm_lines = self._warm_state(self._l1s,
                                                 self._pending_l1)
        l1_hits, chain1 = lru_filter(g1, lines, self._l1s[0].assoc,
                                     warm_set_ids=warm_sets,
                                     warm_lines=warm_lines,
                                     n_groups=n_sms * l1_sets,
                                     line_top=line_top)
        self._pending_l1 = chain1
        self._add_stats(self._l1s, l1_accesses,
                        np.bincount(sms[l1_hits], minlength=n_sms))

        # L2: memory-side slices selected by line address, so the set
        # id is a pure function of the line (``line_keyed``).
        l1_miss_positions = np.nonzero(~l1_hits)[0]
        l2_lines = lines[l1_miss_positions]
        if line_top < 1 << 16 and self.n_channels * l2_sets < 1 << 8:
            g2 = _l2_key_table(line_top, self.n_channels,
                               l2_sets)[l2_lines]
            if l2_sets & (l2_sets - 1) == 0:
                channels = g2 >> np.uint8(l2_sets.bit_length() - 1)
            else:
                channels = g2 // np.uint8(l2_sets)
        else:
            channels = _set_index(l2_lines, self.n_channels)
            g2 = (channels * np.int32(l2_sets)
                  + _set_index(l2_lines, l2_sets))
        warm_sets, warm_lines = self._warm_state(self._l2s,
                                                 self._pending_l2)
        l2_hits, chain2 = lru_filter(g2, l2_lines, self._l2s[0].assoc,
                                     warm_set_ids=warm_sets,
                                     warm_lines=warm_lines,
                                     line_keyed=True,
                                     n_groups=self.n_channels * l2_sets,
                                     line_top=line_top)
        self._pending_l2 = chain2

        self._add_stats(
            self._l2s,
            np.bincount(channels, minlength=self.n_channels),
            np.bincount(channels[l2_hits], minlength=self.n_channels))

        return l1_miss_positions[~l2_hits]

    def _filter_loop(self, line_addrs: np.ndarray) -> np.ndarray:
        """Sequential fallback (e.g. negative addresses)."""
        misses = []
        n_sms = len(self._l1s)
        for position, line_addr in enumerate(line_addrs.tolist()):
            if not self.access(line_addr, position % n_sms):
                misses.append(position)
        return np.asarray(misses, dtype=np.int64)

    def filter_stream(self, line_addrs: np.ndarray) -> np.ndarray:
        """DRAM-level miss stream for a raw access stream (in order)."""
        return np.asarray(line_addrs, dtype=np.int64)[
            self.filter_stream_indices(line_addrs)
        ]

    def l1_stats(self) -> CacheStats:
        total = CacheStats()
        for cache in self._l1s:
            total = total.merge(cache.stats)
        return total

    def l2_stats(self) -> CacheStats:
        total = CacheStats()
        for cache in self._l2s:
            total = total.merge(cache.stats)
        return total

    def flush(self) -> None:
        # Pending kernel state is invalidated wholesale; statistics
        # were already folded in when the filter ran.
        self._pending_l1 = None
        self._pending_l2 = None
        for cache in self._l1s:
            cache.flush()
        for cache in self._l2s:
            cache.flush()
