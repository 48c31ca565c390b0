"""Vectorized set-associative LRU simulation (Mattson stack kernel).

Without the native library, the cache hierarchy filters through this
offline computation built on the classic LRU stack property: an access
hits an ``A``-way LRU set iff fewer than ``A`` *distinct* lines were
touched in that set since the previous access to the same line.  All
logic is integer array arithmetic, so the result is bit-identical to
the sequential replay while running at NumPy speed.

The stream is first sorted (stably) by set id so each set's
subsequence is a contiguous segment, then for every access ``k`` (in
segment coordinates) three facts decide hit or miss, with ``prev[k]``
the previous position touching the same (set, line) or -1:

* ``prev[k] < 0`` — first touch, always a miss;
* the reuse window ``(prev[k], k)`` holds fewer than ``A`` accesses —
  unconditional hit (distinct lines cannot exceed accesses);
* otherwise the number of *distinct* lines in the window decides, and
  distinct lines are exactly the window's "first occurrences": the
  positions ``j`` with ``prev[j] <= prev[k]``.  Any two such positions
  hold different lines (if they matched, the later one's ``prev``
  would point inside the window), so scanning the window forward and
  counting first occurrences can stop as soon as ``A`` are seen.

The window scan runs in two vectorized stages.  Stage one probes the
first ``assoc`` window positions of every undecided access with
unrolled 1-D gathers — by construction all in-window, so no bounds
masks — which settles nearly everything on GPU streams: streaming
accesses meet ``assoc`` fresh lines immediately, reuse-heavy accesses
have short windows.  Stage two walks the leftovers' windows in
doubling batched chunks until each is decided.  A pathological stream
that keeps scanning falls back to :func:`_count_prev_greater`, an
exact merge-sort inversion counter (each level one batch of NumPy
calls via a composite-key ``searchsorted``), bounding worst-case work
at O(n log^2 n).

Sorts avoid NumPy's comparison-based stable path for wide integers:
every grouping sort here only needs equal keys adjacent in stable
order — not ascending key order — so keys are truncated into 8/16-bit
digits (a bijective remap whenever they span fewer values than the
digit type holds) and sorted with the radix kernel NumPy reserves for
narrow integers, LSD-style across two digits for (set, line) pairs.
That is ~10x faster than a stable ``int64`` argsort at these sizes.

Every set starts empty: a stream is replayed from cold caches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["lru_filter"]

#: largest single-round probe chunk (window positions per access).
_MAX_CHUNK = 4096

#: shared iota buffer for window arithmetic (grown on demand; arange
#: allocation is measurable at stream sizes).
_IOTA = np.empty(0, dtype=np.int32)


def _iota(n: int) -> np.ndarray:
    """A read-only view of ``arange(n, dtype=int32)``."""
    global _IOTA
    if _IOTA.size < n:
        _IOTA = np.arange(max(n, 2 * _IOTA.size), dtype=np.int32)
    return _IOTA[:n]


def _count_prev_greater(values: np.ndarray) -> np.ndarray:
    """For each k: ``#{j < k : values[j] > values[k]}``.

    Bottom-up merge counting: at each level the stream splits into
    left/right half-blocks; every right-half element counts the
    left-half elements greater than it via one ``searchsorted`` over
    per-block sorted values, made globally monotone with a per-block
    composite offset.  All blocks of a level are handled in one batch
    of array ops.
    """
    n = int(values.size)
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    size = 1 << (n - 1).bit_length()
    # Pad with a sentinel below the real minimum so pads never count
    # as "greater"; shift non-negative for the composite keys.
    low = int(values.min())
    padded = np.full(size, low - 1, dtype=np.int64)
    padded[:n] = values
    padded -= low - 1  # pads become 0, real values >= 1
    padded_counts = np.zeros(size, dtype=np.int64)
    span = int(padded.max()) + 1

    half = 1
    while half < size:
        width = 2 * half
        n_blocks = size // width
        blocks = padded.reshape(n_blocks, width)
        left = np.sort(blocks[:, :half], axis=1)
        queries = blocks[:, half:]
        offsets = np.arange(n_blocks, dtype=np.int64) * span
        flat_left = (left + offsets[:, None]).ravel()
        flat_queries = (queries + offsets[:, None]).ravel()
        n_le = np.searchsorted(flat_left, flat_queries, side="right")
        n_le -= np.repeat(np.arange(n_blocks, dtype=np.int64) * half,
                          half)
        padded_counts.reshape(n_blocks, width)[:, half:] += (
            (half - n_le).reshape(n_blocks, half)
        )
        half = width
    return padded_counts[:n]


def _stable_argsort_small(keys: np.ndarray) -> np.ndarray:
    """Stable grouping argsort of non-negative keys.

    NumPy's ``kind="stable"`` is a radix sort only for <=16-bit
    integers; wider integers get comparison-based timsort, an order of
    magnitude slower here.  Callers only rely on equal keys ending up
    adjacent in stable (original) order, so a truncating cast is
    enough: it remaps keys bijectively whenever they span fewer values
    than the digit type holds.
    """
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    if keys.dtype.itemsize <= 2:  # already on the radix path
        return np.argsort(keys, kind="stable")
    top = int(keys.max())
    if top < 1 << 8:
        return np.argsort(keys.astype(np.int8), kind="stable")
    if top < 1 << 16:
        return np.argsort(keys.astype(np.int16), kind="stable")
    return np.argsort(keys, kind="stable")


def _group_line_digits(seg_groups: Optional[np.ndarray],
                       seg_lines: np.ndarray,
                       n_groups: int, line_top: int
                       ) -> Optional[tuple[np.ndarray,
                                           Optional[np.ndarray]]]:
    """(group, line) keys as two 16-bit LSD radix digits, if they fit.

    The low digit is the truncated line; the high digit packs (group,
    upper line bits).  ``seg_groups=None`` declares the group a pure
    function of the line (cache slices indexed by address), dropping
    it from the key entirely.  Truncation scrambles digit order but
    keeps the mapping injective, which is all grouping sorts need.

    A ``None`` high digit means it would be constant (one effective
    group, 16-bit lines) — the common memory-side-L2 shape — so the
    caller can skip the second radix pass outright.
    """
    hi_span = (line_top >> 16) + 1
    if seg_groups is None:
        n_groups = 1
    if n_groups * hi_span > 1 << 16:
        return None
    low = seg_lines.astype(np.int16)
    if n_groups * hi_span == 1:
        return low, None
    # The radix kernel is ~2x faster again on 8-bit keys.
    hi_dtype = np.int8 if n_groups * hi_span <= 1 << 8 else np.int16
    if hi_span == 1:  # 16-bit lines: the group alone is the high digit
        return low, seg_groups.astype(hi_dtype, copy=False)
    high = (seg_lines >> 16).astype(np.int32)
    if seg_groups is not None and n_groups > 1:
        high += seg_groups * np.int32(hi_span)
    return low, high.astype(hi_dtype)


def _previous_occurrence(seg_groups: Optional[np.ndarray],
                         seg_lines: np.ndarray,
                         n_groups: int, line_top: int) -> np.ndarray:
    """Previous position touching the same (group, line), else -1.

    Positions index the group-sorted stream, so equal pairs are
    adjacent after one stable grouping sort on the (group, line) key;
    adjacency is detected on the same digits the sort ran on
    (injective, so digit equality is pair equality).  ``seg_groups``
    may be None when the group is a pure function of the line.
    """
    n = seg_lines.size
    prev = np.full(n, -1, dtype=np.int32)
    if n < 2:
        return prev
    digits = _group_line_digits(seg_groups, seg_lines, n_groups,
                                line_top)
    if digits is None:  # digit overflow: rare wide-key fallback
        key = seg_lines.astype(np.int64)
        if seg_groups is not None:
            key = key + seg_groups.astype(np.int64) * (line_top + 1)
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        same = sorted_key[1:] == sorted_key[:-1]
    else:
        low, high = digits
        order = np.argsort(low, kind="stable")
        if high is None:  # constant high digit: low alone is the key
            low_s = low[order]
            same = low_s[1:] == low_s[:-1]
        else:
            order = order[np.argsort(high[order], kind="stable")]
            low_s = low[order]
            high_s = high[order]
            same = low_s[1:] == low_s[:-1]
            np.logical_and(same, high_s[1:] == high_s[:-1], out=same)
    # Scatter every predecessor, then repair the run heads: the heads
    # are one per distinct key, far fewer than the retouches on cached
    # streams, so the fix-up compaction beats a full-width blend.
    prev[order[1:]] = order[:-1]
    heads = np.nonzero(~same)[0]
    prev[order[heads + 1]] = -1
    prev[order[0]] = -1
    return prev


def _probe_windows(prev: np.ndarray, window: np.ndarray, assoc: int,
                   queries: np.ndarray, volume_cap: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Decide hit/miss for ``queries`` by scanning their reuse windows.

    Counts window-firsts — positions whose own reuse distance reaches
    back to the window start (``prev[j] <= window start``) — stopping
    per query at ``assoc`` (miss) or window end (hit iff fewer).

    Stage one probes windows in blocks of ``assoc`` positions with
    unrolled 1-D gathers, compacting the still-open set after each
    block: every queried window covers the first block (no bounds
    masks), and a fully-fresh first block — the common streaming case
    — is already a decided miss.  Stage two walks whatever survives
    four blocks in doubling 2-D chunks.

    Returns ``(hit, undecided)`` aligned with ``queries``; entries
    still undecided when the gathered-volume budget runs out are left
    for the caller's exact fallback counter.
    """
    m = queries.size
    hit = np.zeros(m, dtype=bool)
    undecided = np.zeros(m, dtype=bool)
    if m == 0:
        return hit, undecided
    n = prev.size
    open_idx = np.arange(m, dtype=np.int64)
    # Window starts stay intp so gathers skip index conversion; probe
    # position start+d is reached by gathering start from the shifted
    # view prev[d:], so the hot loop never touches an index array.
    p = prev[queries].astype(np.int64)
    w = window[queries]
    n_blocks = 4
    # Stage one counts at most n_blocks*assoc firsts; a byte counter
    # keeps the read-modify-write traffic minimal.
    cnt_dtype = np.int8 if n_blocks * assoc < 127 else np.int32
    found = np.zeros(m, dtype=cnt_dtype)
    gathered = np.empty(m, dtype=np.int32)
    first = np.empty(m, dtype=bool)
    in_window = np.empty(m, dtype=bool)
    depth = 0
    for block in range(n_blocks):
        for _ in range(assoc):
            depth += 1
            # min() keeps the view non-empty for tiny streams, where
            # late probes are all out-of-window (and masked) anyway.
            np.take(prev[min(depth, n - 1):], p, out=gathered,
                    mode="clip")
            np.less_equal(gathered, p, out=first)
            if block:  # first block is always fully in-window
                np.greater_equal(w, depth, out=in_window)
                np.logical_and(first, in_window, out=first)
            np.add(found, first, out=found, casting="unsafe")
        missed = found >= assoc
        exhausted = w <= depth
        hit[open_idx[exhausted & ~missed]] = True
        keep = np.nonzero(~(missed | exhausted))[0]
        if not keep.size:
            return hit, undecided
        open_idx = open_idx[keep]
        p = p[keep]
        w = w[keep]
        found = found[keep]
        gathered = np.empty(open_idx.size, dtype=np.int32)
        first = np.empty(open_idx.size, dtype=bool)
        in_window = np.empty(open_idx.size, dtype=bool)

    # Stage two: doubling chunks over the still-open windows.
    # ``open_idx`` indexes the original query array throughout, so the
    # survivors' stream positions are one gather away.
    qpos = queries[open_idx]
    found = found.astype(np.int32)  # chunk sums overflow a byte
    scan = p + depth  # last scanned window position
    active = np.arange(open_idx.size, dtype=np.int64)
    chunk = max(16, 2 * assoc)
    volume = 0
    while active.size:
        volume += active.size * chunk
        if volume > volume_cap:
            undecided[open_idx[active]] = True
            break
        cols = scan[active, None] + np.arange(1, chunk + 1,
                                              dtype=np.int64)
        within = cols < qpos[active, None]
        firsts = np.take(prev, cols, mode="clip") <= p[active, None]
        np.logical_and(firsts, within, out=firsts)
        found[active] += firsts.sum(axis=1, dtype=np.int32)
        scan[active] += chunk
        now_found = found[active]
        done_miss = now_found >= assoc
        done_all = scan[active] + 1 >= qpos[active]
        hit[open_idx[active[done_all & ~done_miss]]] = True
        active = active[~(done_miss | done_all)]
        chunk = min(2 * chunk, _MAX_CHUNK)
    return hit, undecided


def lru_filter(set_ids: np.ndarray, lines: np.ndarray, assoc: int,
               line_keyed: bool = False,
               probe_volume_cap: Optional[int] = None,
               n_groups: Optional[int] = None,
               line_top: Optional[int] = None) -> np.ndarray:
    """Replay a line stream through independent, initially empty A-way
    LRU sets.

    ``set_ids``/``lines`` describe the stream in access order; each
    access touches LRU set ``set_ids[k]`` with line ``lines[k]``.
    ``line_keyed=True`` asserts the set id is a pure function of the
    line address (address-sliced caches), which lets the reuse
    analysis key on lines alone.  ``n_groups``/``line_top`` are
    optional caller-known *upper* bounds on the key universe (any
    overestimate is valid — they only size radix digits), saving two
    stream-wide reductions.

    Returns a boolean hit flag per access, in input order.
    """
    set_ids = np.asarray(set_ids)
    lines = np.asarray(lines)
    n = set_ids.size
    if n == 0:
        return np.empty(0, dtype=bool)

    if n_groups is None:
        n_groups = int(set_ids.max()) + 1
    if line_top is None:
        line_top = int(lines.max())

    # Contiguous per-set segments; the stable sort keeps access order
    # within each set.
    order = _stable_argsort_small(set_ids)
    seg_sets = set_ids[order]  # native dtype; consumers widen lazily
    line_dtype = np.int32 if line_top < 2 ** 31 else np.int64
    seg_lines = lines[order].astype(line_dtype, copy=False)

    prev = _previous_occurrence(None if line_keyed else seg_sets,
                                seg_lines, n_groups, line_top)
    window = _iota(n) - prev
    window -= 1
    touched = prev >= 0
    # Long-window retouches need a distinct-count probe; the remaining
    # touched accesses hit outright (window shorter than the ways).
    long_win = window >= assoc
    long_win &= touched
    seg_hits = touched ^ long_win  # short window: certain hit

    queries = np.nonzero(long_win)[0]  # touched, long window
    if queries.size:
        cap = (probe_volume_cap if probe_volume_cap is not None
               else 64 * n)
        probe_hit, undecided = _probe_windows(prev, window, assoc,
                                              queries, cap)
        seg_hits[queries[probe_hit]] = True
        if undecided.any():
            # Exact fallback: distinct = window - repeats, with
            # repeats an inversion count on `prev` over retouching
            # accesses only (first touches neither repeat nor outrank
            # any window start).
            valid = np.nonzero(touched)[0]
            repeats = np.zeros(n, dtype=np.int64)
            repeats[valid] = _count_prev_greater(
                prev[valid].astype(np.int64))
            rest = queries[undecided]
            seg_hits[rest] = (window[rest] - repeats[rest]) < assoc

    hits = np.empty(n, dtype=bool)
    hits[order] = seg_hits
    return hits
