"""The engines' per-access passes and the batched windowed-service
kernel inside the event pass.

Both event engines (:class:`repro.gpu.engine.DetailedEngine` and
:class:`repro.gpu.engine.BankedEngine`) replay the DRAM stream under the
same discipline: a bounded window of outstanding requests (a
completion-time min-heap popped once per access at steady state) and
per-channel FIFO service.  Inside :func:`event_pass`, a batched exact
simulation replaces that per-access heap loop.

The batching rests on two structural facts about the sequential replay:

* **Pops consume completions in globally sorted order.**  Every new
  completion exceeds the pop that admitted it (it adds positive
  occupancy + latency on top), and pops are non-decreasing, so the
  heap's pop sequence enumerates the completion multiset ascending.
  The request admitted at position ``i`` therefore becomes ready at
  ``max(i * compute_step, S[i - window])`` with ``S`` the sorted
  completions.
* **A batch of ``B`` pops can be settled at once** whenever the
  ``B``-th smallest pending completion does not exceed the smallest
  pending completion plus the batch's minimum (occupancy + latency):
  no completion generated inside the batch can then undercut the
  ``B`` pending values being popped, so they are exactly the next
  ``B`` pops.

Within a batch, per-channel FIFO chaining
(``finish = max(ready, channel_free) + occupancy``) is a max-plus
prefix scan, evaluated with a cumulative-sum + segmented running-max
identity over the batch sorted by channel.  The segmented running max
uses an offset trick (adding ``K * segment_id`` before a global
``maximum.accumulate``), which perturbs values by at most a few ulps
of ``K`` — well inside the 1e-9 relative tolerance the golden suite
enforces against the sequential reference.

Windows smaller than ``_MIN_BATCH_WINDOW`` batch poorly (a batch can
never exceed the window), so tiny-window runs fall back to an exact
sequential replay.

The compiled event pass runs a port of this kernel (``_windowed.c``,
built and loaded on first use by :mod:`repro.gpu._native`) that
performs the same batch schedule and the same float operations in the
same order, so its result equals the numpy kernel's bit for bit.  A
batch never reads past ``window`` accesses ahead, so the port pulls
its per-access inputs through a sliding buffer of a few windows that
the compiled pass fills as it goes: its working memory is
O(window + channels), not O(accesses).  The
numpy kernel (:func:`_simulate_numpy` and :func:`_simulate_sequential`)
is the fallback on hosts where the library cannot be built or loaded,
and the oracle the native path is tested against (through the
library's ``"windowed"`` test entry); :func:`kernel_path` says which
one this process runs.

The engines' whole per-access passes live here too, so no engine
branches on the kernel: :func:`bind_throughput_pass` (zone map to
(epoch, zone) counts and occupancy, then the throughput engine's
reduction of those bins to epoch bounds, the bound tail) and
:func:`bind_event_pass` (zone map to channels, occupancy, the windowed
replay, per-channel busy time and per-zone access counts, for the
detailed and banked engines; :func:`event_pass` is its one-call form).
Each binds its per-zone tables and resolves its kernel once, so an
epoch replay pays one call per epoch, and runs its compiled port
(``_passes.c``) or its numpy form (:meth:`DramTrace.gather_zones`,
:func:`rank_within_groups`, :func:`bank_row_hits`, ``np.bincount`` and
the tail's reductions), which performs the same float operations in the
same order; the compiled tail repeats numpy's summation order.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional, Sequence

import numpy as np

from repro.core.errors import SimulationError
from repro.core.units import LINE_SIZE, PAGE_SIZE
from repro.gpu.trace import DramTrace, validate_zone_map

__all__ = ["bank_row_hits", "bind_event_pass", "bind_throughput_pass",
           "check_bound_trace", "check_channel_count", "event_pass",
           "kernel_path", "rank_within_groups"]

LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE

#: DRAM row (page) size in lines; 2 KB rows of 128 B lines.
LINES_PER_ROW = 16

#: the event engines store channel ids as int16.
MAX_CHANNELS = int(np.iinfo(np.int16).max)

#: below this window size the batched core degenerates (a batch can
#: never exceed the window, so per-batch numpy overhead dominates);
#: replay serially instead.
_MIN_BATCH_WINDOW = 32


def check_channel_count(n_channels: int) -> None:
    """Reject topologies whose channel ids overflow the engines' int16."""
    if n_channels > MAX_CHANNELS:
        raise SimulationError(
            f"{n_channels} memory channels exceed the event engines' "
            f"limit of {MAX_CHANNELS} (channel ids are int16)")


def check_bound_trace(trace: DramTrace, zone_map: np.ndarray,
                      n_zones: int, bytes_per_access: int) -> None:
    """What a bound engine checks before its pass: the trace moves the
    line size the engine was bound to, and it has accesses (an empty
    one raises after its zone map is checked)."""
    if trace.bytes_per_access != bytes_per_access:
        raise SimulationError(
            f"trace moves {trace.bytes_per_access} bytes per access, the "
            f"engine was bound to {bytes_per_access}")
    if trace.n_accesses == 0:
        validate_zone_map(zone_map, trace.footprint_pages, n_zones)
        raise SimulationError("empty trace")


def rank_within_groups(groups: np.ndarray, n_groups: int) -> np.ndarray:
    """For each element, how many prior elements share its group.

    This is the vectorized form of keeping one running counter per
    group (the detailed engine's round-robin channel cursor).
    """
    groups = np.asarray(groups)
    n = groups.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    key_dtype = np.int8 if n_groups <= 1 << 7 else (
        np.int16 if n_groups <= 1 << 15 else np.int64)
    order = np.argsort(groups.astype(key_dtype), kind="stable")
    counts = np.bincount(groups, minlength=n_groups)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
    return ranks


def _simulate_sequential(ready_base: np.ndarray, occupancy: np.ndarray,
                         latency: np.ndarray, channel_ids: np.ndarray,
                         n_channels: int, window: int) -> float:
    """Reference semantics, one request at a time (tiny windows)."""
    channel_free = [0.0] * n_channels
    inflight: list[float] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    for ready, occ, lat, channel in zip(ready_base.tolist(),
                                        occupancy.tolist(),
                                        latency.tolist(),
                                        channel_ids.tolist()):
        while len(inflight) >= window:
            popped = heappop(inflight)
            if popped > ready:
                ready = popped
        free = channel_free[channel]
        start = ready if ready > free else free
        finish = start + occ
        channel_free[channel] = finish
        heappush(inflight, finish + lat)
    # The running-max completion is never popped (any pop consuming it
    # mints an equal-or-larger one), so the heap holds the answer.
    return max(inflight) if inflight else 0.0


def _native_kernels() -> Optional[dict]:
    """The compiled kernels by name, or ``None`` where the library is
    unavailable (tests patch this to force the numpy kernels)."""
    from repro.gpu import _native  # deferred: loads on first replay

    return _native.kernels()


def kernel_path() -> str:
    """``"native"`` when this process runs the compiled kernels — this
    module's passes and the cache hierarchy's filter
    (:mod:`repro.gpu.cache`), which share one library — else
    ``"numpy"`` (builds or loads the library on first call)."""
    return "numpy" if _native_kernels() is None else "native"


def _simulate_numpy(ready_base: np.ndarray, occupancy: np.ndarray,
                    latency: np.ndarray, channel_ids: np.ndarray,
                    n_channels: int, window: int) -> float:
    """Exact bounded-window / per-channel-FIFO replay; last completion.

    ``ready_base[i]`` is the earliest issue time of request ``i``
    ignoring the window (the compute throttle), ``occupancy[i]`` its
    channel transfer time, ``latency[i]`` the post-transfer latency and
    ``channel_ids[i]`` the global channel it is served by.  The batched
    numpy kernel: fallback and oracle of the native one.
    """
    n = int(ready_base.size)
    if n == 0:
        return 0.0
    window = max(1, int(window))
    if window < _MIN_BATCH_WINDOW and n > window:
        return _simulate_sequential(ready_base, occupancy, latency,
                                    channel_ids, n_channels, window)

    occ_lat = occupancy + latency
    # Pairing occupancy with latency lets one fancy-index gather both.
    occ_and_lat = np.empty((2, n))
    occ_and_lat[0] = occupancy
    occ_and_lat[1] = latency
    channel_free = np.zeros(n_channels)
    pending = np.empty(0)  # sorted in-flight completion times
    pend_hi = 0.0  # pending[-1]; also bounds every channel-free level
    cf_check = 0  # batches until the next channel-idle probe
    i = 0
    batch = window
    while i < n:
        if i < window:
            # Window not yet full: no pops, the throttle alone decides.
            batch = min(window - i, n - i)
            ready = ready_base[i:i + batch]
            cf_idle = False
            n_pops = 0
        else:
            # Batch sizing.  If the batch is B, access i+k pops
            # pending[k] and completes no earlier than
            #   floor[k] = max(ready_base, pending[k],
            #                  channel_free[channel]) + occ_lat
            # (the channel-free term matters: a backlogged channel
            # cannot finish early no matter how soon the request is
            # ready).  B is valid iff min(floor[:B-1]) >= pending[B-1]:
            # then, inductively, no batch-made completion undercuts the
            # B values being popped, so they are exactly the next B
            # pops.  Prefix-min floors are non-increasing and pending
            # is sorted, so validity at B implies it at every smaller
            # size — take the largest valid B in the lookahead (capped
            # near the previous batch: lookahead work is wasted past
            # the valid size, and two doublings recover a regime
            # shift).
            look = min(window, n - i, max(64, 2 * batch))
            frontier = pending[0]
            # Scalar prechecks peel terms off the floor when they
            # provably cannot win any maximum this batch: every pop is
            # >= pending[0], so a throttle or channel-free level below
            # it is slack everywhere.
            if ready_base[i + look - 1] <= frontier:
                ready_all = pending[:look]
            else:
                ready_all = np.maximum(ready_base[i:i + look],
                                       pending[:look])
            # Assuming channels busy is always valid (the blend below
            # never changes a correct maximum), so the idle probe is
            # rationed: on saturated streams it nearly never fires, and
            # re-checking every batch would cost a reduction each.
            if cf_check == 0:
                cf_idle = channel_free.max() <= frontier
                cf_check = 0 if cf_idle else 16
            else:
                cf_idle = False
                cf_check -= 1
            if cf_idle:
                cand = ready_all + occ_lat[i:i + look]
            else:
                cand = np.maximum(
                    ready_all, channel_free[channel_ids[i:i + look]])
                cand += occ_lat[i:i + look]
            np.minimum.accumulate(cand, out=cand)
            # Non-increasing floors against non-decreasing pops make
            # the validity mask a True-prefix; its length is the
            # largest extra batch size beyond the always-valid 1.
            batch = 1 + int(np.count_nonzero(
                cand[:look - 1] >= pending[1:look]))
            ready = ready_all[:batch]
            n_pops = batch

        # Per-channel FIFO chaining over the batch, grouped by channel
        # (stable, so stream order survives within each channel).
        ch = channel_ids[i:i + batch]
        order = ch.argsort(kind="stable")
        ch_sorted = ch[order]
        pair = occ_and_lat[:, i:i + batch][:, order]
        occ_sorted = pair[0]
        total = occ_sorted.cumsum()
        # finish_k = max over j <= k in k's channel-segment of
        # (max(ready_j, free_j) - prior_j) + total_k.  Gathered channel
        # frees are only authoritative at segment starts, but at later
        # positions they are <= the start's candidate, so blending them
        # everywhere never changes the segment maximum (and when the
        # channels sit below the pop frontier they are skipped
        # entirely).
        base = ready[order]
        if not cf_idle:
            base = np.maximum(base, channel_free[ch_sorted])
        base -= total
        base += occ_sorted  # now start-candidate minus prior occupancy
        is_start = np.empty(batch, dtype=bool)
        is_start[0] = True
        np.not_equal(ch_sorted[1:], ch_sorted[:-1], out=is_start[1:])
        # Segmented running max via a K-offset global running max; K
        # need only exceed |base|.  Every start candidate is covered by
        # max(pending top, batch-end throttle): pops and channel-free
        # levels alike sit below the largest pending completion — the
        # running-max completion is never popped, since any pop that
        # consumed it would mint an even larger one — and ready_base is
        # non-decreasing.
        bound = max(pend_hi, float(ready_base[i + batch - 1]))
        shift = 2.0 * (bound + float(total[-1]) + 1.0)
        offsets = is_start.cumsum()
        offsets = offsets * shift
        base += offsets
        np.maximum.accumulate(base, out=base)
        base -= offsets
        finish = base + total
        channel_free[ch_sorted] = finish  # later writes win: FIFO tail
        completions = finish + pair[1]

        pending = np.concatenate((pending[n_pops:], completions))
        pending.sort()
        pend_hi = float(pending[-1])
        i += batch
    # The never-popped running max makes the sorted tail the answer.
    return pend_hi


def bank_row_hits(pages: np.ndarray, access_zones: np.ndarray,
                  zone_channels: np.ndarray, zone_offset: np.ndarray,
                  n_banks: int) -> tuple[np.ndarray, np.ndarray]:
    """Channel (within its zone) and row-buffer outcome of every access,
    vectorized.

    A bank's open row is always the row of its previous access, so
    access ``i`` hits iff the prior access to the same (zone, channel,
    bank) touched the same row — an adjacency test after one stable
    sort grouping the stream by bank.
    """
    n = pages.size
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=bool)
    # Lines interleave across channels; a DRAM row is a span of
    # *channel-local* lines, so sequential streams reuse rows.
    line = (pages * LINES_PER_PAGE
            + np.arange(n, dtype=np.int64) % LINES_PER_PAGE)
    per_zone = zone_channels[access_zones]
    channel = line % per_zone
    row = (line // per_zone) // LINES_PER_ROW
    bank_ids = ((zone_offset[access_zones] + channel) * n_banks
                + row % n_banks)
    if int(bank_ids.max()) < 1 << 15:
        bank_ids = bank_ids.astype(np.int16)
    order = np.argsort(bank_ids, kind="stable")
    bank_sorted = bank_ids[order]
    row_sorted = row[order]
    hit_sorted = np.empty(n, dtype=bool)
    hit_sorted[0] = False
    np.logical_and(bank_sorted[1:] == bank_sorted[:-1],
                   row_sorted[1:] == row_sorted[:-1],
                   out=hit_sorted[1:])
    row_hit = np.empty(n, dtype=bool)
    row_hit[order] = hit_sorted
    return channel, row_hit


def _throughput_pass_numpy(trace: DramTrace, zone_map: np.ndarray,
                           factors: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """The throughput engine's per-access pass in numpy (fallback, and
    oracle of the compiled ``repro_throughput_pass``): ``counts[e, z]``,
    the DRAM accesses of epoch ``e`` served by zone ``z``, and
    ``occupancy[e, z]``, the same with writes weighted by the zone's
    write cost factor ``factors[z]``; both float64,
    ``(trace.n_epochs, Z)``.  Epoch ``e`` starts at access
    ``ceil(e * n / E)``; ``zone_map`` must have passed
    :func:`~repro.gpu.trace.validate_zone_map`."""
    n_zones, n_epochs, n = factors.size, trace.n_epochs, trace.n_accesses
    # bins[i]: the (epoch, zone) cell of access i.  The gather returns
    # a fresh array of zones, so each epoch's offset is one in-place
    # add over its run, not a division per access.
    bins, weights = trace.gather_zones(zone_map, factors)
    starts = -(-np.arange(n_epochs + 1, dtype=np.int64) * n // n_epochs)
    for epoch in range(1, n_epochs):
        bins[starts[epoch]:starts[epoch + 1]] += epoch * n_zones
    counts = np.bincount(
        bins, minlength=n_epochs * n_zones,
    ).reshape(n_epochs, n_zones).astype(np.float64)
    occupancy = np.bincount(
        bins, weights=weights, minlength=n_epochs * n_zones,
    ).reshape(n_epochs, n_zones)
    return counts, occupancy


def _throughput_tail_numpy(counts, occupancy, bandwidths, latencies, line,
                           parallelism, t_compute):
    """The throughput engine's bound tail over its ``(E, Z)`` counts and
    occupancy (see :mod:`repro.gpu.throughput`): the per-epoch rows
    t_bandwidth, t_latency, t_compute and epoch_time ``(4, E)``, bytes
    per zone ``(Z,)`` and the rows' four sums.  Fallback and oracle of
    the compiled tail (``repro_throughput_tail``), which sums in the
    same order."""
    bandwidths = np.asarray(bandwidths, dtype=np.float64)
    latencies = np.asarray(latencies, dtype=np.float64)
    # Bandwidth bound per epoch: parallel pool service (Section 3.1).
    t_bandwidth = (occupancy * line / bandwidths).max(axis=1) * 1e9
    # Latency bound per epoch: Little's law at effective parallelism.
    epoch_accesses = counts.sum(axis=1)
    # A zero-access epoch has a zero row: it divides by 1 to 0.0.
    fractions = counts / np.maximum(epoch_accesses, 1.0)[:, None]
    avg_latency = (fractions * latencies).sum(axis=1)
    t_latency = epoch_accesses * avg_latency / parallelism
    # Compute bound per epoch: raw work spread evenly across epochs.
    t_comp = np.full(counts.shape[0], t_compute)
    epoch_time = np.maximum(np.maximum(t_bandwidth, t_latency), t_comp)
    bounds = np.stack((t_bandwidth, t_latency, t_comp, epoch_time))
    return (bounds, (counts * line).sum(axis=0),
            tuple(float(row.sum()) for row in bounds))


def _checked_maps(bound, n_zones: int, native: bool):
    """``bound(trace, zone_map, x)`` with its zone maps checked: the
    numpy forms run :func:`~repro.gpu.trace.validate_zone_map` on every
    call; the compiled passes check the map's shape when it changes and
    every entry on every call, and a failure is re-raised with
    :func:`~repro.gpu.trace.validate_zone_map`'s message where that
    names it."""
    if not native:
        def run(trace, zone_map, x):
            return bound(trace, validate_zone_map(
                zone_map, trace.footprint_pages, n_zones), x)
        return run

    def run(trace, zone_map, x):
        try:
            return bound(trace, zone_map, x)
        except SimulationError:
            validate_zone_map(zone_map, trace.footprint_pages, n_zones)
            raise
    return run


def bind_throughput_pass(write_cost_factors: Sequence[float],
                         bandwidths: Sequence[float],
                         latencies: Sequence[float], line: float,
                         parallelism: float):
    """The throughput engine's pass and bound tail, bound to the
    per-zone tables of one (topology, workload, line size).

    Returns ``run(trace, zone_map, t_compute)``, which gives
    ``(bytes_by_zone, totals)``: ``totals`` are the sums over the
    trace's epochs of t_bandwidth, t_latency, t_compute and epoch_time,
    on either kernel bit for bit what the numpy pass and tail give.
    ``run.kernel`` names the kernel it runs.  Every call checks its
    zone map against the trace and the topology, so a map changed in
    place between calls is checked again; a bad one raises
    :class:`SimulationError`.
    """
    factors = np.asarray(write_cost_factors, dtype=np.float64)
    native = _native_kernels()
    if native is not None:
        bound = native["bind_throughput"](factors, bandwidths, latencies,
                                          line, parallelism)
    else:
        def bound(trace, zone_map, t_compute):
            counts, occupancy = _throughput_pass_numpy(trace, zone_map,
                                                       factors)
            _, bytes_by_zone, totals = _throughput_tail_numpy(
                counts, occupancy, bandwidths, latencies, line,
                parallelism, t_compute)
            return bytes_by_zone, totals
    run = _checked_maps(bound, factors.size, native is not None)
    run.kernel = "numpy" if native is None else "native"
    return run


def _check_event_tables(n: int, compute_step: float,
                        tables: dict[str, np.ndarray]) -> None:
    """Finite per-zone tables, ready times and occupancies, checked on
    the tables alone: ``(n - 1) * step`` bounds every ready time, and
    ``max|service| * max|weight| + max|row miss|`` every occupancy.
    The tables hold one value per zone, so Python floats check them
    faster than numpy reductions would."""
    values = {name: table.tolist() for name, table in tables.items()}
    for name, table in values.items():
        if not all(map(math.isfinite, table)):
            raise SimulationError(
                f"event pass: {name} has non-finite values")
    if n == 0:
        return
    _check_ready_times(n, compute_step)
    peak = max(map(abs, values["service"]))
    peak *= max(1.0, max(map(abs, values["write cost factors"]),
                         default=0.0))
    if "row miss" in values:
        peak += max(map(abs, values["row miss"]))
    if not math.isfinite(peak):
        raise SimulationError("event pass: occupancy overflows "
                              f"(largest {peak!r})")


def _check_ready_times(n: int, compute_step: float) -> None:
    if not math.isfinite((n - 1) * compute_step):
        raise SimulationError("event pass: ready times are non-finite "
                              f"(compute step {compute_step!r})")


def bind_event_pass(write_cost_factors: Sequence[float],
                    zone_channels: np.ndarray, service_ns: np.ndarray,
                    latency_ns: np.ndarray, window: int,
                    row_miss_ns: Optional[np.ndarray] = None,
                    banks_per_channel: int = 0):
    """:func:`event_pass` bound to its per-zone tables.

    Returns ``run(trace, zone_map, compute_step)``, which gives what
    :func:`event_pass` gives, and ``run.kernel``, the kernel it runs.
    The zone map is checked on every call, as
    :func:`bind_throughput_pass` checks it.  The channel count and the
    tables are checked on the first call that has accesses, in
    :func:`event_pass`'s order; after that a call checks only its own
    ready times.
    """
    factors = np.asarray(write_cost_factors, dtype=np.float64)
    tables = {"service": np.asarray(service_ns, dtype=np.float64),
              "latency": np.asarray(latency_ns, dtype=np.float64),
              "write cost factors": factors}
    if banks_per_channel > 0:
        tables["row miss"] = np.asarray(row_miss_ns, dtype=np.float64)
    zone_channels = np.asarray(zone_channels, dtype=np.int64)
    n_channels = int(zone_channels.sum())
    native = _native_kernels()
    if native is not None:
        bound = native["bind_events"](
            factors, zone_channels, tables["service"], tables["latency"],
            tables.get("row miss"), banks_per_channel, LINES_PER_PAGE,
            LINES_PER_ROW, window)
    else:
        def bound(trace, zone_map, compute_step):
            return _event_pass_numpy(trace, zone_map, factors,
                                     zone_channels, tables, compute_step,
                                     window, banks_per_channel)
    checked_map = _checked_maps(bound, zone_channels.size,
                                native is not None)
    checked = False

    def run(trace, zone_map, compute_step):
        nonlocal checked
        n = trace.n_accesses
        if checked:
            if n:
                _check_ready_times(n, compute_step)
        else:
            check_channel_count(n_channels)
            _check_event_tables(n, compute_step, tables)
            checked = n > 0
        return checked_map(trace, zone_map, compute_step)

    run.kernel = "numpy" if native is None else "native"
    return run


def event_pass(trace: DramTrace, zone_map: np.ndarray,
               write_cost_factors: Sequence[float],
               zone_channels: np.ndarray, service_ns: np.ndarray,
               latency_ns: np.ndarray, compute_step: float, window: int,
               row_miss_ns: Optional[np.ndarray] = None,
               banks_per_channel: int = 0
               ) -> tuple[float, np.ndarray, np.ndarray]:
    """The event engines' per-access pass and replay.

    Access ``i`` goes to zone ``z = zone_map[page]`` and one of its
    channels: round-robin over the zone's channels (the detailed
    engine), or, with ``banks_per_channel > 0`` (the banked engine),
    line-interleaved with a per-bank open-row test that adds
    ``row_miss_ns[z]`` on a row miss.  Its occupancy is
    ``service_ns[z]`` times its write weight, its latency
    ``latency_ns[z]`` and its ready time ``i * compute_step``; then the
    windowed-service kernel replays the stream.  Returns the last
    completion, the busy time per channel (occupancy summed in access
    order) and the accesses per zone (int64).

    ``zone_map`` must cover the trace's footprint and name only zones
    of the topology.  The channel count must fit the engines' int16
    channel ids, and the per-zone tables, the last ready time and the
    largest possible occupancy must be finite, else
    :class:`SimulationError`.
    """
    return bind_event_pass(write_cost_factors, zone_channels, service_ns,
                           latency_ns, window, row_miss_ns,
                           banks_per_channel)(trace, zone_map,
                                              compute_step)


def _event_pass_numpy(trace: DramTrace, zone_map: np.ndarray,
                      factors: np.ndarray, zone_channels: np.ndarray,
                      tables: dict[str, np.ndarray], compute_step: float,
                      window: int, banks_per_channel: int
                      ) -> tuple[float, np.ndarray, np.ndarray]:
    """:func:`event_pass` in numpy (fallback and oracle)."""
    n_zones = zone_channels.size
    n_channels = int(zone_channels.sum())
    zones, weights = trace.gather_zones(zone_map, factors)
    zone_offset = np.concatenate(([0], np.cumsum(zone_channels)[:-1]))
    if banks_per_channel > 0:
        channel, row_hit = bank_row_hits(trace.page_indices, zones,
                                         zone_channels, zone_offset,
                                         banks_per_channel)
    else:
        # The k-th access to a zone lands on channel k mod its count.
        channel = (rank_within_groups(zones, n_zones)
                   % zone_channels[zones])
    channel_ids = (zone_offset[zones] + channel).astype(np.int16)
    occupancy = tables["service"][zones]
    occupancy *= weights
    if banks_per_channel > 0:
        occupancy += np.where(row_hit, 0.0, tables["row miss"][zones])
    latency = tables["latency"][zones]
    ready_base = np.arange(trace.n_accesses, dtype=np.float64)
    ready_base *= compute_step
    last = _simulate_numpy(ready_base, occupancy, latency, channel_ids,
                           n_channels, window)
    busy = np.bincount(channel_ids, weights=occupancy,
                       minlength=n_channels)
    return last, busy, np.bincount(zones, minlength=n_zones)
