"""Array-form probes of the native library's pass entries, for tests.

The engines reach the compiled passes only through their bindings
(``_native.kernel("bind_throughput")`` and ``"bind_events"``), which
read a trace's memoised stream arrays.  These probes bind the same C
entries over the caller's arrays, so a test can drive each on inputs
the engines never build: the throughput engine's (epoch, zone) bins
alone (``repro_throughput_pass``), its bound tail alone
(``repro_throughput_tail``), the event pass (``repro_event_pass``) and
the windowed core under it, fed per-access occupancy and latency
directly (``repro_simulate_windowed``).

:func:`probes` returns them by name, or ``None`` where the library is
unavailable.
"""

import ctypes
from typing import Callable, Optional

import numpy as np

from repro.core.errors import SimulationError
from repro.gpu import _native

#: the passes' leading arguments: pages, write flags, accesses, zone
#: map, its itemsize, footprint.
STREAM_ARGS = _native._STREAM_ARGS


def _entry(lib, name, argtypes):
    fn = getattr(lib, name)
    fn.restype = ctypes.c_int
    fn.argtypes = argtypes
    return fn


def _stream(pages, is_write, zone_map):
    """Contiguous int64 pages, one-byte write flags (or ``None``) and the
    zone map as the passes read it."""
    pages = np.ascontiguousarray(pages, dtype=np.int64)
    flags = (None if is_write is None
             else np.ascontiguousarray(is_write, dtype=np.bool_))
    assert flags is None or flags.shape == pages.shape
    return pages, flags, _native.zone_map_array(zone_map)


def _address(array):
    return None if array is None else array.ctypes.data


def probes() -> Optional[dict[str, Callable]]:
    """``"throughput"``, ``"throughput_tail"``, ``"events"`` and
    ``"windowed"`` over the loaded library; ``None`` when it is
    unavailable."""
    lib = _native.library()
    if lib is None:
        return None
    bins_fn = _entry(lib, "repro_throughput_pass",
                     STREAM_ARGS + [ctypes.c_void_p] + [ctypes.c_int64] * 2
                     + [ctypes.c_void_p] * 2)
    tail_fn = _entry(lib, "repro_throughput_tail",
                     [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 2
                     + [ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p])
    events_fn = _entry(lib, "repro_event_pass",
                       STREAM_ARGS + [ctypes.c_void_p] * 2
                       + [ctypes.c_double] + [ctypes.c_void_p] * 2)
    windowed_fn = _entry(lib, "repro_simulate_windowed",
                         [ctypes.c_void_p] * 4 + [ctypes.c_int64] * 3
                         + [ctypes.POINTER(ctypes.c_int)])
    windowed_fn.restype = ctypes.c_double

    def throughput(pages, is_write, zone_map, write_factors, n_epochs):
        """``(counts, occupancy)``, each ``(n_epochs, Z)`` float64."""
        pages, flags, zone_map = _stream(pages, is_write, zone_map)
        factors = np.ascontiguousarray(write_factors, dtype=np.float64)
        counts = np.zeros((n_epochs, factors.size))
        occupancy = np.zeros((n_epochs, factors.size))
        _native._check_pass(bins_fn(
            pages.ctypes.data, _address(flags), pages.size,
            zone_map.ctypes.data, zone_map.itemsize, zone_map.size,
            factors.ctypes.data, factors.size, n_epochs,
            counts.ctypes.data, occupancy.ctypes.data), "throughput")
        return counts, occupancy

    def throughput_tail(counts, occupancy, bandwidths, latencies, line,
                        parallelism, t_compute):
        """The bound tail over ``(E, Z)`` counts and occupancy, as
        ``repro.gpu.service._throughput_tail_numpy`` gives it."""
        counts = np.ascontiguousarray(counts, dtype=np.float64)
        occupancy = np.ascontiguousarray(occupancy, dtype=np.float64)
        assert occupancy.shape == counts.shape
        n_epochs, n_zones = counts.shape
        tables = np.concatenate((
            np.asarray(bandwidths, dtype=np.float64),
            np.asarray(latencies, dtype=np.float64),
            (float(line), float(parallelism))))
        cut = 4 * n_epochs
        out = np.empty(cut + n_zones + 4)
        _native._check_pass(tail_fn(
            counts.ctypes.data, occupancy.ctypes.data, n_epochs, n_zones,
            tables.ctypes.data, float(t_compute), out.ctypes.data),
            "throughput")
        return (out[:cut].reshape(4, n_epochs), out[cut:cut + n_zones],
                tuple(out[cut + n_zones:].tolist()))

    def events(pages, is_write, zone_map, write_factors, zone_channels,
               service, latency, row_miss, n_banks, lines_per_page,
               lines_per_row, step, window):
        """``(last completion, busy per channel, accesses per zone)``;
        ``n_banks == 0`` is the detailed engine's pass, ``n_banks > 0``
        the banked one (``row_miss`` per zone)."""
        pages, flags, zone_map = _stream(pages, is_write, zone_map)
        tables, shape = _native._event_tables(
            write_factors, zone_channels, service, latency, row_miss,
            n_banks, lines_per_page, lines_per_row, window)
        n_zones = int(shape[0])
        out = np.zeros(1 + int(shape[5:].sum()))
        zone_counts = np.zeros(n_zones, dtype=np.int64)
        _native._check_pass(events_fn(
            pages.ctypes.data, _address(flags), pages.size,
            zone_map.ctypes.data, zone_map.itemsize, zone_map.size,
            tables.ctypes.data, shape.ctypes.data, step, out.ctypes.data,
            zone_counts.ctypes.data), "event")
        return float(out[0]), out[1:], zone_counts

    def windowed(ready_base, occupancy, latency, channel_ids, n_channels,
                 window):
        """The last completion time, as ``repro.gpu.service.
        _simulate_numpy`` gives it.  Arrays of unequal length, and a
        channel id outside ``[0, n_channels)``, raise
        :class:`SimulationError`; the doubles are the caller's to keep
        finite."""
        arrays = [np.ascontiguousarray(a, dtype=np.float64)
                  for a in (ready_base, occupancy, latency)]
        channels = np.ascontiguousarray(channel_ids, dtype=np.int64)
        if any(a.size != channels.size for a in arrays):
            raise SimulationError(
                "native windowed kernel: ready times, occupancy, latency "
                "and channel ids must have one value per access")
        status = ctypes.c_int(0)
        last = windowed_fn(*(a.ctypes.data for a in arrays),
                           channels.ctypes.data, channels.size, n_channels,
                           max(1, int(window)), ctypes.byref(status))
        if status.value == -1:
            raise MemoryError("native windowed kernel: out of memory")
        if status.value == -2:
            raise SimulationError("native windowed kernel: a channel id "
                                  f"outside [0, {n_channels})")
        return last

    return {"throughput": throughput, "throughput_tail": throughput_tail,
            "events": events, "windowed": windowed}
