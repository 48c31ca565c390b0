"""Build and load the native kernels: one library, several kernels.

Four C files make up the library, ABI version 5:

* ``_windowed.c``, the event engines' windowed-service kernel.  It
  streams its per-access inputs through one sliding buffer of a few
  windows, filled in access order by a producer, so its working
  memory is O(window + channels), never O(accesses).  Its own entry,
  ``repro_simulate_windowed``, which feeds the core from arrays, has no
  caller in the package: tests bind it through :func:`library` to
  differential-test the core on arbitrary per-access occupancy and
  latency, which the event pass, building them from per-zone tables,
  cannot reach;
* ``_passes.c``, the engines' per-access passes: zone map to
  (epoch, zone) bins and on to the throughput engine's bound tail —
  per-epoch bandwidth, latency and compute bounds, epoch times, bytes
  per zone and their sums, in numpy's summation order
  (``"bind_throughput"``); zone map to channels, occupancy, busy time
  and zone counts for the detailed and banked engines, as the windowed
  core's producer (``"bind_events"``).  Each binds its pass to one
  engine binding's per-zone tables, packed once into the arrays the C
  entry reads; each call then takes the trace's pointers from
  :attr:`~repro.gpu.trace.DramTrace.stream_arrays` (taken once per
  trace), the zone map's once per map object, and makes one ``ctypes``
  call.  The passes read a signed integer zone map in place, in its
  own width (1, 2, 4 or 8 bytes, no copy), and check every entry on
  every call.  The bins alone and the tail alone have their own C
  entries, ``repro_throughput_pass`` and ``repro_throughput_tail``,
  which no kernel here binds: tests bind them through :func:`library`
  to hold each to its numpy form;
* ``_lru.c``, the L1/L2 hierarchy filter (:mod:`repro.gpu.cache`;
  ``"lru"``);
* ``_synth.c``, trace synthesis's per-phase interleave, numpy's
  Fisher–Yates shuffle drawn from the caller's own generator
  (:mod:`repro.workloads.interleave`; ``"interleave"``, which that
  module checks against numpy once per process before using it).

They are compiled together on first use — the first synthesis, filter
or engine run, never at import — into a content-addressed shared
library under ``$XDG_CACHE_HOME/repro/native/`` (default
``~/.cache/repro/native/``), keyed by the source bytes, the compile
flags and the machine, and then loaded through :mod:`ctypes`.  Later
processes find the library on disk and only pay the ``dlopen``.  Builds
write a temporary file in the same directory and ``os.replace`` it into
place, so concurrent first builds are safe.  Each library ends in a
trailer holding the SHA-256 of the bytes before it, checked before
``dlopen``: mapping a truncated shared object kills the process with
SIGBUS instead of raising, so a damaged cached library must be caught
on disk — it is rebuilt, as is one with another ABI version or missing
an entry point.

The flags keep IEEE semantics: no ``-ffast-math`` or ``-march=native``,
and ``-ffp-contract=off`` so no multiply-add is fused — any of those
would change the last bits the kernel must share with the numpy path.

Without a compiler, with an unwritable cache directory, or when the
library will not load, :func:`kernel` logs one line and returns
``None`` for every kernel for the rest of the process; the callers then
run their numpy kernels.  A ctypes call releases the GIL, so a native
kernel does not stall other Python threads.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import tempfile
import threading
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.core.errors import SimulationError
from repro.obs.log import log_event

#: compiler driver; tests point it at a missing name to force the
#: numpy fallback.
CC = "cc"

#: compile flags; part of the library's cache key.  Every function
#: starts on a 64-byte line, so a kernel's speed does not hang on the
#: code size of the sources linked before it.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off",
          "-falign-functions=64")

SOURCES = tuple(Path(__file__).with_name(name)
                for name in ("_windowed.c", "_lru.c", "_passes.c",
                             "_synth.c"))

#: must match ``repro_native_abi()`` in the C sources.
_ABI = 5

#: library trailer: magic, then the SHA-256 of everything before it.
_MAGIC = b"repro-native-v1\0"
_TRAILER_SIZE = len(_MAGIC) + 32

_lock = threading.Lock()
_resolved = False
#: the bound kernels by name; empty when the library is unavailable.
_kernels: dict[str, Callable] = {}
#: the loaded library; ``None`` when it is unavailable.
_library: Optional[ctypes.CDLL] = None


def cache_dir() -> Path:
    """Where built libraries live (outside any per-run result cache)."""
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro" / "native"


def library_path() -> Path:
    """The content-addressed library file for these sources, flags and
    machine."""
    digest = hashlib.sha256()
    for part in (*(source.read_bytes() for source in SOURCES),
                 " ".join(CFLAGS).encode(), platform.system().encode(),
                 platform.machine().encode()):
        digest.update(part)
        digest.update(b"\0")
    return cache_dir() / f"kernels-{digest.hexdigest()[:16]}.so"


def _intact(path: Path) -> bool:
    """Whether ``path`` ends in a trailer matching the bytes before it."""
    data = path.read_bytes()
    body, trailer = data[:-_TRAILER_SIZE], data[-_TRAILER_SIZE:]
    return (len(data) > _TRAILER_SIZE
            and trailer == _MAGIC + hashlib.sha256(body).digest())


def _compile(target: Path) -> None:
    import subprocess  # deferred: only a build needs it

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-",
                               suffix=".so")
    os.close(fd)
    try:
        done = subprocess.run([CC, *CFLAGS, "-o", tmp,
                               *map(str, SOURCES)],
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise OSError(f"{CC} exited {done.returncode}: "
                          f"{done.stderr.strip()[:200]}")
        # The loader maps segments by offset; trailing bytes are inert.
        with open(tmp, "r+b") as handle:
            digest = hashlib.sha256(handle.read()).digest()
            handle.write(_MAGIC + digest)
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:  # e.g. the timeout
        raise OSError(f"{CC}: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path, rebuilt: bool = False) -> ctypes.CDLL:
    if not _intact(path):
        raise OSError(f"{path.name}: damaged or truncated")
    # dlopen hands back any image already mapped under the same name —
    # a stale one this process opened before rebuilding — so a rebuilt
    # library is opened by another spelling of its path; its new inode
    # then makes the loader map the new file.
    name = (os.path.join(str(path.parent), ".", path.name) if rebuilt
            else str(path))
    lib = ctypes.CDLL(name)
    try:
        abi_fn = lib.repro_native_abi
    except AttributeError as exc:
        raise OSError(f"{path.name}: {exc}") from None
    abi_fn.argtypes = []
    abi_fn.restype = ctypes.c_int
    abi = abi_fn()
    if abi != _ABI:
        raise OSError(f"{path.name}: ABI {abi}, expected {_ABI}")
    return lib


def _bind_lru(lib: ctypes.CDLL) -> Callable:
    fn = lib.repro_lru_filter
    fn.restype = ctypes.c_int64
    level = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 2
    fn.argtypes = ([ctypes.c_void_p, ctypes.c_int64] + level + level
                   + [ctypes.c_void_p] * 4)

    def filter_hierarchy(lines, n_sms, l1_sets, l1_assoc,
                         n_channels, l2_sets, l2_assoc):
        """Filter ``lines`` through both levels from empty caches;
        returns ``(misses, l1_hits, l2_accesses, l2_hits)``, the last
        three summed over SMs and channels."""
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        # Zeroed tag and fill arrays: every set starts empty.
        l1_tags = np.zeros((n_sms * l1_sets, l1_assoc), dtype=np.int64)
        l1_fill = np.zeros(n_sms * l1_sets, dtype=np.int64)
        l2_tags = np.zeros((n_channels * l2_sets, l2_assoc),
                           dtype=np.int64)
        l2_fill = np.zeros(n_channels * l2_sets, dtype=np.int64)
        misses = np.empty(lines.size, dtype=np.int64)
        l1_hits = np.zeros(n_sms, dtype=np.int64)
        l2_accesses = np.zeros(n_channels, dtype=np.int64)
        l2_hits = np.zeros(n_channels, dtype=np.int64)
        n_misses = fn(lines.ctypes.data, lines.size,
                      n_sms, l1_sets, l1_assoc,
                      l1_tags.ctypes.data, l1_fill.ctypes.data,
                      n_channels, l2_sets, l2_assoc,
                      l2_tags.ctypes.data, l2_fill.ctypes.data,
                      misses.ctypes.data, l1_hits.ctypes.data,
                      l2_accesses.ctypes.data, l2_hits.ctypes.data)
        return (misses[:n_misses], int(l1_hits.sum()),
                int(l2_accesses.sum()), int(l2_hits.sum()))

    return filter_hierarchy


def zone_map_array(zone_map) -> np.ndarray:
    """``zone_map`` as the passes read it: the array itself when it is
    a C-contiguous, native-endian signed integer array (1, 2, 4 or 8
    bytes per entry, read in that width), else a contiguous int64
    copy."""
    if (isinstance(zone_map, np.ndarray) and zone_map.dtype.kind == "i"
            and zone_map.dtype.isnative and zone_map.flags.c_contiguous):
        return zone_map
    return np.ascontiguousarray(zone_map, dtype=np.int64)


class _MapArgument:
    """A bound pass's zone-map argument, ``(address, itemsize)``.  A map
    the passes read in place is remembered by identity, so a replay
    that keeps one map, changed in place or not, takes its address
    once; a converted copy is made afresh on every call (the caller may
    change the original) and held until the next."""

    __slots__ = ("map", "array", "argument")

    def __init__(self) -> None:
        self.map = self.array = None
        self.argument = (0, 0)

    def __call__(self, zone_map, footprint: int) -> tuple[int, int]:
        """The argument for a stream over ``footprint`` pages; a map
        that is not one-dimensional or does not cover exactly those
        pages raises :class:`SimulationError` (the passes read
        ``footprint`` entries)."""
        if self.map is None or zone_map is not self.map:
            array = zone_map_array(zone_map)
            self.map = self.array = None
            if array.ndim != 1:
                raise SimulationError("zone map must be one-dimensional")
            self.array = array
            self.argument = (array.ctypes.data, array.itemsize)
            if array is zone_map:
                self.map = zone_map
        if self.array.size != footprint:
            raise SimulationError(f"zone map covers {self.array.size} "
                                  f"pages, trace footprint is {footprint}")
        return self.argument


def _check_pass(status: int, name: str) -> None:
    if status == -1:
        raise MemoryError(f"native {name} pass: out of memory")
    if status == -2:
        raise SimulationError(f"native {name} pass: a page outside the "
                              "zone map, or a zone outside the topology")
    if status == -3:
        raise SimulationError(f"native {name} pass: the zone map names a "
                              "zone outside the topology")


#: repro_throughput_run / repro_event_pass's leading arguments: pages,
#: write flags, accesses, zone map, its itemsize, footprint.
_STREAM_ARGS = ([ctypes.c_void_p] * 2 + [ctypes.c_int64, ctypes.c_void_p]
                + [ctypes.c_int64] * 2)


class _BoundThroughput:
    """The throughput engine's whole native call (bins and bound tail)
    bound to its per-zone tables; see :meth:`__call__`."""

    def __init__(self, fn, write_factors, bandwidths, latencies, line,
                 parallelism) -> None:
        self._fn = fn
        self._tables = np.concatenate((
            np.asarray(write_factors, dtype=np.float64),
            np.asarray(bandwidths, dtype=np.float64),
            np.asarray(latencies, dtype=np.float64),
            (float(line), float(parallelism))))
        self._tables_address = self._tables.ctypes.data
        self._n_zones = len(bandwidths)
        self._map = _MapArgument()
        #: one output block (and its address) per epoch count.
        self._blocks: dict[int, tuple[np.ndarray, int]] = {}

    def __call__(self, trace, zone_map, t_compute):
        """``(bytes_by_zone, totals)`` of ``trace`` under ``zone_map``,
        ``totals`` the sums of t_bandwidth, t_latency, t_compute and
        epoch_time.  Reuses its output blocks, so a binding serves one
        thread."""
        pages, flags, _ = trace.stream_arrays
        n_epochs, n_zones = trace.n_epochs, self._n_zones
        block = self._blocks.get(n_epochs)
        if block is None:
            out = np.empty(4 * n_epochs + n_zones + 4)
            block = self._blocks[n_epochs] = (out, out.ctypes.data)
        out, out_address = block
        footprint = trace.footprint_pages
        _check_pass(self._fn(pages, flags, trace.n_accesses,
                             *self._map(zone_map, footprint), footprint,
                             self._tables_address, n_zones, n_epochs,
                             t_compute, out_address), "throughput")
        cut = 4 * n_epochs + n_zones
        return out[4 * n_epochs:cut].copy(), tuple(out[cut:].tolist())


def _bind_throughput_binder(lib: ctypes.CDLL) -> Callable:
    fn = lib.repro_throughput_run
    fn.restype = ctypes.c_int
    fn.argtypes = (_STREAM_ARGS + [ctypes.c_void_p] + [ctypes.c_int64] * 2
                   + [ctypes.c_double, ctypes.c_void_p])

    def bind(write_factors, bandwidths, latencies, line, parallelism):
        """The throughput engine's native call bound to its tables."""
        return _BoundThroughput(fn, write_factors, bandwidths, latencies,
                                line, parallelism)

    return bind


def _event_tables(write_factors, zone_channels, service, latency,
                  row_miss, n_banks, lines_per_page, lines_per_row,
                  window):
    """repro_event_pass's ``tables`` (float64) and ``shape`` (int64)
    blocks."""
    tables = [np.asarray(write_factors, dtype=np.float64),
              np.asarray(service, dtype=np.float64),
              np.asarray(latency, dtype=np.float64)]
    if n_banks > 0:
        tables.append(np.asarray(row_miss, dtype=np.float64))
    channels = np.asarray(zone_channels, dtype=np.int64)
    shape = np.concatenate(((channels.size, n_banks, lines_per_page,
                             lines_per_row, max(1, int(window))),
                            channels)).astype(np.int64)
    return np.concatenate(tables), shape


class _BoundEvents:
    """The event pass bound to its per-zone tables; see
    :meth:`__call__`."""

    def __init__(self, fn, *tables) -> None:
        self._fn = fn
        self._tables, self._shape = _event_tables(*tables)
        self._addresses = (self._tables.ctypes.data,
                           self._shape.ctypes.data)
        self._n_zones = int(self._shape[0])
        self._n_channels = int(self._shape[5:].sum())
        self._map = _MapArgument()

    def __call__(self, trace, zone_map, step):
        """``(last completion, busy per channel, accesses per zone)``
        of ``trace`` under ``zone_map``."""
        pages, flags, _ = trace.stream_arrays
        out = np.zeros(1 + self._n_channels)
        zone_counts = np.zeros(self._n_zones, dtype=np.int64)
        footprint = trace.footprint_pages
        _check_pass(self._fn(pages, flags, trace.n_accesses,
                             *self._map(zone_map, footprint), footprint,
                             *self._addresses, step, out.ctypes.data,
                             zone_counts.ctypes.data), "event")
        return float(out[0]), out[1:], zone_counts


def _bind_event_binder(lib: ctypes.CDLL) -> Callable:
    fn = lib.repro_event_pass
    fn.restype = ctypes.c_int
    fn.argtypes = (_STREAM_ARGS + [ctypes.c_void_p] * 2
                   + [ctypes.c_double] + [ctypes.c_void_p] * 2)

    def bind(write_factors, zone_channels, service, latency, row_miss,
             n_banks, lines_per_page, lines_per_row, window):
        """The event pass bound to its per-zone tables."""
        return _BoundEvents(fn, write_factors, zone_channels, service,
                            latency, row_miss, n_banks, lines_per_page,
                            lines_per_row, window)

    return bind


def _function_address(function) -> int:
    return ctypes.cast(function, ctypes.c_void_p).value


def _bind_interleave(lib: ctypes.CDLL) -> Callable:
    fn = lib.repro_synth_interleave
    fn.restype = ctypes.c_int
    fn.argtypes = ([ctypes.c_void_p] * 3 + [ctypes.c_int64]
                   + [ctypes.c_void_p] * 6)

    def interleave(rng, streams, bases, flags):
        """``(lines, is_write)`` of one synthesis phase, drawn from
        ``rng``'s own bit generator under its lock (see
        :mod:`repro.workloads.interleave`)."""
        k = len(streams)
        streams = [np.ascontiguousarray(s, dtype=np.int64) for s in streams]
        flags = [np.ascontiguousarray(f, dtype=np.bool_) for f in flags]
        counts = np.array([s.size for s in streams], dtype=np.int64)
        bases = np.ascontiguousarray(bases, dtype=np.int64)
        if (bases.shape != (k,)
                or [f.size for f in flags] != counts.tolist()):
            raise ValueError("native interleave: one base and one flag "
                             "per access of each stream")
        lines = np.empty(int(counts.sum()), dtype=np.int64)
        is_write = np.empty(lines.size, dtype=np.bool_)
        bitgen = rng.bit_generator
        interface = bitgen.ctypes
        with bitgen.lock:
            status = fn(interface.state_address,
                        _function_address(interface.next_uint32),
                        _function_address(interface.next_uint64), k,
                        counts.ctypes.data,
                        (ctypes.c_void_p * k)(*(s.ctypes.data
                                                for s in streams)),
                        bases.ctypes.data,
                        (ctypes.c_void_p * k)(*(f.ctypes.data
                                                for f in flags)),
                        lines.ctypes.data, is_write.ctypes.data)
        if status != 0:
            raise MemoryError("native interleave: out of memory")
        return lines, is_write

    return interleave


#: kernel name -> binder of its entry point in the loaded library.
_BINDERS = {"bind_throughput": _bind_throughput_binder,
            "bind_events": _bind_event_binder, "lru": _bind_lru,
            "interleave": _bind_interleave}


def _bind(lib: ctypes.CDLL) -> dict[str, Callable]:
    try:
        return {name: bind(lib) for name, bind in _BINDERS.items()}
    except AttributeError as exc:  # a kernel's entry point is missing
        raise OSError(str(exc)) from None


def _load() -> tuple[ctypes.CDLL, dict[str, Callable]]:
    path = library_path()
    if path.exists():
        try:
            lib = _open(path)
            return lib, _bind(lib)
        except OSError:
            pass  # stale or damaged: rebuild below
    _compile(path)
    lib = _open(path, rebuilt=True)
    return lib, _bind(lib)


def kernels() -> Optional[dict[str, Callable]]:
    """Every bound kernel by name (see :func:`kernel`), with the library
    built/loaded on first call; ``None`` when it is unavailable."""
    global _resolved, _kernels, _library
    if not _resolved:
        with _lock:
            if not _resolved:
                try:
                    _library, _kernels = _load()
                except (OSError, RuntimeError) as exc:
                    log_event("gpu.kernel.fallback", level="warning",
                              message="repro: native kernels "
                                      f"unavailable ({exc}); using numpy")
                    _library, _kernels = None, {}
                _resolved = True
    return _kernels or None


def library() -> Optional[ctypes.CDLL]:
    """The loaded library, built/loaded on first call, for tests that
    bind its other entry points themselves; ``None`` when it is
    unavailable."""
    kernels()
    return _library


def kernel(name: str) -> Optional[Callable]:
    """The native kernel ``name`` (a key of :data:`_BINDERS`:
    ``"bind_throughput"``, ``"bind_events"``, ``"lru"`` or
    ``"interleave"``), with the library built/loaded on first call;
    ``None`` when the library is unavailable (the caller falls back to
    numpy)."""
    bound = kernels()
    return bound[name] if bound else None
