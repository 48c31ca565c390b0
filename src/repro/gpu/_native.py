"""Build and load the native kernels: one library, several kernels.

Four C files make up the library, ABI version 4:

* ``_windowed.c``, the event engines' windowed-service kernel.  It
  streams its per-access inputs through one sliding buffer of a few
  windows, filled in access order by a producer, so its working
  memory is O(window + channels), never O(accesses).  Its own entry,
  kernel ``"windowed"``, has no caller in the package: it is the test
  entry that feeds the core from arrays, to differential-test it on
  arbitrary per-access occupancy and latency, which the event pass,
  building them from per-zone tables, cannot reach;
* ``_passes.c``, the engines' per-access passes: zone map to
  (epoch, zone) bins for the throughput engine (``"throughput"``); to
  channels, occupancy, busy time and zone counts for the detailed and
  banked engines (``"events"``), as the windowed core's producer;
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
_ABI = 4

#: library trailer: magic, then the SHA-256 of everything before it.
_MAGIC = b"repro-native-v1\0"
_TRAILER_SIZE = len(_MAGIC) + 32

_lock = threading.Lock()
_resolved = False
#: the bound kernels by name; empty when the library is unavailable.
_kernels: dict[str, Callable] = {}


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


def _bind_windowed(lib: ctypes.CDLL) -> Callable:
    """The compiled windowed core over arrays, for tests: the only way
    to drive it on arbitrary per-access occupancy and latency (the
    event pass makes them from per-zone tables).  Arrays of unequal
    length, and a channel id outside ``[0, n_channels)``, raise
    :class:`SimulationError`; the doubles are the caller's to keep
    finite."""
    fn = lib.repro_simulate_windowed
    fn.restype = ctypes.c_double
    fn.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_int64] * 3 + [
        ctypes.POINTER(ctypes.c_int)]

    def simulate(ready_base, occupancy, latency, channel_ids,
                 n_channels, window):
        arrays = [np.ascontiguousarray(a, dtype=np.float64)
                  for a in (ready_base, occupancy, latency)]
        channels = np.ascontiguousarray(channel_ids, dtype=np.int64)
        if any(a.size != channels.size for a in arrays):
            raise SimulationError(
                "native windowed kernel: ready times, occupancy, latency "
                "and channel ids must have one value per access")
        status = ctypes.c_int(0)
        last = fn(*(a.ctypes.data for a in arrays), channels.ctypes.data,
                  channels.size, n_channels, max(1, int(window)),
                  ctypes.byref(status))
        if status.value == -1:
            raise MemoryError("native windowed kernel: out of memory")
        if status.value == -2:
            raise SimulationError("native windowed kernel: a channel id "
                                  f"outside [0, {n_channels})")
        return last

    return simulate


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


def _address(array: Optional[np.ndarray]) -> Optional[int]:
    return None if array is None else array.ctypes.data


def _pass_inputs(pages, is_write, zone_map, write_factors):
    """Contiguous int64 pages and zone map, one-byte write flags (or
    ``None``, one per page) and float64 write factors."""
    pages = np.ascontiguousarray(pages, dtype=np.int64)
    flags = (None if is_write is None
             else np.ascontiguousarray(is_write, dtype=np.bool_))
    if flags is not None and flags.shape != pages.shape:
        raise SimulationError("native pass: write flags must align "
                              "with page indices")
    return (pages, flags, np.ascontiguousarray(zone_map, dtype=np.int64),
            np.ascontiguousarray(write_factors, dtype=np.float64))


def _check_pass(status: int, name: str) -> None:
    if status == -1:
        raise MemoryError(f"native {name} pass: out of memory")
    if status == -2:
        raise SimulationError(f"native {name} pass: a page outside the "
                              "zone map, or a zone outside the topology")


def _bind_throughput(lib: ctypes.CDLL) -> Callable:
    fn = lib.repro_throughput_pass
    fn.restype = ctypes.c_int
    fn.argtypes = ([ctypes.c_void_p] * 2 + [ctypes.c_int64, ctypes.c_void_p,
                                            ctypes.c_int64, ctypes.c_void_p]
                   + [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 2)

    def throughput_pass(pages, is_write, zone_map, write_factors,
                        n_epochs):
        """``(counts, occupancy)``, each ``(n_epochs, Z)`` float64."""
        pages, flags, zone_map, factors = _pass_inputs(
            pages, is_write, zone_map, write_factors)
        counts = np.zeros((n_epochs, factors.size))
        occupancy = np.zeros((n_epochs, factors.size))
        _check_pass(fn(pages.ctypes.data, _address(flags), pages.size,
                       zone_map.ctypes.data, zone_map.size,
                       factors.ctypes.data, factors.size, n_epochs,
                       counts.ctypes.data, occupancy.ctypes.data),
                    "throughput")
        return counts, occupancy

    return throughput_pass


def _bind_events(lib: ctypes.CDLL) -> Callable:
    fn = lib.repro_event_pass
    fn.restype = ctypes.c_int
    fn.argtypes = ([ctypes.c_void_p] * 2 + [ctypes.c_int64, ctypes.c_void_p,
                                            ctypes.c_int64, ctypes.c_void_p,
                                            ctypes.c_int64]
                   + [ctypes.c_void_p] * 4 + [ctypes.c_int64] * 3
                   + [ctypes.c_double, ctypes.c_int64]
                   + [ctypes.POINTER(ctypes.c_double)]
                   + [ctypes.c_void_p] * 2)

    def event_pass(pages, is_write, zone_map, write_factors, zone_channels,
                   service, latency, row_miss, n_banks, lines_per_page,
                   lines_per_row, step, window):
        """``(last completion, busy per channel, accesses per zone)``;
        ``n_banks == 0`` is the detailed engine's round-robin pass,
        ``n_banks > 0`` the banked one (``row_miss`` per zone)."""
        pages, flags, zone_map, factors = _pass_inputs(
            pages, is_write, zone_map, write_factors)
        channels = np.ascontiguousarray(zone_channels, dtype=np.int64)
        tables = [np.ascontiguousarray(t, dtype=np.float64)
                  for t in (service, latency)]
        row_miss = (None if row_miss is None
                    else np.ascontiguousarray(row_miss, dtype=np.float64))
        busy = np.zeros(int(channels.sum()))
        zone_counts = np.zeros(channels.size, dtype=np.int64)
        last = ctypes.c_double(0.0)
        _check_pass(fn(pages.ctypes.data, _address(flags), pages.size,
                       zone_map.ctypes.data, zone_map.size,
                       factors.ctypes.data, channels.size,
                       channels.ctypes.data, *(t.ctypes.data
                                               for t in tables),
                       _address(row_miss), n_banks, lines_per_page,
                       lines_per_row, step, max(1, int(window)),
                       ctypes.byref(last), busy.ctypes.data,
                       zone_counts.ctypes.data), "event")
        return last.value, busy, zone_counts

    return event_pass


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
_BINDERS = {"windowed": _bind_windowed, "throughput": _bind_throughput,
            "events": _bind_events, "lru": _bind_lru,
            "interleave": _bind_interleave}


def _bind(lib: ctypes.CDLL) -> dict[str, Callable]:
    try:
        return {name: bind(lib) for name, bind in _BINDERS.items()}
    except AttributeError as exc:  # a kernel's entry point is missing
        raise OSError(str(exc)) from None


def _load() -> dict[str, Callable]:
    path = library_path()
    if path.exists():
        try:
            return _bind(_open(path))
        except OSError:
            pass  # stale or damaged: rebuild below
    _compile(path)
    return _bind(_open(path, rebuilt=True))


def kernels() -> Optional[dict[str, Callable]]:
    """Every bound kernel by name (see :func:`kernel`), with the library
    built/loaded on first call; ``None`` when it is unavailable."""
    global _resolved, _kernels
    if not _resolved:
        with _lock:
            if not _resolved:
                try:
                    _kernels = _load()
                except (OSError, RuntimeError) as exc:
                    log_event("gpu.kernel.fallback", level="warning",
                              message="repro: native kernels "
                                      f"unavailable ({exc}); using numpy")
                    _kernels = {}
                _resolved = True
    return _kernels or None


def kernel(name: str) -> Optional[Callable]:
    """The native kernel ``name`` (``"windowed"``, ``"throughput"``,
    ``"events"``, ``"lru"`` or ``"interleave"``), with the library
    built/loaded on first call; ``None`` when the library is unavailable
    (the caller falls back to numpy)."""
    bound = kernels()
    return bound[name] if bound else None
