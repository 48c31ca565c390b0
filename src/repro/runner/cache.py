"""Content-addressed, log-structured result cache.

Completed :class:`~repro.runner.spec.RunSpec` results — and the serve
daemon's page-access profiles and tuned-ratio reports — are appended as
frames to a few segment files, ``<root>/seg-NNNNNN.log``.  One frame:

=======  ============================================================
bytes    field
=======  ============================================================
4        magic: ``\\xffRC`` plus the format-version byte
4        CRC-32 of everything after this field
64       the cache key (the salted content hash of the spec, hex)
4 + 4    lengths of the result part and the spec part
32       SHA-256 of the result part — the value :func:`result_digest`
         gives for the payload
result   the result payload's canonical JSON (sorted keys, compact)
spec     the canonical spec's JSON, kept for forensics
=======  ============================================================

The caller supplies a record's encode and decode steps; both default
to :class:`~repro.core.experiment.ExperimentResult`'s.  Records
round-trip exactly — JSON floats preserve every bit of a double — so a
cache hit is indistinguishable from re-running the computation.

Reads: a :class:`ResultCache` indexes key → frame by walking the frame
headers of every segment once, and walks only the bytes appended since
when a lookup misses, so records other processes append (a ``repro
serve`` daemon, parallel CI shards sharing one directory) are found.
A hit slices the memory-mapped segment.  If those bytes equal a frame
this instance already verified and decoded with the same decode step,
the hit returns that decoded value: equal bytes cannot give another
verdict or value.  Any other frame has its CRC and the raw result
bytes' SHA-256 checked, and only its result part parsed.  Decoded
values are therefore shared between hits, and the default decode hands
out nothing a caller can change in place.

Writes: :meth:`ResultCache.put_many` appends a batch of frames with
one write and one fsync; the sweep runner commits each harvested chunk
this way.  A writer holds an exclusive ``flock`` on the segment it
appends to and reuses any segment no live writer holds, so there are
about as many segments as concurrent writers.  A writer killed
mid-append leaves a torn tail: walks stop at it, and the next writer
to lock that segment truncates it before its first append.

Robustness policy: the cache is advisory, and a corrupt entry must
never surface as a wrong result.  A frame that fails its CRC or
SHA-256, or carries another format version, or was torn off at the end
of a segment, or does not decode, is **copied to** ``<root>/quarantine/``
(kept for forensics), marked dead in place (its version byte zeroed, so
no later walk indexes it), counted in ``stats.invalid``/
``stats.quarantined``, and treated as a miss so the result is
recomputed.

Fault injection: reads and writes consult the active
:class:`~repro.resilience.faults.FaultPlan` at sites ``cache.read``
and ``cache.write``.  A read fault damages the indexed frame in place
before it is verified; ``cache.write:truncate`` appends half a frame
and abandons the segment, exactly what a writer killed mid-append
leaves behind.  The integrity machinery is therefore exercised against
genuinely damaged segments, in tests and in the chaos CI job.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import mmap
import os
import struct
import threading
import weakref
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, TypeVar, Union

import numpy as np

from repro.core.errors import CacheEncodingError
from repro.core.experiment import ExperimentResult
from repro.gpu.trace import SimResult
from repro.obs import trace as obs_trace
from repro.obs.log import log_event
from repro.resilience.faults import (
    FaultAction,
    FaultPlan,
    InjectedFaultError,
    active_plan,
)

#: the fourth magic byte.  v2 added the result checksum; v3 moved
#: records from one file each into segments.  Frames of any other
#: version are quarantined on read.
CACHE_FORMAT_VERSION = 3

#: directory (under the cache root) where damaged frames are copied.
QUARANTINE_DIRNAME = "quarantine"

#: a writer starts a new segment rather than grow one past this size,
#: which also bounds the bytes one walk reads at once.
SEGMENT_MAX_BYTES = 64 << 20

#: frame bytes a :class:`ResultCache` keeps, with their decoded values,
#: to answer repeat reads of unchanged frames (oldest dropped first).
#: Only the frame bytes are counted: the decoded values held beside
#: them, as Python objects, can take several times their JSON size, so
#: this bounds the memo's memory only indirectly.
VERIFIED_MEMO_BYTES = 8 << 20

_SEGMENT_PREFIX, _SEGMENT_SUFFIX = "seg-", ".log"

#: ``\xff`` never occurs in the ASCII JSON parts, so a walk can find
#: the next frame past damaged bytes.
_PREFIX = b"\xffRC"
#: version byte of a frame quarantined in place.
_DEAD = 0
_KEY_BYTES = 64
_MAGIC_CRC = struct.Struct("<4sI")
_FIELDS = struct.Struct(f"<{_KEY_BYTES}sII32s")
_HEADER_SIZE = _MAGIC_CRC.size + _FIELDS.size

T = TypeVar("T")


def encode_result(result: ExperimentResult) -> dict:
    """JSON-able representation of an experiment result (exact)."""
    sim = result.sim
    return {
        "workload": result.workload,
        "dataset": result.dataset,
        "policy": result.policy,
        "topology_name": result.topology_name,
        "zone_page_counts": list(result.zone_page_counts),
        # Dynamic-placement accounting; None for static policies.
        # Kept a plain-JSON dict so the digest stays canonical.
        "migration": (None if result.migration is None
                      else dict(result.migration)),
        "sim": {
            "engine": sim.engine,
            "total_time_ns": sim.total_time_ns,
            "dram_accesses": sim.dram_accesses,
            "bytes_by_zone": [float(b) for b in sim.bytes_by_zone],
            "time_bandwidth_ns": sim.time_bandwidth_ns,
            "time_latency_ns": sim.time_latency_ns,
            "time_compute_ns": sim.time_compute_ns,
            "mshr_merges": sim.mshr_merges,
        },
    }


def _read_only(self, *args, **kwargs):
    raise TypeError("a decoded cache record is read-only")


class _ReadOnlyDict(dict):
    """A dict no caller can change in place.  It compares and encodes
    as a dict; copies and pickles are plain dicts."""

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


class _ReadOnlyList(list):
    """A list no caller can change in place.  It compares and encodes
    as a list; copies and pickles are plain lists."""

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = _read_only
    sort = reverse = _read_only

    def __reduce__(self):
        return list, (list(self),)


def read_only(value):
    """JSON data ``value`` with every dict and list made read-only, for
    decode steps whose values later cache hits hand out again."""
    if isinstance(value, dict):
        return _ReadOnlyDict((k, read_only(v)) for k, v in value.items())
    if isinstance(value, list):
        return _ReadOnlyList(read_only(v) for v in value)
    return value


def decode_result(payload: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its encoded form.  Its
    ``bytes_by_zone`` and ``migration`` are read-only."""
    sim = payload["sim"]
    bytes_by_zone = np.asarray(sim["bytes_by_zone"], dtype=np.float64)
    bytes_by_zone.flags.writeable = False
    return ExperimentResult(
        workload=payload["workload"],
        dataset=payload["dataset"],
        policy=payload["policy"],
        sim=SimResult(
            engine=sim["engine"],
            total_time_ns=float(sim["total_time_ns"]),
            dram_accesses=int(sim["dram_accesses"]),
            bytes_by_zone=bytes_by_zone,
            time_bandwidth_ns=float(sim["time_bandwidth_ns"]),
            time_latency_ns=float(sim["time_latency_ns"]),
            time_compute_ns=float(sim["time_compute_ns"]),
            mshr_merges=int(sim["mshr_merges"]),
        ),
        zone_page_counts=tuple(int(c) for c in
                               payload["zone_page_counts"]),
        topology_name=payload["topology_name"],
        # .get(): records written before the ONLINE policy lack the key
        # (they are also orphaned by the salt bump, but stay decodable).
        migration=read_only(payload.get("migration")),
    )


def _reject_unknown(obj):
    """``json.dumps`` default hook that refuses to guess.

    The previous ``default=str`` silently stringified anything JSON
    didn't know (a stray ``np.float64``, a ``Path``, a dataclass),
    producing records whose decode no longer matched what was stored.
    A record that cannot be represented exactly must fail loudly at
    *write* time, where the bug is, not at some later read.
    """
    raise CacheEncodingError(
        f"cache records must be pure JSON; cannot encode "
        f"{type(obj).__name__}: {obj!r}")


def strict_json_dumps(obj, *, allow_non_finite: bool = False,
                      **kwargs) -> str:
    """``json.dumps`` that raises :class:`CacheEncodingError` on any
    non-JSON-native value instead of silently coercing it.

    ``allow_non_finite=True`` permits nan/inf floats (emitted as
    Python's ``Infinity``/``NaN`` literals, which ``json.loads`` reads
    back exactly): canonical specs legitimately carry ``inf`` — an
    uncapped zone ``link_bandwidth`` — so the full-record writer needs
    it, while result payloads and digests stay strict.
    """
    kwargs.setdefault("allow_nan", allow_non_finite)
    try:
        return json.dumps(obj, default=_reject_unknown, **kwargs)
    except ValueError as exc:
        # allow_nan=False raises bare ValueError for nan/inf floats,
        # which also cannot round-trip through strict JSON.
        # (CacheEncodingError is not a ValueError; it passes through.)
        raise CacheEncodingError(str(exc)) from exc


def canonical_result_bytes(payload: dict) -> bytes:
    """A result payload's canonical JSON: what digests and frames hold."""
    return strict_json_dumps(payload, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")


def result_digest(payload: dict) -> str:
    """SHA-256 of a result payload's canonical JSON form."""
    return hashlib.sha256(canonical_result_bytes(payload)).hexdigest()


def _frame(key: str, spec_canonical: dict, payload: dict) -> bytes:
    """One record as a segment frame (see the module docstring)."""
    raw_key = key.encode("ascii")
    if len(raw_key) > _KEY_BYTES:
        raise CacheEncodingError(f"cache key too long: {key!r}")
    body = canonical_result_bytes(payload)
    spec = strict_json_dumps(spec_canonical, allow_non_finite=True,
                             separators=(",", ":")).encode("utf-8")
    rest = (_FIELDS.pack(raw_key, len(body), len(spec),
                         hashlib.sha256(body).digest()) + body + spec)
    return (_MAGIC_CRC.pack(_PREFIX + bytes((CACHE_FORMAT_VERSION,)),
                            zlib.crc32(rest)) + rest)


def _verified_result(frame: bytes, key: str) -> bytes:
    """The result part of ``key``'s ``frame``; ``ValueError`` unless it
    is whole, of this format version, for ``key``, and passes both
    checksums."""
    if len(frame) < _HEADER_SIZE:
        raise ValueError("cache frame truncated")
    magic, crc = _MAGIC_CRC.unpack_from(frame)
    if magic[3] != CACHE_FORMAT_VERSION:
        raise ValueError("cache format version mismatch")
    raw_key, n_result, n_spec, sha = _FIELDS.unpack_from(
        frame, _MAGIC_CRC.size)
    if raw_key.rstrip(b"\0") != key.encode("ascii"):
        raise ValueError("cache frame holds another key")
    if len(frame) != _HEADER_SIZE + n_result + n_spec:
        raise ValueError("cache frame truncated")
    if zlib.crc32(memoryview(frame)[_MAGIC_CRC.size:]) != crc:
        raise ValueError("cache frame CRC mismatch")
    body = frame[_HEADER_SIZE:_HEADER_SIZE + n_result]
    if hashlib.sha256(body).digest() != sha:
        raise ValueError("cache record checksum mismatch")
    return body


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: records that existed on disk but could not be decoded or failed
    #: their checksum.
    invalid: int = 0
    #: invalid records copied to the quarantine directory.
    quarantined: int = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "invalid": self.invalid,
                "quarantined": self.quarantined}


class _Segment:
    """One segment file as this process reads it."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.fd = os.open(path, os.O_RDONLY)
        self._close = weakref.finalize(self, os.close, self.fd)
        self.ino = os.fstat(self.fd).st_ino
        #: end of the last whole frame walked; a writer truncates the
        #: segment here before appending.
        self.pos = 0
        #: file size when last walked.
        self.size = 0
        #: key of an incomplete frame at ``pos``, if the walk met one.
        self.torn: Optional[str] = None
        #: read-only mapping, extended on demand.
        self.map: Optional[mmap.mmap] = None

    def read(self, offset: int, length: int) -> bytes:
        """``length`` bytes at ``offset``; fewer if the file is shorter.

        Bytes the file no longer holds are never read through the
        mapping: touching mapped pages past the end of a file faults.
        """
        end = offset + length
        if os.fstat(self.fd).st_size < end:
            return os.pread(self.fd, length, offset)
        if self.map is None or len(self.map) < end:
            self.unmap()
            self.map = mmap.mmap(self.fd, 0, access=mmap.ACCESS_READ)
        return self.map[offset:end]

    def patch(self, offset: int, data: bytes) -> None:
        """Overwrite bytes in place (damage injection, dead marks)."""
        fd = os.open(self.path, os.O_WRONLY)
        try:
            if os.fstat(fd).st_ino == self.ino:
                os.pwrite(fd, data, offset)
        finally:
            os.close(fd)

    def held_by_writer(self) -> bool:
        """Whether a live writer holds this segment's append lock."""
        try:
            fcntl.flock(self.fd, fcntl.LOCK_SH | fcntl.LOCK_NB)
        except BlockingIOError:
            return True
        fcntl.flock(self.fd, fcntl.LOCK_UN)
        return False

    def unmap(self) -> None:
        if self.map is not None:
            self.map.close()
            self.map = None

    def close(self) -> None:
        self.unmap()
        self._close()


class _Writer:
    """This process's exclusive, locked append handle on a segment."""

    def __init__(self, segment: _Segment, fd: int) -> None:
        self.segment = segment
        self.fd = fd
        self.close = weakref.finalize(self, os.close, fd)


def _segment_number(name: str) -> Optional[int]:
    if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX):
        digits = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
        if digits.isdigit():
            return int(digits)
    return None


def _try_lock(fd: int) -> bool:
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return False
    return True


class ResultCache:
    """Content-addressed store of completed experiment results.

    ``fault_plan`` overrides the process-wide plan from
    :func:`repro.resilience.faults.active_plan` (tests pass one
    explicitly; the chaos CI job sets ``REPRO_FAULTS``).  One instance
    may be shared by threads (the serve daemon's job executor).
    """

    def __init__(self, root: Union[str, Path],
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._fault_plan = fault_plan
        self._lock = threading.RLock()
        self._segments: dict[str, _Segment] = {}
        #: key -> (segment, offset, length) of its newest whole frame.
        self._index: dict[str, tuple[_Segment, int, int]] = {}
        self._writer: Optional[_Writer] = None
        #: segments this instance left a torn tail in; it never
        #: appends to them again.
        self._abandoned: set[str] = set()
        #: key -> (frame, decode, value) of frames that passed both
        #: checksums and decoded, oldest first; see :meth:`get`.
        self._verified: dict[str, tuple[bytes, Callable, Any]] = {}
        self._verified_bytes = 0

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIRNAME

    def _plan(self) -> Optional[FaultPlan]:
        return (self._fault_plan if self._fault_plan is not None
                else active_plan())

    # ------------------------------------------------------------------
    # the index
    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        """Walk what was appended since the last walk, in every segment."""
        try:
            with os.scandir(self.root) as listing:
                entries = [entry for entry in listing
                           if _segment_number(entry.name) is not None]
        except FileNotFoundError:  # the whole cache was removed
            return
        for entry in entries:
            segment = self._segments.get(entry.name)
            if segment is not None and segment.ino != entry.inode():
                self._forget(segment)  # cleared and recreated
                segment = None
            if segment is None:
                try:
                    segment = _Segment(Path(entry.path))
                except FileNotFoundError:  # pragma: no cover - racing clear
                    continue
                self._segments[entry.name] = segment
            self._walk(segment)

    def _walk(self, segment: _Segment) -> None:
        """Index the whole frames appended to ``segment`` since its last
        walk, stepping over damaged bytes to the next frame magic."""
        size = os.fstat(segment.fd).st_size
        if size == segment.size and segment.torn is None:
            return
        if size < segment.pos:  # cut below frames walked: start over
            segment.pos = 0
        base = segment.pos
        data = os.pread(segment.fd, size - base, base)
        segment.size, segment.torn = base + len(data), None
        at = end = 0
        while True:
            at = data.find(_PREFIX, at)
            if at < 0 or len(data) - at < _HEADER_SIZE:
                break
            raw_key, n_result, n_spec, _ = _FIELDS.unpack_from(
                data, at + _MAGIC_CRC.size)
            key = (raw_key.rstrip(b"\0").decode("ascii", "replace")
                   if data[at + 3] != _DEAD else None)
            stop = at + _HEADER_SIZE + n_result + n_spec
            if stop > len(data):
                if data.find(_PREFIX, at + 1) < 0:
                    segment.torn = key
                    break
                at += 1  # a damaged length mid-segment
                continue
            if key is not None:
                self._index[key] = (segment, base + at, stop - at)
            at = end = stop
        segment.pos = base + end

    def _forget(self, segment: _Segment) -> None:
        if self._writer is not None and self._writer.segment is segment:
            self._release_writer()
        self._segments.pop(segment.path.name, None)
        for key in [k for k, (s, _, _) in self._index.items()
                    if s is segment]:
            del self._index[key]
        segment.close()

    def _find(self, key: str) -> Optional[tuple[_Segment, int, int]]:
        where = self._index.get(key)
        if where is None:
            self._refresh()
            where = self._index.get(key)
        return where

    def locate(self, key: str) -> Optional[tuple[Path, int, int]]:
        """``(segment path, offset, length)`` of ``key``'s live frame."""
        with self._lock:
            where = self._find(key)
        return None if where is None else (where[0].path, *where[1:])

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _damage(self, where: tuple[_Segment, int, int],
                action: FaultAction) -> None:
        """Apply an injected fault to a frame, in place."""
        segment, offset, length = where
        if action.mode == "truncate":  # its second half lost: zeros
            segment.patch(offset + length // 2,
                          bytes(length - length // 2))
        else:  # corrupt: keep the length, trash the content
            segment.patch(offset + _HEADER_SIZE, b"\x00garbage")

    def _save_quarantined(self, key: str, data: bytes) -> bool:
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            (self.quarantine_dir / f"{key}.frame").write_bytes(data)
        except OSError:
            return False
        return True

    def _quarantine(self, key: str, where: tuple[_Segment, int, int],
                    frame: bytes, cause: str) -> None:
        """Copy a damaged frame out and mark it dead where it lies (a
        frame cut short is a torn tail instead: the next writer cuts
        it)."""
        segment, offset, length = where
        self.stats.invalid += 1
        if self._save_quarantined(key, frame):
            self.stats.quarantined += 1
        if self._index.get(key) == where:
            del self._index[key]
        if len(frame) == length:
            try:
                segment.patch(offset + 3, bytes((_DEAD,)))
            except OSError:  # pragma: no cover - read-only cache volume
                pass
        log_event("cache.quarantined", level="warning", key=key,
                  path=str(segment.path), offset=offset, cause=cause)

    def _quarantine_torn(self, key: str) -> bool:
        """Quarantine ``key``'s torn tail frame, if a dead writer left
        one; a live writer may still be appending it."""
        for segment in self._segments.values():
            if segment.torn == key and not segment.held_by_writer():
                break
        else:
            return False
        segment.torn = None  # once per instance; the next writer cuts it
        self.stats.invalid += 1
        tail = os.pread(segment.fd, segment.size - segment.pos,
                        segment.pos)
        if self._save_quarantined(key, tail):
            self.stats.quarantined += 1
        log_event("cache.quarantined", level="warning", key=key,
                  path=str(segment.path), offset=segment.pos,
                  cause="torn frame at the end of the segment")
        return True

    def _remember(self, key: str, frame: bytes, decode: Callable,
                  value: Any) -> None:
        """Keep a verified, decoded frame, within
        :data:`VERIFIED_MEMO_BYTES`."""
        self._forget_verified(key)
        if len(frame) > VERIFIED_MEMO_BYTES:
            return
        while self._verified_bytes + len(frame) > VERIFIED_MEMO_BYTES:
            self._forget_verified(next(iter(self._verified)))
        self._verified[key] = (frame, decode, value)
        self._verified_bytes += len(frame)

    def _forget_verified(self, key: str) -> None:
        entry = self._verified.pop(key, None)
        if entry is not None:
            self._verified_bytes -= len(entry[0])

    def get(self, key: str,
            decode: Callable[[dict], T] = decode_result) -> Optional[T]:
        """The cached record for ``key``, or ``None`` (counted a miss).

        ``decode`` rebuilds the value from the record's JSON payload.
        Damaged frames, and frames ``decode`` rejects (``ValueError``,
        ``KeyError``, ``TypeError``), are quarantined so they are
        recomputed once, not re-read on every lookup — and a corrupt
        record can never surface as a wrong result.

        Every hit reads the frame.  A frame byte-equal to one this
        instance already verified and decoded with an equal ``decode``
        returns that same value, so ``decode`` must build values its
        callers cannot change (as :func:`decode_result` and
        :func:`read_only` do).
        """
        with self._lock, obs_trace.span("cache.get", cat="cache",
                                        key=key[:12]) as span:
            where = self._find(key)
            if where is None:
                self.stats.misses += 1
                if self._quarantine_torn(key):
                    span.annotate(outcome="quarantined",
                                  cause="torn frame")
                else:
                    span.annotate(outcome="miss")
                return None
            plan = self._plan()
            if plan is not None:
                action = plan.decide("cache.read", key=key)
                if action is not None:
                    if action.mode == "error":
                        raise InjectedFaultError(
                            "injected fault at cache.read")
                    self._damage(where, action)
            frame = where[0].read(where[1], where[2])
            known = self._verified.get(key)
            if (known is not None and known[0] == frame
                    and known[1] == decode):
                result = known[2]
            else:
                try:
                    result = decode(json.loads(_verified_result(frame,
                                                                key)))
                except (ValueError, KeyError, TypeError) as exc:
                    self.stats.misses += 1
                    cause = f"{type(exc).__name__}: {exc}"
                    self._forget_verified(key)
                    self._quarantine(key, where, frame, cause)
                    span.annotate(outcome="quarantined", cause=cause)
                    return None
                self._remember(key, frame, decode, result)
            self.stats.hits += 1
            span.annotate(outcome="hit")
            return result

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _lock_segment(self, nbytes: int) -> _Writer:
        """This instance's append handle: a held segment, else the first
        segment no live writer holds, else a new one."""
        writer = self._writer
        if writer is not None:
            if writer.segment.pos + nbytes <= SEGMENT_MAX_BYTES:
                return writer
            self._release_writer()
        self._refresh()
        for name in sorted(self._segments):
            segment = self._segments[name]
            if (name in self._abandoned
                    or segment.size + nbytes > SEGMENT_MAX_BYTES):
                continue
            try:
                fd = os.open(segment.path, os.O_RDWR)
            except FileNotFoundError:  # pragma: no cover - racing clear
                continue
            if os.fstat(fd).st_ino != segment.ino or not _try_lock(fd):
                os.close(fd)
                continue
            self._walk(segment)  # nobody else appends now
            if segment.size > segment.pos:
                os.ftruncate(fd, segment.pos)
                log_event("cache.torn_tail_truncated", level="warning",
                          path=str(segment.path), offset=segment.pos,
                          bytes=segment.size - segment.pos)
                segment.size, segment.torn = segment.pos, None
                segment.unmap()
            self._writer = _Writer(segment, fd)
            return self._writer
        number = max(map(_segment_number, self._segments), default=0)
        self.root.mkdir(parents=True, exist_ok=True)
        while True:
            number += 1
            path = self.root / (
                f"{_SEGMENT_PREFIX}{number:06d}{_SEGMENT_SUFFIX}")
            try:
                fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL,
                             0o644)
            except FileExistsError:
                continue
            if not _try_lock(fd):  # another writer got there first
                os.close(fd)
                continue
            dir_fd = os.open(self.root, os.O_RDONLY)
            try:
                os.fsync(dir_fd)  # the new name survives a crash
            finally:
                os.close(dir_fd)
            segment = self._segments[path.name] = _Segment(path)
            self._writer = _Writer(segment, fd)
            return self._writer

    def _release_writer(self, abandon: bool = False) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            if abandon:
                self._abandoned.add(writer.segment.path.name)
            writer.close()

    def _append(self, frames: list[tuple[str, bytes]],
                torn: Optional[tuple[str, bytes]] = None) -> None:
        """Append ``frames`` (and a ``torn`` partial frame, injected) with
        one write and one fsync, then index them."""
        if not frames and torn is None:
            return
        data = b"".join(frame for _, frame in frames)
        if torn is not None:
            data += torn[1]
        with obs_trace.span("cache.put", cat="cache",
                            records=len(frames), bytes=len(data)):
            writer = self._lock_segment(len(data))
            segment = writer.segment
            start = segment.pos
            try:
                view = memoryview(data)
                while view:
                    view = view[os.pwrite(writer.fd, view,
                                          start + len(data) - len(view)):]
                os.fsync(writer.fd)
            except BaseException:
                # Whatever landed is a torn tail now; leave it to the
                # next writer, as if this one had been killed.
                self._release_writer(abandon=True)
                raise
            offset = start
            for key, frame in frames:
                self._index[key] = (segment, offset, len(frame))
                offset += len(frame)
            segment.pos, segment.size = offset, start + len(data)
            self.stats.stores += len(frames)
            if torn is not None:
                segment.torn = torn[0]
                self.stats.stores += 1
                self._release_writer(abandon=True)

    def put(self, key: str, spec_canonical: dict, result: Any,
            encode: Callable[[Any], dict] = encode_result) -> None:
        """Durably persist ``result`` under ``key``."""
        self.put_many([(key, spec_canonical, result)], encode)

    def put_many(self, records: Iterable[tuple[str, dict, Any]],
                 encode: Callable[[Any], dict] = encode_result) -> None:
        """Durably persist ``(key, spec_canonical, result)`` records with
        one append and one fsync (the sweep runner's harvested chunk).

        ``encode`` turns a result into its JSON payload.  Every record
        is encoded before anything is written, so a record that cannot
        be stored exactly fails the whole call cleanly.
        """
        frames = [(key, _frame(key, spec, encode(result)))
                  for key, spec, result in records]
        with self._lock:
            plan = self._plan()
            batch: list[tuple[str, bytes]] = []
            for key, frame in frames:
                action = (plan.decide("cache.write", key=key)
                          if plan is not None else None)
                if action is None:
                    batch.append((key, frame))
                    continue
                self._append(batch)  # the records before the fault land
                batch = []
                if action.mode == "error":
                    raise InjectedFaultError(
                        "injected fault at cache.write")
                # A writer killed mid-frame: half of it at the end of the
                # segment, which is then abandoned.
                self._append([], torn=(key, frame[: len(frame) // 2]))
            self._append(batch)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            self._refresh()
            return len(self._index)

    def clear(self) -> int:
        """Delete every segment; returns the number of live records
        removed.  Records of the retired one-file-per-record layout
        (``<key[:2]>/<key>.json``) go too.  Quarantined frames are
        kept — they are forensic artifacts, not lookup candidates.
        """
        with self._lock:
            removed = len(self)
            self._release_writer()
            for segment in list(self._segments.values()):
                self._forget(segment)
            self._abandoned.clear()
            self._verified.clear()
            self._verified_bytes = 0
            for entry in os.scandir(self.root):
                try:
                    if _segment_number(entry.name) is not None:
                        os.unlink(entry.path)
                    elif (len(entry.name) == 2 and entry.is_dir()
                          and all(c in "0123456789abcdef"
                                  for c in entry.name)):
                        for old in Path(entry.path).glob("*.json"):
                            old.unlink()
                        os.rmdir(entry.path)
                except OSError:  # pragma: no cover - racing unlinkers
                    pass
            return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultCache {self.root} ({len(self)} records)>"
