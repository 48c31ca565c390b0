"""The ``npz`` trace format ``repro trace`` writes, read as untrusted input.

An archive holds ``page_indices`` (one page number per access, in
order), optionally ``is_write``, and, from older releases, an ignored
``metadata`` member.  Each member's ``.npy`` header is checked before
its data is decompressed.  Rows count against ``max_lines``; page
numbers are remapped by first touch under ``max_pages``, like k6/mase
addresses, and ``cycles`` is the access order.  Errors name the faulty
1-based access as ``line``.
"""

from __future__ import annotations

import hashlib
import io
import time
import zipfile
import zlib
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

from repro.core.errors import IngestError
from repro.gpu.trace import DramTrace

from .parser import NPZ_FORMAT, IngestLimits, ParsedTrace

#: member -> accepted dtype kinds.
_MEMBERS = {"page_indices": "iu", "is_write": "b", "metadata": "u"}

#: what a damaged archive or member raises while being read.
_READ_ERRORS = (ValueError, OSError, EOFError, zipfile.BadZipFile,
                zlib.error, NotImplementedError, RuntimeError)


def save_npz(trace: DramTrace, path: Union[str, Path]) -> Path:
    """Write ``trace`` in the ``npz`` format (``.npz`` appended to
    ``path`` unless it already ends in it)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    arrays = {"page_indices": trace.page_indices}
    if trace.is_write is not None:
        arrays["is_write"] = trace.is_write
    np.savez_compressed(path, **arrays)
    return path


def _member(archive: zipfile.ZipFile, info: zipfile.ZipInfo,
            member: str, name: str):
    """``(read, rows, dtype)`` once the member's header checks out;
    ``read()`` decompresses exactly the rows the header declares."""
    try:
        handle = archive.open(info)
        version = np.lib.format.read_magic(handle)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"unsupported .npy version {version}")
        shape, _, dtype = (np.lib.format.read_array_header_1_0(handle)
                           if version == (1, 0) else
                           np.lib.format.read_array_header_2_0(handle))
    except _READ_ERRORS as exc:
        raise IngestError(f"member {member!r} is not a valid .npy "
                          f"array: {exc}", file=name)
    if dtype.hasobject:
        raise IngestError(f"member {member!r} has an object dtype "
                          "(pickled data is not accepted)", file=name)
    if len(shape) != 1:
        raise IngestError(f"member {member!r} must be one-dimensional, "
                          f"got shape {shape}", file=name)
    if dtype.kind not in _MEMBERS[member]:
        raise IngestError(f"member {member!r} has dtype {dtype}; "
                          f"expected kinds {_MEMBERS[member]!r}", file=name)
    size = shape[0] * dtype.itemsize

    def read() -> np.ndarray:
        try:
            raw = handle.read(size)
        except _READ_ERRORS as exc:
            raise IngestError(f"member {member!r} is unreadable: {exc}",
                              file=name)
        if len(raw) != size:
            raise IngestError(f"member {member!r} is truncated", file=name)
        return np.frombuffer(raw, dtype=dtype)

    return read, shape[0], dtype


def parse_npz(stream: BinaryIO, name: str,
              limits: IngestLimits) -> ParsedTrace:
    """Validate one ``npz`` trace read off ``stream``; raises
    :class:`IngestError` and nothing else."""
    started = time.monotonic()
    try:
        data = stream.read(limits.max_bytes + 1)
    except OSError as exc:
        raise IngestError(f"read failed: {exc}", file=name)
    if len(data) > limits.max_bytes:
        raise IngestError(
            f"byte cap exceeded (max_bytes={limits.max_bytes})", file=name)
    try:
        archive = zipfile.ZipFile(io.BytesIO(data))
        infos = archive.infolist()
    except _READ_ERRORS as exc:
        raise IngestError(f"not an npz archive: {exc}", file=name)
    members = {}
    for info in infos:
        member = info.filename.removesuffix(".npy")
        if member not in _MEMBERS or member == info.filename:
            raise IngestError(
                f"unknown member {info.filename!r}; expected "
                "page_indices and optionally is_write", file=name)
        if member in members:
            raise IngestError(f"duplicate member {member!r}", file=name)
        members[member] = _member(archive, info, member, name)
    if "page_indices" not in members:
        raise IngestError("no 'page_indices' member", file=name)
    read_pages, rows, dtype = members["page_indices"]
    if rows > limits.max_lines:
        raise IngestError(
            f"access cap exceeded (max_lines={limits.max_lines})",
            file=name, line=limits.max_lines + 1)
    if rows == 0:
        raise IngestError("trace contains no memory accesses", file=name)
    flags = np.zeros(rows, dtype=bool)
    if "is_write" in members:
        read_flags, flag_rows, _ = members["is_write"]
        if flag_rows != rows:
            raise IngestError(f"member 'is_write' has {flag_rows} rows "
                              f"for {rows} accesses", file=name)
        flags = read_flags() != 0  # normalizes stray bytes in bool data

    pages = read_pages()
    if dtype.kind == "i" and (pages < 0).any():
        raise IngestError("negative page number", file=name,
                          line=int(np.argmax(pages < 0)) + 1)
    distinct, first, inverse = np.unique(pages, return_index=True,
                                         return_inverse=True)
    touch_order = np.argsort(first)
    if distinct.size > limits.max_pages:
        raise IngestError(
            f"distinct-page cap exceeded (max_pages={limits.max_pages})",
            file=name, line=int(first[touch_order[limits.max_pages]]) + 1)
    if time.monotonic() - started >= limits.deadline_s:
        raise IngestError(
            f"parse deadline exceeded ({limits.deadline_s:g}s)", file=name)
    rank = np.empty(distinct.size, dtype=np.int64)
    rank[touch_order] = np.arange(distinct.size)
    return ParsedTrace(
        name=name, fmt=NPZ_FORMAT, sha256=hashlib.sha256(data).hexdigest(),
        source_bytes=len(data), source_lines=rows,
        page_indices=rank[inverse], is_write=flags,
        cycles=np.arange(rows, dtype=np.int64),
        footprint_pages=int(distinct.size))
