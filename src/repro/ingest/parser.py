"""Streaming, bounded-memory parser for DRAMSim2 trace files.

External traces are the first genuinely untrusted input this system
accepts: they arrive over ``POST /v1/traces`` and ``repro ingest`` and
can be malformed, truncated, adversarially huge, or simply not traces
at all.  This parser therefore treats every byte as hostile:

* the two DRAMSim2 line formats (``k6`` and ``mase``) are validated
  line by line — ``<address> <command> <cycle>`` — and any deviation
  raises :class:`~repro.core.errors.IngestError` with a 1-based line
  and column pointing at the offending byte;
* hard resource caps (:class:`IngestLimits`: total bytes, line count,
  line length, distinct pages, wall-clock deadline) degrade to the
  same clean typed rejection instead of unbounded allocation or a
  parse that never returns;
* input is consumed in fixed-size chunks, so peak memory is bounded by
  the caps regardless of file size — nothing ever reads the whole
  upload into one string.

Addresses are remapped densely by first touch into footprint-page
coordinates (the :class:`~repro.gpu.trace.DramTrace` convention), and
cycles are retained so the mix harness can interleave several programs
by time.  The whole byte stream is SHA-256-hashed during the same
pass; the registry salts that digest into every cache key derived from
the trace.

The binary ``npz`` format ``repro trace`` writes goes through the same
entry points and caps (:mod:`repro.ingest.npz`).
"""

from __future__ import annotations

import hashlib
import io
import time
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Optional, Union

import numpy as np

from repro.core.errors import ConfigError, IngestError
from repro.core.units import PAGE_SIZE

#: chunk size for streaming reads; also the unit the deadline and byte
#: cap are enforced at.
CHUNK_BYTES = 64 * 1024

#: k6 trace commands -> is_write (``None`` = event line with no memory
#: access, validated but not recorded).  Per DRAMSim2's
#: ``TraceBasedSim``: processor reads/fetches, writes, and bus-off
#: events.
K6_COMMANDS: dict[str, Optional[bool]] = {
    "P_MEM_RD": False,
    "P_FETCH": False,
    "P_MEM_WR": True,
    "BOFF": None,
}

#: mase trace commands -> is_write.
MASE_COMMANDS: dict[str, Optional[bool]] = {
    "READ": False,
    "IFETCH": False,
    "WRITE": True,
}

#: supported trace formats.
FORMATS: dict[str, dict[str, Optional[bool]]] = {
    "k6": K6_COMMANDS,
    "mase": MASE_COMMANDS,
}


@dataclass(frozen=True)
class IngestLimits:
    """Hard resource caps for one parse.

    Every cap rejects with a typed :class:`IngestError` instead of
    letting a hostile input exhaust memory (``max_bytes``,
    ``max_lines``, ``max_line_chars``, ``max_pages``) or wall-clock
    time (``deadline_s``).
    """

    max_bytes: int = 16 * 1024 * 1024
    max_lines: int = 1_000_000
    max_line_chars: int = 256
    max_pages: int = 1 << 16
    deadline_s: float = 30.0

    def __post_init__(self) -> None:
        for name in ("max_bytes", "max_lines", "max_line_chars",
                     "max_pages"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.deadline_s <= 0:
            raise ConfigError("deadline_s must be positive")


DEFAULT_LIMITS = IngestLimits()


@dataclass(frozen=True)
class ParsedTrace:
    """One successfully validated trace, in footprint coordinates."""

    name: str
    fmt: str
    #: SHA-256 of the raw source bytes, hex.
    sha256: str
    source_bytes: int
    source_lines: int
    #: dense first-touch page indices, one per memory access.
    page_indices: np.ndarray
    #: per-access write flag.
    is_write: np.ndarray
    #: per-access issue cycle (non-decreasing).
    cycles: np.ndarray
    footprint_pages: int

    @property
    def n_accesses(self) -> int:
        return int(self.page_indices.size)


NPZ_FORMAT = "npz"
ALL_FORMATS = (*FORMATS, NPZ_FORMAT)


def detect_format(filename: str,
                  explicit: Optional[str] = None) -> str:
    """Resolve the trace format: explicit choice, ``.npz`` suffix or
    filename prefix.

    DRAMSim2's convention is that the base filename starts with the
    format name (``k6_foo.trc``, ``mase_bar.trc``); anything else needs
    the format named explicitly.
    """
    if explicit is not None:
        if explicit not in ALL_FORMATS:
            raise IngestError(
                f"unknown trace format {explicit!r}; "
                f"supported: {sorted(ALL_FORMATS)}", file=filename)
        return explicit
    base = filename.rsplit("/", 1)[-1].lower()
    if base.endswith(".npz"):
        return NPZ_FORMAT
    for fmt in FORMATS:
        if base.startswith(fmt):
            return fmt
    raise IngestError(
        "cannot detect trace format from filename (expected a "
        "'k6...' or 'mase...' prefix or a '.npz' suffix); pass the "
        "format explicitly", file=filename)


def _parse_address(token: str, name: str, line: int,
                   column: int) -> int:
    if token[:2].lower() == "0x":
        digits = token[2:]
        if digits and all(c in "0123456789abcdefABCDEF"
                          for c in digits):
            return int(digits, 16)
    elif token.isdigit():
        return int(token)
    raise IngestError(
        f"bad address {token!r} (expected 0x-prefixed hex or a "
        "non-negative decimal)", file=name, line=line, column=column)


def _parse_cycle(token: str, name: str, line: int, column: int) -> int:
    if not token.isdigit():
        raise IngestError(
            f"bad cycle {token!r} (expected a non-negative decimal)",
            file=name, line=line, column=column)
    return int(token)


def _tokenize(text: str) -> list[tuple[str, int]]:
    """``(token, 1-based column)`` pairs, split on spaces and tabs."""
    tokens: list[tuple[str, int]] = []
    i, n = 0, len(text)
    while i < n:
        if text[i] in " \t":
            i += 1
            continue
        start = i
        while i < n and text[i] not in " \t":
            i += 1
        tokens.append((text[start:i], start + 1))
    return tokens


class _TraceBuilder:
    """Accumulates validated accesses under the configured caps."""

    def __init__(self, name: str, fmt: str,
                 limits: IngestLimits) -> None:
        self.name = name
        self.fmt = fmt
        self.commands = FORMATS[fmt]
        self.limits = limits
        self.pages = array("q")
        self.cycles = array("q")
        self.flags = bytearray()
        self.page_map: dict[int, int] = {}
        self.last_cycle = -1
        self.n_lines = 0

    def feed_line(self, raw: bytes, line_no: int) -> None:
        self.n_lines = line_no
        if line_no > self.limits.max_lines:
            raise IngestError(
                f"line cap exceeded (max_lines={self.limits.max_lines})",
                file=self.name, line=line_no)
        if raw.endswith(b"\r"):
            raw = raw[:-1]
        if len(raw) > self.limits.max_line_chars:
            raise IngestError(
                f"line longer than {self.limits.max_line_chars} "
                "characters", file=self.name, line=line_no,
                column=self.limits.max_line_chars + 1)
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise IngestError(
                f"non-ASCII byte 0x{raw[exc.start]:02x}",
                file=self.name, line=line_no, column=exc.start + 1)
        stripped = text.strip()
        if not stripped or stripped.startswith(("#", ";")):
            return
        tokens = _tokenize(text)
        if len(tokens) != 3:
            column = tokens[3][1] if len(tokens) > 3 else 1
            raise IngestError(
                f"expected 3 fields <address> <command> <cycle>, "
                f"got {len(tokens)}", file=self.name, line=line_no,
                column=column)
        (addr_tok, addr_col), (cmd_tok, cmd_col), (cyc_tok, cyc_col) = (
            tokens)
        address = _parse_address(addr_tok, self.name, line_no, addr_col)
        try:
            is_write = self.commands[cmd_tok]
        except KeyError:
            raise IngestError(
                f"unknown {self.fmt} command {cmd_tok!r}; valid: "
                f"{sorted(self.commands)}", file=self.name,
                line=line_no, column=cmd_col)
        cycle = _parse_cycle(cyc_tok, self.name, line_no, cyc_col)
        if cycle < self.last_cycle:
            raise IngestError(
                f"cycle {cycle} moves backwards (previous "
                f"{self.last_cycle})", file=self.name, line=line_no,
                column=cyc_col)
        self.last_cycle = cycle
        if is_write is None:  # event line (BOFF): no memory access
            return
        page_addr = address // PAGE_SIZE
        index = self.page_map.get(page_addr)
        if index is None:
            index = len(self.page_map)
            if index >= self.limits.max_pages:
                raise IngestError(
                    "distinct-page cap exceeded "
                    f"(max_pages={self.limits.max_pages})",
                    file=self.name, line=line_no, column=addr_col)
            self.page_map[page_addr] = index
        self.pages.append(index)
        self.cycles.append(cycle)
        self.flags.append(1 if is_write else 0)

    def finish(self, total_bytes: int, sha256: str) -> ParsedTrace:
        if not self.pages:
            raise IngestError(
                "trace contains no memory accesses", file=self.name,
                line=self.n_lines or 1)
        return ParsedTrace(
            name=self.name,
            fmt=self.fmt,
            sha256=sha256,
            source_bytes=total_bytes,
            source_lines=self.n_lines,
            page_indices=np.asarray(self.pages, dtype=np.int64),
            is_write=np.frombuffer(bytes(self.flags),
                                   dtype=np.uint8).astype(bool),
            cycles=np.asarray(self.cycles, dtype=np.int64),
            footprint_pages=len(self.page_map),
        )


def parse_stream(stream: BinaryIO, fmt: str, name: str = "<stream>",
                 limits: IngestLimits = DEFAULT_LIMITS) -> ParsedTrace:
    """Parse one trace off a binary stream under the configured caps.

    Raises :class:`IngestError` — and nothing else — for any invalid,
    truncated, oversized, or deadline-busting input.
    """
    if fmt == NPZ_FORMAT:
        from .npz import parse_npz

        return parse_npz(stream, name, limits)
    if fmt not in FORMATS:
        raise IngestError(
            f"unknown trace format {fmt!r}; supported: "
            f"{sorted(ALL_FORMATS)}", file=name)
    builder = _TraceBuilder(name, fmt, limits)
    hasher = hashlib.sha256()
    deadline = time.monotonic() + limits.deadline_s
    total = 0
    line_no = 0
    buffer = b""
    while True:
        if time.monotonic() >= deadline:
            raise IngestError(
                f"parse deadline exceeded "
                f"({limits.deadline_s:g}s)", file=name,
                line=line_no + 1)
        try:
            chunk = stream.read(CHUNK_BYTES)
        except OSError as exc:
            raise IngestError(f"read failed: {exc}", file=name,
                              line=line_no + 1)
        if not chunk:
            break
        total += len(chunk)
        if total > limits.max_bytes:
            raise IngestError(
                f"byte cap exceeded (max_bytes={limits.max_bytes})",
                file=name, line=line_no + 1)
        hasher.update(chunk)
        buffer += chunk
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                break
            line, buffer = buffer[:newline], buffer[newline + 1:]
            line_no += 1
            builder.feed_line(line, line_no)
        if len(buffer) > limits.max_line_chars + 1:
            raise IngestError(
                f"line longer than {limits.max_line_chars} "
                "characters", file=name, line=line_no + 1,
                column=limits.max_line_chars + 1)
    if buffer:  # final line without a trailing newline
        line_no += 1
        builder.feed_line(buffer, line_no)
    return builder.finish(total, hasher.hexdigest())


def parse_bytes(data: bytes, fmt: str, name: str = "<bytes>",
                limits: IngestLimits = DEFAULT_LIMITS) -> ParsedTrace:
    """Parse a trace held in memory (uploads spooled small)."""
    return parse_stream(io.BytesIO(data), fmt, name=name, limits=limits)


def parse_file(path: Union[str, "object"], fmt: Optional[str] = None,
               limits: IngestLimits = DEFAULT_LIMITS) -> ParsedTrace:
    """Parse a trace file, detecting the format from its name."""
    from pathlib import Path

    path = Path(path)
    resolved_fmt = detect_format(path.name, fmt)
    try:
        handle = path.open("rb")
    except OSError as exc:
        raise IngestError(f"cannot open trace file: {exc}",
                          file=str(path))
    with handle:
        return parse_stream(handle, resolved_fmt, name=path.name,
                            limits=limits)
