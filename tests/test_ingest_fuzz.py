"""Property/fuzz suite for the hardened trace parser.

The contract under test: arbitrary hostile bytes fed to the ingestion
layer either produce a valid :class:`ParsedTrace` or raise a typed
:class:`IngestError` — never any other exception, never output
exceeding the configured caps, and never a registry entry for a
rejected input.
"""

from __future__ import annotations

import io

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import IngestError
from repro.ingest import (
    IngestLimits,
    TraceRegistry,
    parse_bytes,
    resolve_workload,
    set_default_root,
)

FUZZ_LIMITS = IngestLimits(max_bytes=4096, max_lines=128,
                           max_line_chars=80, max_pages=32,
                           deadline_s=10.0)

SETTINGS = settings(max_examples=50, deadline=None,
                    suppress_health_check=[
                        HealthCheck.function_scoped_fixture])


# ---------------------------------------------------------------------
# arbitrary bytes → typed rejection or valid trace, caps always hold
# ---------------------------------------------------------------------


@SETTINGS
@given(data=st.binary(max_size=2048),
       fmt=st.sampled_from(["k6", "mase"]))
def test_arbitrary_bytes_never_escape_the_contract(data, fmt):
    try:
        parsed = parse_bytes(data, fmt, limits=FUZZ_LIMITS)
    except IngestError as err:
        # line-precise, structured, serializable
        payload = err.to_dict()
        assert payload["reason"]
        assert payload["line"] >= 0 and payload["column"] >= 0
        return
    assert 1 <= parsed.n_accesses <= FUZZ_LIMITS.max_lines
    assert 1 <= parsed.footprint_pages <= FUZZ_LIMITS.max_pages
    assert parsed.source_bytes <= FUZZ_LIMITS.max_bytes
    # page indices are dense first-touch coordinates
    assert parsed.page_indices.max() < parsed.footprint_pages
    assert parsed.page_indices.min() >= 0
    # cycles arrive validated non-decreasing
    assert (parsed.cycles[1:] >= parsed.cycles[:-1]).all()


@SETTINGS
@given(data=st.text(alphabet=st.characters(min_codepoint=0,
                                           max_codepoint=0x2FF),
                    max_size=512).map(lambda s: s.encode("utf-8")),
       fmt=st.sampled_from(["k6", "mase"]))
def test_textish_bytes_never_escape_the_contract(data, fmt):
    """Near-valid text (including non-ASCII) is the adversarial sweet
    spot — same contract as raw binary."""
    try:
        parse_bytes(data, fmt, limits=FUZZ_LIMITS)
    except IngestError:
        pass


@SETTINGS
@given(data=st.binary(min_size=1, max_size=512))
def test_rejections_never_touch_the_registry(tmp_path_factory, data):
    registry = TraceRegistry(
        tmp_path_factory.mktemp("fuzzreg") / "traces")
    try:
        registry.admit(data, name="fuzzed", fmt="k6",
                       limits=FUZZ_LIMITS)
    except IngestError:
        assert registry.record("fuzzed") is None
        assert "fuzzed" not in registry.names()
    else:
        assert registry.record("fuzzed") is not None


# ---------------------------------------------------------------------
# generated *valid* traces survive the full round trip bit-identically
# ---------------------------------------------------------------------


@st.composite
def valid_trace(draw):
    fmt = draw(st.sampled_from(["k6", "mase"]))
    commands = (["P_MEM_RD", "P_MEM_WR", "P_FETCH"] if fmt == "k6"
                else ["READ", "WRITE", "IFETCH"])
    n = draw(st.integers(min_value=1, max_value=40))
    pages = draw(st.lists(st.integers(min_value=0, max_value=15),
                          min_size=n, max_size=n))
    offsets = draw(st.lists(st.integers(min_value=0, max_value=4095),
                            min_size=n, max_size=n))
    ops = draw(st.lists(st.sampled_from(commands),
                        min_size=n, max_size=n))
    deltas = draw(st.lists(st.integers(min_value=0, max_value=9),
                           min_size=n, max_size=n))
    lines, cycle = [], 0
    for page, offset, op, delta in zip(pages, offsets, ops, deltas):
        cycle += delta
        lines.append(f"0x{page * 4096 + offset:x} {op} {cycle}")
    return fmt, ("\n".join(lines) + "\n").encode("ascii")


@SETTINGS
@given(valid_trace())
def test_valid_trace_roundtrip_bit_identical(tmp_path_factory, sample):
    fmt, data = sample
    parsed = parse_bytes(data, fmt, limits=FUZZ_LIMITS)

    registry = TraceRegistry(
        tmp_path_factory.mktemp("fuzzrt") / "traces")
    set_default_root(registry.root)
    try:
        record = registry.admit(data, name="sample", fmt=fmt,
                                limits=FUZZ_LIMITS)
        assert record.sha256 == parsed.sha256
        assert record.n_accesses == parsed.n_accesses

        workload = resolve_workload("trace:sample", registry)
        trace = workload.dram_trace()
        assert trace.page_indices.tolist() == \
            parsed.page_indices.tolist()
        assert trace.is_write.tolist() == \
            [bool(b) for b in parsed.is_write]
        assert trace.footprint_pages == parsed.footprint_pages
    finally:
        set_default_root(None)


# ---------------------------------------------------------------------
# npz: damaged archives -> typed rejection, quarantine, no registry entry
# ---------------------------------------------------------------------


def _npz_bytes(pages, flags, compressed) -> bytes:
    buffer = io.BytesIO()
    arrays = {"page_indices": np.asarray(pages, dtype=np.int64)}
    if flags is not None:
        arrays["is_write"] = np.asarray(flags, dtype=bool)
    (np.savez_compressed if compressed else np.savez)(buffer, **arrays)
    return buffer.getvalue()


@st.composite
def npz_trace(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    pages = draw(st.lists(st.integers(min_value=0, max_value=2 ** 40),
                          min_size=n, max_size=n))
    flags = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n,
                                               max_size=n)))
    return pages, flags, _npz_bytes(pages, flags, draw(st.booleans()))


@st.composite
def damaged_npz(draw):
    """A valid archive with bytes overwritten, or cut short."""
    _, _, data = draw(npz_trace())
    data = bytearray(data)
    if draw(st.booleans()):
        return bytes(data[:draw(st.integers(0, len(data) - 1))])
    for _ in range(draw(st.integers(1, 8))):
        data[draw(st.integers(0, len(data) - 1))] = draw(
            st.integers(0, 255))
    return bytes(data)


@SETTINGS
@given(data=st.one_of(st.binary(max_size=1024), damaged_npz()))
def test_damaged_npz_never_escapes_the_contract(tmp_path_factory, data):
    registry = TraceRegistry(
        tmp_path_factory.mktemp("fuzznpz") / "traces")
    try:
        record = registry.admit(data, name="fuzzed", fmt="npz",
                                limits=FUZZ_LIMITS)
    except IngestError as err:
        assert err.to_dict()["reason"]
        assert registry.record("fuzzed") is None
        assert registry.names() == []
        assert registry.quarantined_count() == 1
        return
    # a byte flip inside a stored (uncompressed) array can still leave
    # a valid trace; it must then respect every cap
    assert 1 <= record.n_accesses <= FUZZ_LIMITS.max_lines
    assert 1 <= record.footprint_pages <= FUZZ_LIMITS.max_pages


@SETTINGS
@given(npz_trace())
def test_valid_npz_roundtrip(tmp_path_factory, sample):
    pages, flags, data = sample
    registry = TraceRegistry(
        tmp_path_factory.mktemp("fuzznpzrt") / "traces")
    try:
        record = registry.admit(data, name="sample", fmt="npz",
                                limits=FUZZ_LIMITS)
    except IngestError as err:
        assert len(set(pages)) > FUZZ_LIMITS.max_pages
        assert "distinct-page cap" in err.reason
        return
    seen: dict[int, int] = {}
    dense = [seen.setdefault(p, len(seen)) for p in pages]
    trace = resolve_workload("trace:sample", registry).dram_trace()
    assert trace.page_indices.tolist() == dense
    assert trace.is_write.tolist() == (flags or [False] * len(pages))
    assert record.footprint_pages == len(seen)
