"""Hardened external-trace ingestion: parser, registry, workloads, mixes.

Covers the robustness contract end to end:

* the streaming parser rejects hostile bytes with line/column-precise
  :class:`IngestError` and never exceeds its caps;
* the registry checksums admissions, quarantines rejects (bounded) and
  detects on-disk corruption at load time;
* ingested traces and mixes run through the standard workload/runner
  path with checksum-salted canonical names;
* a corrupt member of a mix fails with a structured per-member error
  while the survivors' results are byte-identical to a run that never
  mentioned it (the acceptance scenario).
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import ConfigError, IngestError, WorkloadError
from repro.core.experiment import run_experiment
from repro.ingest import (
    IngestLimits,
    TraceRegistry,
    detect_format,
    parse_bytes,
    parse_file,
    parse_mix_spec,
    resolve_workload,
    run_mix,
    sanitize_name,
    set_default_root,
)
from repro.runner import make_spec
from repro.runner.sweep import SweepRunner
from repro.workloads import get_workload

FIXTURES = Path(__file__).parent / "fixtures" / "traces"

GOOD_K6 = (b"0x1000 P_MEM_RD 0\n"
           b"0x2000 P_MEM_WR 4\n"
           b"0x1040 P_FETCH 9\n"
           b"0x3000 P_MEM_RD 15\n")
GOOD_MASE = (b"0x9000 READ 2\n"
             b"0xA000 WRITE 5\n"
             b"0x9040 IFETCH 8\n")


@pytest.fixture
def registry(tmp_path):
    reg = TraceRegistry(tmp_path / "traces")
    set_default_root(reg.root)
    yield reg
    set_default_root(None)


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------


class TestParser:
    def test_k6_fixture_parses(self):
        parsed = parse_file(FIXTURES / "k6_small.trc")
        # BOFF is a legal event but carries no access; comments and
        # blank lines are skipped.
        assert parsed.fmt == "k6"
        assert parsed.n_accesses == 4
        assert parsed.footprint_pages == 3
        # first-touch remapping: 0x1000 and 0x1040 share a page.
        assert parsed.page_indices.tolist() == [0, 1, 0, 2]
        assert parsed.is_write.tolist() == [0, 1, 0, 0]
        assert parsed.cycles.tolist() == [0, 4, 9, 15]

    def test_mase_fixture_parses(self):
        parsed = parse_file(FIXTURES / "mase_small.trc")
        assert parsed.fmt == "mase"
        assert parsed.n_accesses == 4
        assert parsed.is_write.tolist() == [0, 1, 0, 0]

    def test_decimal_addresses_accepted(self):
        parsed = parse_bytes(b"4096 P_MEM_RD 0\n8192 P_MEM_WR 3\n",
                             "k6")
        assert parsed.footprint_pages == 2

    def test_bad_command_line_and_column(self):
        with pytest.raises(IngestError) as err:
            parse_file(FIXTURES / "k6_bad_command.trc")
        assert err.value.line == 2
        assert err.value.column == 8
        assert "NOPE" in err.value.reason

    def test_bad_address_column_one(self):
        with pytest.raises(IngestError) as err:
            parse_file(FIXTURES / "k6_bad_address.trc")
        assert (err.value.line, err.value.column) == (1, 1)

    def test_bad_cycle(self):
        with pytest.raises(IngestError) as err:
            parse_bytes(b"0x1000 P_MEM_RD banana\n", "k6")
        assert err.value.column == 17
        assert "cycle" in err.value.reason

    def test_wrong_field_count(self):
        with pytest.raises(IngestError) as err:
            parse_file(FIXTURES / "mase_truncated.trc")
        assert err.value.line == 2
        assert "3 fields" in err.value.reason

    def test_non_monotone_cycles_rejected(self):
        with pytest.raises(IngestError) as err:
            parse_file(FIXTURES / "k6_nonmono.trc")
        assert err.value.line == 2

    def test_non_ascii_rejected_with_column(self):
        with pytest.raises(IngestError) as err:
            parse_bytes("0x1000 P_MEM_RD 0\n0x2000 P_MÉM 2\n"
                        .encode("utf-8"), "k6")
        assert err.value.line == 2

    def test_empty_trace_rejected(self):
        with pytest.raises(IngestError):
            parse_bytes(b"# nothing but comments\n\n", "k6")

    def test_line_cap(self):
        data = b"".join(b"0x1000 P_MEM_RD %d\n" % i for i in range(10))
        limits = IngestLimits(max_lines=5)
        with pytest.raises(IngestError) as err:
            parse_bytes(data, "k6", limits=limits)
        assert err.value.line == 6
        assert "max_lines" in err.value.reason

    def test_byte_cap(self):
        limits = IngestLimits(max_bytes=32)
        with pytest.raises(IngestError) as err:
            parse_bytes(GOOD_K6, "k6", limits=limits)
        assert "max_bytes" in err.value.reason

    def test_line_length_cap(self):
        data = b"0x1000 P_MEM_RD " + b"9" * 500 + b"\n"
        with pytest.raises(IngestError) as err:
            parse_bytes(data, "k6",
                        limits=IngestLimits(max_line_chars=64))
        assert "longer than 64" in err.value.reason

    def test_page_cap(self):
        data = b"".join(b"0x%x P_MEM_RD %d\n" % (i << 12, i)
                        for i in range(10))
        with pytest.raises(IngestError) as err:
            parse_bytes(data, "k6", limits=IngestLimits(max_pages=4))
        assert "max_pages" in err.value.reason

    def test_final_line_without_newline(self):
        parsed = parse_bytes(b"0x1000 P_MEM_RD 0\n0x2000 P_MEM_WR 3",
                             "k6")
        assert parsed.n_accesses == 2

    def test_bad_limits_rejected(self):
        with pytest.raises(ConfigError):
            IngestLimits(max_bytes=0)

    def test_detect_format(self):
        assert detect_format("k6_stream.trc") == "k6"
        assert detect_format("mase_gcc.trc") == "mase"
        assert detect_format("whatever.trc", explicit="k6") == "k6"
        with pytest.raises(IngestError):
            detect_format("unknown_prefix.trc")
        with pytest.raises(IngestError):
            detect_format("k6_x.trc", explicit="elf")

    def test_sanitize_name_rejects_traversal(self):
        for bad in ("../evil", "a/b", "", "UPPER", "x" * 100):
            with pytest.raises(IngestError):
                sanitize_name(bad)


# ---------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------


class TestRegistry:
    def test_admit_and_load_roundtrip(self, registry):
        record = registry.admit(GOOD_K6, name="alpha", fmt="k6")
        assert record.canonical == f"trace:alpha#{record.short_sha}"
        assert record.n_accesses == 4
        assert record.n_writes == 1
        loaded, pages, flags, cycles = registry.load("alpha")
        assert loaded.sha256 == record.sha256
        assert pages.tolist() == [0, 1, 0, 2]
        assert flags.tolist() == [False, True, False, False]
        assert cycles.tolist() == [0, 4, 9, 15]

    def test_reject_quarantines(self, registry):
        with pytest.raises(IngestError):
            registry.admit(b"garbage bytes\n", name="bad", fmt="k6")
        assert registry.quarantined_count() == 1
        assert registry.names() == []
        snippets = list(registry.quarantine_dir().glob("*.trace"))
        reasons = list(registry.quarantine_dir().glob("*.reason.json"))
        assert len(snippets) == 1 and len(reasons) == 1
        assert snippets[0].read_bytes() == b"garbage bytes\n"

    def test_quarantine_bounded(self, tmp_path):
        registry = TraceRegistry(tmp_path / "traces", max_quarantined=3)
        for i in range(6):
            with pytest.raises(IngestError):
                registry.admit(b"junk %d\n" % i, name="bad", fmt="k6")
        assert registry.quarantined_count() == 3
        # the survivors are the newest rejects
        kept = sorted(p.read_bytes() for p in
                      registry.quarantine_dir().glob("*.trace"))
        assert kept == [b"junk 3\n", b"junk 4\n", b"junk 5\n"]

    def test_warm_reingest_after_fix(self, registry, tmp_path):
        path = tmp_path / "k6_fixme.trc"
        path.write_bytes(b"0x1000 NOPE 0\n")
        with pytest.raises(IngestError):
            registry.admit(path)
        assert registry.record("k6_fixme") is None
        path.write_bytes(GOOD_K6)
        record = registry.admit(path)
        assert record.name == "k6_fixme"
        assert registry.load("k6_fixme")[0].sha256 == record.sha256

    def test_reingest_changes_checksum(self, registry):
        first = registry.admit(GOOD_K6, name="alpha", fmt="k6")
        second = registry.admit(GOOD_K6 + b"0x4000 P_MEM_RD 99\n",
                                name="alpha", fmt="k6")
        assert first.sha256 != second.sha256
        assert registry.record("alpha").sha256 == second.sha256

    def test_corrupt_payload_detected_and_evicted(self, registry):
        registry.admit(GOOD_K6, name="alpha", fmt="k6")
        (registry.root / "alpha" / "trace.npz").write_bytes(b"\x00" * 64)
        with pytest.raises(IngestError):
            registry.load("alpha")
        # evicted: name gone, quarantine holds the evidence
        assert "alpha" not in registry.names()
        evidence = list(registry.quarantine_dir().glob("*alpha*"))
        assert evidence

    def test_tampered_meta_detected(self, registry):
        record = registry.admit(GOOD_K6, name="alpha", fmt="k6")
        meta = registry.root / "alpha" / "meta.json"
        meta.write_text(meta.read_text().replace(
            record.payload_sha256, "0" * 64))
        with pytest.raises(IngestError):
            registry.load("alpha")
        assert "alpha" not in registry.names()


# ---------------------------------------------------------------------
# workload adapter + canonical names
# ---------------------------------------------------------------------


class TestTraceWorkload:
    def test_resolve_and_replay_verbatim(self, registry):
        record = registry.admit(GOOD_K6, name="alpha", fmt="k6")
        workload = resolve_workload("trace:alpha", registry)
        assert workload.name == record.canonical
        trace = workload.dram_trace()
        assert trace.page_indices.tolist() == [0, 1, 0, 2]
        assert trace.is_write.tolist() == [False, True, False, False]
        assert trace.footprint_pages == record.footprint_pages

    def test_make_spec_canonicalizes(self, registry):
        record = registry.admit(GOOD_K6, name="alpha", fmt="k6")
        spec = make_spec("trace:alpha", "BW-AWARE")
        assert spec.workload == record.canonical.lower()

    def test_fragment_mismatch_rejected(self, registry):
        registry.admit(GOOD_K6, name="alpha", fmt="k6")
        with pytest.raises(WorkloadError) as err:
            resolve_workload("trace:alpha#deadbeef0000", registry)
        assert "checksum" in str(err.value)

    def test_unknown_names_share_one_message(self, registry):
        registry.admit(GOOD_K6, name="alpha", fmt="k6")
        with pytest.raises(WorkloadError) as missing_trace:
            get_workload("trace:nosuch")
        with pytest.raises(WorkloadError) as missing_bench:
            get_workload("bogus")
        for err in (missing_trace, missing_bench):
            message = str(err.value)
            assert "benchmarks:" in message
            assert "scenarios:" in message
            assert "trace:alpha#" in message

    def test_simulation_deterministic_across_resolves(self, registry):
        from repro.core.experiment import run_experiment

        registry.admit(GOOD_K6, name="alpha", fmt="k6")
        first = run_experiment("trace:alpha", policy="BW-AWARE")
        second = run_experiment("trace:alpha", policy="BW-AWARE")
        assert first.sim.total_time_ns == second.sim.total_time_ns
        assert np.array_equal(first.sim.bytes_by_zone,
                              second.sim.bytes_by_zone)


# ---------------------------------------------------------------------
# mixes
# ---------------------------------------------------------------------


def _admit_fixture(registry, filename):
    return registry.admit(FIXTURES / filename)


class TestMix:
    def test_parse_mix_spec_grammar(self):
        assert tuple(parse_mix_spec("mix:a+b")) == ("a", "b")
        assert tuple(parse_mix_spec("mix:a+b+c+d")) == ("a", "b",
                                                        "c", "d")
        for bad in ("mix:a", "mix:a+b+c+d+e", "mix:a+a", "mix:a++b",
                    "nomix:a+b"):
            with pytest.raises((IngestError, WorkloadError)):
                parse_mix_spec(bad)

    def test_merge_is_cycle_ordered_and_deterministic(self, registry):
        _admit_fixture(registry, "k6_small.trc")
        _admit_fixture(registry, "mase_small.trc")
        mix = resolve_workload("mix:k6_small+mase_small", registry)
        trace = mix.dram_trace()
        # members' cycles interleave globally non-decreasingly
        k6 = registry.load("k6_small")
        mase = registry.load("mase_small")
        merged = np.concatenate([k6[3], mase[3]])
        order = np.argsort(merged, kind="stable")
        assert np.array_equal(
            np.sort(merged), merged[order])
        assert trace.n_raw_accesses == k6[1].size + mase[1].size
        # member page spaces don't collide: offsets partition the
        # footprint
        assert trace.footprint_pages == (k6[0].footprint_pages
                                         + mase[0].footprint_pages)
        again = resolve_workload("mix:k6_small+mase_small",
                                 registry).dram_trace()
        assert np.array_equal(trace.page_indices, again.page_indices)
        assert np.array_equal(trace.is_write, again.is_write)

    def test_run_mix_fault_isolation_byte_identical(self, registry):
        """The acceptance scenario: one corrupt member of a 4-trace mix
        fails structurally; the other three produce results
        byte-identical to a 3-trace run that never included it."""
        for fixture in ("k6_small.trc", "k6_stream2.trc",
                        "mase_small.trc", "mase_stream2.trc"):
            _admit_fixture(registry, fixture)
        # corrupt one member's payload on disk
        (registry.root / "mase_stream2" / "trace.npz").write_bytes(
            b"not an npz")

        runner = SweepRunner(jobs=1, cache=False)
        degraded = run_mix(
            ["k6_small", "k6_stream2", "mase_small", "mase_stream2"],
            ["BW-AWARE", "LOCAL"], runner, registry=registry)
        clean = run_mix(
            ["k6_small", "k6_stream2", "mase_small"],
            ["BW-AWARE", "LOCAL"], runner, registry=registry)

        failed = degraded.failed
        assert [m.name for m in failed] == ["mase_stream2"]
        assert failed[0].error is not None
        assert failed[0].error["reason"]
        assert len(degraded.survivors) == 3
        assert degraded.workload_name == clean.workload_name
        assert len(degraded.results) == len(clean.results) == 2
        for lhs, rhs in zip(degraded.results, clean.results):
            assert lhs.sim.total_time_ns == rhs.sim.total_time_ns
            assert lhs.sim.dram_accesses == rhs.sim.dram_accesses
            assert np.array_equal(lhs.sim.bytes_by_zone,
                                  rhs.sim.bytes_by_zone)

    def test_run_mix_single_survivor_runs_standalone(self, registry):
        alpha = _admit_fixture(registry, "k6_small.trc")
        _admit_fixture(registry, "mase_small.trc")
        (registry.root / "mase_small" / "trace.npz").write_bytes(b"x")
        runner = SweepRunner(jobs=1, cache=False)
        outcome = run_mix(["k6_small", "mase_small"], ["BW-AWARE"],
                          runner, registry=registry)
        assert outcome.workload_name == alpha.canonical
        assert len(outcome.results) == 1

    def test_run_mix_no_survivors(self, registry):
        runner = SweepRunner(jobs=1, cache=False)
        outcome = run_mix(["ghost1", "ghost2"], ["BW-AWARE"], runner,
                          registry=registry)
        assert outcome.workload_name is None
        assert outcome.results == []
        assert len(outcome.failed) == 2


# ---------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------


class TestCli:
    def test_ingest_list_mix(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        src = tmp_path / "k6_one.trc"
        src.write_bytes(GOOD_K6)
        src2 = tmp_path / "mase_two.trc"
        src2.write_bytes(GOOD_MASE)
        try:
            assert main(["ingest", str(src), str(src2),
                         "--cache-dir", cache]) == 0
            out = capsys.readouterr().out
            assert "admitted trace:k6_one#" in out
            assert "admitted trace:mase_two#" in out

            assert main(["list", "traces", "--cache-dir", cache]) == 0
            out = capsys.readouterr().out
            assert "trace:k6_one#" in out

            assert main(["mix", "k6_one", "mase_two",
                         "--cache-dir", cache, "--no-cache",
                         "-p", "BW-AWARE"]) == 0
            out = capsys.readouterr().out
            assert "swept mix:k6_one#" in out
        finally:
            set_default_root(None)

    def test_ingest_rejection_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        bad = tmp_path / "k6_bad.trc"
        bad.write_bytes(b"junk\n")
        try:
            assert main(["ingest", str(bad),
                         "--cache-dir", cache]) == 1
            err = capsys.readouterr().err
            assert "REJECTED" in err
        finally:
            set_default_root(None)

    def test_mix_nothing_to_run_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        try:
            assert main(["mix", "ghost1", "ghost2",
                         "--cache-dir", cache, "--no-cache"]) == 1
            err = capsys.readouterr().err
            assert "no members survived" in err
        finally:
            set_default_root(None)


# ---------------------------------------------------------------------
# the npz format: what `repro trace` writes, through the same registry
# ---------------------------------------------------------------------


def _npy(array: np.ndarray, rows=None) -> bytes:
    """One ``.npy`` member; ``rows`` overrides the row count its
    header claims (the data stays ``array``'s)."""
    buffer = io.BytesIO()
    header = np.lib.format.header_data_from_array_1_0(array)
    if rows is not None:
        header["shape"] = (rows,)
    np.lib.format.write_array_header_1_0(buffer, header)
    buffer.write(array.tobytes())
    return buffer.getvalue()


def _zip(members: dict) -> bytes:
    """An npz archive of raw member bytes (or arrays)."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, payload in members.items():
            if isinstance(payload, np.ndarray):
                payload = _npy(payload)
            archive.writestr(name, payload)
    return buffer.getvalue()


def _savez(**arrays) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


PAGES = np.array([7, 3, 7, 9, 3, 0], dtype=np.int64)
FLAGS = np.array([0, 1, 0, 0, 1, 0], dtype=bool)
GOOD_NPZ = _savez(page_indices=PAGES, is_write=FLAGS)


def _parent_layout_npz() -> bytes:
    """The member layout older releases' ``repro trace`` wrote: pages,
    flags and a JSON ``metadata`` member (with the structure layout)."""
    metadata = {"version": 1, "footprint_pages": 10,
                "n_raw_accesses": 12, "n_epochs": 16,
                "bytes_per_access": 128,
                "structures": {"heap": [0, 10]}}
    return _savez(page_indices=PAGES, is_write=FLAGS,
                  metadata=np.frombuffer(json.dumps(metadata).encode(),
                                         dtype=np.uint8))


HOSTILE_NPZ = {
    "random bytes": (bytes(range(256)) * 4, "not an npz archive"),
    "truncated zip": (GOOD_NPZ[:len(GOOD_NPZ) // 2], "not an npz"),
    "object member": (_savez(page_indices=np.array([1, "x"],
                                                   dtype=object)),
                      "object dtype"),
    "pickled member": (_zip({"page_indices.npy":
                             pickle.dumps([1, 2, 3])}),
                       "not a valid .npy"),
    "float member": (_savez(page_indices=PAGES.astype(np.float64)),
                     "has dtype float64"),
    "float flags": (_savez(page_indices=PAGES,
                           is_write=FLAGS.astype(np.float32)),
                    "has dtype float32"),
    "2-D member": (_savez(page_indices=PAGES.reshape(2, 3)),
                   "one-dimensional"),
    "short is_write": (_savez(page_indices=PAGES, is_write=FLAGS[:-1]),
                       "5 rows for 6 accesses"),
    "integer flags": (_savez(page_indices=PAGES,
                             is_write=FLAGS.astype(np.uint8)),
                      "has dtype uint8"),
    "negative page": (_savez(page_indices=np.array([4, -1, 2])),
                      "negative page number"),
    "unknown member": (_savez(page_indices=PAGES, cycles=PAGES),
                       "unknown member 'cycles.npy'"),
    "no pages": (_savez(is_write=FLAGS), "no 'page_indices' member"),
    "empty": (_savez(page_indices=np.zeros(0, dtype=np.int64)),
              "no memory accesses"),
    # the header claims 10**12 rows over six rows of data: rejected by
    # the access cap from the header, before any data is decompressed
    "header lies huge": (_zip({"page_indices.npy": _npy(PAGES,
                                                        rows=10 ** 12)}),
                         "access cap exceeded"),
    "header lies short": (_zip({"page_indices.npy": _npy(PAGES,
                                                         rows=9)}),
                          "truncated"),
    "too many pages": (_savez(page_indices=np.arange(70_000)),
                       "distinct-page cap"),
}


class TestNpz:
    def test_detected_by_suffix(self):
        assert detect_format("bfs.npz") == "npz"
        assert detect_format("/x/K6_LOOKALIKE.NPZ") == "npz"
        assert detect_format("upload", "npz") == "npz"

    def test_admit_round_trip(self, registry, tmp_path):
        path = tmp_path / "captured.npz"
        path.write_bytes(GOOD_NPZ)
        record = registry.admit(path)
        assert record.fmt == "npz"
        assert record.name == "captured"
        assert record.sha256 == hashlib.sha256(GOOD_NPZ).hexdigest()
        assert record.canonical == f"trace:captured#{record.sha256[:12]}"
        assert (record.n_accesses, record.n_writes,
                record.footprint_pages) == (6, 2, 4)
        _, pages, flags, cycles = registry.load("captured")
        # first-touch remap, exactly as for k6/mase addresses
        assert pages.tolist() == [0, 1, 0, 2, 1, 3]
        assert flags.tolist() == FLAGS.tolist()
        assert cycles.tolist() == list(range(6))

    def test_flags_optional(self):
        parsed = parse_bytes(_savez(page_indices=PAGES), "npz")
        assert not parsed.is_write.any()

    def test_unsigned_pages_accepted(self):
        parsed = parse_bytes(
            _savez(page_indices=PAGES.astype(np.uint32), is_write=FLAGS),
            "npz")
        assert parsed.page_indices.tolist() == [0, 1, 0, 2, 1, 3]
        assert parsed.is_write.tolist() == FLAGS.tolist()

    def test_parent_layout_ingests_and_runs(self, registry):
        record = registry.admit(_parent_layout_npz(), name="old",
                                fmt="npz")
        assert record.n_accesses == 6
        workload = resolve_workload("trace:old", registry)
        assert workload.dram_trace().page_indices.tolist() == \
            [0, 1, 0, 2, 1, 3]
        assert run_experiment(workload, policy="BW-AWARE").throughput > 0

    def test_access_cap(self):
        with pytest.raises(IngestError, match="access cap") as err:
            parse_bytes(GOOD_NPZ, "npz", limits=IngestLimits(max_lines=5))
        assert err.value.line == 6

    def test_page_cap_names_the_access(self):
        with pytest.raises(IngestError, match="distinct-page cap") as err:
            parse_bytes(GOOD_NPZ, "npz", limits=IngestLimits(max_pages=3))
        assert err.value.line == 6  # page 0 is the fourth distinct one

    def test_byte_cap(self):
        with pytest.raises(IngestError, match="byte cap"):
            parse_bytes(GOOD_NPZ, "npz",
                        limits=IngestLimits(max_bytes=100))

    def test_negative_page_names_the_access(self):
        with pytest.raises(IngestError) as err:
            parse_bytes(HOSTILE_NPZ["negative page"][0], "npz")
        assert err.value.line == 2

    @pytest.mark.parametrize("case", sorted(HOSTILE_NPZ))
    def test_hostile_npz_quarantined(self, registry, tmp_path, case):
        data, reason = HOSTILE_NPZ[case]
        path = tmp_path / "hostile.npz"
        path.write_bytes(data)
        with pytest.raises(IngestError, match=reason):
            registry.admit(path)
        assert registry.names() == []
        assert registry.record("hostile") is None
        assert registry.quarantined_count() == 1
        reasons = list(registry.quarantine_dir().glob("*.reason.json"))
        assert len(reasons) == 1
        assert reason in reasons[0].read_text()
