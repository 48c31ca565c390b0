"""Trace export and externally captured traces, through ``repro.ingest``.

``repro trace`` writes an ``npz`` trace with :func:`save_npz`; the
ingest registry admits it like any external trace (checksum, caps,
quarantine, ``trace:<name>#<sha12>``) and every policy, profiler and
experiment runs on the resulting workload unchanged.
"""

import numpy as np
import pytest

from repro.core.errors import IngestError, WorkloadError
from repro.core.experiment import run_experiment
from repro.gpu.trace import DramTrace
from repro.ingest import TraceRegistry, parse_file, resolve_workload, save_npz
from repro.workloads import get_workload


@pytest.fixture
def trace():
    rng = np.random.default_rng(0)
    return DramTrace(
        page_indices=rng.integers(0, 100, size=5000),
        footprint_pages=100,
        n_raw_accesses=8000,
        n_epochs=8,
    )


def first_touch(pages: np.ndarray) -> np.ndarray:
    """Dense page ids in order of first appearance (the ingest remap)."""
    seen: dict[int, int] = {}
    return np.array([seen.setdefault(p, len(seen)) for p in pages.tolist()])


def ingest(trace: DramTrace, tmp_path, name: str = "mine"):
    registry = TraceRegistry(tmp_path / "traces")
    record = registry.admit(save_npz(trace, tmp_path / f"{name}.npz"))
    return resolve_workload(record.canonical, registry)


class TestTraceIo:
    def test_round_trip(self, trace, tmp_path):
        parsed = parse_file(save_npz(trace, tmp_path / "t.npz"))
        assert np.array_equal(parsed.page_indices,
                              first_touch(trace.page_indices))
        assert parsed.footprint_pages == np.unique(trace.page_indices).size
        assert np.array_equal(parsed.cycles, np.arange(trace.n_accesses))

    def test_suffix_added(self, trace, tmp_path):
        path = save_npz(trace, tmp_path / "plain")
        assert path.suffix == ".npz"
        parse_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            parse_file(tmp_path / "nope.npz")

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.npz"
        np.savez(bad, something=np.arange(3))
        with pytest.raises(IngestError, match="unknown member"):
            parse_file(bad)

    def test_real_workload_trace_round_trips(self, tmp_path):
        original = get_workload("bfs").dram_trace(n_accesses=20_000)
        parsed = parse_file(save_npz(original, tmp_path / "bfs.npz"))
        assert np.array_equal(parsed.page_indices,
                              first_touch(original.page_indices))
        assert np.array_equal(parsed.is_write, original.is_write)


class TestExternalTraceWorkload:
    def test_default_single_heap_structure(self, trace, tmp_path):
        workload = ingest(trace, tmp_path)
        specs = workload.data_structures()
        assert len(specs) == 1
        assert workload.footprint_pages() == 100

    def test_dram_trace_is_verbatim(self, trace, tmp_path):
        replayed = ingest(trace, tmp_path).dram_trace()
        assert np.array_equal(replayed.page_indices,
                              first_touch(trace.page_indices))
        assert replayed.footprint_pages == 100

    def test_raw_trace_unavailable(self, trace, tmp_path):
        workload = ingest(trace, tmp_path)
        with pytest.raises(WorkloadError):
            workload.raw_line_trace()

    def test_from_file(self, trace, tmp_path):
        workload = ingest(trace, tmp_path, name="captured")
        assert workload.name.startswith("trace:captured#")

    def test_experiment_stack_runs_on_external_trace(self, trace,
                                                     tmp_path):
        workload = ingest(trace, tmp_path)
        local = run_experiment(workload, policy="LOCAL")
        bwaware = run_experiment(workload, policy="BW-AWARE")
        assert bwaware.throughput > local.throughput

    def test_oracle_runs_on_external_trace(self, trace, tmp_path):
        workload = ingest(trace, tmp_path)
        result = run_experiment(workload, policy="ORACLE",
                                bo_capacity_fraction=0.2)
        assert result.placement_fractions()[0] <= 0.21
