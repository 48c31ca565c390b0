"""The `repro bench` perf harness: report schema and regression gate.

Timings here use tiny traces — the point is that the harness runs,
produces a well-formed report whose vectorized results *match* the
reference, and that the regression check trips on the right things.
Real measurements live in the committed ``BENCH_*.json`` files.
"""

import json

import pytest

from repro.perf.bench import (
    BenchCase,
    BenchReport,
    check_regression,
    run_bench,
)

N_RAW = 4_000


@pytest.fixture(scope="module")
def tiny_report():
    # skip_runner: the runner-overhead case times whole multi-process
    # sweeps (median of >=5 per mode) — exercised by the quick bench in
    # CI and by tests/test_runner_shm.py, far too heavy for a unit
    # fixture.
    return run_bench(quick=True, repeats=1, n_accesses=N_RAW,
                     workloads=("bfs",), skip_cold=True,
                     skip_runner=True)


class TestRunBench:
    def test_cases_cover_the_matrix(self, tiny_report):
        benches = {(case.bench, case.workload)
                   for case in tiny_report.cases}
        assert benches == {("filter", "bfs"), ("detailed", "bfs"),
                           ("banked", "bfs")}

    def test_vectorized_matches_reference(self, tiny_report):
        assert all(case.match for case in tiny_report.cases)
        assert tiny_report.summary["all_match"] == 1.0

    def test_timings_and_speedups_recorded(self, tiny_report):
        for case in tiny_report.cases:
            assert case.new_ms > 0
            assert case.old_ms > 0
            assert case.speedup == pytest.approx(
                case.old_ms / case.new_ms)
        for key in ("filter_speedup_geomean", "detailed_speedup_geomean",
                    "banked_speedup_geomean"):
            assert tiny_report.summary[key] > 0

    def test_json_round_trip(self, tiny_report):
        text = tiny_report.to_json()
        payload = json.loads(text)
        assert payload["schema"] == 1
        rebuilt = BenchReport.from_json(text)
        assert rebuilt.to_json() == text
        assert rebuilt.case("filter", "bfs").new_ms == pytest.approx(
            tiny_report.case("filter", "bfs").new_ms)

    def test_records_kernel_path(self, tiny_report):
        from repro.gpu.service import kernel_path

        assert tiny_report.kernel == kernel_path()
        assert json.loads(tiny_report.to_json())["kernel"] in (
            "native", "numpy")


class TestCheckRegression:
    def _report(self, new_ms, match=True):
        return BenchReport(
            rev="r", created_unix=0.0, quick=True, n_accesses=1,
            repeats=1, python="3", numpy="2",
            cases=[BenchCase(bench="filter", workload="bfs",
                             new_ms=new_ms, old_ms=10 * new_ms,
                             speedup=10.0, match=match)],
        )

    def test_within_threshold_passes(self):
        failures = check_regression(self._report(new_ms=25.0),
                                    self._report(new_ms=10.0),
                                    max_ratio=3.0)
        assert failures == []

    def test_slowdown_beyond_threshold_fails(self):
        failures = check_regression(self._report(new_ms=45.0),
                                    self._report(new_ms=10.0),
                                    max_ratio=3.0)
        assert len(failures) == 1
        assert "filter/bfs" in failures[0]

    def test_unmatched_cases_are_ignored(self):
        current = self._report(new_ms=500.0)
        current.cases[0].bench = "detailed"
        failures = check_regression(current, self._report(new_ms=1.0))
        assert failures == []

    def test_result_divergence_fails_regardless_of_speed(self):
        failures = check_regression(self._report(new_ms=1.0,
                                                 match=False),
                                    self._report(new_ms=1.0))
        assert any("diverged" in failure for failure in failures)
