"""The experiment runner: placement + simulation end to end."""

import os
import subprocess
import sys

import pytest

from conftest import TEST_ACCESSES
from repro.core.errors import ConfigError, WorkloadError
from repro.core.experiment import (
    compare_policies,
    constrained_topology,
    run_experiment,
)
from repro.memory.topology import simulated_baseline
from repro.policies.bwaware import BwAwarePolicy
from repro.workloads import get_workload


def _run(workload="bfs", **kwargs):
    kwargs.setdefault("trace_accesses", TEST_ACCESSES)
    return run_experiment(workload, **kwargs)


class TestRunExperiment:
    def test_string_workload_and_policy(self):
        result = _run(policy="LOCAL")
        assert result.workload == "bfs"
        assert result.policy == "LOCAL"
        assert result.time_ns > 0

    def test_workload_object_accepted(self):
        result = _run(get_workload("lbm"), policy="LOCAL")
        assert result.workload == "lbm"

    def test_local_places_everything_locally(self):
        result = _run(policy="LOCAL")
        assert result.placement_fractions()[0] == pytest.approx(1.0)

    def test_interleave_places_half_half(self):
        result = _run(policy="INTERLEAVE")
        assert result.placement_fractions()[0] == pytest.approx(0.5,
                                                                abs=0.01)

    def test_bwaware_places_by_bandwidth(self):
        result = _run("lbm", policy="BW-AWARE")
        assert result.placement_fractions()[1] == pytest.approx(80 / 280,
                                                                abs=0.05)

    def test_policy_object_accepted(self):
        result = _run(policy=BwAwarePolicy.from_ratio(50))
        assert result.placement_fractions()[1] == pytest.approx(0.5,
                                                                abs=0.05)

    def test_capacity_constraint_caps_bo_pages(self):
        result = _run(policy="LOCAL", bo_capacity_fraction=0.25)
        assert result.placement_fractions()[0] == pytest.approx(0.25,
                                                                abs=0.01)

    def test_oracle_runs_two_phase(self):
        result = _run(policy="ORACLE", bo_capacity_fraction=0.1)
        assert result.placement_fractions()[0] <= 0.11

    def test_annotated_uses_profile_hints(self):
        result = _run(policy="ANNOTATED", bo_capacity_fraction=0.1)
        assert result.policy == "ANNOTATED"
        # BO completely used despite the tiny capacity.
        assert result.placement_fractions()[0] == pytest.approx(0.1,
                                                                abs=0.01)

    def test_training_dataset_cross_application(self):
        result = _run(policy="ANNOTATED", dataset="graph1M",
                      bo_capacity_fraction=0.1,
                      training_dataset="default")
        assert result.dataset == "graph1M"

    def test_describe_readable(self):
        text = _run(policy="LOCAL").describe()
        assert "bfs" in text and "LOCAL" in text

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError):
            _run("quake3")

    def test_detailed_engine_supported(self):
        result = _run(policy="LOCAL", engine="detailed")
        assert result.sim.engine == "detailed"


class TestConstrainedTopology:
    def test_none_is_identity(self, baseline):
        assert constrained_topology(baseline, 1000, None) is baseline

    def test_fraction_resizes_bo(self, baseline):
        topo = constrained_topology(baseline, 1000, 0.1)
        assert topo.local.capacity_pages == 100

    def test_minimum_one_page(self, baseline):
        topo = constrained_topology(baseline, 10, 0.001)
        assert topo.local.capacity_pages == 1

    def test_nonpositive_fraction_rejected(self, baseline):
        with pytest.raises(ConfigError):
            constrained_topology(baseline, 1000, 0.0)


class TestComparePolicies:
    def test_paper_ordering_unconstrained(self):
        results = compare_policies(
            "lbm", ("LOCAL", "INTERLEAVE", "BW-AWARE"),
            trace_accesses=TEST_ACCESSES,
        )
        assert (results["BW-AWARE"].throughput
                > results["LOCAL"].throughput
                > results["INTERLEAVE"].throughput)

    def test_sgemm_prefers_local(self):
        results = compare_policies(
            "sgemm", ("LOCAL", "BW-AWARE"),
            trace_accesses=TEST_ACCESSES,
        )
        assert results["LOCAL"].throughput > results["BW-AWARE"].throughput

    def test_comd_insensitive(self):
        results = compare_policies(
            "comd", ("LOCAL", "INTERLEAVE", "BW-AWARE"),
            trace_accesses=TEST_ACCESSES,
        )
        times = [r.time_ns for r in results.values()]
        assert max(times) / min(times) < 1.02

    def test_oracle_beats_bwaware_under_constraint(self):
        results = compare_policies(
            "xsbench", ("BW-AWARE", "ORACLE"),
            bo_capacity_fraction=0.1,
            trace_accesses=TEST_ACCESSES,
        )
        assert results["ORACLE"].throughput > results["BW-AWARE"].throughput


#: what a static ``repro run`` never executes: the sweep runner and its
#: cache, fault injection, the metrics registry, the ONLINE policy and
#: its migration stack, the numpy LRU fallback, and ANNOTATED's
#: profiling pass with the CUDA-shaped runtime it hints through.
DEFERRED = ("repro.runner", "repro.resilience", "repro.obs.metrics",
            "repro.migration", "repro.policies.online", "repro.gpu.lru",
            "repro.profiling.profiler", "repro.profiling.datastruct_map",
            "repro.runtime", "multiprocessing", "concurrent.futures")


def _loaded_after(code: str, watched, timeout: float = 60) -> list:
    """The ``watched`` modules (or any submodule of one) a fresh
    interpreter holds after running ``code``."""
    script = (f"import sys\n{code}\n"
              f"watched = {tuple(watched)!r}\n"
              "print(' '.join(sorted(w for w in watched if any("
              "m == w or m.startswith(w + '.') for m in sys.modules))))")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout,
                          check=True)
    return done.stdout.split()


class TestImportSurface:
    """Structural checks on what a cold run imports; no timings, which
    depend on the host."""

    def test_experiment_import_leaves_heavy_packages_unloaded(self):
        """``import repro.core.experiment`` is the cold path of every
        run; asyncio, serve, ingest and runner load on their own verbs
        only, and the native library on the first synthesis, filter or
        engine run."""
        assert _loaded_after(
            "import repro.core.experiment",
            ("asyncio", "repro.serve", "repro.ingest", "repro.runner",
             "repro.gpu._native")) == []

    def test_cli_import_defers_what_a_static_run_never_executes(self):
        assert _loaded_after("import repro.cli", DEFERRED) == []

    def test_static_runs_on_every_engine_stay_off_the_deferred_path(self):
        """A BW-AWARE run on each engine after ``import repro.cli`` —
        the cold ``repro run`` — loads none of them either, so the
        deferral did not just move their import into the run."""
        code = ("import repro.cli\n"
                "from repro.core.experiment import run_experiment\n"
                "for engine in ('throughput', 'detailed', 'banked'):\n"
                "    run_experiment('bfs', policy='BW-AWARE', "
                "engine=engine, trace_accesses=5000)\n"
                "from repro.gpu.service import kernel_path\n"
                "print(kernel_path())")
        # The first engine run may build the native library.
        loaded = _loaded_after(code, DEFERRED, timeout=120)
        # Without a compiler the numpy filter is the fallback that runs.
        path = loaded.pop(0)
        expected = ["repro.gpu.lru"] if path == "numpy" else []
        assert loaded == expected
