"""The `repro bench` perf harness: measure the vectorized hot paths.

Three benches, each timing the vectorized implementation next to the
per-access reference loop it replaced
(:mod:`repro.gpu._reference`), on the same inputs the real pipeline
produces (raw SM streams, post-cache traces, BW-AWARE zone maps):

* ``filter`` — :meth:`CacheHierarchy.filter_stream_indices` vs the
  OrderedDict replay (and asserts the miss-index streams are
  bit-identical while at it);
* ``detailed`` / ``banked`` — the engines' ``run`` vs the seed heap
  loops (asserting ``total_time_ns`` agrees to 1e-9 relative);
* ``cold_run`` — wall time of ``run_experiment("bfs",
  policy="BW-AWARE", engine="detailed")`` in a fresh interpreter, the
  end-to-end number a user feels.

The report's ``kernel`` field records whether the filter and the
engines ran the native kernels or their numpy fallbacks.

Every timing is a best-of-``repeats`` minimum: on a busy machine the
minimum is the estimate least polluted by scheduling noise.  Reports
serialize to ``BENCH_<rev>.json``; :func:`check_regression` compares
the *new*-side timings of two reports so CI can fail on real
slowdowns (the reference side only documents the speedup).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.core.experiment import resolve_policy
from repro.gpu._reference import (
    ReferenceCacheHierarchy,
    reference_banked_run,
    reference_detailed_run,
)
from repro.gpu.banked import BankedEngine
from repro.gpu.cache import CacheHierarchy
from repro.gpu.config import table1_config
from repro.gpu.engine import DetailedEngine
from repro.gpu.service import kernel_path
from repro.memory.topology import simulated_baseline
from repro.vm.process import Process
from repro.workloads import get_workload
from repro.workloads.base import (
    BASELINE_CHANNELS,
    DEFAULT_RAW_ACCESSES,
    FOOTPRINT_SCALE,
)

#: bench matrix: the Section 3 study workloads spanning the trace
#: regimes (graph, streaming, random, mixed) plus the one low-MLP
#: workload (sgemm, parallelism 20) that exercises the sequential
#: fallback of the batched kernel.
BENCH_WORKLOADS = ("bfs", "kmeans", "xsbench", "mummergpu", "sgemm")

#: quick (CI smoke) settings: one workload, short trace, one repeat.
QUICK_WORKLOADS = ("bfs",)
QUICK_RAW_ACCESSES = 60_000

SCHEMA_VERSION = 1


@dataclass
class BenchCase:
    """One timed comparison (vectorized vs reference)."""

    bench: str
    workload: str
    new_ms: float
    old_ms: Optional[float] = None
    speedup: Optional[float] = None
    match: Optional[bool] = None


@dataclass
class BenchReport:
    """A full harness run, serializable to ``BENCH_<rev>.json``."""

    rev: str
    created_unix: float
    quick: bool
    n_accesses: int
    repeats: int
    python: str
    numpy: str
    cases: list[BenchCase] = field(default_factory=list)
    summary: dict[str, float] = field(default_factory=dict)
    #: kernels the filter and engine benches ran: "native" or
    #: "numpy" (empty in reports that predate the native kernels).
    kernel: str = ""

    def to_json(self) -> str:
        payload = {"schema": SCHEMA_VERSION, **asdict(self)}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "BenchReport":
        payload = json.loads(text)
        payload.pop("schema", None)
        cases = [BenchCase(**case) for case in payload.pop("cases", [])]
        return cls(cases=cases, **payload)

    def case(self, bench: str, workload: str) -> Optional[BenchCase]:
        for case in self.cases:
            if case.bench == bench and case.workload == workload:
                return case
        return None


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:  # pragma: no cover - git missing
        pass
    return "unknown"


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall time of ``fn`` over ``repeats`` runs, in ms."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _geomean(values: list[float]) -> float:
    return float(np.exp(np.mean(np.log(values)))) if values else 0.0


def _bwaware_zone_map(workload, dataset, topology, seed):
    """The zone map ``run_experiment`` would hand the engine."""
    process = Process(topology, seed=seed)
    policy, hints = resolve_policy("BW-AWARE", workload, dataset, None,
                                   seed, topology, process)
    workload.reserve_in(process, dataset, hints=hints)
    return process.place_all(policy)


def _bench_filter(name: str, n_accesses: int, repeats: int,
                  seed: int) -> BenchCase:
    workload = get_workload(name)
    raw = workload.raw_line_trace("default", n_accesses=n_accesses,
                                  seed=seed)
    config = table1_config().scaled_caches(FOOTPRINT_SCALE)

    result: dict[str, np.ndarray] = {}

    def run_new() -> None:
        hierarchy = CacheHierarchy(config, BASELINE_CHANNELS)
        result["new"] = hierarchy.filter_stream_indices(raw)

    def run_old() -> None:
        hierarchy = ReferenceCacheHierarchy(config, BASELINE_CHANNELS)
        result["old"] = hierarchy.filter_stream_indices(raw)

    new_ms = _best_of(run_new, repeats)
    old_ms = _best_of(run_old, repeats)
    return BenchCase(
        bench="filter", workload=name, new_ms=new_ms, old_ms=old_ms,
        speedup=old_ms / new_ms,
        match=bool(np.array_equal(result["new"], result["old"])),
    )


def _bench_engine(engine_name: str, name: str, n_accesses: int,
                  repeats: int, seed: int) -> BenchCase:
    workload = get_workload(name)
    topology = simulated_baseline()
    config = table1_config()
    trace = workload.dram_trace("default", n_accesses=n_accesses,
                                seed=seed)
    chars = workload.characteristics("default")
    zone_map = _bwaware_zone_map(workload, "default", topology, seed)

    if engine_name == "detailed":
        engine = DetailedEngine(config)
        reference = reference_detailed_run
    else:
        engine = BankedEngine(config)
        reference = reference_banked_run

    result: dict[str, float] = {}

    def run_new() -> None:
        result["new"] = engine.run(trace, zone_map, topology,
                                   chars).total_time_ns

    def run_old() -> None:
        result["old"] = reference(config, trace, zone_map, topology,
                                  chars).total_time_ns

    new_ms = _best_of(run_new, repeats)
    old_ms = _best_of(run_old, repeats)
    relative = (abs(result["new"] - result["old"])
                / max(abs(result["old"]), 1e-300))
    return BenchCase(
        bench=engine_name, workload=name, new_ms=new_ms, old_ms=old_ms,
        speedup=old_ms / new_ms, match=bool(relative <= 1e-9),
    )


#: runner_overhead timings below this floor are reported as the floor:
#: sub-half-millisecond per-chunk numbers on a shared box are scheduler
#: noise, and gating a 3x regression ratio on noise causes flaky CI.
OVERHEAD_FLOOR_MS = 0.5


def _bench_runner_overhead(n_accesses: int, repeats: int,
                           seed: int) -> BenchCase:
    """Per-chunk orchestration overhead of the sweep runner.

    Times a 12-point BW-AWARE ratio sweep (one shared ``bfs`` trace)
    through the parallel runner twice — legacy pickle transport
    (``shm=False``) vs the zero-copy substrate (``shm=True``) — then
    subtracts the pure compute (every spec executed in-process with
    all trace memos warm, identical work in both modes) and divides by
    the chunk count.  What remains is exactly what the substrate
    targets: submit/decode framing, result IPC, and per-worker trace
    re-synthesis.

    Fairness protocol: each timed repeat clears the parent trace memo,
    then runs a small warm-up sweep (a *different* trace key) so all
    workers are forked **before** the bench trace exists anywhere —
    otherwise fork copy-on-write hands workers the parent's memo and
    the legacy mode never pays the re-synthesis it pays in real
    daemon-style use.  ``match`` asserts both modes returned results
    bit-identical to a serial run.
    """
    from repro.runner import (
        SweepRunner,
        bw_ratio_policy,
        encode_result,
        execute_spec,
        make_spec,
    )
    from repro.runner.sweep import partition_misses
    from repro.workloads.base import clear_trace_cache

    # Pool forking + process scheduling make this the noisiest bench
    # in the harness, and the legacy mode is bimodal: the executor's
    # shared call queue lets one fast worker steal several chunks, so
    # its best case pays fewer per-worker re-syntheses than its
    # typical case.  A best-of minimum would compare legacy's lucky
    # mode against shm's steady state — use the median of ≥5 samples
    # for both modes instead.
    repeats = max(repeats, 5)
    jobs = 4
    specs = [make_spec("bfs", bw_ratio_policy(co),
                       trace_accesses=n_accesses, seed=seed)
             for co in range(5, 65, 5)]
    warmup = [make_spec("bfs", bw_ratio_policy(co),
                        trace_accesses=max(2_000, n_accesses // 16),
                        seed=seed + 1)
              for co in (10, 20, 30, 40)]
    n_chunks = len(partition_misses(specs, jobs))

    golden = [encode_result(r)
              for r in SweepRunner(jobs=1, cache=False).run(specs)]

    def measure(shm: bool) -> tuple[float, list]:
        samples, encoded = [], []
        for _ in range(max(1, repeats)):
            clear_trace_cache()
            runner = SweepRunner(jobs=jobs, cache=False, shm=shm)
            try:
                runner.run(warmup)
                t0 = time.perf_counter()
                outcome = runner.run(specs)
                samples.append(time.perf_counter() - t0)
            finally:
                runner.close()
            encoded = [encode_result(r) for r in outcome]
        return float(np.median(samples)) * 1e3, encoded

    legacy_ms, legacy_enc = measure(shm=False)
    shm_ms, shm_enc = measure(shm=True)

    def pure_run() -> None:
        for spec in specs:
            execute_spec(spec)

    clear_trace_cache()
    pure_run()  # synthesize once; timed loops below hit warm memos
    pure_ms = _best_of(pure_run, repeats)

    old_ms = max((legacy_ms - pure_ms) / n_chunks, OVERHEAD_FLOOR_MS)
    new_ms = max((shm_ms - pure_ms) / n_chunks, OVERHEAD_FLOOR_MS)
    return BenchCase(
        bench="runner_overhead", workload="bfs",
        new_ms=new_ms, old_ms=old_ms, speedup=old_ms / new_ms,
        match=bool(golden == legacy_enc == shm_enc),
    )


def _bench_cold_run(repeats: int) -> BenchCase:
    """End-to-end ``run_experiment`` in a fresh interpreter: every
    trace/result memo is cold, so trace synthesis, cache filtering,
    placement and the engine all run for real.  The subprocess
    self-times the experiment only — interpreter startup and module
    imports are constant overhead that no amount of simulation work
    can amortize, so they stay out of the measurement."""
    code = (
        "from repro.core.experiment import run_experiment\n"
        "import time; t0 = time.perf_counter()\n"
        "run_experiment('bfs', policy='BW-AWARE', engine='detailed')\n"
        "print((time.perf_counter() - t0) * 1e3)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    best = float("inf")
    for _ in range(max(1, repeats)):
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=env,
                             timeout=600)
        if out.returncode != 0:  # pragma: no cover - child crash
            raise RuntimeError(f"cold run failed: {out.stderr}")
        best = min(best, float(out.stdout.strip().splitlines()[-1]))
    return BenchCase(bench="cold_run", workload="bfs", new_ms=best)


def run_bench(quick: bool = False, repeats: Optional[int] = None,
              n_accesses: Optional[int] = None, seed: int = 0,
              workloads: Optional[tuple[str, ...]] = None,
              skip_cold: bool = False, skip_runner: bool = False,
              progress: Optional[Callable[[str], None]] = None
              ) -> BenchReport:
    """Run the full harness and return the report."""
    if workloads is None:
        workloads = QUICK_WORKLOADS if quick else BENCH_WORKLOADS
    if repeats is None:
        repeats = 1 if quick else 3
    if n_accesses is None:
        n_accesses = QUICK_RAW_ACCESSES if quick else DEFAULT_RAW_ACCESSES

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    report = BenchReport(
        rev=_git_rev(), created_unix=time.time(), quick=quick,
        n_accesses=n_accesses, repeats=repeats,
        python=sys.version.split()[0], numpy=np.__version__,
        kernel=kernel_path(),
    )
    for name in workloads:
        note(f"filter   {name}")
        report.cases.append(_bench_filter(name, n_accesses, repeats,
                                          seed))
        for engine_name in ("detailed", "banked"):
            note(f"{engine_name:8s} {name}")
            report.cases.append(_bench_engine(engine_name, name,
                                              n_accesses, repeats,
                                              seed))
    if not skip_runner:
        note("runner_overhead bfs")
        report.cases.append(_bench_runner_overhead(n_accesses, repeats,
                                                   seed))
    if not skip_cold:
        note("cold_run bfs")
        report.cases.append(_bench_cold_run(repeats))

    for bench in ("filter", "detailed", "banked"):
        speedups = [case.speedup for case in report.cases
                    if case.bench == bench and case.speedup]
        if speedups:
            report.summary[f"{bench}_speedup_geomean"] = _geomean(
                speedups)
    cold = report.case("cold_run", "bfs")
    if cold is not None:
        report.summary["cold_run_ms"] = cold.new_ms
    overhead = report.case("runner_overhead", "bfs")
    if overhead is not None:
        report.summary["runner_overhead_ms_per_chunk"] = overhead.new_ms
        if overhead.speedup:
            report.summary["runner_overhead_speedup"] = overhead.speedup
    report.summary["all_match"] = float(all(
        case.match for case in report.cases if case.match is not None
    ))
    return report


def check_regression(current: BenchReport, baseline: BenchReport,
                     max_ratio: float = 3.0) -> list[str]:
    """New-side slowdowns of ``current`` vs ``baseline`` beyond
    ``max_ratio``; empty means pass.  Only cases present in both
    reports are compared, so shrinking or growing the matrix never
    trips the check by itself.
    """
    failures = []
    for case in current.cases:
        base = baseline.case(case.bench, case.workload)
        if base is None or base.new_ms <= 0:
            continue
        ratio = case.new_ms / base.new_ms
        if ratio > max_ratio:
            failures.append(
                f"{case.bench}/{case.workload}: {case.new_ms:.1f} ms "
                f"vs baseline {base.new_ms:.1f} ms "
                f"({ratio:.2f}x > {max_ratio:.2f}x)"
            )
    for case in current.cases:
        if case.match is False:
            failures.append(
                f"{case.bench}/{case.workload}: vectorized result "
                "diverged from the reference"
            )
    return failures
