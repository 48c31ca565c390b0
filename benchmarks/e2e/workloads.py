"""The four end-to-end workloads, each run in a fresh interpreter.

``run.py`` starts this script once per workload run and reads the JSON
object it prints last: the end-to-end metrics, diagnostics, operation
counts, and one digest per operation label (``run.py`` checks those
against ``digests.json``).  Every input is generated from ``--seed``;
the program sees only the specs that seed produces.  Every timed
operation is normalized by the host-speed factor measured next to it
(see ``speed.py``); the measured values are reported as ``raw.*``
diagnostics.

Usage (``PYTHONPATH`` must name the repo's ``src``)::

    python3 workloads.py --workload cold_cli --seed 0 --seconds 20 \
        --work DIR [--traced] [--freeze]

``--freeze`` runs every operation of the workload's script exactly once
(no timing) so ``run.py --freeze`` can record all digests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional

from speed import SpeedIndex, factor_of

HERE = Path(__file__).resolve().parent

#: the eight cold-CLI cases: (workload, engine), at BW-AWARE.  Round r
#: of the cases runs at sub-seed ``seed * COLD_ROUNDS + r % COLD_ROUNDS``
#: so a run's per-case medians average over several traces, not one.
COLD_CASES = (
    ("bfs", "detailed"), ("xsbench", "banked"), ("sgemm", "throughput"),
    ("lbm", "detailed"), ("kmeans", "banked"),
    ("mummergpu", "throughput"), ("stencil", "detailed"),
    ("spmv", "throughput"),
)
COLD_ACCESSES = 240_000
COLD_ROUNDS = 4

#: figure grids are built at the experiment-suite trace length.
SWEEP_ACCESSES = 120_000
SWEEP_JOBS = 2
#: warm re-runs of the three grids against the filled cache.
SWEEP_WARM_RUNS = 20
#: seconds between background speed samples while a cold grid runs in
#: the workers.  Each sample takes about 4 ms of one core, so the
#: sampler slows the sweep by a few percent, the same on every commit.
#: Over ten runs on a busy host the cold-pass spread was 5% with it and
#: 15% with samples taken only between grids.
SWEEP_SAMPLE_EVERY_S = 0.1

#: serve: simulate workloads and trace length of the job script, which
#: runs every job once cold (about half of a 20 s window on the
#: baseline host) and then replays them warm until the window ends.
SERVE_SIM_WORKLOADS = ("bfs", "xsbench", "kmeans", "lbm")
SERVE_ACCESSES = 60_000
SERVE_JOBS = 160
SERVE_PLACEMENTS = 16
#: warm jobs the job loop completes even when the window is short.
SERVE_MIN_WARM = 20
#: seconds between speed samples taken by the job loop.
SERVE_SAMPLE_EVERY_S = 0.5

#: dynamic: 8 ONLINE runs and 6 autotune calls per pass.  After a
#: warm-up pass (set-up: it also pays one-time lazy imports) the window
#: is split into ``DYNAMIC_BLOCKS`` phases; phase b runs call i at
#: sub-seed ``seed * 1000 + 20 * b + i``, first as a cold pass from
#: cleared trace memos, then as warm passes until its share of the
#: window ends.  The cost of these calls varies by 12% from one seed to
#: the next, so a run averages over 8 x 14 traces.
DYNAMIC_ONLINE = tuple(
    (workload, policy, engine)
    for workload in ("phase_shift", "sliding_window")
    for policy in ("ONLINE", "ONLINE@cost=0.1")
    for engine in ("throughput", "detailed"))
DYNAMIC_TUNE = tuple(
    (workload, topology)
    for workload in ("phase_shift", "sliding_window", "bfs")
    for topology in ("chiplet-2", "chiplet-4"))
DYNAMIC_BLOCKS = 8

#: repeated set-ups per run (import probes, daemon launches), of which
#: ``setup_s`` reports the median.
SETUP_REPEATS = 5


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------


class Outcome:
    """Operation counts and per-label digests of one workload run.

    Thread-safe: the serve workload records from two client threads.
    A label whose digest changes within the run is a failed operation.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self._lock = threading.Lock()

    def attempt(self, n: int = 1) -> None:
        with self._lock:
            self.attempted += n

    def fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(message)

    def record(self, label: str, digest: str) -> None:
        with self._lock:
            first = self.digests.setdefault(label, digest)
        if first != digest:
            self.fail(f"{label}: output changed within the run")


class Timings:
    """Operation times in seconds, each with the speed factor measured
    next to it.  Appends are atomic, so two threads may share one."""

    def __init__(self) -> None:
        self.pairs: list[tuple[float, float]] = []

    def add(self, seconds: float, factor: float) -> None:
        self.pairs.append((seconds, factor))

    def raw(self) -> list[float]:
        return [seconds for seconds, _ in self.pairs]

    def norm(self) -> list[float]:
        return [seconds / factor for seconds, factor in self.pairs]

    def medians(self) -> tuple[float, float]:
        """(normalized median, raw median)."""
        return median(self.norm()), median(self.raw())

    def means(self) -> tuple[float, float]:
        """(normalized mean, raw mean)."""
        return statistics.fmean(self.norm()), statistics.fmean(self.raw())

    def __len__(self) -> int:
        return len(self.pairs)


def median(values) -> float:
    return float(statistics.median(values))


def group_mean(groups: dict, center=Timings.medians) -> tuple[float, float]:
    """(normalized, raw) mean of per-group centers, weighted by group
    size.  A plain median of a mix of unlike operations jumps between
    their modes; this moves smoothly with each kind."""
    total = sum(len(times) for times in groups.values())
    norm = raw = 0.0
    for times in groups.values():
        if times:
            group_norm, group_raw = center(times)
            norm += group_norm * len(times) / total
            raw += group_raw * len(times) / total
    return norm, raw


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1])."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


def summary(setup_s, cold_s, warm_s, rss_mib: float,
            speed: SpeedIndex) -> dict:
    """The end-to-end metrics from (normalized, raw) pairs of seconds;
    raw values go to the diagnostics."""
    return {
        "metrics": {
            "setup_s": setup_s[0],
            "peak_rss_mib": rss_mib,
            "cold_ms": cold_s[0] * 1e3,
            "warm_ms": warm_s[0] * 1e3,
        },
        "diagnostics": {
            "raw.setup_s": [setup_s[1], "s"],
            "raw.cold_ms": [cold_s[1] * 1e3, "ms"],
            "raw.warm_ms": [warm_s[1] * 1e3, "ms"],
            "speed_factor": [speed.factor(), "x"],
            "speed_samples": [len(speed.samples_ms), "count"],
        },
    }


def digest(payload) -> str:
    from repro.runner.cache import result_digest

    return result_digest(payload)


def child_env() -> dict:
    """Environment for children: the caller's, minus ``REPRO_*`` knobs
    (every run uses the program's defaults)."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("REPRO_")}


def import_time(modules: str, speed: SpeedIndex) -> tuple[float, float]:
    """(normalized, raw) median seconds a fresh interpreter takes to
    import ``modules``, each normalized by samples the probe takes right
    after its import."""
    code = ("import time\n"
            "began = time.perf_counter()\n"
            f"import {modules}\n"
            "import_s = time.perf_counter() - began\n"
            "import json, sys\n"
            f"sys.path.insert(0, {str(HERE)!r})\n"
            "from speed import child_samples_ms\n"
            "print(json.dumps([import_s, child_samples_ms()]))\n")
    times = Timings()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code],
                             env=child_env(), capture_output=True,
                             text=True, timeout=60, check=True)
        import_s, speed_ms = json.loads(out.stdout.strip().splitlines()[-1])
        speed.samples_ms.extend(speed_ms)
        times.add(import_s, factor_of(speed_ms))
    return times.medians()


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set of a live process, MiB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def child_pids() -> list[int]:
    pids: list[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend(int(p) for p in
                        (task / "children").read_text().split())
        except OSError:
            continue
    return pids


def write_trace(path: Path, events: list) -> None:
    """Chrome trace-event JSON, loadable in Perfetto."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                  handle)


# ----------------------------------------------------------------------
# cold_cli
# ----------------------------------------------------------------------


def cold_cli(args, out: Outcome, speed: SpeedIndex) -> dict:
    cases = {case: [] for case in COLD_CASES}
    events: list = []
    start = time.perf_counter()
    round_ = 0
    # Whole rounds only, so every case has the same number of samples.
    while not round_ or (round_ < COLD_ROUNDS if args.freeze else
                         time.perf_counter() - start < args.seconds):
        sub_round = round_ % COLD_ROUNDS
        for workload, engine in COLD_CASES:
            label = f"cold_cli/{workload}/{engine}/{sub_round}"
            trace_file = args.work / f"cold-{workload}-{round_}.json"
            command = [sys.executable, str(HERE / "cold_child.py"),
                       "--workload", workload, "--engine", engine,
                       "--seed", str(args.seed * COLD_ROUNDS + sub_round),
                       "--accesses", str(COLD_ACCESSES)]
            if args.traced:
                command += ["--trace-file", str(trace_file)]
            out.attempt(2)
            try:
                done = subprocess.run(command, env=child_env(),
                                      capture_output=True, text=True,
                                      timeout=120, check=True)
                sample = json.loads(done.stdout.strip().splitlines()[-1])
            except (subprocess.SubprocessError, ValueError,
                    IndexError) as exc:
                out.fail(f"{label}: {type(exc).__name__}: {exc}")
                continue
            speed.samples_ms.extend(sample["speed_ms"])
            sample["factor"] = factor_of(sample["speed_ms"])
            cases[(workload, engine)].append(sample)
            out.record(label, sample["cold_digest"])
            out.record(label, sample["warm_digest"])
            if args.traced:
                events.extend(json.loads(trace_file.read_text()))
        round_ += 1
    wall = time.perf_counter() - start

    samples = [s for runs in cases.values() for s in runs]
    imports = Timings()
    for s in samples:
        imports.add(s["import_s"], s["factor"])

    def case_mean(key: str) -> tuple[float, float]:
        # Rounds run different sub-seeds, and some cases' cost is
        # bimodal across traces (bfs/detailed: 60 or 110 ms warm), so
        # each case is averaged, not its median taken.
        groups = {case: Timings() for case in cases}
        for case, runs in cases.items():
            for s in runs:
                groups[case].add(s[key], s["factor"])
        return group_mean(groups, Timings.means)

    result = summary(imports.medians(), case_mean("cold_s"),
                     case_mean("warm_s"),
                     median([s["rss_mib"] for s in samples]), speed)
    result["diagnostics"].update({
        "samples": [len(samples), "count"],
        "raw.samples_per_s": [len(samples) / wall, "1/s"],
        "raw.cold_run_p90_ms": [
            quantile([s["cold_s"] for s in samples], 0.9) * 1e3, "ms"],
        **{f"raw.cold_ms.{w}/{e}": [
            median([s["cold_s"] for s in runs]) * 1e3, "ms"]
           for (w, e), runs in cases.items() if runs},
    })
    if args.traced:
        from layers import ledger

        traced_wall = sum(s["import_s"] + s["cold_s"] + s["warm_s"]
                          for s in samples) * 1e3
        result["layers"], result["fired"] = ledger(
            events, traced_wall,
            import_ms=sum(s["import_s"] for s in samples) * 1e3)
        result["layers"]["import.ms"] = imports.medians()[1] * 1e3
        result["events"] = events
    return result


# ----------------------------------------------------------------------
# figure_sweep
# ----------------------------------------------------------------------


def sweep_grids(seed: int) -> list[tuple[str, list]]:
    """The fig03, fig04 and fig08 spec grids, built for ``seed``."""
    from repro.experiments import fig03_ratio_sweep as fig03
    from repro.experiments import fig04_capacity as fig04
    from repro.experiments import fig08_oracle as fig08
    from repro.runner import bw_ratio_policy, make_spec
    from repro.workloads import workload_names

    def spec(workload, policy, capacity=None):
        return make_spec(workload, policy, bo_capacity_fraction=capacity,
                         trace_accesses=SWEEP_ACCESSES, seed=seed)

    names = workload_names()
    g03 = [spec(w, bw_ratio_policy(float(r)))
           for w in names for r in fig03.DEFAULT_RATIOS]
    g04 = [one for w in names for one in
           [spec(w, "BW-AWARE")]
           + [spec(w, "BW-AWARE", f) for f in fig04.DEFAULT_FRACTIONS]]
    g08 = [one for w in names for one in
           (spec(w, "BW-AWARE"), spec(w, "ORACLE"),
            spec(w, "BW-AWARE", fig08.DEFAULT_CAPACITY_FRACTION),
            spec(w, "ORACLE", fig08.DEFAULT_CAPACITY_FRACTION))]
    return [("fig03", g03), ("fig04", g04), ("fig08", g08)]


def record_rows(out: Outcome, name: str, specs, results) -> None:
    """One digest per (figure, workload) row, over its results in order."""
    from repro.runner.cache import encode_result

    rows: dict[str, list[str]] = {}
    for spec, result in zip(specs, results):
        rows.setdefault(spec.workload, []).append(
            digest(encode_result(result)))
    for workload, digests in rows.items():
        out.record(f"figure_sweep/{name}/{workload}", digest(digests))


def figure_sweep(args, out: Outcome, speed: SpeedIndex) -> dict:
    modules = ("repro.runner, repro.experiments.fig03_ratio_sweep, "
               "repro.experiments.fig04_capacity, "
               "repro.experiments.fig08_oracle")
    imports = import_time(modules, speed)

    from repro.runner import ResultCache, SweepRunner
    from repro.workloads.base import clear_trace_cache

    grids = sweep_grids(args.seed)
    n_specs = sum(len(specs) for _, specs in grids)
    # Untimed warm-up: fig08 through a throwaway runner and cache pays
    # the one-time costs (lazy imports, first page faults) the first
    # cold pass would otherwise carry.  A single run of it varied by a
    # third from run to run, too much for set-up time.
    warmup = SweepRunner(jobs=SWEEP_JOBS, shm=True,
                         cache=ResultCache(args.work / "sweep-warmup"))
    try:
        warmup.run(grids[-1][1])
    finally:
        warmup.close()
    clear_trace_cache()
    if args.traced:
        import layers

        tracer = layers.install()
    start = time.perf_counter()
    warm_budget = SWEEP_WARM_RUNS * 0.1
    passes: list[float] = []
    cold = {name: Timings() for name, _ in grids}
    warm, rss = Timings(), [0.0]
    runner = None

    def peak_rss() -> None:
        rss[0] = max([rss[0], vm_hwm_mib(os.getpid())]
                     + [vm_hwm_mib(pid) for pid in child_pids()])

    try:
        while True:
            clear_trace_cache()
            runner = SweepRunner(
                jobs=SWEEP_JOBS, shm=True,
                cache=ResultCache(args.work / f"sweep-cache-{len(passes)}"))
            outcomes = []
            for name, specs in grids:
                with speed.concurrent(SWEEP_SAMPLE_EVERY_S) as window:
                    began = time.perf_counter()
                    outcomes.append(runner.run(specs))
                    spent = time.perf_counter() - began
                cold[name].add(spent, window.factor())
            passes.append(sum(times.raw()[-1] for times in cold.values()))
            out.attempt(n_specs)
            for (name, specs), outcome in zip(grids, outcomes):
                record_rows(out, name, specs, outcome.results)
            peak_rss()
            left = args.seconds - (time.perf_counter() - start)
            if args.freeze or left < median(passes) + warm_budget:
                break
            runner.close()
        while len(warm) < (1 if args.freeze else SWEEP_WARM_RUNS) or (
                not args.freeze
                and time.perf_counter() - start < args.seconds):
            began = time.perf_counter()
            outcomes = [runner.run(specs) for _, specs in grids]
            warm.add(time.perf_counter() - began, speed.sample())
            out.attempt(n_specs)
            for (name, specs), outcome in zip(grids, outcomes):
                if outcome.manifest.executed:
                    out.fail(f"figure_sweep/{name}: warm re-run executed "
                             f"{outcome.manifest.executed} spec(s)")
                record_rows(out, name, specs, outcome.results)
        peak_rss()
    finally:
        if runner is not None:
            runner.close()

    # A cold pass is the sum of the three grids' means: a run holds only
    # two to four passes, too few for a median.
    cold_s = tuple(sum(pair) for pair in
                   zip(*(times.means() for times in cold.values())))
    result = summary(imports, cold_s, warm.medians(), rss[0], speed)
    result["diagnostics"].update({
        "cold_passes": [len(passes), "count"],
        "warm_runs": [len(warm), "count"],
        "specs_per_pass": [n_specs, "count"],
        **{f"raw.{name}_ms": [times.means()[1] * 1e3, "ms"]
           for name, times in cold.items()},
    })
    if args.traced:
        from layers import ledger

        events = tracer.events
        result["layers"], result["fired"] = ledger(
            events, (sum(passes) + sum(warm.raw())) * 1e3,
            main_pids={os.getpid()})
        result["layers"]["import.ms"] = imports[1] * 1e3
        result["events"] = events
    return result


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------


def placement_payloads(seed: int) -> list[dict]:
    """Placement requests: 3-8 structures with skewed hotness and a BO
    pool that holds about half the footprint."""
    import numpy as np

    rng = np.random.default_rng(seed)
    payloads = []
    for _ in range(SERVE_PLACEMENTS):
        n = int(rng.integers(3, 9))
        sizes = [int(p) * 4096 for p in rng.integers(1, 64, size=n)]
        hotness = [round(float(h), 3)
                   for h in rng.pareto(1.5, size=n) + 0.1]
        payloads.append({"sizes": sizes, "hotness": hotness,
                         "bo_capacity_bytes": sum(sizes) // 2})
    return payloads


def job_script(seed: int) -> list[tuple[str, str, dict]]:
    """Distinct jobs; of every 10, 8 simulate, 1 profile, 1 autotune."""
    jobs = []
    for i in range(SERVE_JOBS):
        job_seed = seed * 1000 + i
        workload = SERVE_SIM_WORKLOADS[i % 4]
        slot = i % 10
        if slot < 8:
            kind, call = "simulate", {"workload": workload,
                                      "trace_accesses": SERVE_ACCESSES,
                                      "seed": job_seed}
        elif slot == 8:
            workload = SERVE_SIM_WORKLOADS[(i // 10) % 4]
            kind, call = "profile", {"workload": workload,
                                     "accesses": SERVE_ACCESSES,
                                     "seed": job_seed}
        else:
            workload = SERVE_SIM_WORKLOADS[(i // 10) % 4]
            kind, call = "autotune", {"workload": workload,
                                      "topology": "chiplet-2",
                                      "n_accesses": SERVE_ACCESSES,
                                      "seed": job_seed}
        jobs.append((f"serve/{kind}/{i:03d}/{workload}", kind, call))
    return jobs


def job_output(kind: str, response: dict) -> tuple[dict, bool]:
    """(the part of a job response that is its result, was it warm)."""
    if kind == "simulate":
        return response["result"], bool(response["cache_hit"])
    if kind == "profile":
        return ({k: v for k, v in response.items() if k != "cached"},
                bool(response["cached"]))
    profile = response["profile"]
    keys = ("static_fractions", "tuned_fractions", "closed_form_fractions",
            "static_time_ns", "tuned_time_ns")
    return {k: profile[k] for k in keys}, bool(response["cached"])


class Daemon:
    """One ``repro serve`` started through ``serve_launcher.py``."""

    def __init__(self, cache_dir: Path, log: Path,
                 trace_file: Optional[Path] = None) -> None:
        command = [sys.executable, str(HERE / "serve_launcher.py"),
                   "--cache-dir", str(cache_dir)]
        if trace_file is not None:
            command += ["--trace-file", str(trace_file)]
        from repro.serve.client import ServeClient

        self._log = open(log, "ab")
        began = time.perf_counter()
        self.proc = subprocess.Popen(command, env=child_env(),
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        try:
            self.url = self._ready_url(timeout_s=60.0)
            ServeClient(self.url, timeout_s=10.0).wait_until_ready(
                timeout_s=30.0, interval_s=0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - began

    def _ready_url(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        buffered = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                match = re.search(rb"listening on (http://[\d.]+:\d+)",
                                  buffered)
                if match:
                    return match.group(1).decode()
        raise RuntimeError("daemon did not report its address")

    def stop(self) -> Optional[float]:
        """Stop the daemon; returns the speed factor of the samples the
        launcher took after it (None if it printed none)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        lines = self.proc.stdout.read().decode(errors="replace")
        self.proc.stdout.close()
        self._log.close()
        for line in lines.splitlines():
            if line.startswith('{"speed_ms"'):
                return factor_of(json.loads(line)["speed_ms"])
        return None


def serve_mixed(args, out: Outcome, speed: SpeedIndex) -> dict:
    from repro.core.errors import ServeError
    from repro.serve.client import ServeClient

    log = args.work / "serve.log"
    # Set-up is timed on throwaway launches, each normalized by the
    # samples its launcher takes right after the daemon stops.
    setups = Timings()
    for i in range(SETUP_REPEATS):
        daemon = Daemon(args.work / f"serve-cache-{i}", log)
        factor = daemon.stop()
        if factor is None:
            raise RuntimeError("serve launcher printed no speed samples")
        setups.add(daemon.setup_s, factor)
    trace_file = args.work / "serve-trace.json" if args.traced else None
    if args.traced:
        from repro.obs import trace as obs_trace

        client_tracer = obs_trace.install()
    daemon = Daemon(args.work / "serve-cache", log, trace_file)

    payloads = placement_payloads(args.seed)
    script = job_script(args.seed)
    stop = threading.Event()
    cold_inflight = [False]
    placement, under_cold = Timings(), Timings()
    # Job lanes, grouped by (kind, workload): unlike jobs do not share
    # one median.
    cold: dict[str, Timings] = {}
    warm: dict[str, Timings] = {}
    warm_misses = [0]

    def timed(call: Callable[[], dict], label: str) -> Optional[tuple]:
        out.attempt()
        began = time.perf_counter()
        try:
            response = call()
        except ServeError as exc:
            out.fail(f"{label}: HTTP {exc.status}: {exc}")
            return None
        return time.perf_counter() - began, response

    def placement_loop() -> None:
        client = ServeClient(daemon.url, timeout_s=60.0)
        i = 0
        while not stop.is_set() or (args.freeze and i < len(payloads)):
            payload = payloads[i % len(payloads)]
            label = f"serve/placement/{i % len(payloads):02d}"
            sent_under_cold = cold_inflight[0]
            done = timed(lambda: client.placement(**payload), label)
            i += 1
            if done is not None:
                placement.add(done[0], speed.last())
                if sent_under_cold:
                    under_cold.add(done[0], speed.last())
                out.record(label, digest(done[1]["hints"]))

    def run_job(client, label, kind, call, lane: dict) -> bool:
        method = {"simulate": client.simulate, "profile": client.profile,
                  "autotune": client.autotune}[kind]
        done = timed(lambda: method(**call), label)
        if done is None:
            return False
        try:
            result, was_warm = job_output(kind, done[1])
        except (KeyError, TypeError) as exc:
            out.fail(f"{label}: malformed response: {exc!r}")
            return False
        group = lane.setdefault(f"{kind}/{call['workload']}", Timings())
        group.add(done[0], speed.last())
        if lane is warm and not was_warm:
            warm_misses[0] += 1
        out.record(label, digest(result))
        return True

    next_sample = [0.0]

    def sample_speed() -> None:
        if time.perf_counter() >= next_sample[0]:
            speed.sample()
            next_sample[0] = time.perf_counter() + SERVE_SAMPLE_EVERY_S

    def job_loop() -> None:
        client = ServeClient(daemon.url, timeout_s=60.0)
        completed = []
        for job in script:
            if stop.is_set():
                break
            sample_speed()
            cold_inflight[0] = True
            if run_job(client, *job, cold):
                completed.append(job)
            cold_inflight[0] = False
        minimum = len(completed) if args.freeze else SERVE_MIN_WARM
        i = 0
        while completed and (i < minimum or not stop.is_set()):
            sample_speed()
            run_job(client, *completed[i % len(completed)], warm)
            i += 1
            if args.freeze and i == minimum:
                break

    def guarded(loop: Callable[[], None]) -> Callable[[], None]:
        # A loop that dies on an unexpected response must fail the run,
        # not end quietly with fewer samples.
        def run() -> None:
            try:
                loop()
            except Exception as exc:
                out.fail(f"{loop.__name__}: {type(exc).__name__}: {exc}")
        return run

    threads = [threading.Thread(target=guarded(loop), daemon=True)
               for loop in (placement_loop, job_loop)]
    try:
        sample_speed()  # the first replies need a factor
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        if args.freeze:
            threads[1].join()
        else:
            time.sleep(args.seconds)
        stop.set()
        for thread in threads:
            thread.join(timeout=120)
        window = time.perf_counter() - start
        scraped = ServeClient(daemon.url).metrics()
        rss = vm_hwm_mib(daemon.proc.pid)
    finally:
        stop.set()
        daemon.stop()

    from layers import serve_counters

    counters = serve_counters(scraped)
    cold_raw = [t for times in cold.values() for t in times.raw()]
    warm_raw = [t for times in warm.values() for t in times.raw()]

    def simulate_lane(lane: dict) -> tuple[float, float]:
        return group_mean({group: times for group, times in lane.items()
                           if group.startswith("simulate/")})

    result = summary(setups.medians(), simulate_lane(cold),
                     simulate_lane(warm), rss, speed)
    for kind in ("profile", "autotune"):
        jobs = [t for group, times in cold.items()
                if group.startswith(kind) for t in times.raw()]
        if jobs:
            result["diagnostics"][f"raw.{kind}_cold_ms"] = [
                median(jobs) * 1e3, "ms"]
    result["diagnostics"].update({
        "raw.requests_per_s": [
            (len(placement) + len(cold_raw) + len(warm_raw)) / window,
            "1/s"],
        "raw.placement_p50_ms": [median(placement.raw()) * 1e3, "ms"],
        "raw.placement_p99_cold_ms": [
            quantile(under_cold.raw(), 0.99) * 1e3 if under_cold else 0.0,
            "ms"],
        "placement_samples": [len(placement), "count"],
        "placement_under_cold": [len(under_cold), "count"],
        "raw.job_cold_p90_ms": [quantile(cold_raw, 0.9) * 1e3, "ms"],
        "raw.job_warm_p99_ms": [quantile(warm_raw, 0.99) * 1e3, "ms"],
        "cold_jobs": [len(cold_raw), "count"],
        "warm_jobs": [len(warm_raw), "count"],
        "warm_cache_misses": [warm_misses[0], "count"],
        **{name: [value, "count"] for name, value in counters.items()},
    })
    if args.traced:
        from layers import ledger

        events = (json.loads(trace_file.read_text())["traceEvents"]
                  + client_tracer.events)
        wall_ms = sum(placement.raw() + cold_raw + warm_raw) * 1e3
        result["layers"], result["fired"] = ledger(
            events, wall_ms, serve_metrics=counters)
        result["layers"]["import.ms"] = import_time("repro.serve",
                                                    speed)[1] * 1e3
        result["events"] = events
    return result


# ----------------------------------------------------------------------
# dynamic_epochs
# ----------------------------------------------------------------------


def dynamic_epochs(args, out: Outcome, speed: SpeedIndex) -> dict:
    modules = "repro.core.experiment, repro.tuning, repro.memory.topology"
    setup = import_time(modules, speed)

    if args.traced:
        import layers

        tracer = layers.install()
    from repro.core.experiment import run_experiment
    from repro.memory.topology import topology_by_name
    from repro.runner.cache import encode_result
    from repro.tuning import autotune
    from repro.workloads.base import clear_trace_cache

    topologies = {name: topology_by_name(name)
                  for _, name in DYNAMIC_TUNE}

    def one_pass(block: int) -> float:
        online_seed = args.seed * 1000 + 20 * block
        tune_seed = online_seed + len(DYNAMIC_ONLINE)
        began = time.perf_counter()
        outputs = []
        for i, (workload, policy, engine) in enumerate(DYNAMIC_ONLINE):
            outputs.append((
                f"dynamic/{block}/{workload}/{policy}/{engine}",
                run_experiment(workload, policy=policy, engine=engine,
                               seed=online_seed + i)))
        for i, (workload, topology) in enumerate(DYNAMIC_TUNE):
            outputs.append((
                f"dynamic/{block}/autotune/{workload}/{topology}",
                autotune(workload, topologies[topology],
                         seed=tune_seed + i)))
        wall = time.perf_counter() - began
        out.attempt(len(outputs))
        for label, value in outputs:
            if hasattr(value, "tuned_fractions"):
                payload = {"static_fractions": value.static_fractions,
                           "tuned_fractions": value.tuned_fractions,
                           "closed_form_fractions":
                               value.closed_form_fractions,
                           "static_time_ns": value.static_time_ns,
                           "tuned_time_ns": value.tuned_time_ns}
            else:
                payload = encode_result(value)
            out.record(label, digest(payload))
        return wall

    warmup = Timings()
    factor = speed.sample()
    warmup.add(one_pass(0), factor)
    cold = {block: Timings() for block in range(DYNAMIC_BLOCKS)}
    warm = {block: Timings() for block in range(DYNAMIC_BLOCKS)}
    start = time.perf_counter()
    for block in range(DYNAMIC_BLOCKS):
        clear_trace_cache()
        factor = speed.sample()
        cold[block].add(one_pass(block), factor)
        ends = start + args.seconds * (block + 1) / DYNAMIC_BLOCKS
        while not warm[block] or not (args.freeze
                                      or time.perf_counter() >= ends):
            factor = speed.sample()
            warm[block].add(one_pass(block), factor)
    warm_raw = [t for times in warm.values() for t in times.raw()]
    cold_raw = [t for times in cold.values() for t in times.raw()]
    result = summary(
        (setup[0] + warmup.norm()[0], setup[1] + warmup.raw()[0]),
        group_mean(cold), group_mean(warm),
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, speed)
    result["diagnostics"].update({
        "cold_passes": [len(cold_raw), "count"],
        "warm_passes": [len(warm_raw), "count"],
        "raw.warm_pass_p90_ms": [quantile(warm_raw, 0.9) * 1e3, "ms"],
    })
    if args.traced:
        from layers import ledger

        events = tracer.events
        result["layers"], result["fired"] = ledger(
            events, sum(warmup.raw() + cold_raw + warm_raw) * 1e3)
        result["layers"]["import.ms"] = setup[1] * 1e3
        result["events"] = events
    return result


WORKLOADS = {
    "cold_cli": cold_cli,
    "figure_sweep": figure_sweep,
    "serve_mixed": serve_mixed,
    "dynamic_epochs": dynamic_epochs,
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--freeze", action="store_true")
    args = parser.parse_args()

    out = Outcome()
    result = WORKLOADS[args.workload](args, out, SpeedIndex())
    events = result.pop("events", None)
    if events is not None:
        trace_path = args.work / "trace.json"
        write_trace(trace_path, events)
        result["trace_file"] = str(trace_path)
        result["fired"] = sorted(result["fired"])
    result.update(attempted=out.attempted, failed=out.failed,
                  errors=out.errors, digests=out.digests)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
