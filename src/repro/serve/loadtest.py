"""Closed-loop load generator for the placement service (``repro loadtest``).

Drives a ``repro serve`` daemon with a mix of placement and simulate
traffic and reports QPS and latency percentiles per request class —
the shape the committed serving numbers are quoted in
(``benchmarks/loadtest/``).

Closed loop: each worker thread issues its next request the moment the
previous one completes, so offered load tracks service capacity and
"saturated QPS" is well-defined (no open-loop coordinated omission).
Backpressure answers (429 queue full, 503 breaker open or draining)
are *recorded*, not retried, and every ``Retry-After`` hint is
aggregated so the daemon's backoff advice is visible too.

Request classes in the report (its ``lanes`` key):

* ``placement`` — closed-form hint requests;
* ``simulate_warm`` — simulate specs this run has already completed
  once (server-side: a result-cache hit);
* ``simulate_cold`` — first-time specs (a real experiment run).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import ServeError
from repro.serve.client import ServeClient

#: fixed placement request shape (three structures, obvious hot one) —
#: the work is closed-form, so the payload only needs to be *valid*,
#: not varied, for throughput measurement.
_PLACEMENT_SIZES = (40960, 40960, 40960)
_PLACEMENT_HOTNESS = (1.0, 50.0, 5.0)


@dataclass
class _Sample:
    lane: str
    status: int          # HTTP status (0 = transport error)
    latency_s: float
    retry_after: Optional[float] = None


@dataclass
class _WorkerState:
    samples: list = field(default_factory=list)


def _percentile(values: list, q: float) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def _lane_report(samples: list, duration_s: float) -> dict:
    oks = [s.latency_s for s in samples if s.status == 200]
    shed = sum(1 for s in samples if s.status == 429)
    unavailable = sum(1 for s in samples if s.status == 503)
    errors = sum(1 for s in samples
                 if s.status not in (200, 429, 503))
    return {
        "requests": len(samples),
        "ok": len(oks),
        "shed_429": shed,
        "unavailable_503": unavailable,
        "errors": errors,
        "qps": round(len(oks) / duration_s, 2) if duration_s else 0.0,
        "p50_ms": (round(_percentile(oks, 0.50) * 1e3, 3)
                   if oks else None),
        "p99_ms": (round(_percentile(oks, 0.99) * 1e3, 3)
                   if oks else None),
        "max_ms": round(max(oks) * 1e3, 3) if oks else None,
    }


def run_loadtest(url: str,
                 duration_s: float = 10.0,
                 placement_workers: int = 4,
                 simulate_workers: int = 0,
                 distinct_specs: int = 4,
                 workload: str = "bfs",
                 trace_accesses: int = 20_000,
                 seed_base: int = 1000,
                 timeout_s: float = 60.0,
                 backoff_sleep_s: float = 0.01) -> dict:
    """Drive ``url`` for ``duration_s`` and return the JSON report.

    ``distinct_specs`` controls the simulate key space: each simulate
    worker cycles seeds ``seed_base .. seed_base+distinct-1``, so the
    first completion of each seed is cold and every revisit is warm —
    a steady mixed warm/cold stream once the key space has been
    covered.
    """
    stop = threading.Event()
    completed_specs: set = set()
    completed_lock = threading.Lock()
    states: list = []
    threads: list = []

    def record(state: _WorkerState, lane: str, started: float,
               status: int, retry_after: Optional[float]) -> None:
        state.samples.append(_Sample(
            lane=lane, status=status,
            latency_s=time.perf_counter() - started,
            retry_after=retry_after))

    def placement_loop(state: _WorkerState) -> None:
        client = ServeClient(url, timeout_s=timeout_s)
        while not stop.is_set():
            started = time.perf_counter()
            try:
                client._json("POST", "/v1/placement", {
                    "sizes": list(_PLACEMENT_SIZES),
                    "hotness": list(_PLACEMENT_HOTNESS),
                    "bo_capacity_bytes": 40960,
                })
                record(state, "placement", started, 200, None)
            except ServeError as exc:
                record(state, "placement", started, exc.status,
                       exc.retry_after)
                time.sleep(backoff_sleep_s)

    def simulate_loop(worker: int, state: _WorkerState) -> None:
        client = ServeClient(url, timeout_s=timeout_s)
        i = worker  # stagger starting offsets across workers
        while not stop.is_set():
            seed = seed_base + (i % max(1, distinct_specs))
            i += 1
            with completed_lock:
                warm = seed in completed_specs
            lane = "simulate_warm" if warm else "simulate_cold"
            started = time.perf_counter()
            try:
                client.simulate(workload=workload, seed=seed,
                                trace_accesses=trace_accesses)
                record(state, lane, started, 200, None)
                with completed_lock:
                    completed_specs.add(seed)
            except ServeError as exc:
                record(state, lane, started, exc.status,
                       exc.retry_after)
                time.sleep(backoff_sleep_s)

    for w in range(placement_workers):
        state = _WorkerState()
        states.append(state)
        threads.append(threading.Thread(
            target=placement_loop, args=(state,),
            name=f"loadtest-placement-{w}", daemon=True))
    for w in range(simulate_workers):
        state = _WorkerState()
        states.append(state)
        threads.append(threading.Thread(
            target=simulate_loop, args=(w, state),
            name=f"loadtest-simulate-{w}", daemon=True))

    started_at = time.time()
    start_clock = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration_s)
    stop.set()
    for thread in threads:
        thread.join(timeout=timeout_s + 5.0)
    elapsed = time.perf_counter() - start_clock

    samples = [s for state in states for s in state.samples]
    lanes = {}
    for lane in ("placement", "simulate_warm", "simulate_cold"):
        lane_samples = [s for s in samples if s.lane == lane]
        if lane_samples:
            lanes[lane] = _lane_report(lane_samples, elapsed)
    hints = [s.retry_after for s in samples
             if s.retry_after is not None]
    report = {
        "target": url,
        "started_unix": round(started_at, 3),
        "duration_s": round(elapsed, 3),
        "workers": {
            "placement": placement_workers,
            "simulate": simulate_workers,
        },
        "workload": workload,
        "trace_accesses": trace_accesses,
        "distinct_specs": distinct_specs,
        "lanes": lanes,
        "totals": {
            "requests": len(samples),
            "ok": sum(1 for s in samples if s.status == 200),
            "shed_429": sum(1 for s in samples if s.status == 429),
            "unavailable_503": sum(
                1 for s in samples if s.status == 503),
        },
        "retry_after_hints": {
            "count": len(hints),
            "mean_s": (round(sum(hints) / len(hints), 3)
                       if hints else None),
            "max_s": round(max(hints), 3) if hints else None,
        },
    }
    return report


def format_summary(report: dict) -> str:
    """Human-readable one-screen summary of a loadtest report."""
    lines = [f"loadtest against {report['target']} "
             f"({report['duration_s']}s, "
             f"{report['workers']['placement']} placement + "
             f"{report['workers']['simulate']} simulate workers)"]
    for lane, stats in report["lanes"].items():
        lines.append(
            f"  {lane:14s} {stats['qps']:9.1f} qps  "
            f"p50 {stats['p50_ms'] or 0:8.2f} ms  "
            f"p99 {stats['p99_ms'] or 0:8.2f} ms  "
            f"ok {stats['ok']}  shed {stats['shed_429']}  "
            f"503 {stats['unavailable_503']}")
    totals = report["totals"]
    lines.append(f"  totals: {totals['requests']} requests, "
                 f"{totals['ok']} ok, {totals['shed_429']} shed, "
                 f"{totals['unavailable_503']} unavailable")
    hints = report["retry_after_hints"]
    if hints["count"]:
        lines.append(f"  retry-after hints: {hints['count']} "
                     f"(mean {hints['mean_s']}s, max {hints['max_s']}s)")
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


__all__ = [
    "format_summary",
    "run_loadtest",
    "write_report",
]
