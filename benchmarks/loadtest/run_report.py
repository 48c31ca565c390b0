"""Produce a serving load-test report (REPORT_<rev>.json).

Two measured scenarios against one ``repro serve`` daemon, both through
``repro.serve.loadtest`` (closed loop — offered load tracks service
capacity, so "saturated QPS" is well defined):

1. ``single_placement`` — saturated placement QPS;
2. ``single_mixed``     — placement beside a cold-simulate overload:
   how far placement QPS and p99 hold while long simulate jobs queue.

Run from the repo root::

    PYTHONPATH=src python benchmarks/loadtest/run_report.py \
        [--duration 10] [--out benchmarks/loadtest/...]

The report records the host (CPU count) alongside the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from repro.serve import BackgroundServer, ServeConfig
from repro.serve.loadtest import format_summary, run_loadtest


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _fresh_cache() -> str:
    return tempfile.mkdtemp(prefix="loadtest-cache-")


def placement_scenario(url: str, duration_s: float,
                       workers: int) -> dict:
    return run_loadtest(url, duration_s=duration_s,
                        placement_workers=workers, simulate_workers=0)


def mixed_scenario(url: str, duration_s: float,
                   placement_workers: int,
                   simulate_workers: int) -> dict:
    # Long cold simulates (500k accesses) + a small distinct-spec pool
    # that keeps refreshing: sustained cold pressure on the daemon
    # while placement traffic rides alongside.
    return run_loadtest(url, duration_s=duration_s,
                        placement_workers=placement_workers,
                        simulate_workers=simulate_workers,
                        distinct_specs=64,
                        trace_accesses=500_000)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--placement-workers", type=int, default=8)
    parser.add_argument("--simulate-workers", type=int, default=6)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    rev = _git_rev()
    out = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        f"REPORT_{rev}.json")

    report = {
        "rev": rev,
        "host": {
            "cpus": os.cpu_count(),
            "platform": sys.platform,
            "python": sys.version.split()[0],
        },
        "duration_s": args.duration,
        "scenarios": {},
    }

    print("== single daemon: saturated placement ==", flush=True)
    with BackgroundServer(ServeConfig(
            port=0, cache_dir=_fresh_cache())) as single:
        result = placement_scenario(single.base_url, args.duration,
                                    args.placement_workers)
        report["scenarios"]["single_placement"] = result
        print(format_summary(result), flush=True)

    print("== single daemon: mixed overload ==", flush=True)
    with BackgroundServer(ServeConfig(
            port=0, cache_dir=_fresh_cache())) as single:
        result = mixed_scenario(single.base_url, args.duration,
                                args.placement_workers,
                                args.simulate_workers)
        report["scenarios"]["single_mixed"] = result
        print(format_summary(result), flush=True)

    scenarios = report["scenarios"]
    saturated = scenarios["single_placement"]["lanes"]["placement"]
    mixed = scenarios["single_mixed"]["lanes"]
    report["summary"] = {
        "placement_qps": saturated["qps"],
        "placement_p99_ms": saturated["p99_ms"],
        "mixed_placement_qps": mixed.get("placement", {}).get("qps"),
        "mixed_placement_p99_ms": mixed.get("placement", {}).get(
            "p99_ms"),
        "mixed_cold_simulate_qps": mixed.get("simulate_cold", {}).get(
            "qps"),
    }

    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nreport written to {out}")
    print(json.dumps(report["summary"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
