"""Frozen engine digests: every static run gives what it always did.

Each case pins ``result_digest(encode_result(run_experiment(...)))`` of
one static placement on one engine: LOCAL, INTERLEAVE, BW-AWARE and
ORACLE x the throughput, detailed and banked engines, on bfs,
phase_shift and xsbench at 20k raw accesses (16 epochs), plus the
throughput engine under BW-AWARE on the four-chiplet topology.  A
refactor of an engine that claims bit-identical results is checked
against values recorded before it.

Regenerate (prints each moved key with its old and new digest, then
rewrites the file)::

    PYTHONPATH=src python tests/test_engine_digests.py --regenerate
"""

from __future__ import annotations

import sys
from pathlib import Path

from frozen_digests import assert_unmoved, regenerate_main

GOLDEN = Path(__file__).resolve().parent / "golden" / "engine_digests.json"

#: raw-trace length of every case.
ACCESSES = 20_000

POLICIES = ("LOCAL", "INTERLEAVE", "BW-AWARE", "ORACLE")
ENGINES = ("throughput", "detailed", "banked")
WORKLOADS = ("bfs", "phase_shift", "xsbench")
#: (policy, engine, topology) cases run on bfs off the baseline.
TOPOLOGY_CASES = (("BW-AWARE", "throughput", "chiplet-4"),)


def engine_digest(workload: str, policy: str, engine: str,
                  topology: str = "baseline") -> str:
    from repro.core.experiment import run_experiment
    from repro.memory.topology import topology_by_name
    from repro.runner.cache import encode_result, result_digest

    return result_digest(encode_result(run_experiment(
        workload, policy=policy, engine=engine,
        topology=topology_by_name(topology), trace_accesses=ACCESSES)))


def compute_digests() -> dict[str, str]:
    digests = {
        f"{workload}|{policy}|{engine}":
            engine_digest(workload, policy, engine)
        for workload in WORKLOADS
        for policy in POLICIES
        for engine in ENGINES
    }
    for policy, engine, topology in TOPOLOGY_CASES:
        digests[f"bfs|{policy}|{engine}|{topology}"] = engine_digest(
            "bfs", policy, engine, topology)
    return digests


def test_engines_match_frozen_digests():
    assert_unmoved(GOLDEN, compute_digests(), "engine runs")


if __name__ == "__main__":
    sys.exit(regenerate_main(sys.argv[1:], GOLDEN, compute_digests,
                             __doc__))
