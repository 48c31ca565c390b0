"""Frozen placement digests: every page lands where it always did.

For each paper workload x policy x BO capacity this pins the sha256 of
the footprint zone map plus the frame table the placement produced.
Any change to placement, spill order, frame hand-out or the policies'
RNG consumption moves a digest, so a refactor of the placement path
that claims bit-identical results is checked against placements
recorded before it.

Regenerate (prints each moved key with its old and new digest, then
rewrites the file)::

    PYTHONPATH=src python tests/test_placement_digests.py --regenerate
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from frozen_digests import assert_unmoved, regenerate_main
from repro.core.experiment import constrained_topology, resolve_policy
from repro.memory.topology import simulated_baseline
from repro.policies.bwaware import BwAwarePolicy
from repro.vm.process import Process
from repro.workloads import get_workload, workload_names

GOLDEN = Path(__file__).resolve().parent / "golden" / "placement_digests.json"

#: raw-trace length of the ORACLE and ANNOTATED profiling passes.
PROFILE_ACCESSES = 30_000

POLICIES = ("LOCAL", "INTERLEAVE", "BW-AWARE", "BW-AWARE@30C-70B",
            "BW-AWARE-COUNTER", "ORACLE", "ANNOTATED")
CAPACITIES = (None, 0.1)


def _policy_input(name: str):
    if name == "BW-AWARE@30C-70B":
        return BwAwarePolicy.from_ratio(30)
    return name


def placement_digest(workload_name: str, policy: str, capacity) -> str:
    """sha256 of the zone map and frame table of one placement."""
    workload = get_workload(workload_name)
    system = constrained_topology(
        simulated_baseline(), workload.footprint_pages("default"), capacity)
    process = Process(system, seed=0)
    resolved, hints = resolve_policy(
        _policy_input(policy), workload, "default", PROFILE_ACCESSES, 0,
        system, process)
    workload.reserve_in(process, "default", hints=hints)
    zone_map = process.place_all(resolved)
    digest = hashlib.sha256(zone_map.tobytes())
    digest.update(frame_table(process.space).tobytes())
    return digest.hexdigest()


def frame_table(space) -> np.ndarray:
    """Frame number per footprint page, program order."""
    return np.concatenate([
        space._frame[a.first_vpn - space._base_vpn:][:a.n_pages]
        for a in space.allocations
    ])


def compute_digests() -> dict[str, str]:
    return {
        f"{workload}|{policy}|{capacity}":
            placement_digest(workload, policy, capacity)
        for workload in workload_names()
        for policy in POLICIES
        for capacity in CAPACITIES
    }


def test_placements_match_frozen_digests():
    assert_unmoved(GOLDEN, compute_digests(), "placements")


if __name__ == "__main__":
    sys.exit(regenerate_main(sys.argv[1:], GOLDEN, compute_digests,
                             __doc__))
