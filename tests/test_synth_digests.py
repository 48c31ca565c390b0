"""Frozen synthesis digests: every raw stream is what it always was.

Each case pins the SHA-256 of the ``(lines, flags)`` pair that
:meth:`TraceWorkload.raw_access_stream` returns for one registered
workload or scenario, seed and length: the 19 benchmarks and the two
dynamic scenarios x seeds 0 and 7 x 240k, 60k, 5 and 1 accesses.  The
short lengths reach structures that draw no access in a phase and the
one-access-per-phase rounding.  A change to trace synthesis that claims
bit-identical streams is checked against values recorded before it.

Regenerate (prints each moved key with its old and new digest, then
rewrites the file)::

    PYTHONPATH=src python tests/test_synth_digests.py --regenerate
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from frozen_digests import assert_unmoved, regenerate_main

GOLDEN = Path(__file__).resolve().parent / "golden" / "synth_digests.json"

SEEDS = (0, 7)
LENGTHS = (240_000, 60_000, 5, 1)


def stream_digest(lines: np.ndarray, flags: np.ndarray) -> str:
    """SHA-256 over both arrays' dtypes, lengths and bytes."""
    digest = hashlib.sha256()
    for array in (lines, flags):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}:{array.size}:".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def compute_digests() -> dict[str, str]:
    from repro.workloads.suite import (
        get_workload,
        scenario_names,
        workload_names,
    )

    return {
        f"{name}|{seed}|{n}": stream_digest(*get_workload(name)
                                            .raw_access_stream(
                                                n_accesses=n, seed=seed))
        for name in workload_names() + scenario_names()
        for seed in SEEDS
        for n in LENGTHS
    }


def test_streams_match_frozen_digests():
    assert_unmoved(GOLDEN, compute_digests(), "raw streams")


if __name__ == "__main__":
    sys.exit(regenerate_main(sys.argv[1:], GOLDEN, compute_digests,
                             __doc__))
