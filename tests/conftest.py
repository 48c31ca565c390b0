"""Shared fixtures for the test suite.

Tests use short traces (the workload layer memoizes them per process,
so repeated fixtures are cheap) and small zone capacities so capacity
edge cases are easy to hit.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.experiment import resolve_policy
from repro.core.units import GIB, PAGE_SIZE
from repro.gpu.service import _MIN_BATCH_WINDOW
from repro.memory.acpi import enumerate_tables
from repro.memory.topology import simulated_baseline, symmetric_topology
from repro.policies.base import PlacementContext
from repro.vm.allocator import PhysicalMemory
from repro.vm.process import Process

#: raw-trace length used by workload-driven tests; long enough to touch
#: every page of the scaled footprints, short enough to keep the full
#: suite fast.
TEST_ACCESSES = 30_000


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """An unloaded native-kernel state with its own empty library
    cache, and synthesis's interleave not yet checked; returns the
    directory the library is built into."""
    from repro.gpu import _native
    from repro.workloads import interleave

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(_native, "_resolved", False)
    monkeypatch.setattr(_native, "_kernels", {})
    monkeypatch.setattr(_native, "_library", None)
    monkeypatch.setattr(interleave, "_checked", interleave._UNCHECKED)
    return tmp_path / "xdg" / "repro" / "native"


@pytest.fixture
def baseline():
    """The Table 1 topology with default capacities."""
    return simulated_baseline()


@pytest.fixture
def tiny_baseline():
    """Table 1 bandwidths with tiny capacities (for spill tests)."""
    return simulated_baseline(bo_capacity_gib=0.001, co_capacity_gib=0.01)


@pytest.fixture
def symmetric():
    return symmetric_topology()


@pytest.fixture
def process(baseline):
    return Process(baseline, seed=7)


@pytest.fixture
def context(baseline):
    return PlacementContext(
        tables=enumerate_tables(baseline),
        physical=PhysicalMemory(baseline),
        local_zone=baseline.gpu_local_zone,
        seed=7,
    )


def make_context(topology, seed: int = 7) -> PlacementContext:
    """Context factory for tests needing custom topologies."""
    return PlacementContext(
        tables=enumerate_tables(topology),
        physical=PhysicalMemory(topology),
        local_zone=topology.gpu_local_zone,
        seed=seed,
    )


def bwaware_zone_map(workload, dataset, topology, seed):
    """The zone map ``run_experiment`` hands the engine for BW-AWARE."""
    process = Process(topology, seed=seed)
    policy, hints = resolve_policy("BW-AWARE", workload, dataset, None,
                                   seed, topology, process)
    workload.reserve_in(process, dataset, hints=hints)
    return process.place_all(policy)


#: windows the native core's sliding buffer holds (``STREAM_SPAN`` in
#: ``src/repro/gpu/_windowed.c``).
STREAM_SPAN = 4


def stream_seams(window: int) -> list[int]:
    """Stream lengths on every seam of the native windowed core's
    sliding buffer at ``window``: one short of, at and one past the
    window and the buffer's capacity (``STREAM_SPAN`` windows, the
    window floored at the core's batch minimum), and several capacities
    long, so refills land at and around batch boundaries."""
    capacity = STREAM_SPAN * max(window, _MIN_BATCH_WINDOW)
    lengths = {window - 1, window, window + 1, capacity - 1, capacity,
               capacity + 1, 2 * capacity + 1, 3 * capacity - 1,
               5 * capacity + window // 2}
    return sorted(n for n in lengths if n >= 1)


# Hypothesis profiles for suites that leave ``max_examples`` to the
# profile: ``dev`` (default) keeps tier-1 fast, ``ci`` searches harder.
settings.register_profile("ci", max_examples=300, deadline=None)
settings.register_profile("dev", max_examples=40, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def damage_frame():
    """Damage the frame of ``key`` in a result cache's segment, in place.

    ``edit(frame)`` rewrites the frame's bytes (a ``bytearray``) at the
    same length; ``reseal=True`` then recomputes the frame's CRC, so
    only the SHA-256 of the result part can catch the change.
    ``cut=True`` instead truncates the segment halfway through the
    frame, as a writer killed mid-append leaves it.  Returns the frame
    as it was.
    """
    import zlib

    def damage(cache, key, edit=None, cut=False, reseal=False) -> bytes:
        path, offset, length = cache.locate(key)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            before = handle.read(length)
            if cut:
                handle.truncate(offset + length // 2)
                return before
            frame = bytearray(before)
            edit(frame)
            assert len(frame) == length
            if reseal:
                frame[4:8] = zlib.crc32(frame[8:]).to_bytes(4, "little")
            handle.seek(offset)
            handle.write(frame)
        return before

    return damage
