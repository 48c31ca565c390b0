"""Process-level placement and the Linux-shaped mempolicy API."""

import numpy as np
import pytest

from repro.core.errors import OutOfMemoryError, PolicyError
from repro.core.units import PAGE_SIZE
from repro.memory.topology import simulated_baseline
from repro.policies.bwaware import BwAwarePolicy
from repro.policies.interleave import InterleavePolicy
from repro.policies.local import LocalPolicy
from repro.vm.mempolicy import (
    BindPolicy,
    MemPolicyMode,
    PreferredPolicy,
    policy_for_mode,
)
from repro.vm.process import Process


class TestProcessPlacement:
    def test_default_policy_is_local(self, baseline):
        process = Process(baseline)
        process.mmap(8 * PAGE_SIZE)
        assert set(process.zone_map().tolist()) == {0}

    def test_set_mempolicy_changes_future_allocations(self, baseline):
        process = Process(baseline)
        process.mmap(4 * PAGE_SIZE, name="before")
        process.set_mempolicy(InterleavePolicy())
        process.mmap(4 * PAGE_SIZE, name="after")
        zone_map = process.zone_map()
        assert set(zone_map[:4].tolist()) == {0}
        assert set(zone_map[4:].tolist()) == {0, 1}

    def test_mbind_overrides_task_policy(self, baseline):
        process = Process(baseline)
        alloc = process.reserve(4 * PAGE_SIZE)
        process.mbind(alloc, PreferredPolicy(1))
        process.fault_in(alloc)
        assert set(process.zone_map().tolist()) == {1}

    def test_mbind_after_fault_rejected(self, baseline):
        process = Process(baseline)
        alloc = process.mmap(PAGE_SIZE)
        with pytest.raises(PolicyError):
            process.mbind(alloc, PreferredPolicy(1))

    def test_place_all_returns_program_order_zone_map(self, baseline):
        process = Process(baseline)
        process.reserve(2 * PAGE_SIZE, name="a")
        process.reserve(2 * PAGE_SIZE, name="b")
        zone_map = process.place_all(LocalPolicy())
        assert zone_map.tolist() == [0, 0, 0, 0]

    def test_local_placement_builds_no_generator(self, baseline,
                                                 monkeypatch):
        """The placement RNG is built on its first read, from the
        process seed: LOCAL never draws, so it never pays for one."""
        built = []
        default_rng = np.random.default_rng

        def counting(seed):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        process = Process(baseline, seed=3)
        process.reserve(8 * PAGE_SIZE)
        process.place_all(LocalPolicy())
        assert built == []
        first = process.context.rng.random()
        assert built == [3]
        assert first == default_rng(3).random()

    def test_spill_when_local_full(self):
        topo = simulated_baseline(bo_capacity_gib=4 * PAGE_SIZE / 2**30)
        process = Process(topo)
        process.reserve(8 * PAGE_SIZE)
        zone_map = process.place_all(LocalPolicy())
        assert (zone_map == 0).sum() == 4
        assert (zone_map == 1).sum() == 4

    def test_free_releases_frames(self, baseline):
        process = Process(baseline)
        alloc = process.mmap(6 * PAGE_SIZE)
        assert process.physical.used_pages(0) == 6
        process.free(alloc)
        assert process.physical.used_pages(0) == 0

    def test_occupancy_fraction(self):
        topo = simulated_baseline(bo_capacity_gib=8 * PAGE_SIZE / 2**30)
        process = Process(topo)
        process.mmap(4 * PAGE_SIZE)
        assert process.occupancy_fraction(0) == pytest.approx(0.5)

    def test_bwaware_placement_ratio_end_to_end(self, baseline):
        process = Process(baseline, seed=11)
        process.reserve(5000 * PAGE_SIZE)
        zone_map = process.place_all(BwAwarePolicy())
        co_share = float((zone_map == 1).mean())
        assert co_share == pytest.approx(80 / 280, abs=0.02)

    def test_strict_bind_can_oom(self):
        topo = simulated_baseline(bo_capacity_gib=2 * PAGE_SIZE / 2**30)
        process = Process(topo)
        process.reserve(4 * PAGE_SIZE)
        with pytest.raises(OutOfMemoryError):
            process.place_all(BindPolicy([0]))


class TestMemPolicyModes:
    def test_default_mode_is_local(self):
        assert isinstance(
            policy_for_mode(MemPolicyMode.MPOL_DEFAULT), LocalPolicy
        )

    def test_interleave_mode(self):
        policy = policy_for_mode(MemPolicyMode.MPOL_INTERLEAVE)
        assert isinstance(policy, InterleavePolicy)

    def test_bwaware_mode_is_the_papers_new_mode(self):
        policy = policy_for_mode(MemPolicyMode.MPOL_BWAWARE)
        assert isinstance(policy, BwAwarePolicy)

    def test_bind_requires_nodemask(self):
        with pytest.raises(PolicyError):
            policy_for_mode(MemPolicyMode.MPOL_BIND)
        policy = policy_for_mode(MemPolicyMode.MPOL_BIND, nodemask=[1])
        assert isinstance(policy, BindPolicy)
        assert policy.strict

    def test_preferred_takes_exactly_one_zone(self):
        with pytest.raises(PolicyError):
            policy_for_mode(MemPolicyMode.MPOL_PREFERRED, nodemask=[0, 1])
        policy = policy_for_mode(MemPolicyMode.MPOL_PREFERRED, nodemask=[1])
        assert isinstance(policy, PreferredPolicy)

    def test_preferred_spills_gracefully(self, context):
        from repro.vm.page import Allocation

        policy = PreferredPolicy(1)
        alloc = Allocation(alloc_id=0, name="a",
                           va_start=PAGE_SIZE * 1000,
                           size_bytes=PAGE_SIZE)
        chain = policy.preferred_zones(alloc, 0, context)
        assert list(chain) == [1, 0]

    def test_bind_validates_nodemask(self):
        with pytest.raises(PolicyError):
            BindPolicy([])
