"""Placement policies: LOCAL, INTERLEAVE, BW-AWARE and the registry."""

import numpy as np
import pytest

from conftest import make_context
from repro.core.errors import PolicyError
from repro.core.units import PAGE_SIZE
from repro.memory.topology import (
    simulated_baseline,
    symmetric_topology,
    three_pool_topology,
)
from repro.policies.base import spill_chain, validate_fractions
from repro.policies.bwaware import (
    BwAwarePolicy,
    CounterBwAwarePolicy,
    ratio_label,
    two_zone_fractions,
)
from repro.policies.interleave import InterleavePolicy
from repro.policies.local import LocalPolicy
from repro.policies.registry import make_policy, policy_names
from repro.vm.page import Allocation


def _alloc(n_pages=4, alloc_id=0):
    return Allocation(alloc_id=alloc_id, name=f"a{alloc_id}",
                      va_start=PAGE_SIZE * 1000 * (alloc_id + 1),
                      size_bytes=n_pages * PAGE_SIZE)


class TestSpillChain:
    def test_starts_with_requested_zone(self, context):
        assert spill_chain(1, context)[0] == 1

    def test_covers_all_zones_once(self, context):
        chain = spill_chain(0, context)
        assert sorted(chain) == [0, 1]

    def test_remaining_zones_nearest_first(self):
        # HBM, GDDR5 and DDR4 sit at SLIT 10, 13 and 27 from the GPU:
        # a two-zone chain has one order, three zones show the walk.
        context = make_context(three_pool_topology())
        assert spill_chain(0, context) == [0, 1, 2]
        assert spill_chain(2, context) == [2, 0, 1]


class TestValidateFractions:
    def test_valid(self):
        assert validate_fractions((0.3, 0.7)) == (0.3, 0.7)

    def test_must_sum_to_one(self):
        with pytest.raises(PolicyError):
            validate_fractions((0.3, 0.3))

    def test_negative_rejected(self):
        with pytest.raises(PolicyError):
            validate_fractions((-0.5, 1.5))

    def test_empty_rejected(self):
        with pytest.raises(PolicyError):
            validate_fractions(())


class TestLocalPolicy:
    def test_always_prefers_local_zone(self, context):
        policy = LocalPolicy()
        alloc = _alloc()
        for page in range(alloc.n_pages):
            assert policy.preferred_zones(alloc, page, context)[0] == 0

    def test_chain_falls_back_by_slit(self, context):
        chain = LocalPolicy().preferred_zones(_alloc(), 0, context)
        assert list(chain) == [0, 1]


class TestInterleavePolicy:
    def test_round_robin(self, context):
        policy = InterleavePolicy()
        policy.prepare((), context)
        alloc = _alloc(6)
        zones = [policy.preferred_zones(alloc, p, context)[0]
                 for p in range(6)]
        assert zones == [0, 1, 0, 1, 0, 1]

    def test_counter_spans_allocations(self, context):
        policy = InterleavePolicy()
        policy.prepare((), context)
        first = policy.preferred_zones(_alloc(1, 0), 0, context)[0]
        second = policy.preferred_zones(_alloc(1, 1), 0, context)[0]
        assert {first, second} == {0, 1}

    def test_zone_subset(self, context):
        policy = InterleavePolicy(zone_subset=[1])
        policy.prepare((), context)
        alloc = _alloc(4)
        assert all(policy.preferred_zones(alloc, p, context)[0] == 1
                   for p in range(4))

    def test_subset_validated_against_system(self, context):
        policy = InterleavePolicy(zone_subset=[7])
        with pytest.raises(PolicyError):
            policy.prepare((), context)

    def test_empty_subset_rejected(self):
        with pytest.raises(PolicyError):
            InterleavePolicy(zone_subset=[])


class TestBwAwarePolicy:
    def test_sbit_fractions_discovered_at_prepare(self, context):
        policy = BwAwarePolicy()
        policy.prepare((), context)
        assert policy.fractions == pytest.approx((200 / 280, 80 / 280))

    def test_explicit_ratio(self, context):
        policy = BwAwarePolicy.from_ratio(30)
        policy.prepare((), context)
        assert policy.fractions == pytest.approx((0.7, 0.3))

    def test_draws_converge_to_ratio(self, context):
        policy = BwAwarePolicy.from_ratio(30)
        policy.prepare((), context)
        alloc = _alloc(4)
        picks = [policy.preferred_zones(alloc, 0, context)[0]
                 for _ in range(8000)]
        co_share = sum(picks) / len(picks)
        assert co_share == pytest.approx(0.30, abs=0.02)

    def test_zero_fraction_never_drawn(self, context):
        policy = BwAwarePolicy.from_ratio(0)  # 0C-100B == LOCAL
        policy.prepare((), context)
        alloc = _alloc()
        assert all(policy.preferred_zones(alloc, 0, context)[0] == 0
                   for _ in range(200))

    def test_symmetric_system_degenerates_to_50_50(self, symmetric):
        ctx = make_context(symmetric)
        policy = BwAwarePolicy()
        policy.prepare((), ctx)
        assert policy.fractions == pytest.approx((0.5, 0.5))

    def test_fraction_arity_checked(self, context):
        policy = BwAwarePolicy(fractions=(0.2, 0.3, 0.5))
        with pytest.raises(PolicyError):
            policy.prepare((), context)

    def test_unprepared_fractions_raise(self):
        with pytest.raises(PolicyError):
            BwAwarePolicy().fractions

    def test_describe_uses_paper_notation(self, context):
        policy = BwAwarePolicy.from_ratio(30)
        policy.prepare((), context)
        assert "30C-70B" in policy.describe()


class TestCounterBwAware:
    def test_exact_at_every_prefix(self, context):
        policy = CounterBwAwarePolicy(fractions=(0.75, 0.25))
        policy.prepare((), context)
        alloc = _alloc(100)
        placed = [policy.preferred_zones(alloc, p, context)[0]
                  for p in range(100)]
        # At every 4-page prefix the split is exactly 3:1.
        for prefix in range(4, 101, 4):
            assert placed[:prefix].count(1) == prefix // 4


class TestRatioNotation:
    def test_label(self):
        assert ratio_label((0.7, 0.3)) == "30C-70B"

    def test_two_zone_fractions(self):
        assert two_zone_fractions(30) == pytest.approx((0.7, 0.3))

    def test_out_of_range_rejected(self):
        with pytest.raises(PolicyError):
            two_zone_fractions(150)

    def test_label_requires_two_zones(self):
        with pytest.raises(PolicyError):
            ratio_label((1.0,))


class TestRegistry:
    def test_canonical_names(self):
        assert "BW-AWARE" in policy_names()
        assert "ORACLE" in policy_names()

    def test_make_each_basic_policy(self):
        assert make_policy("LOCAL").name == "LOCAL"
        assert make_policy("interleave").name == "INTERLEAVE"
        assert make_policy("BW-AWARE").name == "BW-AWARE"
        assert make_policy("ANNOTATED").name == "ANNOTATED"

    def test_bwaware_with_ratio(self):
        policy = make_policy("BW-AWARE", co_percent=30)
        assert "30C-70B" in policy.describe()

    def test_bwaware_conflicting_args(self):
        with pytest.raises(PolicyError):
            make_policy("BW-AWARE", co_percent=30, fractions=(0.7, 0.3))

    def test_oracle_requires_profile(self):
        with pytest.raises(PolicyError):
            make_policy("ORACLE")
        assert make_policy("ORACLE",
                           page_accesses=np.ones(4)).name == "ORACLE"

    def test_unknown_policy(self):
        with pytest.raises(PolicyError):
            make_policy("FIRST-TOUCH")

    def test_unknown_kwargs_rejected(self):
        with pytest.raises(PolicyError):
            make_policy("LOCAL", ratio=3)
