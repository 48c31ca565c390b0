"""Property-based tests (hypothesis) for dynamic placement.

The ONLINE policy's correctness rests on invariants of the per-boundary
migration plan, not on any particular trace.  These properties pin
them down over randomized placements and hotness estimates:

* a plan never exceeds the page budget (policy budget, per-boundary
  budget, or the min of both);
* no page is both promoted and demoted in one plan, promotions come
  from outside BO and demotions from inside it;
* applying a plan never overfills BO capacity;
* a zero budget leaves the placement exactly as it was;
* adversarial near-tie hotness cannot make hysteresis-damped planning
  ping-pong: repeated plan/apply cycles on stationary scores settle.

Plus the ONLINE spec grammar: canonical tails round-trip through the
parser, and constructor validation rejects out-of-range knobs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import PolicyError
from repro.migration.policy import EpochMigrationPolicy, validate_watermarks
from repro.migration.tracker import HotnessTracker
from repro.policies.online import OnlinePolicy
from repro.policies.registry import (
    canonical_online_tail,
    make_policy,
    parse_online_options,
)

COMMON = settings(deadline=None, max_examples=60,
                  suppress_health_check=[HealthCheck.too_slow])


def make_tracker(counts: np.ndarray) -> HotnessTracker:
    """A tracker whose scores equal ``counts`` exactly."""
    tracker = HotnessTracker(counts.size, decay=1.0)
    tracker.observe_epoch(
        np.repeat(np.arange(counts.size), counts.astype(np.int64))
    )
    return tracker


@st.composite
def planning_cases(draw):
    """(zone_map, counts, policy kwargs) for one plan() call."""
    n_pages = draw(st.integers(min_value=4, max_value=96))
    counts = np.asarray(
        draw(st.lists(st.integers(min_value=0, max_value=50),
                      min_size=n_pages, max_size=n_pages))
    )
    zone_map = np.asarray(
        draw(st.lists(st.integers(min_value=0, max_value=1),
                      min_size=n_pages, max_size=n_pages)),
        dtype=np.int16,
    )
    capacity = draw(st.integers(min_value=1, max_value=n_pages))
    # Start legal: BO never begins over capacity.
    bo_pages = np.flatnonzero(zone_map == 0)
    if bo_pages.size > capacity:
        zone_map[bo_pages[capacity:]] = 1
    kwargs = dict(
        bo_zone=0, co_zone=1, bo_capacity_pages=capacity,
        bo_traffic_fraction=draw(st.floats(min_value=0.1, max_value=1.0)),
        hysteresis=draw(st.floats(min_value=1.0, max_value=2.0)),
    )
    if draw(st.booleans()):
        low = draw(st.floats(min_value=0.05, max_value=0.9))
        high = draw(st.floats(min_value=low, max_value=1.0))
        kwargs["watermarks"] = (low, high)
    return zone_map, counts, kwargs


def apply_plan(zone_map: np.ndarray, plan) -> np.ndarray:
    updated = zone_map.copy()
    updated[plan.promote] = 0
    updated[plan.demote] = 1
    return updated


class TestPlanProperties:
    @given(case=planning_cases(),
           budget=st.integers(min_value=0, max_value=64),
           boundary=st.one_of(st.none(),
                              st.integers(min_value=0, max_value=64)))
    @COMMON
    def test_budget_never_exceeded(self, case, budget, boundary):
        zone_map, counts, kwargs = case
        policy = EpochMigrationPolicy(budget_pages_per_epoch=budget,
                                      **kwargs)
        plan = policy.plan(zone_map, make_tracker(counts),
                           budget_pages=boundary)
        cap = budget if boundary is None else min(budget, boundary)
        assert plan.n_pages <= cap

    @given(case=planning_cases())
    @COMMON
    def test_promote_demote_disjoint_and_directional(self, case):
        zone_map, counts, kwargs = case
        policy = EpochMigrationPolicy(**kwargs)
        plan = policy.plan(zone_map, make_tracker(counts))
        promoted = set(plan.promote.tolist())
        demoted = set(plan.demote.tolist())
        assert not promoted & demoted
        assert len(promoted) == plan.promote.size  # no duplicates
        assert len(demoted) == plan.demote.size
        assert np.all(zone_map[plan.promote] != 0)
        assert np.all(zone_map[plan.demote] == 0)

    @given(case=planning_cases(),
           budget=st.one_of(st.none(),
                            st.integers(min_value=0, max_value=64)))
    @COMMON
    def test_bo_never_overfilled(self, case, budget):
        zone_map, counts, kwargs = case
        policy = EpochMigrationPolicy(budget_pages_per_epoch=budget,
                                      **kwargs)
        plan = policy.plan(zone_map, make_tracker(counts))
        updated = apply_plan(zone_map, plan)
        assert int(np.sum(updated == 0)) <= kwargs["bo_capacity_pages"]

    @given(case=planning_cases())
    @COMMON
    def test_zero_budget_means_no_moves(self, case):
        zone_map, counts, kwargs = case
        policy = EpochMigrationPolicy(budget_pages_per_epoch=0, **kwargs)
        plan = policy.plan(zone_map, make_tracker(counts))
        assert plan.n_pages == 0
        assert np.array_equal(apply_plan(zone_map, plan), zone_map)
        # Same through the per-boundary cap with an unlimited policy.
        policy = EpochMigrationPolicy(**kwargs)
        plan = policy.plan(zone_map, make_tracker(counts),
                           budget_pages=0)
        assert plan.n_pages == 0

    @given(case=planning_cases())
    @COMMON
    def test_plans_are_deterministic(self, case):
        zone_map, counts, kwargs = case
        policy = EpochMigrationPolicy(**kwargs)
        a = policy.plan(zone_map, make_tracker(counts))
        b = policy.plan(zone_map, make_tracker(counts))
        assert np.array_equal(a.promote, b.promote)
        assert np.array_equal(a.demote, b.demote)


class TestHysteresisPingPong:
    """Adversarial near-ties must not thrash under hysteresis."""

    @given(capacity=st.integers(min_value=2, max_value=32),
           epsilon=st.floats(min_value=0.0, max_value=0.1),
           n_rounds=st.integers(min_value=4, max_value=12))
    @COMMON
    def test_near_tie_settles(self, capacity, epsilon, n_rounds):
        # 2*capacity pages whose scores straddle the capacity cut by
        # less than the hysteresis factor: resident pages may be a
        # hair colder than outsiders, but never 1.25x colder.
        n_pages = 2 * capacity
        base = 100.0
        scores = base * (1.0 + epsilon * np.cos(np.arange(n_pages)))
        counts = np.rint(scores).astype(np.int64)
        tracker = make_tracker(counts)
        policy = EpochMigrationPolicy(
            bo_zone=0, co_zone=1, bo_capacity_pages=capacity,
            bo_traffic_fraction=1.0, hysteresis=1.25,
        )
        zone_map = np.asarray([0, 1] * capacity, dtype=np.int16)
        total_moves = 0
        for _ in range(n_rounds):
            plan = policy.plan(zone_map, tracker)
            total_moves += plan.n_pages
            zone_map = apply_plan(zone_map, plan)
        # Once BO is full of near-tie pages, hysteresis blocks every
        # further swap: total movement is bounded by the one initial
        # fill, independent of how many rounds run.
        assert total_moves <= n_pages

    def test_without_hysteresis_near_ties_do_swap(self):
        # The guard above is meaningful: with hysteresis=1.0 and
        # strictly-better outsiders, the same setup keeps swapping.
        capacity = 8
        n_pages = 2 * capacity
        counts = np.where(np.arange(n_pages) % 2 == 1, 101, 100)
        tracker = make_tracker(counts)
        policy = EpochMigrationPolicy(
            bo_zone=0, co_zone=1, bo_capacity_pages=capacity,
            bo_traffic_fraction=1.0, hysteresis=1.0,
        )
        zone_map = np.asarray([0, 1] * capacity, dtype=np.int16)
        plan = policy.plan(zone_map, tracker)
        assert plan.n_pages > 0


class TestWatermarks:
    def test_proactive_demotion_to_low_watermark(self):
        # BO full at capacity 10 but only one page is desired (a low
        # traffic target): occupancy 10 > high 8 -> demote the coldest
        # non-desired residents down to the low watermark (5 pages).
        capacity = 10
        counts = np.asarray([1000] + [1] * 19)
        zone_map = np.asarray([0] * capacity + [1] * 10, dtype=np.int16)
        policy = EpochMigrationPolicy(
            bo_zone=0, co_zone=1, bo_capacity_pages=capacity,
            bo_traffic_fraction=0.3, watermarks=(0.5, 0.8),
        )
        plan = policy.plan(zone_map, make_tracker(counts))
        assert plan.promote.size == 0
        updated = apply_plan(zone_map, plan)
        occupancy = int(np.sum(updated == 0))
        assert occupancy == int(0.5 * capacity)
        assert updated[0] == 0  # the hot desired page stays resident

    def test_no_demotion_below_high_watermark(self):
        # Same placement, occupancy 10 with high=1.0: no trigger.
        capacity = 10
        counts = np.asarray([1000] + [1] * 19)
        zone_map = np.asarray([0] * capacity + [1] * 10, dtype=np.int16)
        policy = EpochMigrationPolicy(
            bo_zone=0, co_zone=1, bo_capacity_pages=capacity,
            bo_traffic_fraction=0.3, watermarks=(0.5, 1.0),
        )
        plan = policy.plan(zone_map, make_tracker(counts))
        assert plan.n_pages == 0

    @given(case=planning_cases(),
           budget=st.one_of(st.none(),
                            st.integers(min_value=0, max_value=64)))
    @COMMON
    def test_watermark_demotions_respect_budget(self, case, budget):
        zone_map, counts, kwargs = case
        kwargs.setdefault("watermarks", (0.25, 0.5))
        policy = EpochMigrationPolicy(budget_pages_per_epoch=budget,
                                      **kwargs)
        plan = policy.plan(zone_map, make_tracker(counts))
        if budget is not None:
            assert plan.n_pages <= budget

    def test_validate_watermarks_rejects_bad_pairs(self):
        for bad in ((0.8, 0.5), (0.0, 0.5), (0.5, 1.5), "nope"):
            with pytest.raises(PolicyError):
                validate_watermarks(bad)
        assert validate_watermarks(None) is None
        assert validate_watermarks((0.5, 0.8)) == (0.5, 0.8)


#: generated ONLINE option dicts (grammar-level values).
online_options = st.fixed_dictionaries(
    {},
    optional={
        "budget": st.one_of(st.none(),
                            st.integers(min_value=0, max_value=4096)),
        "cost": st.floats(min_value=0.0, max_value=4.0),
        "decay": st.floats(min_value=0.05, max_value=1.0),
        "epochs": st.integers(min_value=1, max_value=64),
        "hysteresis": st.floats(min_value=1.0, max_value=3.0),
        "initial": st.sampled_from(
            ("LOCAL", "INTERLEAVE", "BW-AWARE", "ORACLE", "ANNOTATED")
        ),
        "oracle": st.booleans(),
        "overhead": st.one_of(
            st.none(), st.floats(min_value=0.001, max_value=1.0)
        ),
    },
)


class TestSpecGrammar:
    @given(options=online_options)
    @COMMON
    def test_canonical_tail_round_trips(self, options):
        tail = canonical_online_tail(options)
        spec = f"ONLINE@{tail}" if tail else "ONLINE"
        policy = make_policy(spec)
        assert policy.describe() == spec
        if tail:
            reparsed = parse_online_options(tail)
            assert canonical_online_tail(reparsed) == tail

    @given(options=online_options)
    @COMMON
    def test_canonical_tail_is_sorted_and_non_default_only(self, options):
        tail = canonical_online_tail(options)
        if not tail:
            return
        keys = [part.partition("=")[0] for part in tail.split(",")
                if "=" in part]
        assert keys == sorted(set(keys))

    def test_defaults_describe_bare(self):
        assert OnlinePolicy().describe() == "ONLINE"
        assert canonical_online_tail({}) == ""

    def test_initial_with_embedded_commas_survives(self):
        policy = make_policy("ONLINE@initial=BW-AWARE@0.7,0.3")
        assert policy.initial.upper().startswith("BW-AWARE")
        assert "0.7" in policy.describe()

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(PolicyError) as excinfo:
            parse_online_options("budgett=4")
        assert "budget" in str(excinfo.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(PolicyError):
            parse_online_options("epochs=4,epochs=8")

    def test_watermarks_must_come_together(self):
        with pytest.raises(PolicyError):
            parse_online_options("low=0.5")
        with pytest.raises(PolicyError):
            parse_online_options("high=0.8")
        policy = make_policy("ONLINE@high=0.8,low=0.5")
        assert policy.watermarks == (0.5, 0.8)


class TestConstructorValidation:
    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"budget_pages_per_epoch": -1},
        {"hysteresis": 0.5},
        {"decay": 0.0},
        {"decay": 1.5},
        {"cost_scale": -0.1},
        {"max_overhead": -0.1},
        {"watermarks": (0.9, 0.2)},
        {"initial": "NOT-A-POLICY"},
        {"initial": "ONLINE"},  # no recursion
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(PolicyError):
            OnlinePolicy(**kwargs)

    def test_dynamic_sentinel_and_delegation(self):
        policy = OnlinePolicy()
        assert policy.dynamic is True
        assert policy.name == "ONLINE"
        assert policy.initial_policy().name == "BW-AWARE"


class TestUnbindableOverheadCap:
    """A cap no execution time can reach behaves as no cap: ``inf``
    and ``1e308`` used to overflow ``int()`` inside the job (``inf * 0``
    is NaN at the oracle's pre-start boundary)."""

    @staticmethod
    def _run(policy: str):
        from repro.core.experiment import run_experiment
        from repro.runner.cache import encode_result

        payload = encode_result(run_experiment(
            "phase_shift", policy=policy, trace_accesses=20_000))
        payload.pop("policy")
        return payload

    @pytest.mark.parametrize("cap", ["inf", "1e308"])
    def test_same_result_as_no_cap(self, cap):
        assert self._run(f"ONLINE@overhead={cap}") == \
            self._run("ONLINE@overhead=none")

    def test_oracle_infinite_cap_same_as_no_cap(self):
        assert self._run("ONLINE@oracle=1,overhead=inf") == \
            self._run("ONLINE@oracle=1,overhead=none")

    def test_oracle_huge_finite_cap_runs(self):
        """Before any epoch ran, a finite cap allows no pages (0 x cap);
        after that, 1e308 cannot bind."""
        assert self._run("ONLINE@oracle=1,overhead=1e308")["sim"][
            "total_time_ns"] > 0
