"""Dynamic migration substrate: tracker, cost model, policy, engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_loops import reference_desired_bo_set, reference_trim_to_budget

from repro.core.errors import ConfigError, PolicyError, SimulationError
from repro.core.units import PAGE_SIZE, gbps
from repro.gpu.trace import DramTrace, WorkloadCharacteristics
from repro.memory.topology import simulated_baseline
from repro.migration.cost import (
    MigrationCostModel,
    free_migration,
    paper_migration,
)
from repro.migration.engine import MigrationSimulator
from repro.migration.policy import EpochMigrationPolicy, trim_to_budget
from repro.migration.tracker import HotnessTracker


class TestHotnessTracker:
    def test_counts_accumulate(self):
        tracker = HotnessTracker(4, decay=1.0)
        tracker.observe_epoch(np.array([0, 0, 1]))
        tracker.observe_epoch(np.array([0, 3]))
        assert tracker.scores.tolist() == [3.0, 1.0, 0.0, 1.0]
        assert tracker.epochs_observed == 2

    def test_decay_forgets_old_phases(self):
        tracker = HotnessTracker(2, decay=0.5)
        tracker.observe_epoch(np.array([0] * 8))
        tracker.observe_epoch(np.array([1] * 8))
        # The recent page must now rank hotter than the stale one.
        assert tracker.scores[1] > tracker.scores[0]

    def test_scores_read_only(self):
        tracker = HotnessTracker(2)
        with pytest.raises(ValueError):
            tracker.scores[0] = 5

    def test_out_of_range_page_rejected(self):
        tracker = HotnessTracker(2)
        with pytest.raises(SimulationError):
            tracker.observe_epoch(np.array([5]))

    def test_reset(self):
        tracker = HotnessTracker(2)
        tracker.observe_epoch(np.array([0]))
        tracker.reset()
        assert tracker.scores.sum() == 0
        assert tracker.epochs_observed == 0

    def test_validation(self):
        with pytest.raises(SimulationError):
            HotnessTracker(0)
        with pytest.raises(SimulationError):
            HotnessTracker(4, decay=0.0)


class TestCostModel:
    def test_paper_costs(self):
        model = paper_migration()
        # One 4 kB page at 4 GB/s ~= 1.02 us to copy.
        assert model.copy_time_ns(1) == pytest.approx(1024, rel=0.01)
        # Plus 5 us stall, half exposed.
        assert model.stall_time_ns(1) == pytest.approx(2500)

    def test_free_migration_is_free(self):
        model = free_migration()
        assert model.total_time_ns(10_000) == 0.0

    def test_linear_in_pages(self):
        model = paper_migration()
        assert model.total_time_ns(10) == pytest.approx(
            10 * model.total_time_ns(1)
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            MigrationCostModel(migration_bandwidth=0)
        with pytest.raises(ConfigError):
            MigrationCostModel(first_touch_stall_us=-1)
        with pytest.raises(ConfigError):
            MigrationCostModel(stall_exposure=2.0)
        with pytest.raises(ConfigError):
            paper_migration().copy_time_ns(-1)


class TestMigrationPolicy:
    def _policy(self, capacity=2, budget=None, hysteresis=1.0):
        return EpochMigrationPolicy(
            bo_zone=0, co_zone=1, bo_capacity_pages=capacity,
            bo_traffic_fraction=200 / 280,
            budget_pages_per_epoch=budget, hysteresis=hysteresis,
        )

    def _tracker(self, counts):
        tracker = HotnessTracker(len(counts), decay=1.0)
        pages = np.repeat(np.arange(len(counts)), counts)
        tracker.observe_epoch(pages)
        return tracker

    def test_promotes_hot_pages_into_free_bo(self):
        policy = self._policy(capacity=2)
        tracker = self._tracker([1, 10, 10, 1])
        zone_map = np.ones(4, dtype=np.int16)  # everything CO
        plan = policy.plan(zone_map, tracker)
        assert sorted(plan.promote.tolist()) == [1, 2]
        assert plan.demote.size == 0

    def test_demotes_cold_to_make_room(self):
        policy = self._policy(capacity=1)
        tracker = self._tracker([10, 1])
        zone_map = np.array([1, 0], dtype=np.int16)  # cold page in BO
        plan = policy.plan(zone_map, tracker)
        assert plan.promote.tolist() == [0]
        assert plan.demote.tolist() == [1]

    def test_hysteresis_damps_near_ties(self):
        policy = self._policy(capacity=1, hysteresis=2.0)
        tracker = self._tracker([11, 10])
        zone_map = np.array([1, 0], dtype=np.int16)
        plan = policy.plan(zone_map, tracker)
        # 11 is not 2x hotter than 10: no thrash.
        assert plan.n_pages == 0

    def test_budget_caps_moves(self):
        policy = self._policy(capacity=4, budget=1)
        tracker = self._tracker([5, 5, 5, 5])
        zone_map = np.ones(4, dtype=np.int16)
        plan = policy.plan(zone_map, tracker)
        assert plan.n_pages <= 1

    def test_stable_placement_yields_empty_plan(self):
        policy = self._policy(capacity=2)
        tracker = self._tracker([10, 10, 1, 1])
        zone_map = np.array([0, 0, 1, 1], dtype=np.int16)
        plan = policy.plan(zone_map, tracker)
        assert plan.n_pages == 0

    def test_cold_start_no_observations(self):
        policy = self._policy(capacity=2)
        tracker = HotnessTracker(4)
        plan = policy.plan(np.ones(4, dtype=np.int16), tracker)
        assert plan.n_pages == 0

    def test_validation(self):
        with pytest.raises(PolicyError):
            EpochMigrationPolicy(0, 0, 1, 0.5)
        with pytest.raises(PolicyError):
            EpochMigrationPolicy(0, 1, -1, 0.5)
        with pytest.raises(PolicyError):
            EpochMigrationPolicy(0, 1, 1, 0.0)
        with pytest.raises(PolicyError):
            EpochMigrationPolicy(0, 1, 1, 0.5, hysteresis=0.5)

    def test_footprint_mismatch_rejected(self):
        policy = self._policy()
        tracker = HotnessTracker(4)
        with pytest.raises(PolicyError):
            policy.plan(np.ones(3, dtype=np.int16), tracker)

    @given(counts=st.lists(st.integers(0, 50), min_size=1, max_size=64),
           bo_share=st.floats(0.0, 1.0), capacity=st.integers(0, 64),
           hysteresis=st.floats(1.0, 4.0),
           watermarks=st.one_of(
               st.none(),
               st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 1.0)).map(
                   lambda lh: (lh[0], min(1.0, lh[0] + (1 - lh[0]) * lh[1])))),
           per_epoch=st.one_of(st.none(), st.integers(0, 64)),
           zero_in_policy=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_zero_budget_plans_nothing(self, counts, bo_share, capacity,
                                       hysteresis, watermarks, per_epoch,
                                       zero_in_policy, seed):
        """A zero effective budget — from the boundary's cap or the
        policy's own per-epoch budget — gives an empty int64 plan and
        leaves the zone map alone."""
        rng = np.random.default_rng(seed)
        zone_map = np.where(rng.random(len(counts)) < bo_share, 0, 1
                            ).astype(np.int16)
        capacity = max(capacity, int((zone_map == 0).sum()))
        policy = EpochMigrationPolicy(
            bo_zone=0, co_zone=1, bo_capacity_pages=capacity,
            bo_traffic_fraction=200 / 280,
            budget_pages_per_epoch=0 if zero_in_policy else per_epoch,
            hysteresis=hysteresis, watermarks=watermarks,
        )
        budget = per_epoch if zero_in_policy else 0
        before = zone_map.copy()
        zone_map.flags.writeable = False
        plan = policy.plan(zone_map, self._tracker(counts),
                           budget_pages=budget)
        for moves in (plan.promote, plan.demote):
            assert moves.dtype == np.int64
            assert moves.size == 0
        assert plan.n_pages == 0
        assert np.array_equal(zone_map, before)

    @pytest.mark.parametrize("per_epoch", (None, 0, 3))
    def test_zero_budget_still_checks_footprint(self, per_epoch):
        policy = self._policy(budget=per_epoch)
        tracker = self._tracker([5, 1, 1, 5])
        with pytest.raises(PolicyError):
            policy.plan(np.ones(3, dtype=np.int16), tracker,
                        budget_pages=0)

    @pytest.mark.parametrize("per_epoch", (None, 0, 3))
    def test_negative_boundary_budget_rejected(self, per_epoch):
        policy = self._policy(budget=per_epoch)
        tracker = self._tracker([5, 1, 1, 5])
        with pytest.raises(PolicyError):
            policy.plan(np.ones(4, dtype=np.int16), tracker,
                        budget_pages=-1)


class TestMigrationSimulator:
    def _setup(self, n_pages=64, hot_pages=8, capacity=8):
        rng = np.random.default_rng(0)
        # 70% of traffic on a small hot set.
        hot = rng.integers(0, hot_pages, size=7000)
        cold = rng.integers(hot_pages, n_pages, size=3000)
        pages = np.concatenate([
            arr for pair in zip(np.array_split(hot, 10),
                                np.array_split(cold, 10))
            for arr in pair
        ])
        trace = DramTrace(page_indices=pages, footprint_pages=n_pages,
                          n_raw_accesses=pages.size, n_epochs=10)
        topo = simulated_baseline(
            bo_capacity_gib=capacity * PAGE_SIZE / 2**30
        )
        policy = EpochMigrationPolicy(
            bo_zone=0, co_zone=1, bo_capacity_pages=capacity,
            bo_traffic_fraction=200 / 280,
        )
        chars = WorkloadCharacteristics(parallelism=448)
        return trace, topo, policy, chars

    def test_free_migration_beats_static_bad_start(self):
        trace, topo, policy, chars = self._setup()
        simulator = MigrationSimulator(topo, cost_model=free_migration())
        all_co = np.ones(trace.footprint_pages, dtype=np.int16)
        migrated = simulator.run(trace, all_co, chars, policy)

        static = MigrationSimulator(topo, cost_model=free_migration())
        frozen = EpochMigrationPolicy(
            bo_zone=0, co_zone=1, bo_capacity_pages=0,  # can't move
            bo_traffic_fraction=200 / 280,
        )
        stuck = static.run(trace, all_co, chars, frozen)
        assert migrated.total_time_ns < stuck.total_time_ns
        assert migrated.pages_migrated > 0

    def test_costed_migration_accounts_overhead(self):
        trace, topo, policy, chars = self._setup()
        all_co = np.ones(trace.footprint_pages, dtype=np.int16)
        free = MigrationSimulator(topo, cost_model=free_migration()).run(
            trace, all_co, chars, policy
        )
        costed = MigrationSimulator(topo,
                                    cost_model=paper_migration()).run(
            trace, all_co, chars, policy
        )
        assert costed.migration_time_ns > 0
        assert costed.total_time_ns > free.total_time_ns
        assert costed.overhead_fraction > 0.1

    def test_capacity_never_exceeded(self):
        trace, topo, policy, chars = self._setup(capacity=8)
        simulator = MigrationSimulator(topo, cost_model=free_migration())
        all_co = np.ones(trace.footprint_pages, dtype=np.int16)
        result = simulator.run(trace, all_co, chars, policy)
        assert int((result.final_zone_map == 0).sum()) <= 8

    def test_initial_overcommit_rejected(self):
        trace, topo, policy, chars = self._setup(capacity=8)
        all_bo = np.zeros(trace.footprint_pages, dtype=np.int16)
        simulator = MigrationSimulator(topo)
        with pytest.raises(SimulationError):
            simulator.run(trace, all_bo, chars, policy)

    def test_zone_map_size_checked(self):
        trace, topo, policy, chars = self._setup()
        simulator = MigrationSimulator(topo)
        with pytest.raises(SimulationError):
            simulator.run(trace, np.ones(3, dtype=np.int16), chars,
                          policy)

    def test_migration_moves_hot_set_into_bo(self):
        trace, topo, policy, chars = self._setup(hot_pages=8, capacity=8)
        simulator = MigrationSimulator(topo, cost_model=free_migration())
        all_co = np.ones(trace.footprint_pages, dtype=np.int16)
        result = simulator.run(trace, all_co, chars, policy)
        # The hot pages (indices 0..7) should end in BO.
        assert set(np.flatnonzero(result.final_zone_map == 0)) <= set(
            range(16)
        )
        assert (result.final_zone_map[:8] == 0).sum() >= 6


class TestBudgetTrim:
    """The planner's closed-form budget trim against the seed loop."""

    @given(st.integers(0, 5_000), st.integers(0, 5_000),
           st.integers(0, 10_000))
    def test_closed_form_equals_loop(self, n_promote, n_demote, budget):
        assert trim_to_budget(n_promote, n_demote, budget) == \
            reference_trim_to_budget(n_promote, n_demote, budget)

    def test_small_cases_exhaustively(self):
        for p in range(12):
            for d in range(12):
                for budget in range(25):
                    assert trim_to_budget(p, d, budget) == \
                        reference_trim_to_budget(p, d, budget)


@st.composite
def _hotness(draw):
    """Scores with many ties (a few levels, zeros among them), or
    spread ones; a capacity anywhere from 0 to past the footprint."""
    n_pages = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        levels = np.array(draw(st.lists(
            st.sampled_from((0.0, 0.5, 1.0, 3.0, 7.25)), min_size=1,
            max_size=4)))
        scores = rng.choice(levels, n_pages)
    else:
        scores = rng.random(n_pages) * 10.0
        scores[rng.random(n_pages) < 0.3] = 0.0
    capacity = draw(st.one_of(st.integers(0, n_pages + 5),
                              st.sampled_from((0, n_pages))))
    fraction = draw(st.sampled_from((1e-9, 0.3, 0.7, 0.999, 1.0)))
    return scores, capacity, fraction


class TestDesiredSet:
    """The planner's partitioned hottest-first selection against the
    seed's whole-footprint stable sort, as a loop."""

    @settings(max_examples=300, deadline=None)
    @given(_hotness())
    def test_selection_equals_loop(self, case):
        scores, capacity, fraction = case
        tracker = HotnessTracker(scores.size)
        tracker._scores[:] = scores
        policy = EpochMigrationPolicy(bo_zone=0, co_zone=1,
                                      bo_capacity_pages=capacity,
                                      bo_traffic_fraction=fraction)
        got = policy._desired_bo_set(tracker)
        assert got.dtype == np.int64
        assert got.tolist() == reference_desired_bo_set(scores, fraction,
                                                        capacity)

    def test_ties_at_the_cut_take_the_lowest_pages(self):
        tracker = HotnessTracker(8)
        tracker._scores[:] = [1.0, 4.0, 2.0, 2.0, 4.0, 2.0, 0.0, 2.0]
        policy = EpochMigrationPolicy(0, 1, bo_capacity_pages=4,
                                      bo_traffic_fraction=1.0)
        assert policy._desired_bo_set(tracker).tolist() == [1, 4, 2, 3]
