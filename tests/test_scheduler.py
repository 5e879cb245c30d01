from __future__ import annotations

import math
import random

import pytest

import oracles
from rhymesim.scheduler import (
    AnalyticCostModel,
    MigrationPolicy,
    ProfileCostModel,
    PromptStat,
    RankingGroup,
    assignment_order,
    beta_from_history,
    build_groups,
    cal_wks,
    in_straggler_tail,
    migration_decision,
    plan_allocation,
)


class DivideModel:
    """tau(l, k) = l / k; the simplest monotone cost model."""

    def tau(self, length, workers):
        return length / workers


class TableModel:
    def __init__(self, table):
        self.table = table  # {(len, workers): seconds}

    def tau(self, length, workers):
        return self.table[(length, workers)]


class TestBuildGroups:
    def test_even_split_representatives(self):
        stats = {f"p{i}": float(i + 1) for i in range(8)}
        groups = build_groups(stats, 4)
        assert [g.prompt_ids for g in groups] == [
            ["p0", "p1"], ["p2", "p3"], ["p4", "p5"], ["p6", "p7"],
        ]
        assert [g.representative_len for g in groups] == [1.5, 3.5, 5.5, 7.5]

    def test_remainder_goes_to_longest_groups(self):
        stats = {f"p{i}": float(i) for i in range(10)}
        groups = build_groups(stats, 4)
        assert [len(g.prompt_ids) for g in groups] == [2, 2, 3, 3]

    def test_ties_stable_by_prompt_id(self):
        stats = {"b": 5.0, "a": 5.0, "d": 5.0, "c": 5.0}
        groups = build_groups(stats, 2)
        assert groups[0].prompt_ids == ["a", "b"]
        assert groups[1].prompt_ids == ["c", "d"]

    def test_max_hist_len_tracked(self):
        stats = {"a": PromptStat(10.0, 40.0), "b": PromptStat(12.0, 15.0),
                 "c": PromptStat(30.0, 31.0), "d": PromptStat(33.0, 90.0)}
        groups = build_groups(stats, 2)
        assert groups[0].max_hist_len == 40.0
        assert groups[1].max_hist_len == 90.0

    def test_too_few_prompts(self):
        with pytest.raises(ValueError):
            build_groups({"a": 1.0}, 2)


class TestAssignmentOrder:
    def test_odd_step_ascending(self):
        assert assignment_order(1, 4) == [0, 1, 2, 3]

    def test_even_step_descending(self):
        assert assignment_order(2, 4) == [3, 2, 1, 0]

    def test_complementarity_identity(self):
        for n in (2, 3, 4, 8):
            for step in (1, 2, 3, 4, 5):
                a = assignment_order(step, n)
                b = assignment_order(step + 1, n)
                assert all(a[slot] + b[slot] == n - 1 for slot in range(n))


class TestCalWks:
    def test_hand_example(self):
        needed, plan = cal_wks(10.0, [10.0, 20.0], t0=10.0,
                               model=DivideModel(), min_wks=1, max_wks=4)
        assert (needed, plan) == (2, [1, 1])

    def test_infeasible_target(self):
        # Group 1 needs tau <= 0.5 but even 4 workers give 20/4 = 5.
        needed, plan = cal_wks(0.0, [1.0, 20.0], t0=0.5,
                               model=DivideModel(), min_wks=1, max_wks=4)
        assert needed == math.inf
        assert plan == []

    def test_large_gradient_gives_min_workers(self):
        needed, plan = cal_wks(1000.0, [10.0, 20.0, 30.0], t0=10.0,
                               model=DivideModel(), min_wks=1, max_wks=4)
        assert plan == [1, 1, 1]


class TestPlanAllocation:
    def test_reference_instance_matches_exhaustive_search(self):
        lens = [8.0, 16.0, 32.0, 64.0]
        model = DivideModel()
        plan = plan_allocation(lens, wks=10, t_train=0.0, model=model,
                               min_wks=1, max_wks=6, precision=0.01)
        assert plan.feasible
        best = oracles.exhaustive_best_gradient(lens, 10, plan.t0, model.tau, 1, 6)
        assert plan.gradient_d == pytest.approx(best, abs=0.01)

    def test_random_instances_match_exhaustive_search(self):
        rng = random.Random(99)
        for trial in range(60):
            n = rng.randint(2, 5)
            max_wks = rng.randint(2, 6)
            wks = rng.randint(n, 20)
            lens = sorted(round(rng.uniform(1, 50), 1) for _ in range(n))
            model = TableModel(oracles.random_monotone_table(rng, lens, max_wks))
            p = 0.05
            plan = plan_allocation(lens, wks, 0.0, model, 1, max_wks, p)
            t0 = max(model.tau(lens[0], max_wks), 0.0)
            d_cap = max(0.0, (model.tau(lens[-1], 1) - t0) / (n - 1))
            best = oracles.exhaustive_best_gradient(lens, wks, t0, model.tau, 1, max_wks,
                                                    d_cap=d_cap)
            if best is None:
                assert not plan.feasible, trial
            else:
                assert plan.feasible, trial
                assert plan.gradient_d <= best + p, trial
                # The returned plan must really meet its own gradient.
                needed, check = cal_wks(plan.gradient_d, lens, plan.t0, model, 1, max_wks)
                assert needed <= wks and check == plan.per_group_workers

    def test_ample_workers_drive_gradient_to_zero(self):
        # Resource-rich limit: with t_train flooring t0, enough workers let
        # every group finish within t0 + epsilon.
        plan = plan_allocation([10.0, 20.0, 40.0], wks=1000, t_train=5.0,
                               model=DivideModel(), min_wks=1, max_wks=500,
                               precision=0.01)
        assert plan.feasible
        assert plan.gradient_d <= 0.01
        model = DivideModel()
        for i, k in enumerate(plan.per_group_workers):
            assert model.tau([10.0, 20.0, 40.0][i], k) <= plan.t0 + plan.gradient_d * i + 1e-9

    def test_train_time_dominates_t0(self):
        plan = plan_allocation([10.0, 20.0], wks=8, t_train=50.0,
                               model=DivideModel(), min_wks=1, max_wks=4)
        assert plan.t0 == 50.0

    def test_infeasible_reported_not_raised(self):
        class Slow:
            def tau(self, length, workers):
                return 1000.0

        plan = plan_allocation([10.0, 20.0], wks=2, t_train=0.0,
                               model=Slow(), min_wks=1, max_wks=1, precision=0.5)
        # t0 = 1000 and every group takes 1000: targets are satisfiable.
        assert plan.feasible
        plan2 = plan_allocation([10.0, 20.0], wks=1, t_train=0.0,
                                model=DivideModel(), min_wks=1, max_wks=1)
        assert not plan2.feasible

    def test_degenerate_group_count_rejected(self):
        with pytest.raises(ValueError):
            plan_allocation([10.0], wks=4, t_train=0.0, model=DivideModel())

    def test_unsorted_lens_rejected(self):
        with pytest.raises(ValueError):
            plan_allocation([20.0, 10.0], wks=4, t_train=0.0, model=DivideModel())

    def test_budget_respected(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 5)
            wks = rng.randint(n, 12)
            lens = sorted(round(rng.uniform(1, 40), 1) for _ in range(n))
            plan = plan_allocation(lens, wks, 0.0, DivideModel(), 1, wks, 0.1)
            if plan.feasible:
                assert sum(plan.per_group_workers) <= wks


class TestBetaFromHistory:
    def test_floor_applies(self):
        assert beta_from_history([1.0, 1.0, 1.0]) == 1.1

    def test_percentile_nearest_rank(self):
        assert beta_from_history([1.0, 1.2, 1.4, 1.6]) == 1.4
        assert beta_from_history([1.0, 1.2, 1.4, 1.6]) == pytest.approx(
            oracles.nearest_rank_percentile([1.0, 1.2, 1.4, 1.6], 75)
        )

    def test_single_rate(self):
        assert beta_from_history([2.0]) == 2.0

    def test_empty_defaults(self):
        assert beta_from_history([]) == 1.1


def group(index=0, max_hist=100.0):
    return RankingGroup(index=index, prompt_ids=["p"], representative_len=50.0,
                        max_hist_len=max_hist)


class TestMigrationDecision:
    def test_both_conditions_required(self):
        policy = MigrationPolicy(beta=1.1)
        # In the last 10% and over the length threshold: migrate.
        d = migration_decision(group(0), generated_len=150, completed=19, total=20,
                               policy=policy, n_groups=4, active_group_loads={1: 3.0})
        assert d.migrates
        # Over length but the group is only half done: stay.
        d = migration_decision(group(0), generated_len=150, completed=10, total=20,
                               policy=policy, n_groups=4, active_group_loads={1: 3.0})
        assert not d.migrates
        # In the last 10% but under the threshold: stay.
        d = migration_decision(group(0), generated_len=105, completed=19, total=20,
                               policy=policy, n_groups=4, active_group_loads={1: 3.0})
        assert not d.migrates

    def test_short_group_goes_intra_to_least_loaded(self):
        d = migration_decision(group(1), 200, 19, 20, MigrationPolicy(), 4,
                               active_group_loads={0: 5.0, 2: 1.0, 3: 9.0})
        assert d.kind == "intra_step"
        assert d.target_group == 2

    def test_long_group_goes_inter(self):
        d = migration_decision(group(3), 200, 19, 20, MigrationPolicy(), 4,
                               active_group_loads={0: 5.0})
        assert d.kind == "inter_step"

    def test_short_group_without_candidates_defers(self):
        d = migration_decision(group(0), 200, 19, 20, MigrationPolicy(), 4,
                               active_group_loads={})
        assert d.kind == "inter_step"

    def test_beta_floor_enforced(self):
        assert MigrationPolicy(beta=0.9).beta == 1.1


class TestInStragglerTail:
    @pytest.mark.parametrize("alpha,total", [(10.0, 40), (10.0, 73), (25.0, 10), (10.0, 100)])
    def test_boundary_is_floor_of_alpha_share(self, alpha, total):
        policy = MigrationPolicy(alpha_pct=alpha)
        tail = max(1, math.floor(alpha / 100.0 * total))
        assert in_straggler_tail(total - tail, total, policy)
        assert not in_straggler_tail(total - tail - 1, total, policy)

    @pytest.mark.parametrize("total", [2, 5, 9])
    def test_small_group_floors_to_last_rollout(self, total):
        # floor(0.1 * total) is 0 below ten rollouts; the last one still counts.
        policy = MigrationPolicy()
        assert in_straggler_tail(total - 1, total, policy)
        assert not in_straggler_tail(total - 2, total, policy)

    def test_migration_decision_migrates_only_in_tail(self):
        policy = MigrationPolicy(beta=1.1)
        for total in range(1, 31):
            for completed in range(total):
                d = migration_decision(group(3), 10_000, completed, total, policy, 4, {})
                assert d.migrates == in_straggler_tail(completed, total, policy)


class TestProfileCostModel:
    def test_csv_round_trip_and_interpolation(self, tmp_path):
        path = tmp_path / "profile.csv"
        rows = ["len,dp,seconds"]
        for l, d, s in [(100, 1, 10.0), (100, 2, 6.0), (200, 1, 20.0), (200, 2, 12.0)]:
            rows.append(f"{l},{d},{s}")
        path.write_text("\n".join(rows) + "\n")
        model = ProfileCostModel.from_csv(path)
        assert model.tau(100, 1) == 10.0
        assert model.tau(200, 2) == 12.0
        assert model.tau(150, 1) == pytest.approx(15.0)
        assert model.tau(100, 2) < model.tau(100, 1)
        # Clamping outside the grid.
        assert model.tau(50, 1) == 10.0
        assert model.tau(400, 8) == 12.0

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("len,dp,seconds\n100,1,10\n200,2,12\n")
        with pytest.raises(ValueError):
            ProfileCostModel.from_csv(path)


class TestAnalyticCostModel:
    def test_monotone_in_workers_and_length(self):
        model = AnalyticCostModel(batch_size=64)
        assert model.tau(100, 2) <= model.tau(100, 1)
        assert model.tau(200, 2) >= model.tau(100, 2)

    def test_speculation_divides_per_token_cost(self):
        slow = AnalyticCostModel(batch_size=16, accepted_per_pass=0.0, fixed=1.0)
        fast = AnalyticCostModel(batch_size=16, accepted_per_pass=1.0, fixed=1.0)
        assert fast.tau(100, 2) - 1.0 == pytest.approx((slow.tau(100, 2) - 1.0) / 2.0)
