from __future__ import annotations

import math
import random

import pytest

import oracles
from rhymesim.scheduler import (
    BETA_FLOOR,
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


def divide(lens):
    """tau(i, k) = lens[i] / k; the simplest monotone cost model."""
    return lambda i, k: lens[i] / k


def medians(lens):
    """Each prompt's stats with its median and max length both `lens[pid]`."""
    return {pid: PromptStat(float(n), float(n)) for pid, n in lens.items()}


class TestBuildGroups:
    def test_even_split(self):
        stats = medians({f"p{i}": i + 1 for i in range(8)})
        groups = build_groups(stats, 4)
        assert [g.prompt_ids for g in groups] == [
            ["p0", "p1"], ["p2", "p3"], ["p4", "p5"], ["p6", "p7"],
        ]
        assert [g.index for g in groups] == [0, 1, 2, 3]

    def test_remainder_goes_to_longest_groups(self):
        stats = medians({f"p{i}": i for i in range(10)})
        groups = build_groups(stats, 4)
        assert [len(g.prompt_ids) for g in groups] == [2, 2, 3, 3]

    def test_ties_stable_by_prompt_id(self):
        stats = medians({"b": 5, "a": 5, "d": 5, "c": 5})
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
            build_groups(medians({"a": 1}), 2)


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
        needed, plan = cal_wks(10.0, 2, t0=10.0,
                               tau=divide([10.0, 20.0]), max_wks=4)
        assert (needed, plan) == (2, [1, 1])

    def test_infeasible_target(self):
        # Group 1 needs tau <= 0.5 but even 4 workers give 20/4 = 5.
        needed, plan = cal_wks(0.0, 2, t0=0.5,
                               tau=divide([1.0, 20.0]), max_wks=4)
        assert needed == math.inf
        assert plan == []

    def test_large_gradient_gives_min_workers(self):
        needed, plan = cal_wks(1000.0, 3, t0=10.0,
                               tau=divide([10.0, 20.0, 30.0]), max_wks=4)
        assert plan == [1, 1, 1]


class TestPlanAllocation:
    def test_reference_instance_matches_exhaustive_search(self):
        tau = divide([8.0, 16.0, 32.0, 64.0])
        plan = plan_allocation(4, wks=10, t_train=0.0, tau=tau, max_wks=6, precision=0.01)
        assert plan.feasible
        best = oracles.exhaustive_best_gradient(4, 10, plan.t0, tau, 6)
        assert plan.gradient_d == pytest.approx(best, abs=0.01)

    def test_random_instances_match_exhaustive_search(self):
        rng = random.Random(99)
        for trial in range(60):
            n = rng.randint(2, 5)
            max_wks = rng.randint(2, 6)
            wks = rng.randint(n, 20)
            lens = sorted(round(rng.uniform(1, 50), 1) for _ in range(n))
            table = oracles.random_monotone_table(rng, lens, max_wks)

            def tau(i, k):
                return table[(lens[i], k)]

            p = 0.05
            plan = plan_allocation(n, wks, 0.0, tau, max_wks, p)
            t0 = max(tau(0, max_wks), 0.0)
            d_cap = max(0.0, (tau(n - 1, 1) - t0) / (n - 1))
            best = oracles.exhaustive_best_gradient(n, wks, t0, tau, max_wks, d_cap=d_cap)
            if best is None:
                assert not plan.feasible, trial
            else:
                assert plan.feasible, trial
                assert plan.gradient_d <= best + p, trial
                # The returned plan must really meet its own gradient.
                needed, check = cal_wks(plan.gradient_d, n, plan.t0, tau, max_wks)
                assert needed <= wks and check == plan.per_group_workers

    def test_ample_workers_drive_gradient_to_zero(self):
        # Resource-rich limit: with t_train flooring t0, enough workers let
        # every group finish within t0 + epsilon.
        tau = divide([10.0, 20.0, 40.0])
        plan = plan_allocation(3, wks=1000, t_train=5.0, tau=tau, max_wks=500, precision=0.01)
        assert plan.feasible
        assert plan.gradient_d <= 0.01
        for i, k in enumerate(plan.per_group_workers):
            assert tau(i, k) <= plan.t0 + plan.gradient_d * i + 1e-9

    def test_train_time_dominates_t0(self):
        plan = plan_allocation(2, wks=8, t_train=50.0, tau=divide([10.0, 20.0]), max_wks=4)
        assert plan.t0 == 50.0

    def test_infeasible_reported_not_raised(self):
        plan = plan_allocation(2, wks=2, t_train=0.0, tau=lambda i, k: 1000.0,
                               max_wks=1, precision=0.5)
        # t0 = 1000 and every group takes 1000: targets are satisfiable.
        assert plan.feasible
        plan2 = plan_allocation(2, wks=1, t_train=0.0, tau=divide([10.0, 20.0]), max_wks=1)
        assert not plan2.feasible

    @pytest.mark.parametrize("precision", [0.0, -1.0, math.nan])
    def test_non_positive_precision_rejected(self, precision):
        with pytest.raises(ValueError, match="precision"):
            plan_allocation(3, wks=8, t_train=0.0, tau=divide([10.0, 20.0, 40.0]),
                            precision=precision)

    def test_precision_below_float_resolution_ends(self):
        # No two floats in (0, d_max] are 1e-300 apart, so the search ends
        # when the midpoint rounds to an endpoint: at the smallest gradient a
        # float can name, the one the exhaustive search finds.
        tau = divide([8.0, 16.0, 32.0, 64.0])
        plan = plan_allocation(4, wks=10, t_train=0.0, tau=tau, max_wks=6, precision=1e-300)
        assert plan.feasible
        best = oracles.exhaustive_best_gradient(4, 10, plan.t0, tau, 6)
        assert plan.gradient_d == pytest.approx(best, rel=1e-12)

    def test_degenerate_group_count_rejected(self):
        with pytest.raises(ValueError):
            plan_allocation(1, wks=4, t_train=0.0, tau=divide([10.0]))

    @pytest.mark.parametrize("max_wks", [0, -1])
    def test_bad_worker_bounds_rejected(self, max_wks):
        with pytest.raises(ValueError, match="max_wks"):
            plan_allocation(3, wks=10, t_train=0.0, tau=divide([10.0, 20.0, 40.0]),
                            max_wks=max_wks)

    def test_budget_under_the_minimum_is_infeasible(self):
        # Every group needs at least one worker.
        plan = plan_allocation(3, wks=2, t_train=2.0, tau=divide([10.0, 20.0, 40.0]),
                               max_wks=4)
        assert not plan.feasible
        assert plan.per_group_workers == [] and plan.t0 == 2.0

    def test_default_max_wks_leaves_one_worker_to_every_other_group(self):
        # 10 workers over 3 groups: at most 8 for one group, and t0 is the
        # shortest group's time on those 8.
        plan = plan_allocation(3, wks=10, t_train=0.0, tau=divide([10.0, 20.0, 40.0]))
        assert plan.feasible
        assert plan.t0 == 10.0 / 8
        assert max(plan.per_group_workers) <= 8

    def test_every_group_within_its_worker_bounds(self):
        rng = random.Random(17)
        feasible = 0
        for _ in range(30):
            n = rng.randint(2, 5)
            wks = rng.randint(n, 3 * n + 2)
            lens = sorted(round(rng.uniform(1, 40), 1) for _ in range(n))
            plan = plan_allocation(n, wks, 0.0, divide(lens), max_wks=3, precision=0.1)
            if plan.feasible:
                feasible += 1
                assert all(1 <= k <= 3 for k in plan.per_group_workers)
                assert sum(plan.per_group_workers) <= wks
        assert feasible

    def test_budget_respected(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 5)
            wks = rng.randint(n, 12)
            lens = sorted(round(rng.uniform(1, 40), 1) for _ in range(n))
            plan = plan_allocation(n, wks, 0.0, divide(lens), wks, 0.1)
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
    return RankingGroup(index=index, prompt_ids=["p"], max_hist_len=max_hist)


class TestMigrationDecision:
    def test_both_conditions_required(self):
        # In the last 10% and over the length threshold: migrate.
        d = migration_decision(group(0), generated_len=150, completed=19, total=20,
                               beta=1.1, n_groups=4, active_group_loads={1: 3.0})
        assert d.migrates
        # Over length but the group is only half done: stay.
        d = migration_decision(group(0), generated_len=150, completed=10, total=20,
                               beta=1.1, n_groups=4, active_group_loads={1: 3.0})
        assert not d.migrates
        # In the last 10% but under the threshold: stay.
        d = migration_decision(group(0), generated_len=105, completed=19, total=20,
                               beta=1.1, n_groups=4, active_group_loads={1: 3.0})
        assert not d.migrates

    def test_short_group_goes_intra_to_least_loaded(self):
        d = migration_decision(group(1), 200, 19, 20, BETA_FLOOR, 4,
                               active_group_loads={0: 5.0, 2: 1.0, 3: 9.0})
        assert d.kind == "intra_step"
        assert d.target_group == 2

    def test_long_group_goes_inter(self):
        d = migration_decision(group(3), 200, 19, 20, BETA_FLOOR, 4,
                               active_group_loads={0: 5.0})
        assert d.kind == "inter_step"

    def test_short_group_without_candidates_defers(self):
        d = migration_decision(group(0), 200, 19, 20, BETA_FLOOR, 4,
                               active_group_loads={})
        assert d.kind == "inter_step"

    def test_beta_floor_enforced(self):
        # Beta is floored where it is computed from history, not where a
        # decision reads it.
        assert beta_from_history([0.9, 1.0]) == BETA_FLOOR == 1.1


class TestInStragglerTail:
    @pytest.mark.parametrize("alpha,total", [(10.0, 40), (10.0, 73), (10.0, 100)])
    def test_boundary_is_floor_of_alpha_share(self, alpha, total):
        tail = max(1, math.floor(alpha / 100.0 * total))
        assert in_straggler_tail(total - tail, total)
        assert not in_straggler_tail(total - tail - 1, total)

    @pytest.mark.parametrize("total", [2, 5, 9])
    def test_small_group_floors_to_last_rollout(self, total):
        # floor(0.1 * total) is 0 below ten rollouts; the last one still counts.
        assert in_straggler_tail(total - 1, total)
        assert not in_straggler_tail(total - 2, total)

    def test_migration_decision_migrates_only_in_tail(self):
        for total in range(1, 31):
            for completed in range(total):
                d = migration_decision(group(3), 10_000, completed, total, 1.1, 4, {})
                assert d.migrates == in_straggler_tail(completed, total)
