from __future__ import annotations

import functools
import gc
import hashlib
import heapq
import itertools
import json
import math
import os
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import rhymesim.sim as sim_module
from rhymesim.events import EVENTS, MIGRATION_TARGETS, check_record, derive
from rhymesim.history import Response
from rhymesim.scheduler import (
    BETA_FLOOR,
    MigrationDecision,
    RankingGroup,
    beta_from_history,
    in_straggler_tail,
    partition_sizes,
)
from rhymesim.sim import (
    ClusterSpec,
    CostConfig,
    InfeasiblePlanError,
    Policy,
    SimulationStalledError,
    run,
)
from rhymesim.tracegen import Trace, TraceSpec, generate

ALL_POLICIES = ("colocated", "streaming", "histopipe_naive", "histopipe_two_tier")


def uniform_trace(epochs=4, length=300):
    spec = TraceSpec(
        num_prompts=16, epochs=epochs, group_size=2,
        len_mu=math.log(length), len_sigma=0.0, similarity=1.0,
        growth_mean=1.0, length_jitter=0.0, rank_noise=1.0, seed=1,
    )
    return Trace(generate(spec))


def longtail_trace(seed=3, epochs=8, sigma=1.1):
    spec = TraceSpec(
        num_prompts=48, epochs=epochs, group_size=4,
        len_mu=math.log(150), len_sigma=sigma, similarity=0.9,
        rank_noise=0.9, length_jitter=0.06, growth_mean=1.005, seed=seed,
    )
    return Trace(generate(spec))


def fast_cost(**overrides):
    base = dict(per_iter_base=0.004, per_iter_batch=0.0008,
                reward_time=0.002, train_base=0.3, train_per_sample=0.003)
    base.update(overrides)
    return CostConfig(**base)


CLUSTER = dict(rollout_workers=12, reward_workers=8, n_groups=4)


class TestUniformTrace:
    @pytest.mark.parametrize("policy", ["colocated", "streaming", "histopipe_naive"])
    def test_no_imbalance_means_no_bubbles(self, policy):
        res = run(uniform_trace(), ClusterSpec(rollout_workers=8, reward_workers=8, n_groups=4),
                  Policy(policy), fast_cost())
        assert res.metrics.bubble_fraction < 0.05

    def test_two_tier_uniform_with_mild_batch_penalty(self):
        # With a mild per-batch cost slope the planner's minimum-worker
        # allocation stays near the even split and bubbles vanish; one spare
        # worker absorbs boundary rounding in the plan.
        cost = CostConfig(per_iter_base=0.02, per_iter_batch=0.0003,
                          reward_time=0.002, train_base=0.3, train_per_sample=0.003)
        res = run(uniform_trace(), ClusterSpec(rollout_workers=10, reward_workers=8, n_groups=4),
                  Policy("histopipe_two_tier"), cost)
        assert res.metrics.bubble_fraction < 0.08


class TestDeterminismAndConservation:
    def test_identical_runs_identical_event_logs(self):
        trace = longtail_trace(epochs=6)
        for name in ALL_POLICIES:
            a = run(trace, ClusterSpec(**CLUSTER), Policy(name, speculation=(name != "colocated")),
                    fast_cost())
            b = run(trace, ClusterSpec(**CLUSTER), Policy(name, speculation=(name != "colocated")),
                    fast_cost())
            assert a.events_jsonl() == b.events_jsonl(), name

    def test_sample_conservation_with_migrations(self):
        trace = longtail_trace(epochs=8)
        res = run(trace, ClusterSpec(**CLUSTER), Policy("histopipe_two_tier"), fast_cost())
        scheduled = res.accounting["scheduled"]
        completed = res.accounting["completed"]
        assert set(scheduled) == set(completed)
        # A sample finishes in its step or, via inter-step migration, the next.
        for sid, done_step in completed.items():
            assert done_step in (scheduled[sid], scheduled[sid] + 1), sid
        late = [s for s, d in completed.items() if d == scheduled[s] + 1]
        assert len(late) == res.accounting["inter_migrations"]

    def test_every_sample_rewarded_exactly_once(self):
        trace = longtail_trace(epochs=6)
        res = run(trace, ClusterSpec(**CLUSTER), Policy("histopipe_naive"), fast_cost())
        rewarded = [e["sample"] for e in res.events if e["kind"] == "reward_done"]
        assert len(rewarded) == len(set(rewarded)) == res.metrics.samples

    @pytest.mark.parametrize("name,seed", [("histopipe_naive", 1), ("histopipe_two_tier", 5)])
    def test_oversampled_continuations_all_run(self, name, seed):
        # With oversampling a step can train before its last sample, so
        # workers run ahead of a straggler; an inter-step continuation bound
        # to a worker already past its step used to never run.
        trace = longtail_trace(seed=seed, epochs=4)
        res = run(trace, ClusterSpec(**CLUSTER),
                  Policy(name, speculation=True, oversample_pct=20.0), fast_cost())
        assert res.metrics.samples == len(res.accounting["scheduled"]) == 768
        assert res.accounting["inter_migrations"] > 0

    @pytest.mark.parametrize("oversample_pct,trained", [(0.0, 1152), (20.0, 924)])
    @pytest.mark.parametrize("name", ["streaming", "histopipe_two_tier"])
    def test_throughput_counts_trained_samples(self, name, oversample_pct, trained):
        # With oversampling, the samples rewarded after the last step's
        # train job started complete but are trained on by no step.
        res = run(longtail_trace(epochs=6), ClusterSpec(**CLUSTER),
                  Policy(name, oversample_pct=oversample_pct), fast_cost())
        batches = sum(e["batch"] for e in res.events if e["kind"] == "train_done")
        assert res.metrics.samples == 1152
        assert res.metrics.trained_samples == batches == trained
        assert res.metrics.samples_per_second == trained / res.metrics.makespan

    def test_lost_reward_raises_stalled(self, monkeypatch):
        queue_reward = sim_module._Simulation._queue_reward

        def drop_one(self, sid, attr_step):
            if sid != "p0001/e2/0":
                queue_reward(self, sid, attr_step)

        monkeypatch.setattr(sim_module._Simulation, "_queue_reward", drop_one)
        with pytest.raises(SimulationStalledError, match="never trained"):
            run(longtail_trace(epochs=3), ClusterSpec(**CLUSTER), Policy("histopipe_naive"),
                fast_cost())


class TestCausalityAndOffPolicy:
    def collect(self, policy_name, speculation=False):
        trace = longtail_trace(epochs=6)
        return run(trace, ClusterSpec(**CLUSTER), Policy(policy_name, speculation=speculation),
                   fast_cost())

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_weight_version_is_one_step_behind(self, policy):
        res = self.collect(policy)
        for ev in res.events:
            if ev["kind"] == "rollout_finish":
                scheduled = ev["scheduled_step"]
                assert ev["weight_version"] == scheduled - 1
                cont = ev["continuation_version"]
                if cont is not None:
                    # Inter-step continuations finish under the next version.
                    assert cont == scheduled
                    assert ev["step"] == scheduled + 1

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_rollout_waits_for_published_weights(self, policy):
        res = self.collect(policy)
        version_avail = {}
        for ev in res.events:
            if ev["kind"] == "weight_update":
                version_avail[ev["version"]] = ev["available_at"]
        # Find each worker's first rollout activity per step via the timeline
        # and check it does not precede its weight version's availability.
        step_first_finish = defaultdict(lambda: math.inf)
        for ev in res.events:
            if ev["kind"] == "rollout_finish":
                version = ev["weight_version"]
                if version in version_avail:
                    # The finish can only come after the version was available
                    # plus some rollout time; availability is the lower bound.
                    assert ev["time"] >= version_avail[version] - 1e-9

    def test_reward_follows_rollout_and_train_follows_batch(self):
        res = self.collect("streaming")
        finish_time = {}
        for ev in res.events:
            if ev["kind"] == "rollout_finish":
                finish_time[ev["sample"]] = ev["time"]
            elif ev["kind"] == "reward_done":
                assert ev["time"] >= finish_time[ev["sample"]] - 1e-9
        reward_counts = defaultdict(int)
        reward_clock = defaultdict(float)
        for ev in res.events:
            if ev["kind"] == "reward_done":
                step = ev["buffered_for"] or ev["step"]
                reward_counts[step] += 1
                reward_clock[step] = ev["time"]
        for ev in res.events:
            if ev["kind"] == "train_done":
                step = ev["step"]
                batch = ev["batch"]
                assert batch > 0
                assert ev["time"] >= ev["duration"]

    def test_bubble_accounting_exact(self):
        res = self.collect("histopipe_two_tier")
        makespan = res.metrics.makespan
        n = len(res.metrics.bubble_per_worker)
        busy = defaultdict(float)
        for wid, s, e, _kind in res.timeline:
            busy[wid] += e - s
        total = sum(busy[w] + res.metrics.bubble_per_worker[w] * makespan for w in range(n))
        assert total == pytest.approx(n * makespan, rel=1e-9)
        assert sum(res.metrics.stage_shares.values()) == pytest.approx(1.0, abs=1e-3)


class TestPolicyBehavior:
    def test_colocated_has_train_intervals_on_workers(self):
        res = run(uniform_trace(), ClusterSpec(rollout_workers=8, reward_workers=8, n_groups=4),
                  Policy("colocated"), fast_cost())
        kinds = {kind for _, _, _, kind in res.timeline}
        assert "train" in kinds and "switch" in kinds

    def test_streaming_keeps_train_off_rollout_workers(self):
        res = run(uniform_trace(), ClusterSpec(rollout_workers=8, reward_workers=8, n_groups=4),
                  Policy("streaming"), fast_cost())
        kinds = {kind for _, _, _, kind in res.timeline}
        assert kinds == {"rollout"}

    def test_histopipe_first_step_falls_back_to_streaming(self):
        trace = longtail_trace(epochs=4)
        res = run(trace, ClusterSpec(**CLUSTER), Policy("histopipe_naive"), fast_cost())
        boundaries = {e["step"]: e["policy"] for e in res.events
                      if e["kind"] == "step_boundary"}
        assert boundaries[1] == "streaming"
        assert boundaries[2] == "histopipe_naive"

    def test_alternating_group_assignment(self):
        trace = longtail_trace(epochs=4)
        res = run(trace, ClusterSpec(**CLUSTER), Policy("histopipe_naive"), fast_cost())
        boundaries = {e["step"]: e["workers"] for e in res.events
                      if e["kind"] == "step_boundary"}
        first_worker_groups = [boundaries[s]["0"] for s in (2, 3, 4)]
        # Even steps assign the longest group to the first workers, odd the
        # shortest; consecutive grouped steps alternate.
        assert first_worker_groups[0] != first_worker_groups[1]
        assert first_worker_groups[0] == first_worker_groups[2]

    def test_migrations_disabled_produce_none(self):
        trace = longtail_trace(epochs=6)
        res = run(trace, ClusterSpec(**CLUSTER),
                  Policy("histopipe_naive", migration=False), fast_cost())
        assert res.accounting["migrations"] == 0

    def test_migration_events_well_formed(self):
        trace = longtail_trace(epochs=8, sigma=1.2)
        res = run(trace, ClusterSpec(**CLUSTER), Policy("histopipe_two_tier"), fast_cost())
        migs = [e for e in res.events if e["kind"] == "migration"]
        assert res.accounting["migrations"] == len(migs)
        for ev in migs:
            assert ev["migration_kind"] in ("intra_step", "inter_step")
            assert ev["generated"] >= 0
        assert res.metrics.migration_pct <= 6.0

    @pytest.mark.parametrize("seed,name", [(507, "histopipe_two_tier"), (509, "histopipe_naive")])
    def test_finished_rollout_never_migrates(self, seed, name):
        # On these seeds a rollout used to be migrated, inter-step, after its
        # last token: its completion tied with the one whose check moved it.
        spec = TraceSpec(num_prompts=128, group_size=8, epochs=3, len_mu=math.log(150),
                         len_sigma=0.8, similarity=0.9, rank_noise=0.9, length_jitter=0.06,
                         growth_mean=1.005, seed=seed)
        res = run(Trace(generate(spec)), ClusterSpec(64, 8, 8), Policy(name), fast_cost())
        tokens = {e["sample"]: e["tokens"] for e in res.events
                  if e["kind"] == "rollout_finish"}
        migrations = [e for e in res.events if e["kind"] == "migration"]
        assert migrations
        assert all(m["generated"] < tokens[m["sample"]] for m in migrations)

    @pytest.mark.parametrize("name", ["histopipe_naive", "histopipe_two_tier"])
    def test_continuation_taken_while_waiting_for_weights_runs_first(self, name):
        # Worker 3 drains its step-3 share, waits for step 4's weights and,
        # before they come, takes an inter-step continuation from step 2.
        # The weights' start event then finds the continuation in flight:
        # step 4 starts once it finishes, and drops nothing (a dropped sample
        # stalls the run).
        spec = TraceSpec(num_prompts=5, epochs=4, group_size=4, len_mu=math.log(80),
                         len_sigma=1.1, similarity=0.9, rank_noise=0.95, length_jitter=0.3,
                         seed=39950)
        res = run(Trace(generate(spec)), ClusterSpec(6, 2, 2), Policy(name), fast_cost())
        ev = res.events
        finish = next(e for e in ev if e["kind"] == "rollout_finish"
                      and e["continuation_version"] is not None)
        moved = next(e for e in ev if e["kind"] == "migration" and e["sample"] == finish["sample"])
        drained = next(e["time"] for e in ev if e["kind"] == "share_end"
                       and e["worker"] == finish["worker"] == 3 and e["step"] == 3)
        weights = next(e["available_at"] for e in ev
                       if e["kind"] == "weight_update" and e["version"] == 3)
        assert drained < moved["time"] < weights < finish["time"]
        assert finish["step"] == moved["to_step"] == 3
        assert next(e["time"] for e in ev if e["kind"] == "share_start"
                    and e["worker"] == 3 and e["step"] == 4) == finish["time"]

    def test_inter_step_migrant_stays_when_no_worker_could_resume_it(self):
        # With 60% oversampling step 2 trains long before its straggler
        # p0002/e2/1 finishes, and worker 2, the one worker of p0002's group
        # in step 3, moves on to step 4. A step-2 check that would defer the
        # straggler to step 3 is then refused: it finishes on its own worker
        # in step 2, and no sample is lost.
        class Refusals(sim_module._Simulation):
            def _migrate(self, rec, source, task, target_group):
                super()._migrate(rec, source, task, target_group)
                if target_group is None and not task.migrated:
                    refused.append((rec.number, task.sid, source.wid))

        refused = []
        spec = TraceSpec(num_prompts=8, epochs=4, group_size=3, len_mu=math.log(80),
                         len_sigma=1.1, similarity=0.9, rank_noise=0.5, length_jitter=0.3,
                         seed=5585)
        responses = generate(spec)
        res = Refusals(Trace(responses), ClusterSpec(3, 2, 3),
                       Policy("histopipe_naive", oversample_pct=60.0), fast_cost()).run()
        assert {sid for _, sid, _ in refused} == {"p0002/e2/1"}
        finish = next(e for e in res.events
                      if e["kind"] == "rollout_finish" and e["sample"] == "p0002/e2/1")
        assert all(finish["worker"] == wid and step == finish["step"] == finish["scheduled_step"]
                   for step, _, wid in refused)
        assert not finish["migrated"] and finish["continuation_version"] is None
        assert not any(e["kind"] == "migration" and e["sample"] == "p0002/e2/1"
                       for e in res.events)
        finishes = Counter(e["sample"] for e in res.events if e["kind"] == "rollout_finish")
        assert len(finishes) == len(responses) == 96 and set(finishes.values()) == {1}

    def test_speculation_shrinks_rollout_time(self):
        trace = longtail_trace(epochs=5)
        cluster = ClusterSpec(**CLUSTER)
        off = run(trace, cluster, Policy("histopipe_naive", speculation=False), fast_cost())
        on = run(trace, cluster, Policy("histopipe_naive", speculation=True), fast_cost())
        assert on.metrics.samples_per_second > off.metrics.samples_per_second
        assert on.metrics.speculation_rate > 0.2
        assert on.metrics.acceptance_rate > 0.5

    def test_infeasible_plan_aborts_with_diagnostic(self):
        trace = uniform_trace(epochs=3)
        with pytest.raises(InfeasiblePlanError):
            run(trace, ClusterSpec(rollout_workers=8, reward_workers=4, n_groups=4),
                Policy("histopipe_two_tier"), fast_cost())

    def test_oversample_lets_train_start_early(self):
        trace = longtail_trace(epochs=5)
        cluster = ClusterSpec(**CLUSTER)
        normal = run(trace, cluster, Policy("streaming"), fast_cost())
        over = run(trace, cluster, Policy("streaming", oversample_pct=20.0), fast_cost())
        t_norm = {e["step"]: e["time"] for e in normal.events if e["kind"] == "train_done"}
        t_over = {e["step"]: e["time"] for e in over.events if e["kind"] == "train_done"}
        assert t_over[1] <= t_norm[1]

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            Policy("warp_drive")

    @pytest.mark.parametrize("name", ALL_POLICIES)
    @pytest.mark.parametrize("trace", [Trace([]), []], ids=["Trace", "list"])
    def test_empty_trace_rejected(self, name, trace):
        with pytest.raises(ValueError, match="trace has no responses"):
            run(trace, ClusterSpec(rollout_workers=4), Policy(name))

    def test_histopipe_needs_history(self):
        spec = TraceSpec(num_prompts=8, epochs=1, group_size=2, len_mu=math.log(40),
                         len_sigma=0.3, seed=2)
        with pytest.raises(ValueError):
            run(Trace(generate(spec)), ClusterSpec(rollout_workers=4, reward_workers=2, n_groups=2),
                Policy("histopipe_naive"), fast_cost())

    @pytest.mark.parametrize("key,value", [
        ("per_iter_base", -0.001), ("per_iter_batch", -1e-4), ("prefill_per_token", math.nan),
        ("reward_time", -0.01), ("train_base", math.inf), ("train_per_sample", -0.005),
        ("context_switch_frac", -0.5),
    ])
    def test_bad_cost_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            fast_cost(**{key: value})

    def test_zero_iteration_time_rejected(self):
        # The event loop would push every completion at the time it starts
        # and never advance; an iteration under half a tick rounds to 0.
        for base, batch in [(0.0, 0.0), (4e-10, 0.0), (0.0, 4.9e-10), (4e-10, 4e-10)]:
            with pytest.raises(ValueError, match="per_iter_base"):
                fast_cost(per_iter_base=base, per_iter_batch=batch)
        assert fast_cost(per_iter_base=0.0, per_iter_batch=6e-10).t_iter(1) > 0
        assert fast_cost(per_iter_base=0.0).t_iter(1) > 0
        assert fast_cost(per_iter_batch=0.0).t_iter(1) > 0

    @pytest.mark.parametrize("delay", [-0.1, math.nan])
    def test_bad_weight_propagation_delay_rejected(self, delay):
        with pytest.raises(ValueError, match="weight_propagation_delay"):
            ClusterSpec(**CLUSTER, weight_propagation_delay=delay)


class TestExactTime:
    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_train_duration_is_the_cost_models_to_the_tick(self, name):
        # The duration is the cost model's train time of the batch, not a
        # difference of clock readings; colocated's switch spans one context
        # switch before the job and one after it.
        cost = fast_cost(context_switch_frac=0.07)
        ticks = sim_module._Ticks.of(cost, ClusterSpec(**CLUSTER))
        res = run(longtail_trace(epochs=3), ClusterSpec(**CLUSTER), Policy(name), cost)
        trains = [e for e in res.events if e["kind"] == "train_done"]
        assert len(trains) == 3
        for e in trains:
            assert e["duration"] == ticks.t_train(e["batch"]) / 1e9
            start, time = round(e["start"] * 1e9), round(e["time"] * 1e9)
            assert time - start == ticks.t_train(e["batch"])
            if name == "colocated":
                s = ticks.switch_base + ticks.switch_per_sample * e["batch"]
                assert e["switch"] == [(start - s) / 1e9, (time + s) / 1e9]
            else:
                assert e["switch"] is None

    def test_times_are_whole_ticks(self):
        res = run(longtail_trace(epochs=3), ClusterSpec(**CLUSTER),
                  Policy("histopipe_two_tier", speculation=True), fast_cost())
        for e in res.events:
            for t in [e[k] for k in ("time", "start", "available_at", "duration") if k in e] \
                    + (e.get("switch") or []):
                assert round(t * 1e9) / 1e9 == t


class TestPlanStep:
    """`plan_step` on its own; its agreement with the runs' step_boundary
    events is a property in test_sim_properties."""

    @pytest.mark.parametrize("step", [-1, 0, 1, 4])
    def test_step_without_a_plan_raises(self, step):
        with pytest.raises(ValueError, match=rf"step {step} has no plan"):
            sim_module.plan_step(longtail_trace(epochs=3), {}, step, ClusterSpec(**CLUSTER),
                                 fast_cost())

    def test_non_contiguous_epochs_rejected(self):
        full = longtail_trace(epochs=3)
        trace = Trace([r for epoch in (1, 3) for group in full.epoch_responses(epoch).values()
                       for r in group])
        with pytest.raises(ValueError, match="contiguous"):
            sim_module.plan_step(trace, {}, 2, ClusterSpec(**CLUSTER), fast_cost())

    def test_infeasible_raises_naming_the_step(self):
        with pytest.raises(InfeasiblePlanError, match="^step 2: no feasible allocation"):
            sim_module.plan_step(uniform_trace(epochs=3), {}, 2,
                                 ClusterSpec(rollout_workers=8, reward_workers=4, n_groups=4),
                                 fast_cost())

    @pytest.mark.parametrize("step", [2, 3])
    def test_slots_take_the_groups_in_assignment_order(self, step):
        cluster = ClusterSpec(**CLUSTER)
        plan = sim_module.plan_step(longtail_trace(epochs=3), {}, step, cluster, fast_cost())
        assert sorted(plan.worker_groups) == list(range(cluster.rollout_workers))
        slots = [plan.worker_groups[w] for w in range(cluster.rollout_workers)]
        assert slots == sorted(slots, reverse=step % 2 == 0)
        assert Counter(slots) == dict(enumerate(plan.allocation.per_group_workers))

    def test_equal_split_without_two_tier(self):
        trace = longtail_trace(epochs=3)
        cluster = ClusterSpec(rollout_workers=14, reward_workers=8, n_groups=4)
        plan = sim_module.plan_step(trace, {}, 2, cluster, fast_cost(), two_tier=False)
        assert plan.allocation is None
        assert Counter(plan.worker_groups.values()) == dict(enumerate(partition_sizes(14, 4)))
        assert sum(plan.group_batches.values()) == sum(
            len(group) for group in trace.epoch_responses(2).values())

    def test_t_train_floors_t0_and_spare_workers_go_to_the_longest_groups(self):
        # A train job longer than any group's time on one worker: one
        # worker each meets every target, and the 6 left over are dealt
        # from the longest group down.
        cluster = ClusterSpec(rollout_workers=10, reward_workers=8, n_groups=4)
        plan = sim_module.plan_step(longtail_trace(epochs=3), {}, 2, cluster, fast_cost(),
                                    t_train=1e6)
        assert plan.allocation.t0 == 1e6
        assert plan.allocation.per_group_workers == [1, 1, 1, 1]
        assert Counter(plan.worker_groups.values()) == {0: 2, 1: 2, 2: 3, 3: 3}

    def test_without_a_train_job_the_cost_models_train_time_stands_in(self):
        trace, cluster, cost = longtail_trace(epochs=3), ClusterSpec(**CLUSTER), fast_cost()
        plan = sim_module.plan_step(trace, {}, 3, cluster, cost)
        batch = sum(plan.group_batches.values())
        assert plan == sim_module.plan_step(trace, {}, 3, cluster, cost, cost.t_train(batch))

    def test_step_two_migrates_with_the_beta_floor(self):
        plan = sim_module.plan_step(longtail_trace(epochs=3), {}, 2, ClusterSpec(**CLUSTER),
                                    fast_cost())
        assert plan.beta == BETA_FLOOR

    @pytest.mark.parametrize("case", ["longtail", "dropped"])
    def test_step_three_beta_is_the_epoch_one_to_two_median_growth(self, case):
        # "dropped" has no p0003 in epoch 2, so p0003 has no growth.
        trace = (longtail_trace(epochs=3) if case == "longtail"
                 else Trace(edited_prompt_set_traces()[case]))
        first, second = trace.epoch_responses(1), trace.epoch_responses(2)

        def median(group):
            return statistics.median(r.generated_len for r in group)

        growth = [median(second[p]) / median(first[p]) for p in sorted(second) if p in first]
        assert len(growth) == len(first) - (case == "dropped")
        cluster = ClusterSpec(rollout_workers=8, reward_workers=4, n_groups=4)
        plan = sim_module.plan_step(trace, {}, 3, cluster, fast_cost(), two_tier=False)
        assert plan.beta == beta_from_history(growth)
        # The long-tail trace's growth clears the floor, so the floor alone
        # would not pass; the edited trace's lengths do not grow.
        assert (plan.beta > BETA_FLOOR) == (case == "longtail")

    def test_speculation_shortens_group_times_from_step_three(self):
        # Step 2 is planned from epoch 1, which has no earlier epoch to
        # draft from; step 3 counts epoch 2's replays, which land tokens.
        trace, cluster = longtail_trace(epochs=3), ClusterSpec(**CLUSTER)
        replayed = sim_module.histospec(trace)
        for step in (2, 3):
            plain = sim_module.plan_step(trace, {}, step, cluster, fast_cost(), 0.0)
            spec = sim_module.plan_step(trace, replayed, step, cluster, fast_cost(), 0.0)
            if step == 2:
                assert spec == plain
            else:
                assert spec.allocation.t0 < plain.allocation.t0


class TestEventLog:
    def test_events_are_time_ordered_and_json_round_trip(self):
        trace = longtail_trace(epochs=4)
        res = run(trace, ClusterSpec(**CLUSTER), Policy("histopipe_two_tier"), fast_cost())
        times = [e["time"] for e in res.events]
        assert times == sorted(times)
        oracles.check_event_records(res)

    @pytest.mark.parametrize("oversample_pct", [0.0, 20.0])
    @pytest.mark.parametrize("speculation", [False, True])
    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_written_log_derives_the_run(self, tmp_path, name, speculation, oversample_pct):
        # The event log is the run's one record: read back from its JSONL,
        # it gives every reported figure exactly.
        res = run(longtail_trace(epochs=3), ClusterSpec(**CLUSTER),
                  Policy(name, speculation=speculation, oversample_pct=oversample_pct),
                  fast_cost())
        path = tmp_path / "run.events.jsonl"
        path.write_text(res.events_jsonl())
        summary = derive([check_record(json.loads(line))
                          for line in path.read_text().splitlines()])
        assert summary.metrics == res.metrics
        assert summary.timeline == res.timeline
        assert summary.accounting == res.accounting
        assert summary.spec_stats == res.spec_stats

    def test_run_end_worker_count_is_bounded_by_the_plans(self):
        # A forged run_end naming a million workers in an 8-worker log: the
        # plans map 8, so derive fails before making a row per worker.
        res = run(longtail_trace(epochs=3),
                  ClusterSpec(rollout_workers=8, reward_workers=4, n_groups=4),
                  Policy("streaming"), fast_cost())
        res.events[-1]["rollout_workers"] = 10**6
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="run_end has 1000000 rollout workers, but "
                                                 "the steps' plans map 8$"):
                derive(res.events)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Unbounded, it took about 1 s and 193 MB.
        assert elapsed < 0.2 and peak < 2**20

    def test_log_is_the_same_without_the_c_encoder(self, monkeypatch):
        res = run(longtail_trace(epochs=3), ClusterSpec(**CLUSTER), Policy("histopipe_two_tier"),
                  fast_cost())
        written = res.events_jsonl()
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        assert res.events_jsonl() == written

    def test_colocated_makespan_is_run_end(self):
        # The trailing context switch ends after the last train_done.
        res = run(longtail_trace(epochs=3), ClusterSpec(**CLUSTER), Policy("colocated"),
                  fast_cost())
        last = res.events[-1]
        last_train = max(e["time"] for e in res.events if e["kind"] == "train_done")
        assert last["kind"] == "run_end"
        assert res.metrics.makespan == last["time"] > last_train


def edited_prompt_set_traces():
    """Two traces whose prompt set changes between epochs: p0003 dropped from
    epoch 2, and a copy of p0003 as the new prompt pNEW in epochs 2-3."""
    spec = TraceSpec(num_prompts=16, epochs=3, group_size=2, seed=1)
    responses = generate(spec)
    dropped = [r for r in responses if not (r.prompt_id == "p0003" and r.epoch == 2)]
    added = responses + [
        Response("pNEW", r.epoch, list(r.tokens), r.reward)
        for r in responses if r.prompt_id == "p0003" and r.epoch >= 2
    ]
    return {"dropped": dropped, "added": added}


class TestPromptSetChanges:
    @pytest.mark.parametrize("edit", ["dropped", "added"])
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_every_response_completes(self, policy, edit):
        responses = edited_prompt_set_traces()[edit]
        res = run(responses, ClusterSpec(rollout_workers=8, reward_workers=4, n_groups=4),
                  Policy(policy, speculation=(policy != "colocated")), fast_cost())
        expected = {f"{r.prompt_id}/e{r.epoch}" for r in responses}
        assert res.metrics.samples == len(responses)
        assert len(res.accounting["completed"]) == len(responses)
        assert {sid.rsplit("/", 1)[0] for sid in res.accounting["completed"]} == expected

    @pytest.mark.parametrize("speculation", [False, True])
    @pytest.mark.parametrize("policy", ["histopipe_naive", "histopipe_two_tier"])
    def test_step_with_fewer_prompts_than_groups_rolls_out_round_robin(self, policy,
                                                                      speculation):
        # Epoch 2 keeps one of six prompts, too few to rank into four groups:
        # HistoPipe rolls step 2 out round robin and plans step 3 from it.
        spec = TraceSpec(num_prompts=6, epochs=3, group_size=4, seed=5)
        responses = [r for r in generate(spec) if r.epoch != 2 or r.prompt_id == "p0000"]
        res = run(responses, ClusterSpec(rollout_workers=8, reward_workers=4, n_groups=4),
                  Policy(policy, speculation=speculation), fast_cost())
        assert res.metrics.samples == len(res.accounting["completed"]) == len(responses) == 52
        boundaries = [e for e in res.events if e["kind"] == "step_boundary"]
        assert [(e["policy"], e["allocation"] is None) for e in boundaries] == [
            ("streaming", True), ("streaming", True), (policy, policy == "histopipe_naive")]
        assert set(boundaries[1]["workers"].values()) == {0}


class TestHistoSpecPass:
    """The HistoSpec pass split over forked processes gives the same run as
    the pass computed in this process alone, and leaves no process behind.
    A hung child fails the test through conftest's per-test `time_limit`,
    whose alarm interrupts the wait for it."""

    @staticmethod
    def events(monkeypatch, cpus, responses, cluster, policy):
        forked = []
        fork_share = sim_module._fork_share

        def counted(*args):
            child = fork_share(*args)
            forked.append(child is not None)
            return child

        monkeypatch.setattr(sim_module, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sim_module, "_fork_share", counted)
        res = run(responses, cluster, policy, fast_cost())
        assert any(forked) == (cpus > 1) and len(forked) < cpus
        return res.events_jsonl()

    CASES = {
        "longtail": (lambda: longtail_trace(epochs=3), ClusterSpec(**CLUSTER)),
        "dropped": (lambda: edited_prompt_set_traces()["dropped"],
                    ClusterSpec(rollout_workers=8, reward_workers=4, n_groups=4)),
        "added": (lambda: edited_prompt_set_traces()["added"],
                  ClusterSpec(rollout_workers=8, reward_workers=4, n_groups=4)),
    }

    @pytest.mark.parametrize("policy", ["streaming", "histopipe_two_tier"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_cpu_gives_the_forked_events(self, monkeypatch, case, policy):
        make, cluster = self.CASES[case]
        responses = make()
        logs = [self.events(monkeypatch, cpus, responses, cluster,
                            Policy(policy, speculation=True)) for cpus in (1, 3)]
        assert logs[0] == logs[1]

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_child_outlives_a_run(self, monkeypatch):
        monkeypatch.setattr(sim_module, "_usable_cpus", lambda: 3)
        run(edited_prompt_set_traces()["added"],
            ClusterSpec(rollout_workers=8, reward_workers=4, n_groups=4),
            Policy("streaming", speculation=True), fast_cost())
        self.assert_no_child_left()

    @staticmethod
    def fail_builds(monkeypatch, where, exc):
        """Make `history.build_tree` raise `exc` in this process ("parent")
        or in the forked ones ("child")."""
        parent = os.getpid()
        build = sim_module.history.build_tree

        def failing(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise exc
            return build(*args)

        monkeypatch.setattr(sim_module.history, "build_tree", failing)

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_failed_build_raises_and_leaves_no_child(self, monkeypatch, where):
        # A build failing in a child reaches the caller with its type and
        # message; one failing in this process stops the children. Either
        # way the garbage collector runs again afterwards.
        monkeypatch.setattr(sim_module, "_usable_cpus", lambda: 3)
        self.fail_builds(monkeypatch, where, LookupError(f"index build failed in the {where}"))
        with pytest.raises(LookupError, match=f"^index build failed in the {where}$"):
            run(longtail_trace(epochs=3), ClusterSpec(**CLUSTER),
                Policy("histopipe_two_tier", speculation=True), fast_cost())
        self.assert_no_child_left()
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_paused_in_every_process_and_restored(self, monkeypatch, enabled):
        # Every build, in this process and in the forked one, runs with
        # automatic collection off; the caller's setting comes back after.
        build = sim_module.history.build_tree
        fork_share = sim_module._fork_share
        forked = []

        def checked(*args):
            if gc.isenabled():
                raise AssertionError(f"an index was built with the collector on in {os.getpid()}")
            return build(*args)

        def counted(*args):
            child = fork_share(*args)
            forked.append(child is not None)
            return child

        monkeypatch.setattr(sim_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sim_module.history, "build_tree", checked)
        monkeypatch.setattr(sim_module, "_fork_share", counted)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert sim_module.histospec(longtail_trace(epochs=3))
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert forked == [True]
        self.assert_no_child_left()

    def test_unpicklable_child_error_keeps_its_type_name_and_message(self, monkeypatch):
        class Unpicklable(Exception):  # local classes cannot be pickled
            pass

        monkeypatch.setattr(sim_module, "_usable_cpus", lambda: 2)
        self.fail_builds(monkeypatch, "child", Unpicklable("no way back"))
        with pytest.raises(RuntimeError, match="^Unpicklable: no way back$"):
            run(longtail_trace(epochs=3), ClusterSpec(**CLUSTER),
                Policy("streaming", speculation=True), fast_cost())
        self.assert_no_child_left()

    @staticmethod
    def replayed_tokens(monkeypatch, trace, policy):
        """The token arrays `sim.replay_response` was called with, in a run on
        one CPU, so that every call is made in this process."""
        calls = []
        replay = sim_module.replay_response

        def spy(truth, tree):
            calls.append(truth)
            return replay(truth, tree)

        monkeypatch.setattr(sim_module, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(sim_module, "replay_response", spy)
        run(trace, ClusterSpec(rollout_workers=8, reward_workers=4, n_groups=4), policy,
            fast_cost())
        return calls

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_plain_decoding_makes_no_replay_call(self, monkeypatch, policy):
        trace = Trace(edited_prompt_set_traces()["added"])
        assert self.replayed_tokens(monkeypatch, trace, Policy(policy)) == []

    @pytest.mark.parametrize("policy", ["streaming", "histopipe_two_tier"])
    @pytest.mark.parametrize("edit", ["dropped", "added"])
    def test_one_replay_call_per_response_with_history(self, monkeypatch, edit, policy):
        # Step-1 responses, and those of a prompt new in their step, decode
        # one token per iteration without a call.
        trace = Trace(edited_prompt_set_traces()[edit])
        calls = self.replayed_tokens(monkeypatch, trace, Policy(policy, speculation=True))
        seen, want = set(), []
        for step in trace.epochs:
            want += [id(r.tokens) for pid in trace.prompts(step) if pid in seen
                     for r in trace.group(step, pid)]
            seen.update(trace.prompts(step))
        assert Counter(map(id, calls)) == Counter(want)

    def test_no_fork_without_speculation(self, monkeypatch):
        monkeypatch.setattr(sim_module, "_fork_share", None)  # calling it would fail
        run(longtail_trace(epochs=3), ClusterSpec(**CLUSTER), Policy("histopipe_two_tier"),
            fast_cost())


class TestPinnedEventLogs:
    """Event-log sha256 of small runs, pinned so refactors that must keep
    every output byte-identical are checked against a fixed reference."""

    PINNED = {
        ("histopipe_two_tier", True):
            "31ed5c333acbfd14c71eb26003b49c530af478df23159cd435bb57435de7c69a",
        ("streaming", True):
            "1137bec7603e44e9fb76f59e46896a19553231c818f2dcc3a431d76b57fb8135",
        ("histopipe_two_tier", False):
            "9707b701f08ccf07af983b5740632c1d2b243ed38f29be053b581ccc264d0cc8",
        ("colocated", False):
            "ddf7e405115252c58cc03d90e0d172a137f94bd925126e841864fd2214c4b918",
        ("histopipe_naive", True):
            "b5a8feffcce770c487c941c6d8b418520de27df869a27e72faf124954cca9502",
    }

    @pytest.mark.parametrize("name,speculation", sorted(PINNED))
    def test_events_sha256_pinned(self, name, speculation):
        res = self.pinned_run("PINNED", (name, speculation))
        digest = hashlib.sha256(res.events_jsonl().encode()).hexdigest()
        assert digest == self.PINNED[(name, speculation)]

    # Prompts that leave or join between epochs, with speculation. In the
    # dropped trace p0003 has no epoch 2, so its epoch-3 drafts come from its
    # epoch-1 index: each prompt drafts from its latest earlier epoch.
    PINNED_EDITED = {
        ("dropped", "streaming"):
            "1e7c56e6ac478acce4a210ca77dc7f156f5112f669e11941437dba70e2e549da",
        ("dropped", "histopipe_naive"):
            "b8a821887f88ece096463f1d9fe3360907b578ddfeb7e0eab3fed2a7309ae3e9",
        ("dropped", "histopipe_two_tier"):
            "f229ae20a9311df961857754afece135fd0ea8ba2aab037d0be6776da7429b7f",
        ("added", "streaming"):
            "6c099dfec73a6578a60e2599d209a08b6d65bdf7e3d9ace817b140880a31eed2",
        ("added", "histopipe_naive"):
            "d5ac1043d3f7c83b049a9d4477b8ff33386e9409f41cde204a45f7a082a4154a",
        ("added", "histopipe_two_tier"):
            "0cff99cec8aca728c1da0be89225e5f20fe67fc3aafe947e326ed643a91a0b43",
    }

    @pytest.mark.parametrize("edit,name", sorted(PINNED_EDITED))
    def test_edited_prompt_set_events_sha256_pinned(self, edit, name):
        res = self.pinned_run("PINNED_EDITED", (edit, name))
        digest = hashlib.sha256(res.events_jsonl().encode()).hexdigest()
        assert digest == self.PINNED_EDITED[(edit, name)]

    # Runs that migrate often, both within a step and into the next, so the
    # migration path is pinned too: (sha256, migrations, inter-step ones).
    PINNED_MIGRATING = {
        "histopipe_two_tier":
            ("901198027c39c929f5dbcdb0e768869b34f49d38990f83b2be46fbe0593010b2", 15, 6),
        "histopipe_naive":
            ("2d30c3102baae235e87cb8fb9ceae9ddc5ce127d006a6496b00b723f8b1f2c96", 10, 3),
    }

    @staticmethod
    def run_migrating(name):
        spec = TraceSpec(num_prompts=32, epochs=3, group_size=8, len_mu=math.log(150),
                         len_sigma=1.1, similarity=0.9, rank_noise=0.9, length_jitter=0.06,
                         growth_mean=1.005, seed=1)
        return run(Trace(generate(spec)),
                   ClusterSpec(rollout_workers=32, reward_workers=8, n_groups=8),
                   Policy(name), fast_cost())

    @pytest.mark.parametrize("name", sorted(PINNED_MIGRATING))
    def test_migrating_events_sha256_pinned(self, name):
        res = self.pinned_run("PINNED_MIGRATING", name)
        digest = hashlib.sha256(res.events_jsonl().encode()).hexdigest()
        assert (digest, res.accounting["migrations"], res.accounting["inter_migrations"]) \
            == self.PINNED_MIGRATING[name]

    @staticmethod
    @functools.cache
    def pinned_run(table: str, key):
        """The run that entry `key` of the hash table named `table` pins,
        made once for the hash test and the record test."""
        if table == "PINNED":
            name, speculation = key
            return run(longtail_trace(epochs=3), ClusterSpec(**CLUSTER),
                       Policy(name, speculation=speculation), fast_cost())
        if table == "PINNED_EDITED":
            edit, name = key
            return run(edited_prompt_set_traces()[edit],
                       ClusterSpec(rollout_workers=8, reward_workers=4, n_groups=4),
                       Policy(name, speculation=True), fast_cost())
        return TestPinnedEventLogs.run_migrating(key)

    @pytest.mark.parametrize("table,key", [("PINNED", k) for k in sorted(PINNED)]
                             + [("PINNED_EDITED", k) for k in sorted(PINNED_EDITED)]
                             + [("PINNED_MIGRATING", k) for k in sorted(PINNED_MIGRATING)])
    def test_records_are_written_as_built(self, table, key):
        # Each record is built with its keys in sorted order, so the log
        # writes it without sorting and reads it back unchanged.
        oracles.check_event_records(self.pinned_run(table, key))

    # Any JSON value: what a field of a line read back can hold.
    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
        max_leaves=4)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_field_of_a_type_the_table_rejects_is_a_value_error(self, data):
        # Each kind is drawn as often as any other. Colocated's run holds
        # every kind but migration, with a non-null switch; the migrating
        # run holds both kinds of migration.
        by_kind = defaultdict(list)
        for pinned in (self.pinned_run("PINNED", ("colocated", False)),
                       self.pinned_run("PINNED_MIGRATING", "histopipe_two_tier")):
            for record in pinned.events:
                by_kind[record["kind"], record.get("migration_kind")].append(record)
        record = data.draw(st.sampled_from(by_kind[data.draw(st.sampled_from(sorted(by_kind)))]))
        kind = record["kind"]
        schema = {**EVENTS[kind],
                  **(MIGRATION_TARGETS[record["migration_kind"]] if kind == "migration" else {})}
        name = data.draw(st.sampled_from(sorted(schema)))
        value = data.draw(self.JSON_VALUES)
        assume(not schema[name](value))
        with pytest.raises(ValueError, match=f"a {kind} event's {name} cannot be"):
            check_record({**record, name: value})

    def test_migration_decisions_only_in_straggler_tail(self, monkeypatch):
        calls = []
        decide = sim_module.migration_decision

        def spy(group, generated_len, completed, total, beta, *rest):
            calls.append((completed, total))
            assert in_straggler_tail(completed, total)
            assert beta >= BETA_FLOOR
            return decide(group, generated_len, completed, total, beta, *rest)

        monkeypatch.setattr(sim_module, "migration_decision", spy)
        res = self.run_migrating("histopipe_two_tier")
        assert calls
        assert res.accounting["migrations"] == self.PINNED_MIGRATING["histopipe_two_tier"][1]


@st.composite
def worker_scripts(draw):
    """(tasks, ops) for `oracles.iteration_worker`: up to 6 tasks of 1-40
    iterations, some speculative (1-4 tokens per iteration), and up to 25
    joins, detaches and checks 0-50 ms apart, often on a whole millisecond,
    where iteration boundaries fall."""
    tasks = {}
    for i in range(draw(st.integers(1, 6))):
        total = draw(st.integers(1, 40))
        steps = draw(st.none() | st.lists(st.integers(1, 4), min_size=total, max_size=total))
        tasks[f"s{i}"] = (total, None if steps is None else list(itertools.accumulate(steps)))
    ops = []
    tick = 0
    for _ in range(draw(st.integers(1, 25))):
        tick += draw(st.integers(0, 50).map(lambda ms: ms * 10**6) | st.integers(0, 5 * 10**7))
        kind = draw(st.sampled_from(["join", "join", "detach", "check"]))
        ops.append((tick, kind, None if kind == "check" else draw(st.sampled_from(sorted(tasks)))))
    return tasks, ops


class TestWorkerClock:
    """One worker's iteration clock against `oracles.iteration_worker`, which
    steps one iteration at a time. Joins and detaches go through the
    simulator's own migration helpers, checks through `_check_migrations`
    and batch changes through `_on_boundary`; only the event loop is scripted."""

    # Iterations of whole milliseconds: 5 ms at a batch of 1, 1 ms more per rollout.
    COST = fast_cost(per_iter_batch=0.001, prefill_per_token=0.002)

    @classmethod
    def one_worker(cls):
        """A simulation whose event loop the test drives: worker 0 runs step
        1, in one group that is in its straggler tail and has no history
        length, so that every rollout is long enough to be a migration
        candidate. Returns it and the list its boundaries are scheduled into."""
        sim = sim_module._Simulation(uniform_trace(epochs=1),
                                     ClusterSpec(rollout_workers=1, reward_workers=1, n_groups=1),
                                     Policy("streaming", migration=False), cls.COST)
        step = sim.step[1]
        step.plan = sim_module.StepPlan(groups=[RankingGroup(0, ["p"], max_hist_len=0.0)],
                                        group_batches={0: 100},
                                        worker_groups={0: 0}, allocation=None,
                                        policy="clock", beta=BETA_FLOOR)
        step.group_workers, step.group_total, step.group_completed = {0: [0]}, {0: 100}, {0: 99}
        sim.workers[0].step = 1
        boundaries = []
        sim._push = lambda time, handler, *args: \
            handler == sim._on_boundary and boundaries.append(time)
        return sim, boundaries

    @staticmethod
    def settle(sim, boundaries, until):
        """Run worker 0's batch changes due by `until`. The latest one pushed
        is the live one: every reschedule pushes one."""
        worker = sim.workers[0]
        while (worker.inflight or worker.joining) and boundaries[-1] <= until:
            sim.now = boundaries[-1]
            sim._on_boundary(0, worker.sched_version)

    @staticmethod
    def task(sid, total, profile=None):
        return sim_module._Task(sid=sid, prompt="p", epoch=1,
                                tokens_len=profile[-1] if profile else total, total_iters=total,
                                profile=profile, group=None, worker=0)

    @classmethod
    def run_clock(cls, tasks, ops):
        sim, boundaries = cls.one_worker()
        step, worker = sim.step[1], sim.workers[0]
        by_sid = {sid: cls.task(sid, total, profile) for sid, (total, profile) in tasks.items()}
        joined = {}  # sid -> task, every task ever joined: the check's candidates
        read = []
        observed = []

        def decide(group, generated_len, *rest):
            read.append(generated_len)
            return MigrationDecision("none")

        with mock.patch.object(sim_module, "migration_decision", decide):
            for time, kind, sid in ops:
                cls.settle(sim, boundaries, time)
                sim.now = time
                task = by_sid.get(sid)
                finished = {e["sample"] for e in sim.events if e["kind"] == "rollout_finish"}
                on_worker = set(worker.inflight) | {t.sid for _, t in worker.joining}
                if kind == "join" and sid not in on_worker and sid not in finished:
                    sim._join(worker, task)
                    sim._reschedule(worker)
                    joined[sid] = task
                    step.stragglers[0] = [joined[s] for s in sorted(joined)]
                elif kind == "detach" and sid in worker.inflight and not task.migrated:
                    if sim._next_boundary(worker)[1] < task.v_end:
                        observed.append((time, sid, sim._detach(worker, task)))
                        task.migrated = True
                        sim._reschedule(worker)
                elif kind == "check":
                    read.clear()
                    sim._check_migrations(step)
                    observed += [(time, None, n) for n in read]
            cls.settle(sim, boundaries, math.inf)
        finishes = {e["sample"]: round(e["time"] * 1e9) for e in sim.events
                    if e["kind"] == "rollout_finish"}
        return finishes, observed

    @settings(max_examples=300, deadline=None)
    @given(drawn=worker_scripts())
    def test_matches_iteration_model(self, drawn):
        tasks, ops = drawn
        ticks = sim_module._Ticks.of(self.COST, ClusterSpec(rollout_workers=1, n_groups=1))
        want, want_observed = oracles.iteration_worker(tasks, ops, ticks.t_iter,
                                                       ticks.prefill_per_token)
        finishes, observed = self.run_clock(tasks, ops)
        assert finishes == want
        # A check reads its rollouts in sid order without naming them.
        assert observed == [(t, sid if kind == "detach" else None, tokens)
                            for t, kind, sid, tokens in want_observed]

    def test_check_passes_over_a_migrant_not_bound_yet(self):
        # An inter-step migrant stays in its group's straggler list, with no
        # worker until the next step is planned; a later check of its step
        # must pass over it.
        sim, _ = self.one_worker()
        task = self.task("s0", 10)
        task.migrated, task.worker = True, None
        sim.step[1].stragglers[0] = [task]
        with mock.patch.object(sim_module, "migration_decision", side_effect=AssertionError):
            sim._check_migrations(sim.step[1])

    def test_tied_last_rollouts_finish_in_reschedule_order_and_never_migrate(self):
        # Two workers, each the only one of its group, whose last rollouts
        # end at one tick. Their boundaries run in the order the workers last
        # rescheduled: worker 1 started first, so its finish is logged first.
        # Worker 1's check then reads worker 0's rollout, in its group's
        # straggler tail, as finished at that tick, so it never asks whether
        # to migrate it.
        sim = sim_module._Simulation(uniform_trace(epochs=1),
                                     ClusterSpec(rollout_workers=2, reward_workers=1, n_groups=2),
                                     Policy("streaming"), self.COST)
        rec = sim.step[1]
        rec.plan = sim_module.StepPlan(
            groups=[RankingGroup(0, ["p"], max_hist_len=0.0), RankingGroup(1, ["p"], 0.0)],
            group_batches={0: 1, 1: 1}, worker_groups={0: 0, 1: 1}, allocation=None,
            policy="tie", beta=BETA_FLOOR)
        rec.group_workers, rec.group_total, rec.group_completed = \
            {0: [0], 1: [1]}, {0: 1, 1: 1}, {0: 0, 1: 0}
        tasks = [self.task(f"s{w}", 10) for w in (0, 1)]
        for w, task in enumerate(tasks):
            task.worker, task.group, task.v_end = w, w, task.total_iters
            rec.shares[w], rec.stragglers[w] = [task], [task]
        for w in (1, 0):
            sim._on_start(w, 1)
        with mock.patch.object(sim_module, "migration_decision", side_effect=AssertionError):
            while sim._heap:
                sim.now, _seq, handler, args = heapq.heappop(sim._heap)
                if handler == sim._on_boundary:
                    handler(*args)
        finishes = [e for e in sim.events if e["kind"] == "rollout_finish"]
        assert [(e["worker"], e["sample"]) for e in finishes] == [(1, "s1"), (0, "s0")]
        assert {e["time"] for e in finishes} == {10 * (0.004 + 0.001)}
        assert not any(e["kind"] == "migration" for e in sim.events)
