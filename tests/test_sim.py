from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict

import pytest

import rhymesim.sim as sim_module
from rhymesim.history import Response
from rhymesim.scheduler import in_straggler_tail
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
        rewarded = [e.payload["sample"] for e in res.events if e.kind == "reward_done"]
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
            if ev.kind == "rollout_finish":
                scheduled = ev.payload["scheduled_step"]
                assert ev.payload["weight_version"] == scheduled - 1
                cont = ev.payload["continuation_version"]
                if cont is not None:
                    # Inter-step continuations finish under the next version.
                    assert cont == scheduled
                    assert ev.payload["step"] == scheduled + 1

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_rollout_waits_for_published_weights(self, policy):
        res = self.collect(policy)
        version_avail = {}
        for ev in res.events:
            if ev.kind == "weight_update":
                version_avail[ev.payload["version"]] = ev.payload["available_at"]
        # Find each worker's first rollout activity per step via the timeline
        # and check it does not precede its weight version's availability.
        step_first_finish = defaultdict(lambda: math.inf)
        for ev in res.events:
            if ev.kind == "rollout_finish":
                version = ev.payload["weight_version"]
                if version in version_avail:
                    # The finish can only come after the version was available
                    # plus some rollout time; availability is the lower bound.
                    assert ev.time >= version_avail[version] - 1e-9

    def test_reward_follows_rollout_and_train_follows_batch(self):
        res = self.collect("streaming")
        finish_time = {}
        for ev in res.events:
            if ev.kind == "rollout_finish":
                finish_time[ev.payload["sample"]] = ev.time
            elif ev.kind == "reward_done":
                assert ev.time >= finish_time[ev.payload["sample"]] - 1e-9
        reward_counts = defaultdict(int)
        reward_clock = defaultdict(float)
        for ev in res.events:
            if ev.kind == "reward_done":
                step = ev.payload["buffered_for"] or ev.payload["step"]
                reward_counts[step] += 1
                reward_clock[step] = ev.time
        for ev in res.events:
            if ev.kind == "train_done":
                step = ev.payload["step"]
                batch = ev.payload["batch"]
                assert batch > 0
                assert ev.time >= ev.payload["duration"]

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
        boundaries = {e.payload["step"]: e.payload["policy"] for e in res.events
                      if e.kind == "step_boundary"}
        assert boundaries[1] == "streaming"
        assert boundaries[2] == "histopipe_naive"

    def test_alternating_group_assignment(self):
        trace = longtail_trace(epochs=4)
        res = run(trace, ClusterSpec(**CLUSTER), Policy("histopipe_naive"), fast_cost())
        boundaries = {e.payload["step"]: e.payload["workers"] for e in res.events
                      if e.kind == "step_boundary"}
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
        migs = [e for e in res.events if e.kind == "migration"]
        assert res.accounting["migrations"] == len(migs)
        for ev in migs:
            assert ev.payload["migration_kind"] in ("intra_step", "inter_step")
            assert ev.payload["generated"] >= 0
        assert res.metrics.migration_pct <= 6.0

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
        t_norm = {e.payload["step"]: e.time for e in normal.events if e.kind == "train_done"}
        t_over = {e.payload["step"]: e.time for e in over.events if e.kind == "train_done"}
        assert t_over[1] <= t_norm[1]

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            Policy("warp_drive")

    def test_histopipe_needs_history(self):
        spec = TraceSpec(num_prompts=8, epochs=1, group_size=2, len_mu=math.log(40),
                         len_sigma=0.3, seed=2)
        with pytest.raises(ValueError):
            run(Trace(generate(spec)), ClusterSpec(rollout_workers=4, reward_workers=2, n_groups=2),
                Policy("histopipe_naive"), fast_cost())


class TestEventLog:
    def test_events_are_time_ordered_and_json_round_trip(self):
        trace = longtail_trace(epochs=4)
        res = run(trace, ClusterSpec(**CLUSTER), Policy("histopipe_two_tier"), fast_cost())
        times = [e.time for e in res.events]
        assert times == sorted(times)
        for line in res.events_jsonl().splitlines():
            obj = json.loads(line)
            assert obj["kind"] in {"rollout_finish", "migration", "weight_update",
                                   "reward_done", "train_done", "step_boundary"}


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


class TestPinnedEventLogs:
    """Event-log sha256 of small runs, pinned so refactors that must keep
    every output byte-identical are checked against a fixed reference."""

    PINNED = {
        ("histopipe_two_tier", True):
            "695603809ed24548c44f585794c34092b6fc5a28c263a835a1924359025db162",
        ("streaming", True):
            "0c0b00f0bd636636112272f6545984ca0856a7d6865ec89f21aab11d3fdc0baa",
        ("histopipe_two_tier", False):
            "0b5bfc4446be89f593f39fafc5db1f5563e7745136544a39125a2cc25058003e",
    }

    @pytest.mark.parametrize("name,speculation", sorted(PINNED))
    def test_events_sha256_pinned(self, name, speculation):
        res = run(longtail_trace(epochs=3), ClusterSpec(**CLUSTER),
                  Policy(name, speculation=speculation), fast_cost())
        digest = hashlib.sha256(res.events_jsonl().encode()).hexdigest()
        assert digest == self.PINNED[(name, speculation)]

    # Runs that migrate often, both within a step and into the next, so the
    # migration path is pinned too: (sha256, migrations, inter-step ones).
    PINNED_MIGRATING = {
        "histopipe_two_tier":
            ("f86321e6685085964ba6ca037e5957ae830afd71f79e670969036a10c853afb4", 15, 6),
        "histopipe_naive":
            ("f7632ddb591a5ec448a91f6ba9251bc7b1ee4fc87517d908ece07e2824bc39da", 11, 3),
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
        res = self.run_migrating(name)
        digest = hashlib.sha256(res.events_jsonl().encode()).hexdigest()
        assert (digest, res.accounting["migrations"], res.accounting["inter_migrations"]) \
            == self.PINNED_MIGRATING[name]

    def test_migration_decisions_only_in_straggler_tail(self, monkeypatch):
        calls = []
        decide = sim_module.migration_decision

        def spy(group, generated_len, completed, total, policy, *rest):
            calls.append((completed, total))
            assert in_straggler_tail(completed, total, policy)
            return decide(group, generated_len, completed, total, policy, *rest)

        monkeypatch.setattr(sim_module, "migration_decision", spy)
        res = self.run_migrating("histopipe_two_tier")
        assert calls
        assert res.accounting["migrations"] == self.PINNED_MIGRATING["histopipe_two_tier"][1]
