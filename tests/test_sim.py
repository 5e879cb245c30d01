from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import rhymesim.sim as sim_module
from rhymesim.history import Response
from rhymesim.scheduler import MigrationDecision, in_straggler_tail
from rhymesim.sim import (
    EVENT_FIELDS,
    ClusterSpec,
    CostConfig,
    InfeasiblePlanError,
    Policy,
    SimEvent,
    SimulationStalledError,
    derive,
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

    @pytest.mark.parametrize("oversample_pct,trained", [(0.0, 1152), (20.0, 924)])
    @pytest.mark.parametrize("name", ["streaming", "histopipe_two_tier"])
    def test_throughput_counts_trained_samples(self, name, oversample_pct, trained):
        # With oversampling, the samples rewarded after the last step's
        # train job started complete but are trained on by no step.
        res = run(longtail_trace(epochs=6), ClusterSpec(**CLUSTER),
                  Policy(name, oversample_pct=oversample_pct), fast_cost())
        batches = sum(e.payload["batch"] for e in res.events if e.kind == "train_done")
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

    @pytest.mark.parametrize("seed,name", [(507, "histopipe_two_tier"), (509, "histopipe_naive")])
    def test_finished_rollout_never_migrates(self, seed, name):
        # On these seeds a rollout used to be migrated, inter-step, after its
        # last token: its completion tied with the one whose check moved it.
        spec = TraceSpec(num_prompts=128, group_size=8, epochs=3, len_mu=math.log(150),
                         len_sigma=0.8, similarity=0.9, rank_noise=0.9, length_jitter=0.06,
                         growth_mean=1.005, seed=seed)
        res = run(Trace(generate(spec)), ClusterSpec(64, 8, 8), Policy(name), fast_cost())
        tokens = {e.payload["sample"]: e.payload["tokens"] for e in res.events
                  if e.kind == "rollout_finish"}
        migrations = [e.payload for e in res.events if e.kind == "migration"]
        assert migrations
        assert all(m["generated"] < tokens[m["sample"]] for m in migrations)

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

    def test_unprofiled_group_length_raises(self):
        # tau answers only for the representative lengths it was profiled
        # with; it never borrows another group's profile.
        model = sim_module._GroupProfileModel({10.0: [8, 12]}, fast_cost(), 0.0)
        assert model.tau(10.0, 2) > 0.0
        with pytest.raises(KeyError):
            model.tau(10.5, 2)

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
            assert set(EVENT_FIELDS[obj["kind"]]) <= set(obj)

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
        summary = derive(SimEvent.from_dict(json.loads(line))
                         for line in path.read_text().splitlines())
        assert summary.metrics == res.metrics
        assert summary.timeline == res.timeline
        assert summary.accounting == res.accounting
        assert summary.spec_stats == res.spec_stats

    def test_colocated_makespan_is_run_end(self):
        # The trailing context switch ends after the last train_done.
        res = run(longtail_trace(epochs=3), ClusterSpec(**CLUSTER), Policy("colocated"),
                  fast_cost())
        last = res.events[-1]
        last_train = max(e.time for e in res.events if e.kind == "train_done")
        assert last.kind == "run_end"
        assert res.metrics.makespan == last.time > last_train


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
            "7cd54f0166c87c3fe1a0765a61bbd9e3d5b753878dbc476eba3a188eb3dcc0e6",
        ("streaming", True):
            "77775f67f8c40a3c434476efeb67ac1a8bb6522a3f849b36c2a921ce3dae8e4a",
        ("histopipe_two_tier", False):
            "1a0a27d3bca7e9180d768b18db83719f64dd34adc1cf01464e8eb1db18bda55a",
        ("colocated", False):
            "d384cadc0143c8c6f60ea362a19bc5301c11872525c2447006730ea61c16ae41",
        ("histopipe_naive", True):
            "9e2effed2a265513791664ea2ff0eddb95690130bb1dd91620e05bae1c8ff0d2",
    }

    @pytest.mark.parametrize("name,speculation", sorted(PINNED))
    def test_events_sha256_pinned(self, name, speculation):
        res = run(longtail_trace(epochs=3), ClusterSpec(**CLUSTER),
                  Policy(name, speculation=speculation), fast_cost())
        digest = hashlib.sha256(res.events_jsonl().encode()).hexdigest()
        assert digest == self.PINNED[(name, speculation)]

    # Prompts that leave or join between epochs, with speculation. In the
    # dropped trace p0003 has no epoch 2, so its epoch-3 drafts come from its
    # epoch-1 index: each prompt drafts from its latest earlier epoch.
    PINNED_EDITED = {
        ("dropped", "streaming"):
            "15cd8d2f66a154ab9ed8d6accabfb54911580f94d641fc4eb460ed6660e43ca3",
        ("dropped", "histopipe_naive"):
            "16395d5565debab0bcbb3be0e3631ff0d55ac8a8c87f58ac4c72e4b0672c214c",
        ("dropped", "histopipe_two_tier"):
            "950cb09048e47312dd1fb17f9f8ab63e2a3461b6f878b595f9a08c544b011df4",
        ("added", "streaming"):
            "3e410af2523aa99c214772ec4b0c9edf40aea51555d4faca33cf847792d54edb",
        ("added", "histopipe_naive"):
            "cca5413bad0c1df83f184e47c998957575712f2a3f6c4119e1905fbeadbb9a71",
        ("added", "histopipe_two_tier"):
            "5ad96524a184c4f35543dbd1e1432c7d3c717dd8cb028ea74341730ea1c677cc",
    }

    @pytest.mark.parametrize("edit,name", sorted(PINNED_EDITED))
    def test_edited_prompt_set_events_sha256_pinned(self, edit, name):
        res = run(edited_prompt_set_traces()[edit],
                  ClusterSpec(rollout_workers=8, reward_workers=4, n_groups=4),
                  Policy(name, speculation=True), fast_cost())
        digest = hashlib.sha256(res.events_jsonl().encode()).hexdigest()
        assert digest == self.PINNED_EDITED[(edit, name)]

    # Runs that migrate often, both within a step and into the next, so the
    # migration path is pinned too: (sha256, migrations, inter-step ones).
    PINNED_MIGRATING = {
        "histopipe_two_tier":
            ("5855d3a451608550eeb733559dfaa3bd67c755fa7104cd1e427f0e9c4ef1f463", 15, 6),
        "histopipe_naive":
            ("ffe3aa198a549ae86d94daa27b16030d8691a44cb867ba672c02f531c88040d5", 11, 3),
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


@st.composite
def worker_scripts(draw):
    """(tasks, ops) for `oracles.sliced_worker`: up to 6 tasks of 1-40
    iterations, some speculative (1-4 tokens per iteration), and up to 25
    joins, detaches and checks 0-50 ms apart."""
    tasks = {}
    for i in range(draw(st.integers(1, 6))):
        total = draw(st.integers(1, 40))
        steps = draw(st.none() | st.lists(st.integers(1, 4), min_size=total, max_size=total))
        tasks[f"s{i}"] = (total, None if steps is None else list(itertools.accumulate(steps)))
    ops = []
    time = 0.0
    for _ in range(draw(st.integers(1, 25))):
        time += draw(st.floats(0.0, 0.05))
        kind = draw(st.sampled_from(["join", "join", "detach", "check"]))
        ops.append((time, kind, None if kind == "check" else draw(st.sampled_from(sorted(tasks)))))
    return tasks, ops


class TestWorkerClock:
    """One worker's iteration clock against `oracles.sliced_worker`, the
    slice-by-slice model it replaced. Joins and detaches go through the
    simulator's own migration helpers, checks through `_check_migrations`
    and finishes through `_on_completion`; only the event loop is scripted."""

    COST = fast_cost(prefill_per_token=0.002)

    @classmethod
    def one_worker(cls):
        """A simulation whose event loop the test drives: worker 0 runs step
        1, in one group that is in its straggler tail. Returns it and the
        list its completions are scheduled into."""
        sim = sim_module._Simulation(uniform_trace(epochs=1),
                                     ClusterSpec(rollout_workers=1, reward_workers=1, n_groups=1),
                                     Policy("streaming", migration=False), cls.COST,
                                     sim_module.SpecConfig())
        sim.plans[1] = sim_module._StepPlan(step=1, groups=[None], worker_groups={0: 0},
                                            shares={}, group_total={0: 100},
                                            group_completed={0: 99}, policy_kind="clock")
        sim.workers[0].step = 1
        completions = []
        sim._push = lambda time, kind, data: kind == "completion" and completions.append(time)
        return sim, completions

    @staticmethod
    def settle(sim, completions, until):
        """Run worker 0's completions due by `until`. The latest one pushed
        is the live one: every reschedule pushes one."""
        worker = sim.workers[0]
        while worker.inflight and completions[-1] <= until:
            sim.now = completions[-1]
            before = len(sim.events)
            sim._on_completion(0, worker.sched_version)
            assert len(sim.events) > before, "a completion fired with nothing finished"

    @staticmethod
    def task(sid, total, profile=None):
        return sim_module._Task(sid=sid, prompt="p", epoch=1, member=0,
                                tokens_len=profile[-1] if profile else total, total_iters=total,
                                profile=profile, group=None, weight_version=0, worker=0)

    @classmethod
    def run_clock(cls, tasks, ops):
        sim, completions = cls.one_worker()
        plan, worker = sim.plans[1], sim.workers[0]
        by_sid = {sid: cls.task(sid, total, profile) for sid, (total, profile) in tasks.items()}
        read = []
        observed = []

        def decide(group, generated_len, *rest):
            read.append(generated_len)
            return MigrationDecision("none")

        with mock.patch.object(sim_module, "migration_decision", decide):
            for time, kind, sid in ops:
                cls.settle(sim, completions, time)
                sim.now = time
                task = by_sid.get(sid)
                finished = {e.payload["sample"] for e in sim.events if e.kind == "rollout_finish"}
                if kind == "join" and sid not in worker.inflight and sid not in finished:
                    sim._advance_worker(worker, time)
                    sim._join(worker, task)
                    sim._reschedule(worker)
                elif kind == "detach" and sid in worker.inflight and not task.migrated:
                    sim._detach(worker, task)
                    task.migrated = True
                    observed.append((time, sid, task.generated_len(task.done)))
                    sim._reschedule(worker)
                elif kind == "check":
                    read.clear()
                    sim._check_migrations(plan)
                    readable = sorted(s for s, t in worker.inflight.items() if not t.migrated)
                    assert len(read) == len(readable)
                    observed += [(time, s, n) for s, n in zip(readable, read)]
            cls.settle(sim, completions, math.inf)
        finishes = {e.payload["sample"]: e.time for e in sim.events if e.kind == "rollout_finish"}
        return finishes, observed

    @settings(max_examples=200, deadline=None)
    @given(drawn=worker_scripts())
    def test_matches_sliced_model(self, drawn):
        tasks, ops = drawn
        want, want_observed = oracles.sliced_worker(tasks, ops, self.COST.t_iter,
                                                    self.COST.prefill_per_token)
        # Away from ties: no op at a finish time, and no progress read within
        # 1e-6 of a nonzero integer, where a last-bit difference may change
        # the token count.
        assume(all(abs(t - f) > 1e-9 * max(1.0, f) for f in want.values() for t, _, _ in ops))
        assume(all(p == 0 or abs(p - round(p)) > 1e-6 for _, _, p, _ in want_observed))
        finishes, observed = self.run_clock(tasks, ops)
        assert finishes.keys() == want.keys()
        for sid, t in want.items():
            assert finishes[sid] == pytest.approx(t, rel=1e-9, abs=1e-12)
        assert observed == [(t, sid, tokens) for t, sid, _, tokens in want_observed]

    def test_rollout_moved_as_it_finishes_ends_after_its_prefill(self, time_limit):
        # A rollout can be migrated at the instant it completes, when another
        # worker's check comes first at a tied time; it joins with `done` a
        # hair past its iterations and must still finish, once its prefill ends.
        sim, completions = self.one_worker()
        worker, task = sim.workers[0], self.task("s0", 10)
        task.done = 10 + 1e-10
        sim.now = 100.0
        sim._advance_worker(worker, sim.now)
        sim._join(worker, task)
        sim._reschedule(worker)
        self.settle(sim, completions, math.inf)
        [finish] = [e.time for e in sim.events if e.kind == "rollout_finish"]
        assert finish == pytest.approx(100.0 + 10 * self.COST.prefill_per_token, abs=1e-12)
