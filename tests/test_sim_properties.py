"""Property tests over the whole simulator.

Small random traces, with prompts dropped or added between epochs and some
responses empty, run under every policy with speculation on and off and with
and without oversampling.
Each run must either raise InfeasiblePlanError (two-tier planning found no
allocation for the worker budget) or satisfy every invariant below, which
are checked from the event log and the timeline alone. How often a drawn run
is infeasible or migrates shows with `--hypothesis-show-statistics`.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter, defaultdict
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
import rhymesim.sim as sim_module
from rhymesim.history import Response, build_tree
from rhymesim.scheduler import in_straggler_tail, migration_decision
from rhymesim.sim import (
    ClusterSpec,
    CostConfig,
    InfeasiblePlanError,
    Policy,
    histospec,
    plan_step,
    run,
)
from rhymesim.spec_engine import replay_response
from rhymesim.tracegen import Trace, TraceSpec, generate

COST = CostConfig(per_iter_base=0.004, per_iter_batch=0.0008, reward_time=0.002,
                  train_base=0.3, train_per_sample=0.003)
EPS = 1e-9


@st.composite
def small_runs(draw):
    """(responses, cluster): 2-4 epochs, 4-12 prompts, 1-4 samples each, on
    2-3 groups of 2-8 workers. Some (prompt, epoch) cells are left out: a
    prompt missing from an epoch before one it has is added, one missing
    after is dropped. Every epoch keeps at least one prompt per group, but
    one epoch from 2 on may keep fewer: a small step, which HistoPipe rolls
    out round robin. Some responses are emptied: a group's member 0, a whole
    group, or a member of the last epoch."""
    epochs = draw(st.integers(2, 4))
    num_prompts = draw(st.integers(4, 12))
    n_groups = draw(st.integers(2, 3))
    spec = TraceSpec(num_prompts=num_prompts, epochs=epochs, group_size=draw(st.integers(1, 4)),
                     len_mu=math.log(draw(st.sampled_from([10, 30, 80]))), len_sigma=1.1,
                     similarity=draw(st.sampled_from([0.3, 0.9])),
                     rank_noise=draw(st.sampled_from([0.5, 0.95])), length_jitter=0.3,
                     seed=draw(st.integers(0, 2**16)))
    cells = draw(st.lists(st.tuples(st.integers(0, num_prompts - 1), st.integers(1, epochs)),
                          max_size=num_prompts, unique=True))
    left = Counter({e: num_prompts for e in range(1, epochs + 1)})
    absent = set()
    small = draw(st.none() | st.integers(2, epochs))
    if small is not None:
        kept = draw(st.lists(st.integers(0, num_prompts - 1), min_size=1,
                             max_size=n_groups - 1, unique=True))
        absent.update((spec.prompt_id(p), small) for p in range(num_prompts) if p not in kept)
        left[small] = len(kept)
    for p, e in cells:
        if left[e] > n_groups:
            absent.add((spec.prompt_id(p), e))
            left[e] -= 1
    responses = [r for r in generate(spec) if (r.prompt_id, r.epoch) not in absent]
    cells = sorted({(r.prompt_id, r.epoch) for r in responses})
    emptied = set()  # (prompt, epoch, member)
    for kind in draw(st.lists(st.sampled_from(["member 0", "group", "last epoch"]), unique=True)):
        pid, epoch = draw(st.sampled_from([c for c in cells
                                           if kind != "last epoch" or c[1] == epochs]))
        members = {"member 0": [0], "group": range(spec.group_size),
                   "last epoch": [draw(st.integers(0, spec.group_size - 1))]}[kind]
        emptied.update((pid, epoch, m) for m in members)
    member = Counter()
    for i, r in enumerate(responses):
        if (r.prompt_id, r.epoch, member[r.prompt_id, r.epoch]) in emptied:
            responses[i] = Response(r.prompt_id, r.epoch, array("i"), r.reward)
        member[r.prompt_id, r.epoch] += 1
    cluster = ClusterSpec(rollout_workers=draw(st.integers(n_groups, 8)),
                          reward_workers=draw(st.integers(1, 3)), n_groups=n_groups)
    return responses, cluster


def sample_ids_of(trace: Trace, epoch: int) -> set[str]:
    return {f"{pid}/e{epoch}/{member}"
            for pid, group in trace.epoch_responses(epoch).items()
            for member in range(len(group))}


def check_finishes(res, trace):
    finishes = Counter(e["sample"] for e in res.events if e["kind"] == "rollout_finish")
    assert set(finishes) == set().union(*(sample_ids_of(trace, e) for e in trace.epochs))
    assert set(finishes.values()) == {1}


def check_empty_responses(res, trace):
    """Each rollout finishes with its response's tokens, in zero iterations
    exactly when it has none."""
    lengths = {f"{pid}/e{epoch}/{member}": len(r.tokens)
               for epoch in trace.epochs for pid, group in trace.epoch_responses(epoch).items()
               for member, r in enumerate(group)}
    empty = 0
    for e in res.events:
        if e["kind"] == "rollout_finish":
            assert e["tokens"] == lengths[e["sample"]]
            assert (e["iterations"] == 0) == (e["tokens"] == 0)
            empty += e["tokens"] == 0
    event("empty responses" if empty else "no empty response")


def check_weight_versions(res, policy):
    # Version v is current for step v + 1. Colocated trains step v and then
    # publishes v; pipelined policies publish v from step v - 1, one step off
    # policy. Steps before the first publication roll out the initial weights.
    lag = 0 if policy.name == "colocated" else 1
    available = {}
    for e in res.events:
        if e["kind"] == "weight_update":
            assert e["trained_on_step"] == e["version"] - lag
            available[e["version"]] = e["available_at"]
    for e in res.events:
        if e["kind"] != "rollout_finish":
            continue
        scheduled = e["scheduled_step"]
        assert e["weight_version"] == scheduled - 1
        version = scheduled - 1
        if e["continuation_version"] is not None:
            # An inter-step continuation finishes in the next step, under
            # that step's weights.
            assert e["continuation_version"] == scheduled
            assert e["step"] == scheduled + 1
            version = scheduled
        else:
            assert e["step"] == scheduled
        if version >= 1 + lag:
            assert e["time"] >= available[version] - EPS
        else:
            assert version not in available


def check_causal_order(res, trace, policy):
    finished = {}
    rewards_for = defaultdict(list)  # step counted for -> [(seq, time)]
    rewarded = Counter()
    for e in res.events:
        if e["kind"] == "rollout_finish":
            finished[e["sample"]] = e["time"]
        elif e["kind"] == "reward_done":
            # A sample is rewarded once, after it finishes.
            assert e["time"] >= finished[e["sample"]] - EPS
            rewarded[e["sample"]] += 1
            target = e["buffered_for"] if e["buffered_for"] is not None else e["step"]
            rewards_for[target].append((e["seq"], e["time"]))
    assert set(rewarded) == set(finished) and set(rewarded.values()) == {1}
    trains = {e["step"]: e for e in res.events if e["kind"] == "train_done"}
    last = len(trace.epochs)
    assert sorted(trains) == list(range(1, last + 1))
    for step, e in trains.items():
        batch = e["batch"]
        # The first `batch` rewards for a step are the ones its train job
        # counts: all came in before the job started.
        assert 1 <= batch <= len(rewards_for[step])
        assert rewards_for[step][batch - 1][1] <= e["time"] - e["duration"] + EPS
    # A reward that comes after its step's train job started counts for the
    # next step still open; it counts for none only once the last step's job
    # has its batch.
    last_counted = rewards_for[last][trains[last]["batch"] - 1][0]
    for step, e in trains.items():
        for seq, _ in rewards_for[step][e["batch"]:]:
            assert seq > last_counted
    if policy.oversample_pct == 0.0:
        # Without oversampling a step trains on every sample it expects: its
        # own, less those migrated into the next step, plus those migrated in.
        expected = Counter({e: len(sample_ids_of(trace, e)) for e in trace.epochs})
        for e in res.events:
            if e["kind"] == "migration" and e["migration_kind"] == "inter_step":
                expected[e["to_step"] - 1] -= 1
                expected[e["to_step"]] += 1
        assert {s: e["batch"] for s, e in trains.items()} == dict(expected)


def check_worker_intervals(res):
    by_worker = defaultdict(list)
    for wid, start, end, _kind in res.timeline:
        assert start <= end
        by_worker[wid].append((start, end))
    for spans in by_worker.values():
        spans.sort()
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start >= prev_end - EPS


def check_migrations(res, trace, policy):
    """Migrations happen only under histopipe, in grouped steps, and each one
    moves an unfinished rollout of a group down to its last ALPHA_PCT% of
    rollouts. Each group's rollout count and finished count are rebuilt from
    the event log: a rollout counts for the group of the worker it started
    on, moves with an intra-step migration, and an inter-step one leaves its
    step for the group its prompt has in the next step (none when the prompt
    is not in it or the step is round robin), joining it once that step is
    planned."""
    migrations = {e["sample"]: e for e in res.events if e["kind"] == "migration"}
    if not policy.is_histopipe:
        assert not migrations
        return
    event("migrated" if migrations else "no migration")
    worker_groups = {e["step"]: {int(w): g for w, g in e["workers"].items()}
                     for e in res.events
                     if e["kind"] == "step_boundary" and e["policy"] == policy.name}
    finishes = {e["sample"]: e for e in res.events if e["kind"] == "rollout_finish"}
    # A rollout that has generated all its tokens is finished: it never moves.
    assert all(m["generated"] < finishes[sid]["tokens"] for sid, m in migrations.items())
    total = defaultdict(Counter)
    completed = defaultdict(Counter)
    counted_in: dict[str, tuple[int, int | None]] = {}
    for sid, fin in finishes.items():
        step = fin["scheduled_step"]
        if step in worker_groups:
            first = migrations[sid]["from_worker"] if sid in migrations else fin["worker"]
            group = worker_groups[step][first]
            total[step][group] += 1
            counted_in[sid] = (step, group)
    planned = set()
    unbound = defaultdict(list)
    for e in res.events:
        if e["kind"] == "step_boundary":
            planned.add(e["step"])
            for group in unbound.pop(e["step"], []):
                total[e["step"]][group] += 1
        elif e["kind"] == "rollout_finish" and e["sample"] in counted_in:
            step, group = counted_in[e["sample"]]
            assert e["step"] == step
            if group is not None:
                completed[step][group] += 1
        elif e["kind"] == "migration":
            sid = e["sample"]
            step, group = counted_in[sid]
            assert step in worker_groups and group == e["from_group"]
            assert in_straggler_tail(completed[step][group], total[step][group])
            total[step][group] -= 1
            if e["migration_kind"] == "intra_step":
                total[step][e["to_group"]] += 1
                counted_in[sid] = (step, e["to_group"])
                continue
            nxt = e["to_step"]
            assert nxt == step + 1
            prompt = sid.split("/", 1)[0]
            group = (worker_groups[nxt][finishes[sid]["worker"]]
                     if nxt in worker_groups and prompt in trace.prompts(nxt) else None)
            counted_in[sid] = (nxt, group)
            if group is not None:
                if nxt in planned:
                    total[nxt][group] += 1
                else:
                    unbound[nxt].append(group)


def check_group_totals(sim):
    """Each grouped step's `group_total` counts the rollouts in each of its
    groups at the end of the run: those dealt to the group, less the ones that
    migrated out of it, plus the migrants that joined it, from a group of the
    step or as continuations from the step before."""
    for rec in sim.step.values():
        if rec.plan.groups is None:
            continue
        now_in = Counter(task.group for share in rec.shares.values() for task in share
                         if task.continuation_version is None)
        now_in.update(task.group for task in rec.carry_in if task.group is not None)
        assert rec.group_total == {g.index: now_in[g.index] for g in rec.plan.groups}


@pytest.mark.parametrize("oversample_pct", [0.0, 20.0])
@pytest.mark.parametrize("speculation", [False, True])
@pytest.mark.parametrize("name", ["colocated", "streaming", "histopipe_naive",
                                  "histopipe_two_tier"])
@settings(max_examples=15, deadline=None)
@given(drawn=small_runs())
def test_simulator_invariants(name, speculation, oversample_pct, drawn):
    responses, cluster = drawn
    trace = Trace(responses)
    policy = Policy(name, speculation=speculation, oversample_pct=oversample_pct)
    try:
        res = run(trace, cluster, policy, COST)
    except InfeasiblePlanError:
        event("InfeasiblePlanError")
        return
    check_finishes(res, trace)
    check_empty_responses(res, trace)
    check_weight_versions(res, policy)
    check_causal_order(res, trace, policy)
    check_worker_intervals(res)
    check_migrations(res, trace, policy)
    oracles.check_event_records(res)
    assert run(trace, cluster, policy, COST).events_jsonl() == res.events_jsonl()


class FullScan(sim_module._Simulation):
    """The simulator with the migration check that reads every in-flight
    rollout of every worker of every group in its straggler tail, whatever
    its length: the reference the length-filtered check must agree with."""

    def _check_migrations(self, rec):
        completed, total = rec.group_completed, rec.group_total
        loads = {}
        for g, wids in rec.group_workers.items():
            batches = [len(self.workers[w].inflight) for w in wids
                       if self.workers[w].step == rec.number and self.workers[w].inflight]
            if batches:
                loads[g] = sum(batches) / len(batches)
        for g, wids in rec.group_workers.items():
            if not in_straggler_tail(completed[g], total[g]):
                continue
            for wid in wids:
                worker = self.workers[wid]
                if worker.step != rec.number or not worker.inflight:
                    continue
                v_leave = self._next_boundary(worker)[1]
                for sid in sorted(worker.inflight):
                    task = worker.inflight[sid]
                    if task.migrated or v_leave == task.v_end:
                        continue
                    decision = migration_decision(
                        rec.plan.groups[g], task.generated_len(v_leave - task.v_start),
                        completed[g], total[g], rec.plan.beta, self.cluster.n_groups, loads)
                    if decision.migrates:
                        self._migrate(rec, worker, task, decision.target_group)


@pytest.mark.parametrize("name", ["histopipe_naive", "histopipe_two_tier"])
@settings(max_examples=15, deadline=None)
@given(drawn=small_runs())
def test_only_rollouts_longer_than_beta_history_migrate(name, drawn):
    """The migration check visits only the rollouts whose length exceeds
    beta times their group's longest history length. That is exact because
    no rollout, replayed or not, has generated more than its length after
    any number of its iterations; so every migrated rollout is
    one of those, in the group and step it was dealt to, and the run's log
    is the one a check reading every rollout writes."""
    responses, cluster = drawn
    policy = Policy(name, speculation=True)
    sim = sim_module._Simulation(Trace(responses), cluster, policy, COST)
    try:
        res = sim.run()
    except InfeasiblePlanError:
        event("InfeasiblePlanError")
        return
    assert FullScan(Trace(responses), cluster, policy, COST).run().events_jsonl() \
        == res.events_jsonl()
    check_group_totals(sim)
    dealt = {task.sid: (rec, task) for rec in sim.step.values()
             for share in rec.shares.values() for task in share}
    for _, task in dealt.values():
        assert all(task.generated_len(progress) <= task.tokens_len
                   for progress in range(task.total_iters + 1))
    migrations = [e for e in res.events if e["kind"] == "migration"]
    event("migrated" if migrations else "no migration")
    for m in migrations:
        rec, task = dealt[m["sample"]]
        group = rec.plan.groups[m["from_group"]]
        assert task.tokens_len > rec.plan.beta * group.max_hist_len


@pytest.mark.parametrize("speculation", [False, True])
@settings(max_examples=15, deadline=None)
@given(drawn=small_runs())
def test_step_boundaries_hold_the_plan_of_plan_step(speculation, drawn):
    """Every two-tier step's allocation and worker map in the log are what
    `plan_step` plans for the step from the trace, its HistoSpec replays and
    the duration of the last train job to end before the step's boundary
    (None before any has). A step from 2 on with fewer prompts than groups
    has no plan and is rolled out round robin."""
    responses, cluster = drawn
    trace = Trace(responses)
    try:
        res = run(trace, cluster, Policy("histopipe_two_tier", speculation=speculation), COST)
    except InfeasiblePlanError:
        event("InfeasiblePlanError")
        return
    replayed = histospec(trace) if speculation else {}
    t_train = None
    planned = []
    for e in res.events:
        if e["kind"] == "train_done":
            t_train = e["duration"]
        elif e["kind"] == "step_boundary" and e["step"] >= 2:
            step = e["step"]
            if len(trace.prompts(step)) < cluster.n_groups:
                event("a small step")
                assert e["policy"] == "streaming" and e["allocation"] is None
                assert set(e["workers"].values()) == {0}
                with pytest.raises(ValueError, match="fewer prompts"):
                    plan_step(trace, replayed, step, cluster, COST, t_train)
                continue
            event("t_train from a train job" if t_train is not None else "t_train from the cost")
            plan = plan_step(trace, replayed, step, cluster, COST, t_train)
            assert e["allocation"] == plan.allocation.as_dict()
            assert e["workers"] == {str(w): g for w, g in plan.worker_groups.items()}
            planned.append(step)
    assert planned == [s for s in trace.epochs[1:] if len(trace.prompts(s)) >= cluster.n_groups]


@settings(max_examples=30, deadline=None)
@given(drawn=small_runs(), cpus=st.integers(1, 3))
def test_histospec_replays_against_the_latest_earlier_index(drawn, cpus):
    """Each response of a step from 2 on whose prompt appeared before is
    replayed against the index over the prompt's latest earlier epoch,
    however the units are split; no other response has a replay."""
    trace = Trace(drawn[0])
    with mock.patch.object(sim_module, "_usable_cpus", lambda: cpus):
        got = histospec(trace)
    want = {}
    for step in trace.epochs:
        for pid in trace.prompts(step):
            earlier = [e for e in trace.epochs if e < step and pid in trace.prompts(e)]
            if not earlier:
                continue
            tree = build_tree(pid, earlier[-1], trace.group(earlier[-1], pid))
            want[step, pid] = [replay_response(resp.tokens, tree)
                               for resp in trace.group(step, pid)]
    assert got == want


TIME_FIELDS = ("time", "start", "available_at", "duration", "switch")


def in_ticks(value):
    return None if value is None else round(value * 1e9)


@pytest.mark.parametrize("name", ["colocated", "streaming", "histopipe_naive"])
@settings(max_examples=15, deadline=None)
@given(drawn=small_runs(), speculation=st.booleans(), k=st.integers(2, 7))
def test_scaling_every_tick_cost_scales_every_time(name, speculation, k, drawn):
    """Multiplying every tick cost by k multiplies every time in the log, in
    ticks, by k and leaves the rest of the log byte-identical: the clock adds
    and multiplies whole ticks, and nothing else reads a duration. Two-tier
    is left out: its planner compares durations in seconds with a fixed
    search precision, so its plan is not free of scale."""
    responses, cluster = drawn
    policy = Policy(name, speculation=speculation)
    logs = []
    for scale in (1, k):
        sim = sim_module._Simulation(Trace(responses), cluster, policy, COST)
        sim.ticks = sim_module._Ticks(*(scale * t for t in sim.ticks))
        logs.append(sim.run().events)
    for base, scaled in zip(*logs, strict=True):
        for key in TIME_FIELDS:
            if key == "switch" and base.get(key) is not None:
                assert list(map(in_ticks, scaled[key])) == [k * in_ticks(t) for t in base[key]]
            elif key in base and base[key] is not None:
                assert in_ticks(scaled[key]) == k * in_ticks(base[key])
        rest = [{f: v for f, v in e.items() if f not in TIME_FIELDS} for e in (base, scaled)]
        assert json.dumps(rest[0]) == json.dumps(rest[1])
