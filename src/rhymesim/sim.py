"""Deterministic discrete-event simulation of the rollout/reward/train pipeline.

One simulated step replays one trace epoch: every response's content comes
from the trace, its iteration profile from its HistoSpec replay or, when it
is not speculated, one token per iteration, and the event loop only decides
*when* things happen. A rollout worker is a processor-sharing
server: all of its in-flight responses advance one iteration per
`t_iter(batch)`. Each worker therefore keeps one iteration clock `v`, the
iterations a decoding response has completed since the worker's step began,
and commits it only when its batch changes (a join, a finish or a
migration); between commits `v` is linear in time. A response stores the
clock value `v_start` at which its progress was 0, so its progress at any
time is read off the clock without writing anything, and it finishes when
`v` reaches `v_start + total_iters`. Completions, migrations and weight waits
fall out of plain arithmetic, and two runs with the same inputs produce
byte-identical event logs.

Weight version v is the one step v+1 rolls out under: every response of
step k rolls out under version k-1. Pipelined policies overlap: the job that
trains step k's samples runs while step k+1 rolls out and publishes version
k+1, which step k+2 rolls out under; that is the one-step off-policy
contract, and steps 1 and 2 roll out the initial weights. The colocated
baseline instead serializes rollout, a context switch, and training on the
same workers each step, publishing version k for step k+1. Training starts
once a batch-size worth of the step's samples has been rewarded;
oversampling lowers that threshold and late samples count toward the next
step's batch.

Each step is one `_Step` record, made for every step before the loop
starts: its `StepPlan` (ranking groups, worker map, allocation and migration
beta; round robin is one group over every worker), the tasks dealt to each
worker, each group's workers, total and completed rollouts, its
`stragglers` (each group's dealt rollouts long enough to migrate), the
inter-step migrants carried into it, the samples it expects and has had
rewarded, and whether its train job has started and ended. A step is planned
when a worker first reaches it, after every earlier step.

Migrated rollouts keep their generated tokens and pay a prefill recompute
charge when they join a worker: a timed phase at the end of which their
`v_start` is fixed. Inter-step ones finish under the next step's version and
count toward the next step's batch.

HistoSpec is one pass computed before the event loop (`histospec`): for every
prompt of every step from 2 on, it builds the prompt's suffix index over its
latest earlier epoch and replays the step's responses against it. It depends
only on the trace, so it is split over the CPUs this process may use, one
forked process per share beyond the one the simulating process computes
itself. Each response's replay is one `spec_engine.Replayed`: its iteration
count, its cumulative profile as C ints and its counters. A response without
one (in step 1, in a run without speculation, or of a prompt new in its
epoch) decodes one token per iteration without any call into the engine. An
empty response takes zero iterations either way: it finishes at the time its
worker starts it.

The event log is the run's one record: `events.EVENTS` is its schema, and
`events.derive` computes every reported figure from it.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import heapq
import math
import os
import pickle
import signal
import statistics
import warnings
from array import array
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from . import history
from .events import SimResult, derive
from .history import Response
from .scheduler import (
    BETA_FLOOR,
    AllocationPlan,
    PromptStat,
    RankingGroup,
    assignment_order,
    beta_from_history,
    build_groups,
    in_straggler_tail,
    migration_decision,
    partition_sizes,
    plan_allocation,
    prompt_stats,
)
from .spec_engine import Replayed, SpecStats, replay_response
from .tracegen import Trace

POLICIES = ("colocated", "streaming", "histopipe_naive", "histopipe_two_tier")
RUN_SCHEMA_VERSION = 4
# Two-tier planning stops its gradient search once the gradient is known to
# within this many simulated seconds.
PLAN_PRECISION = 0.05
_EPS = 1e-9


class InfeasiblePlanError(RuntimeError):
    """Two-tier planning could not fit the worker budget."""


class SimulationStalledError(RuntimeError):
    """The event queue drained before the run finished its work: a scheduled
    sample did not finish exactly once, a step never trained, or a worker
    still waits for weights."""


@dataclass
class Policy:
    name: str
    speculation: bool = False
    migration: bool = True
    oversample_pct: float = 0.0

    def __post_init__(self):
        if self.name not in POLICIES:
            raise ValueError(f"unknown policy {self.name!r}; expected one of {POLICIES}")
        if not (0.0 <= self.oversample_pct < 100.0):
            raise ValueError("oversample_pct must be in [0, 100)")

    @property
    def is_histopipe(self) -> bool:
        return self.name.startswith("histopipe")


@dataclass
class CostConfig:
    """All durations in abstract seconds; the one source of time truth."""

    per_iter_base: float = 0.02      # engine iteration floor
    per_iter_batch: float = 0.0003   # added per in-flight response on the worker
    prefill_per_token: float = 0.00005  # KV recompute charge on migration
    reward_time: float = 0.01        # per sample on a reward worker
    train_base: float = 0.5
    train_per_sample: float = 0.005
    context_switch_frac: float = 0.05  # colocated only, fraction of train time

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        # A zero iteration time would finish every rollout at the instant it
        # starts, and the event loop would never advance.
        if not self.per_iter_base + self.per_iter_batch > 0:
            raise ValueError("per_iter_base + per_iter_batch must be > 0")

    def t_iter(self, batch: int) -> float:
        return self.per_iter_base + self.per_iter_batch * batch

    def t_train(self, samples: int) -> float:
        return self.train_base + self.train_per_sample * samples


@dataclass
class ClusterSpec:
    rollout_workers: int
    reward_workers: int = 2
    n_groups: int = 4
    weight_propagation_delay: float = 0.1

    def __post_init__(self):
        if self.rollout_workers < 1 or self.reward_workers < 1:
            raise ValueError("need at least one rollout and one reward worker")
        if self.rollout_workers < self.n_groups:
            raise ValueError("rollout_workers must be >= n_groups")
        if not (math.isfinite(self.weight_propagation_delay)
                and self.weight_propagation_delay >= 0):
            raise ValueError("weight_propagation_delay must be finite and >= 0, "
                             f"got {self.weight_propagation_delay}")


@dataclass(slots=True)
class _Task:
    sid: str
    prompt: str
    epoch: int
    tokens_len: int
    total_iters: int
    profile: array | None  # cumulative tokens after each iteration; None = 1/iter
    group: int | None
    weight_version: int
    v_start: float = 0.0      # worker clock at progress 0; inf while prefilling
    done: float = 0.0         # iterations completed before joining its worker
    ready_at: float = 0.0     # time its prefill ends, while prefilling
    worker: int | None = None
    migrated: bool = False
    continuation_version: int | None = None

    def generated_len(self, progress: float) -> int:
        idx = min(self.total_iters, max(0, math.floor(progress + _EPS)))
        return self.profile[idx - 1] if idx and self.profile is not None else idx


@dataclass(slots=True)
class _Worker:
    wid: int
    free_at: float = 0.0
    step: int = 0
    inflight: dict = field(default_factory=dict)
    prefilling: list = field(default_factory=list)  # in-flight tasks not decoding yet
    v: float = 0.0             # iteration clock, committed at last_advance
    last_advance: float = 0.0
    sched_version: int = 0
    share_open: bool = False   # between its share_start and share_end events


@dataclass
class _Step:
    """One step of the run, from its plan to its train job. Every step's
    record exists from the start: an inter-step migrant or a late reward
    can reach a step before it is planned."""

    number: int
    plan: StepPlan | None = None                 # None until _ensure_plan
    shares: dict[int, list[_Task]] = field(default_factory=dict)        # worker -> dealt
    group_workers: dict[int, list[int]] = field(default_factory=dict)   # both ascending
    group_total: dict[int, int] = field(default_factory=dict)
    group_completed: dict[int, int] = field(default_factory=dict)
    carry_in: list[_Task] = field(default_factory=list)  # inter-step migrants into it
    # group -> its dealt rollouts long enough to migrate, by (worker, sid)
    stragglers: dict[int, list[_Task]] = field(default_factory=dict)
    expected: int = 0          # samples it will roll out, carry-ins included
    rewarded: int = 0          # samples rewarded toward its batch
    train_started: bool = False
    trained: bool = False


# A HistoSpec unit: (step, prompt, the prompt's latest epoch before the step).
_Unit = tuple[int, str, int]


@contextlib.contextmanager
def _collector_paused():
    """Pause automatic cyclic garbage collection, restoring its state after.

    HistoSpec's indexes and replays hold no reference cycles, so reference
    counting frees them and pausing the collector frees nothing later. It
    would otherwise run full collections whose cost grows with everything
    the process holds and whose timing depends on allocations made before
    the call; in a forked child, which inherits the pause, a full collection
    would also copy every inherited page it touches.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def histospec(trace: Trace) -> dict[tuple[int, str], list[Replayed]]:
    """Every response of every step from 2 on whose prompt appeared in an
    earlier epoch, replayed against the prompt's index over the latest such
    epoch: (step, prompt) -> one `Replayed` per group member, in order.

    The units are split over the usable CPUs, balanced by token count. This
    process computes one share and forks one child per other share; a child
    pickles its results, or the exception that stopped it, into a pipe and
    ends with `os._exit`. Every child is reaped before this returns or
    raises, and a child's exception is raised here. Everything runs here
    when there is one CPU or one unit, or when no process can be forked.
    Automatic garbage collection is paused throughout, in the children too.
    """
    shares = _split(trace, _units(trace), _usable_cpus())
    if not shares:
        return {}
    own = shares[0]
    children: list[int] = []
    pipes: list[int] = []  # the read end of each child's pipe
    received: list[bytes] = []
    try:
        for share in shares[1:]:
            child = _fork_share(trace, share)
            if child is None:
                own += share
            else:
                children.append(child[0])
                pipes.append(child[1])
        results = _replay_units(trace, own)
        for fd in pipes:
            with open(fd, "rb", closefd=False) as pipe:
                received.append(pipe.read())
    finally:
        for fd in pipes:
            os.close(fd)
        # A child not read to the end is still working or blocked on its pipe.
        for pid in children[len(received):]:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in children:
            os.waitpid(pid, 0)
    for data in received:
        try:
            outcome = pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError("a HistoSpec process ended before sending its results") from None
        if isinstance(outcome, BaseException):
            raise outcome
        results.update(outcome)
    return results


def _units(trace: Trace) -> list[_Unit]:
    latest: dict[str, int] = {}  # prompt -> the last epoch it appeared in
    units = []
    for step in trace.epochs:
        prompts = trace.prompts(step)
        units += [(step, pid, latest[pid]) for pid in prompts if pid in latest]
        latest.update(dict.fromkeys(prompts, step))
    return units


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split(trace: Trace, units: list[_Unit], parts: int) -> list[list[_Unit]]:
    """At most `parts` non-empty shares of `units`, balanced by the tokens
    each unit indexes and replays: the heaviest unit goes first, each to the
    lightest share so far."""
    def tokens(unit: _Unit) -> int:
        step, pid, epoch = unit
        return sum(len(r.tokens) for e in (epoch, step) for r in trace.group(e, pid))

    shares: list[list[_Unit]] = [[] for _ in range(min(parts, len(units)))]
    loads = [(0, i) for i in range(len(shares))]
    for weight, unit in sorted(((tokens(u), u) for u in units), reverse=True):
        load, i = heapq.heappop(loads)
        shares[i].append(unit)
        heapq.heappush(loads, (load + weight, i))
    return shares


def _replay_units(trace: Trace, units: list[_Unit]) -> dict[tuple[int, str], list[Replayed]]:
    # Both calls go through their modules' globals, so a wrapper set on
    # `history.build_tree` or `sim.replay_response` (the traced benchmark
    # run) sees the calls made in this process. Each index is dropped before
    # the next is built, so one is alive at a time.
    results = {}
    for step, pid, epoch in units:
        tree = history.build_tree(pid, epoch, trace.group(epoch, pid))
        results[step, pid] = [replay_response(resp.tokens, tree)
                              for resp in trace.group(step, pid)]
        del tree
    return results


def _fork_share(trace: Trace, units: list[_Unit]) -> tuple[int, int] | None:
    """(pid, read end of its pipe) of a child computing `units`, or None when
    no process can be forked."""
    if not hasattr(os, "fork"):
        return None
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with other OS threads forks,
            # because a lock another thread holds stays held in the child.
            # numpy's BLAS pool is such a thread. The child runs only this
            # package's pure-Python index and replay code, takes no lock
            # another thread could hold, and leaves through os._exit.
            warnings.filterwarnings("ignore", r".*fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read)
            try:
                outcome = _replay_units(trace, units)
            except BaseException as exc:  # sent to the parent, which raises it
                outcome = _picklable(exc)
            with open(write, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _picklable(exc: BaseException) -> BaseException:
    """`exc` if it survives pickling, else a RuntimeError naming its type
    and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


class StepPlan(NamedTuple):
    """What a step's plan decides before its responses are dealt. Each group
    is a lane: its prompts' responses are dealt over its workers in turn.
    Round robin has no groups and one lane, over every worker, in sorted
    prompt order."""

    groups: list[RankingGroup] | None    # None for round robin
    group_batches: dict[int, int]        # group -> its responses in the step
    worker_groups: dict[int, int]        # worker -> group
    allocation: AllocationPlan | None    # the two-tier plan; None for an equal split
    policy: str                          # the step_boundary event's `policy`
    beta: float                          # migration's length-growth threshold


def plan_step(trace: Trace, replayed: Mapping[tuple[int, str], list[Replayed]], step: int,
              cluster: ClusterSpec, cost: CostConfig, t_train: float | None = None, *,
              two_tier: bool = True) -> StepPlan:
    """The plan a HistoPipe run makes for `step`, from 2 to the trace's last
    epoch, before it deals the step's responses. Raises InfeasiblePlanError
    when no allocation fits the workers.

    Ranking groups order the step's prompts by their epoch step-1 statistics,
    and worker slots take the groups in `assignment_order`: an equal share
    each, or with `two_tier` the `plan_allocation` of `tau(g, k)`. That deals
    group g's previous-epoch member lengths over k workers as the step's
    responses will be dealt, takes the slowest worker's decayed-batch
    makespan (the simulator's analog of profiling the engine), and divides
    it by 1 plus the tokens landed per engine pass beyond the first over
    every response of the earlier epochs, replayed as in `replayed`
    (`histospec`'s map; empty without speculation). `t_train` is the
    duration of the last train job to end before the step is planned; while
    none has, the cost model's train time of the step's batch stands in. The
    t0 >= t_train floor keeps the shortest group from hogging workers.

    `beta` is `beta_from_history` over the growth in median length from
    epoch step-2 to step-1 of the prompts in both, or BETA_FLOOR at step 2.
    """
    last = len(trace.epochs)
    if trace.epochs != list(range(1, last + 1)):
        raise ValueError("trace epochs must be contiguous starting at 1")
    if not 2 <= step <= last:
        raise ValueError(f"step {step} has no plan: HistoPipe plans steps 2 to the "
                         f"trace's last epoch ({last}), each from the epoch before it")
    n_groups, wks = cluster.n_groups, cluster.rollout_workers
    groups = build_groups(_planning_stats(trace, step), n_groups)
    group_batches = {
        g.index: sum(len(trace.group(step, pid)) for pid in g.prompt_ids) for g in groups
    }
    allocation = None
    if two_tier:
        prev_epoch = trace.epoch_responses(step - 1)
        member_lens = [
            [r.generated_len for pid in g.prompt_ids if pid in prev_epoch
             for r in prev_epoch[pid]]
            for g in groups
        ]
        earlier = SpecStats()
        for epoch in range(1, step):
            for pid, responses in trace.epoch_responses(epoch).items():
                replays = replayed.get((epoch, pid))
                for member, resp in enumerate(responses):
                    earlier.count(resp.generated_len,
                                  None if replays is None else replays[member])
        passes = earlier.verify_passes + earlier.decode_passes
        speedup = 1.0 + (max(0.0, earlier.tokens_total / passes - 1.0) if passes else 0.0)

        # The search asks each cell at every gradient it tries, so it is cached.
        @functools.cache
        def tau(g: int, k: int) -> float:
            lens = member_lens[g]
            return max(_share_makespan(lens[i::k], cost) for i in range(k)) / speedup

        if t_train is None:
            t_train = cost.t_train(sum(group_batches.values()))
        allocation = plan_allocation(n_groups, wks, t_train, tau, precision=PLAN_PRECISION)
        if not allocation.feasible:
            raise InfeasiblePlanError(
                f"step {step}: no feasible allocation for {wks} workers over "
                f"{n_groups} groups (t0={allocation.t0:.3f})"
            )
        counts = list(allocation.per_group_workers)
        # Spend leftover budget on the longest groups.
        spare = wks - sum(counts)
        g = n_groups - 1
        while spare > 0:
            counts[g] += 1
            spare -= 1
            g = g - 1 if g > 0 else n_groups - 1
    else:
        counts = partition_sizes(wks, n_groups)
    order = assignment_order(step, n_groups)
    beta = BETA_FLOOR
    if step >= 3:
        prev = prompt_stats(trace.epoch_responses(step - 2))
        cur = prompt_stats(trace.epoch_responses(step - 1))
        beta = beta_from_history([cur[p].median_len / prev[p].median_len
                                  for p in sorted(cur) if p in prev and prev[p].median_len > 0])
    return StepPlan(groups, group_batches,
                    dict(enumerate(g for g in order for _ in range(counts[g]))), allocation,
                    "histopipe_two_tier" if two_tier else "histopipe_naive", beta)


def _planning_stats(trace: Trace, step: int) -> dict[str, PromptStat]:
    """Epoch `step`'s prompts with their epoch step-1 statistics. A prompt
    absent from epoch step-1 gets a typical prompt's: the median of the
    known medians and of the known maxima."""
    known = prompt_stats(trace.epoch_responses(step - 1))
    cold = PromptStat(float(statistics.median(s.median_len for s in known.values())),
                      float(statistics.median(s.max_len for s in known.values())))
    return {pid: known.get(pid, cold) for pid in trace.epoch_responses(step)}


def _share_makespan(lens: list[int], cost: CostConfig) -> float:
    """One worker's time to decode `lens` as one batch: all iterate together
    and the batch shrinks as the shorter ones finish."""
    total = 0.0
    batch = len(lens)
    prev = 0
    for length in sorted(lens):
        total += (length - prev) * cost.t_iter(batch)
        batch -= 1
        prev = length
    return total


class _Simulation:
    def __init__(self, trace: Trace, cluster: ClusterSpec, policy: Policy,
                 cost: CostConfig):
        self.trace = trace
        self.cluster = cluster
        self.policy = policy
        self.cost = cost
        self.steps = len(trace.epochs)
        if not self.steps:
            raise ValueError("trace has no responses")
        if trace.epochs != list(range(1, self.steps + 1)):
            raise ValueError("trace epochs must be contiguous starting at 1")
        if policy.is_histopipe and self.steps < 2:
            raise ValueError("histopipe policies need a trace with at least 2 epochs")

        self.workers = [_Worker(w) for w in range(cluster.rollout_workers)]
        self.events: list[dict] = []  # `events.EVENTS` records, keys sorted at every level
        self._heap: list[tuple[float, int, str, tuple]] = []
        # One counter breaks the heap's time ties and gives each record its `seq`.
        self._seq = 0
        self.now = 0.0

        # (step, prompt) -> its responses' HistoSpec replays, filled by run()
        # before the event loop; empty without speculation.
        self.replayed: dict[tuple[int, str], list[Replayed]] = {}

        self.step = {k: _Step(k) for k in trace.epochs}
        self.reward_free = [(0.0, i) for i in range(cluster.reward_workers)]
        heapq.heapify(self.reward_free)
        self.train_free = 0.0
        self.last_train_duration: float | None = None  # of the last train job to end
        self.weight_avail: dict[int, float] = {}
        self.weight_waiters: dict[int, list[tuple[int, int]]] = {}  # version -> (wid, step)

    # -- event plumbing -----------------------------------------------------

    def _push(self, time: float, kind: str, data: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, data))

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- planning -------------------------------------------------------------

    def _ensure_plan(self, step: int) -> _Step:
        """`step`'s record, planned once every earlier step is: its plan, its
        responses dealt as tasks, its carry-ins bound and its step_boundary
        emitted. A response takes its HistoSpec replay if it has one; any
        other decodes one token per iteration."""
        rec = self.step[step]
        if rec.plan is not None:
            return rec
        if step > 1:
            self._ensure_plan(step - 1)
        n = len(self.workers)
        if self.policy.is_histopipe and step >= 2:
            plan = plan_step(self.trace, self.replayed, step, self.cluster, self.cost,
                             self.last_train_duration,
                             two_tier=self.policy.name == "histopipe_two_tier")
        else:
            # Round robin never migrates, so its beta is never read.
            plan = StepPlan(None, {}, dict.fromkeys(range(n), 0), None,
                            "colocated" if self.policy.name == "colocated" else "streaming",
                            BETA_FLOOR)
        rec.plan = plan
        by_group = defaultdict(list)
        for wid, g in sorted(plan.worker_groups.items()):
            by_group[g].append(wid)
        rec.group_workers = dict(sorted(by_group.items()))
        rec.group_total = dict(plan.group_batches)

        if plan.groups is None:
            lanes = [(None, rec.group_workers[0], self.trace.prompts(step))]
        else:
            lanes = [(g.index, rec.group_workers[g.index], g.prompt_ids) for g in plan.groups]
        stats = SpecStats()
        rec.shares = {wid: [] for wid in range(n)}
        for group, wids, prompt_ids in lanes:
            i = 0
            for pid in prompt_ids:
                replays = self.replayed.get((step, pid))
                for member, resp in enumerate(self.trace.group(step, pid)):
                    replay = None if replays is None else replays[member]
                    stats.count(resp.generated_len, replay)
                    wid = wids[i % len(wids)]
                    rec.shares[wid].append(_Task(
                        sid=f"{pid}/e{step}/{member}", prompt=pid, epoch=step,
                        tokens_len=resp.generated_len,
                        total_iters=resp.generated_len if replay is None else replay.iterations,
                        profile=None if replay is None else replay.profile,
                        group=group, weight_version=step - 1, worker=wid,
                    ))
                    i += 1
        rec.expected += sum(map(len, rec.shares.values()))
        for g in plan.groups or ():
            longest = plan.beta * g.max_hist_len
            stragglers = sorted((task for wid in rec.group_workers[g.index]
                                 for task in rec.shares[wid] if task.tokens_len > longest),
                                key=lambda t: (t.worker, t.sid))
            if stragglers:
                rec.stragglers[g.index] = stragglers
        for task in rec.carry_in:
            if task.worker is None:
                self._bind_carry(rec, task)

        self.events.append({
            "allocation": plan.allocation.as_dict() if plan.allocation else None,
            "kind": "step_boundary", "policy": plan.policy,
            "replay": dict(sorted(vars(stats).items())),
            "seq": self._next_seq(), "step": step, "time": self.now,
            "workers": dict(sorted((str(w), g) for w, g in plan.worker_groups.items())),
        })
        return rec

    def _carry_targets(self, rec: _Step, task: _Task) -> tuple[int | None, list[int]]:
        """The group a continuation of `task` joins in step `rec` and the
        workers that can still run it: those serving the prompt's group (any
        worker under round-robin plans) that have not moved past the step.
        With oversampling, training and so the next weights can come before
        a step's last sample, letting workers run ahead of a straggler."""
        plan = rec.plan
        group = None
        if plan.groups is not None:
            group = next((g.index for g in plan.groups if task.prompt in g.prompt_ids), None)
        wids = [w for w, g in plan.worker_groups.items()
                if (group is None or g == group) and self.workers[w].step <= rec.number]
        return group, wids

    def _bind_carry(self, rec: _Step, task: _Task) -> None:
        group, wids = self._carry_targets(rec, task)
        target = min(wids, key=lambda w: (len(rec.shares[w]), w))
        task.worker = target
        task.group = group
        if group is not None:
            rec.group_total[group] = rec.group_total.get(group, 0) + 1
        running = self.workers[target]
        if running.step == rec.number:
            self._advance_worker(running, self.now)
            self._join(running, task)
            self._open_share(running)
            self._reschedule(running)

    # -- the worker clock ------------------------------------------------------

    def _t_iter(self, worker: _Worker) -> float:
        return self.cost.t_iter(len(worker.inflight))

    def _advance_worker(self, worker: _Worker, to_time: float) -> None:
        """Commit the worker's clock to `to_time`. Called only when its batch
        is about to change, since the rate `t_iter(batch)` changes with it.
        A prefill ending inside the interval fixes that task's `v_start`
        exactly, because the clock is linear between commits."""
        elapsed = to_time - worker.last_advance
        if elapsed > 0 and worker.inflight:
            rate = self._t_iter(worker)
            if worker.prefilling:
                for task in worker.prefilling:
                    if task.ready_at <= to_time:
                        task.v_start = (worker.v + (task.ready_at - worker.last_advance) / rate
                                        - task.done)
                worker.prefilling = [t for t in worker.prefilling if t.ready_at > to_time]
            worker.v += elapsed / rate
        worker.last_advance = max(worker.last_advance, to_time)

    def _join(self, worker: _Worker, task: _Task) -> None:
        """Put `task` in flight on `worker`, whose clock is committed to now.
        A task with generated tokens first pays their prefill recompute."""
        worker.inflight[task.sid] = task
        prefill = task.generated_len(task.done) * self.cost.prefill_per_token
        if prefill > 0:
            task.v_start = math.inf
            task.ready_at = self.now + prefill
            worker.prefilling.append(task)
        else:
            task.v_start = worker.v - task.done

    def _reschedule(self, worker: _Worker) -> None:
        worker.sched_version += 1
        if not worker.inflight:
            return
        rate = self._t_iter(worker)
        v_end = min(task.v_start + task.total_iters for task in worker.inflight.values())
        when = worker.last_advance + max(0.0, v_end - worker.v) * rate
        # Timed from `ready_at` and never before it, so that the commit at
        # `when` sees the prefill end even when no iterations are left.
        for task in worker.prefilling:
            when = min(when, task.ready_at + max(0.0, task.total_iters - task.done) * rate)
        self._push(when, "completion", (worker.wid, worker.sched_version))

    # -- worker lifecycle -------------------------------------------------------

    def _weights_available_at(self, step: int) -> float:
        # Colocated step 1 and pipelined steps 1-2 roll out the initial weights.
        first_trained = 2 if self.policy.name == "colocated" else 3
        if step < first_trained:
            return 0.0
        return self.weight_avail.get(step - 1, math.inf)

    def _try_start(self, worker: _Worker, step: int) -> None:
        if step > self.steps:
            return
        rec = self._ensure_plan(step)
        avail = self._weights_available_at(step)
        if math.isinf(avail):
            # Version not published yet; its train_done will wake us.
            self.weight_waiters.setdefault(step - 1, []).append((worker.wid, step))
            return
        start = max(worker.free_at, avail, self.now)
        if start > self.now + _EPS:
            self._push(start, "start", (worker.wid, step))
            return
        worker.step = step
        worker.v = 0.0
        worker.last_advance = self.now
        worker.inflight = {t.sid: t for t in rec.shares[worker.wid]}
        for task in rec.carry_in:
            if task.worker == worker.wid:
                self._join(worker, task)
        if worker.inflight:
            self._open_share(worker)
            self._reschedule(worker)
        else:
            self._finish_step_share(worker)

    def _open_share(self, worker: _Worker) -> None:
        if not worker.share_open:
            worker.share_open = True
            self.events.append({"kind": "share_start", "seq": self._next_seq(),
                                "step": worker.step, "time": self.now, "worker": worker.wid})

    def _close_share(self, worker: _Worker) -> None:
        if worker.share_open:
            worker.share_open = False
            self.events.append({"kind": "share_end", "seq": self._next_seq(),
                                "step": worker.step, "time": self.now, "worker": worker.wid})

    def _finish_step_share(self, worker: _Worker) -> None:
        self._close_share(worker)
        worker.free_at = max(worker.free_at, self.now)
        if worker.step + 1 <= self.steps:
            self._push(self.now, "start", (worker.wid, worker.step + 1))
        if self.policy.name == "colocated":
            self._push(self.now, "train_check", (worker.step,))

    # -- event handlers ----------------------------------------------------------

    def _on_completion(self, wid: int, sched_version: int) -> None:
        worker = self.workers[wid]
        if sched_version != worker.sched_version:
            return
        self._advance_worker(worker, self.now)
        rec = self.step[worker.step]
        v = worker.v
        finished = sorted(sid for sid, task in worker.inflight.items()
                          if task.v_start + task.total_iters - v <= _EPS)
        for sid in finished:
            task = worker.inflight.pop(sid)
            if task.group is not None:
                rec.group_completed[task.group] = rec.group_completed.get(task.group, 0) + 1
            self.events.append({
                "continuation_version": task.continuation_version,
                "iterations": task.total_iters, "kind": "rollout_finish",
                "migrated": task.migrated, "sample": sid, "scheduled_step": task.epoch,
                "seq": self._next_seq(), "step": worker.step, "time": self.now,
                "tokens": task.tokens_len, "weight_version": task.weight_version,
                "worker": wid,
            })
            self._queue_reward(sid, worker.step)
        if finished and rec.plan.groups is not None and self.policy.migration:
            self._check_migrations(rec)
        if worker.inflight:
            self._reschedule(worker)
        elif worker.share_open:
            # Skipped when a migration made by this check already drained the
            # worker and closed its share, which also pushed its next start.
            self._finish_step_share(worker)

    def _queue_reward(self, sid: str, attr_step: int) -> None:
        free_t, ridx = heapq.heappop(self.reward_free)
        start = max(self.now, free_t)
        done = start + self.cost.reward_time
        heapq.heappush(self.reward_free, (done, ridx))
        self._push(done, "reward_done", (sid, attr_step, start))

    def _check_migrations(self, rec: _Step) -> None:
        """Migrate the stragglers of every group still rolling out this step.

        Only a rollout in its group's `stragglers`, longer than beta times
        the group's longest history length, can pass `migration_decision`'s
        length test: a rollout never generates more than its length, and
        every other one a group runs is a migrant, which never moves again.
        The lists are walked in group order, each by (worker, sid). A group
        is tested for its last ALPHA_PCT% (`in_straggler_tail`) once, when
        its scan begins: it can leave its tail during a check, by receiving a
        migrant before its own scan. A rollout that has migrated, or is not
        in its worker's `inflight`, is skipped but stays listed: one whose
        worker has not started the step yet has still to run, and one that
        finished never returns. Progress is read off each worker's clock and
        nothing is committed here; a migration commits the two workers whose
        batches it changes.

        The groups' loads, each group's mean in-flight batch over its workers
        still rolling out the step, are taken at the first live candidate,
        before any migration in the check: `migration_decision` reads them
        only for an intra-step candidate, and most checks have none.
        """
        beta, groups = rec.plan.beta, rec.plan.groups
        completed, total = rec.group_completed, rec.group_total
        n_groups = self.cluster.n_groups
        loads = None
        for g, stragglers in rec.stragglers.items():
            if not in_straggler_tail(completed.get(g, 0), total.get(g, 0)):
                continue
            for task in stragglers:
                if task.migrated:
                    continue
                worker = self.workers[task.worker]
                if task.sid not in worker.inflight:
                    continue
                v = worker.v + (self.now - worker.last_advance) / self._t_iter(worker)
                # A rollout that has run all its iterations is finished,
                # though its completion may not be handled yet (a tie with
                # this worker's): it never migrates.
                if task.v_start + task.total_iters - v <= _EPS:
                    continue
                if loads is None:
                    loads = self._group_loads(rec)
                decision = migration_decision(
                    groups[g], task.generated_len(v - task.v_start), completed.get(g, 0),
                    total.get(g, 0), beta, n_groups, loads,
                )
                if not decision.migrates:
                    continue
                if decision.kind == "intra_step":
                    self._migrate_intra(rec, worker, task, decision.target_group)
                elif rec.number < self.steps:
                    self._migrate_inter(rec, worker, task)

    def _group_loads(self, rec: _Step) -> dict[int, float]:
        loads = {}
        for g, wids in rec.group_workers.items():
            batches = [len(self.workers[w].inflight) for w in wids
                       if self.workers[w].step == rec.number and self.workers[w].inflight]
            if batches:
                loads[g] = sum(batches) / len(batches)
        return loads

    def _detach(self, source: _Worker, task: _Task) -> None:
        """Take a decoding `task` off `source`, keeping its progress in `done`."""
        self._advance_worker(source, self.now)
        del source.inflight[task.sid]
        task.done = source.v - task.v_start

    def _migrate_intra(self, rec: _Step, source: _Worker, task: _Task,
                       target_group: int) -> None:
        candidates = [
            self.workers[wid] for wid in rec.group_workers[target_group]
            if self.workers[wid].step == rec.number and self.workers[wid].inflight
        ]
        if not candidates:
            return
        target = min(candidates, key=lambda w: (len(w.inflight), w.wid))
        self._detach(source, task)
        generated = task.generated_len(task.done)
        self._advance_worker(target, self.now)
        self._join(target, task)
        task.migrated = True
        old_group = task.group
        task.group = target_group
        task.worker = target.wid
        rec.group_total[old_group] -= 1
        rec.group_total[target_group] += 1
        self.events.append({
            "from_group": old_group, "from_worker": source.wid, "generated": generated,
            "kind": "migration", "migration_kind": "intra_step", "sample": task.sid,
            "seq": self._next_seq(), "time": self.now,
            "to_group": target_group, "to_worker": target.wid,
        })
        self._reschedule(target)
        if source.inflight:
            self._reschedule(source)
        else:
            self._finish_step_share(source)

    def _migrate_inter(self, rec: _Step, source: _Worker, task: _Task) -> None:
        nxt = self.step[rec.number + 1]
        if nxt.plan is not None and not self._carry_targets(nxt, task)[1]:
            return  # no worker could resume it next step: it finishes where it is
        self._detach(source, task)
        generated = task.generated_len(task.done)
        task.migrated = True
        task.continuation_version = rec.number
        rec.group_total[task.group] -= 1
        task.worker = None
        rec.expected -= 1
        nxt.expected += 1
        self.events.append({
            "from_group": task.group, "from_worker": source.wid, "generated": generated,
            "kind": "migration", "migration_kind": "inter_step", "sample": task.sid,
            "seq": self._next_seq(), "time": self.now, "to_step": nxt.number,
        })
        nxt.carry_in.append(task)
        if nxt.plan is not None:
            self._bind_carry(nxt, task)
        self._push(self.now, "train_check", (rec.number,))
        if source.inflight:
            self._reschedule(source)
        else:
            self._finish_step_share(source)

    def _on_reward_done(self, sid: str, attr_step: int, start: float) -> None:
        # A sample rewarded after its step's train started counts toward the
        # next step still accepting samples, if there is one.
        step = attr_step
        while self.step[step].train_started and step < self.steps:
            step += 1
        rec = self.step[step]
        counted = not rec.train_started
        self.events.append({
            "buffered_for": step if counted and step != attr_step else None,
            "kind": "reward_done", "sample": sid, "seq": self._next_seq(), "start": start,
            "step": attr_step, "time": self.now,
        })
        if counted:
            rec.rewarded += 1
            self._push(self.now, "train_check", (step,))

    def _on_train_check(self, step: int) -> None:
        if step > self.steps:
            return
        rec = self.step[step]
        if rec.train_started or rec.plan is None:
            return
        if step > 1 and not self.step[step - 1].train_started:
            return  # train jobs run in step order
        # Oversampling trains once that share of the step's samples is short.
        threshold = max(1, math.ceil(rec.expected * (1.0 - self.policy.oversample_pct / 100.0)))
        if rec.rewarded < threshold:
            return
        if self.policy.name == "colocated":
            self._start_colocated_train(rec)
        else:
            start = max(self.now, self.train_free)
            duration = self.cost.t_train(rec.rewarded)
            rec.train_started = True
            self.train_free = start + duration
            self._push(start + duration, "train_done", (step, start, None))

    def _start_colocated_train(self, rec: _Step) -> None:
        # Strict alternation: every worker must have drained this step first.
        # Round-robin steps never migrate, so no carry-in can still be unbound.
        for worker in self.workers:
            if worker.step < rec.number or worker.inflight:
                return
        rec.train_started = True
        duration = self.cost.t_train(rec.rewarded)
        switch = self.cost.context_switch_frac * duration
        start = self.now
        # Every worker switches to training, trains, and switches back.
        switch_span = [start, start + 2 * switch + duration]
        for worker in self.workers:
            self._close_share(worker)
            worker.free_at = switch_span[1]
        self._push(start + switch + duration, "train_done",
                   (rec.number, start + switch, switch_span))

    def _on_train_done(self, step: int, start: float, switch: list[float] | None) -> None:
        duration = self.now - start
        self.last_train_duration = duration
        rec = self.step[step]
        rec.trained = True
        # Weights trained on step k are current for step k+1 under colocated
        # alternation and for step k+2 in the overlapped pipeline; version v
        # is the one step v+1 rolls out under.
        if self.policy.name == "colocated":
            version, avail = step, self.now
        else:
            version, avail = step + 1, self.now + self.cluster.weight_propagation_delay
        self.weight_avail[version] = avail
        self.events.append({
            "batch": rec.rewarded, "duration": duration, "kind": "train_done",
            "publishes_version": version, "seq": self._next_seq(), "start": start,
            "step": step, "switch": switch, "time": self.now,
        })
        self.events.append({
            "available_at": avail, "kind": "weight_update", "seq": self._next_seq(),
            "time": self.now, "trained_on_step": step, "version": version,
        })
        for wid, wait_step in self.weight_waiters.pop(version, []):
            self._push(avail, "start", (wid, wait_step))
        self._push(self.now, "train_check", (step + 1,))
        if self.policy.name == "colocated":
            for worker in self.workers:
                self._push(worker.free_at, "start", (worker.wid, step + 1))

    # -- main loop ----------------------------------------------------------------

    def run(self) -> SimResult:
        if self.policy.speculation:
            self.replayed = histospec(self.trace)
        for worker in self.workers:
            self._push(0.0, "start", (worker.wid, 1))
        while self._heap:
            time, _seq, kind, data = heapq.heappop(self._heap)
            self.now = max(self.now, time)
            if kind == "start":
                wid, step = data
                worker = self.workers[wid]
                if worker.step >= step or worker.inflight:
                    continue
                if worker.step == step - 1:
                    self._try_start(worker, step)
            elif kind == "completion":
                self._on_completion(*data)
            elif kind == "reward_done":
                self._on_reward_done(*data)
            elif kind == "train_check":
                self._on_train_check(*data)
            elif kind == "train_done":
                self._on_train_done(*data)
        return self._finalize()

    def _check_drained(self) -> None:
        finishes = Counter(e["sample"] for e in self.events if e["kind"] == "rollout_finish")
        problems = []
        scheduled = {task.sid for rec in self.step.values()
                     for share in rec.shares.values() for task in share}
        unfinished = sorted(sid for sid in scheduled if finishes[sid] != 1)
        if unfinished:
            problems.append(f"{len(unfinished)} samples not finished exactly once "
                            f"(first: {', '.join(unfinished[:5])})")
        untrained = [k for k, rec in self.step.items() if not rec.trained]
        if untrained:
            problems.append(f"steps never trained: {untrained}")
        waiting = {v: w for v, w in sorted(self.weight_waiters.items()) if w}
        if waiting:
            problems.append(f"workers still waiting for weights: {waiting}")
        if problems:
            raise SimulationStalledError(
                f"{self.policy.name} run stalled at t={self.now:.6f}: " + "; ".join(problems))

    def _finalize(self) -> SimResult:
        self._check_drained()
        self.events.append({"kind": "run_end", "rollout_workers": len(self.workers),
                            "seq": self._next_seq(), "time": self.now})
        return derive(self.events)


def run(trace: Trace | list[Response], cluster: ClusterSpec, policy: Policy,
        cost: CostConfig | None = None) -> SimResult:
    """Simulate the full pipeline over the trace; deterministic per inputs."""
    if not isinstance(trace, Trace):
        trace = Trace(trace)
    sim = _Simulation(trace, cluster, policy, cost or CostConfig())
    return sim.run()
